"""Analytic test functions with closed-form derivatives.

The transform and diagonalization tests need compactly supported profiles
whose second derivatives are exact; everything here is a Gaussian times a
polynomial edge factor vanishing to high order at the support boundary, so
truncation at [a, b] costs nothing measurable.

The edge order (_EDGE_POWER, 3) and the default width (0.2 of the support
length) balance the two competing spectral tails of the profile -- the
Gaussian tail, which grows as the bump narrows, and the
boundary-derivative-jump tail, which grows as it widens -- so that roundtrip
synthesis truncated at the largest representable energy stays below 1e-6 on
supports like [0.5, 3].

A profile is sampled once per grid: its value and second derivative are
formed together, from shared subexpressions, and kept in one cache keyed by
the profile's class, its resolved parameters and the bits and shape of the
points.  A call and derivative2 return the cached arrays, read-only, so a
caller that needs to write copies them.  Every check transforms the same
profiles on the same r, x3 and E grids, and so reads them from the cache.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .measures import _read_only

_EDGE_POWER = 3  # the order to which a GaussianBump vanishes at a and b
_CUTOFF = 6.5  # a GaussianProfile's support half-width, in widths


class _Sampled:
    """A closed-form profile: the subclass gives its resolved parameters,
    _floats(), and _evaluate(params, x) -> (value, second derivative) over
    those floats and float points x.  key, formed once per profile, is its
    class and the bits of its parameters."""

    def __post_init__(self):
        params = self._floats()
        # frozen: the key is written once, past __setattr__
        self.__dict__["key"] = (type(self), struct.pack(f"{len(params)}d", *params))

    def __call__(self, x):
        return self._sample(x)[0]

    def derivative2(self, x):
        """Exact second derivative, formed with the value."""
        return self._sample(x)[1]

    def _sample(self, x) -> tuple:
        """(value, second derivative) at x, from the cache."""
        x = np.asarray(x, dtype=float)
        return _sampled(self.key, x.tobytes(), x.shape)


@functools.lru_cache(maxsize=16)
def _sampled(key: tuple, bits: bytes, shape: tuple) -> tuple:
    """One (profile, grid)'s value and second derivative, read-only, formed
    from the key alone: the profile's class and parameters, and the points
    rebuilt from their bits and shape.  6.7 KB at 417 points, with the
    points' bits about 10 KB.  Working sets measured in (profile, grid)
    pairs: 1 (the radial_sweep benchmark), 3 (expansion_3d), 9 (its trimmed
    verify suite) and 9 (the default suite): 16 kept, under 170 KB on
    417-point grids.  A scalar point gives what numpy gives: a 0-d array or
    a numpy float."""
    cls, packed = key
    params = struct.unpack(f"{len(packed) // 8}d", packed)
    x = np.frombuffer(bits).reshape(shape)
    return tuple(
        _read_only(v) if isinstance(v, np.ndarray) else v for v in cls._evaluate(params, x)
    )


@dataclass(frozen=True)
class GaussianBump(_Sampled):
    """((r-a)(b-r))**3 * exp(-((r-center)/width)**2) on [a, b], 0 outside."""

    a: float
    b: float
    center: float | None = None
    width: float | None = None

    def _floats(self):
        """(a, b, center, width), the default center and width resolved."""
        c = self.center if self.center is not None else 0.5 * (self.a + self.b)
        w = self.width if self.width is not None else 0.2 * (self.b - self.a)
        return (self.a, self.b, c, w)

    @staticmethod
    def _evaluate(params, r):
        """The value p g and the second derivative by the product rule on the
        edge polynomial p and the Gaussian g."""
        a, b, c, w = params
        k = _EDGE_POWER
        inside = (r >= a) & (r <= b)
        g = np.exp(-(((r - c) / w) ** 2))
        dg = g * (-2.0 * (r - c) / w**2)
        d2g = g * (4.0 * (r - c) ** 2 / w**4 - 2.0 / w**2)
        ra, br = r - a, b - r
        p = ra**k * br**k
        dp = k * ra ** (k - 1) * br**k - k * ra**k * br ** (k - 1)
        d2p = (
            k * (k - 1) * ra ** (k - 2) * br**k
            - 2.0 * k * k * ra ** (k - 1) * br ** (k - 1)
            + k * (k - 1) * ra**k * br ** (k - 2)
        )
        value = np.where(inside, p * g, 0.0)
        return value, np.where(inside, d2p * g + 2.0 * dp * dg + p * d2g, 0.0)


@dataclass(frozen=True)
class GaussianProfile(_Sampled):
    """Plain Gaussian exp(-((x-center)/width)**2); effectively supported on
    [center - 6.5 width, center + 6.5 width]."""

    center: float = 0.0
    width: float = 0.7

    def _floats(self):
        return (self.center, self.width)

    @staticmethod
    def _evaluate(params, x):
        center, width = params
        t = (x - center) / width
        value = np.exp(-(t**2))
        return value, value * (4.0 * t * t - 2.0) / width**2

    def fourier(self, p):
        """hat chi(p) = int chi(x) e^{-ipx} dx, exact for the full Gaussian."""
        p = np.asarray(p, dtype=float)
        w = self.width
        return (
            w
            * math.sqrt(math.pi)
            * np.exp(-(w * p / 2.0) ** 2)
            * np.exp(-1j * p * self.center)
        )

    @property
    def support(self):
        return (self.center - _CUTOFF * self.width, self.center + _CUTOFF * self.width)
