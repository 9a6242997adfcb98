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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EDGE_POWER = 3  # the order to which a GaussianBump vanishes at a and b
_CUTOFF = 6.5  # a GaussianProfile's support half-width, in widths


@dataclass(frozen=True)
class GaussianBump:
    """((r-a)(b-r))**3 * exp(-((r-center)/width)**2) on [a, b], 0 outside."""

    a: float
    b: float
    center: float | None = None
    width: float | None = None

    def _params(self):
        c = self.center if self.center is not None else 0.5 * (self.a + self.b)
        w = self.width if self.width is not None else 0.2 * (self.b - self.a)
        return c, w

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        c, w = self._params()
        k = _EDGE_POWER
        inside = (r >= self.a) & (r <= self.b)
        poly = (r - self.a) ** k * (self.b - r) ** k
        return np.where(inside, poly * np.exp(-(((r - c) / w) ** 2)), 0.0)

    def derivative2(self, r):
        """Exact second derivative (product rule on polynomial * Gaussian)."""
        r = np.asarray(r, dtype=float)
        c, w = self._params()
        k = _EDGE_POWER
        inside = (r >= self.a) & (r <= self.b)
        g = np.exp(-(((r - c) / w) ** 2))
        dg = g * (-2.0 * (r - c) / w**2)
        d2g = g * (4.0 * (r - c) ** 2 / w**4 - 2.0 / w**2)
        ra, br = r - self.a, self.b - r
        p = ra**k * br**k
        dp = k * ra ** (k - 1) * br**k - k * ra**k * br ** (k - 1)
        d2p = (
            k * (k - 1) * ra ** (k - 2) * br**k
            - 2.0 * k * k * ra ** (k - 1) * br ** (k - 1)
            + k * (k - 1) * ra**k * br ** (k - 2)
        )
        return np.where(inside, d2p * g + 2.0 * dp * dg + p * d2g, 0.0)


@dataclass(frozen=True)
class GaussianProfile:
    """Plain Gaussian exp(-((x-center)/width)**2); effectively supported on
    [center - 6.5 width, center + 6.5 width]."""

    center: float = 0.0
    width: float = 0.7

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(((x - self.center) / self.width) ** 2))

    def derivative2(self, x):
        x = np.asarray(x, dtype=float)
        t = (x - self.center) / self.width
        return self(x) * (4.0 * t * t - 2.0) / self.width**2

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
