"""Spectral measures of the radial extensions and their discretization.

For |kappa| >= 1 the unique self-adjoint realization has the purely
absolutely continuous measure (1/2) E**|kappa| dE on E >= 0.  For |kappa| < 1
each extension angle theta produces a density on E >= 0 plus, on the interior
branch of theta mod pi, a single negative-energy atom (the bound state).

The extension family is even in kappa (u_theta does not change under
kappa -> -kappa at fixed theta), so the density, E_b and the atom mass are
computed on nu = |kappa| and agree bitwise for both signs.  Each has one
form, cancellation-free as nu -> 0 and as nu -> 1, with its factors of pi nu
from special._pi_factors; near an integer flux one critical channel has
nu near 0 and the other nu near 1.  Against 60-digit mpmath
(tests/test_measures.py) the density is within 3.4e-15 relative for |kappa|
from 1e-12 to 1 - 1e-9, and E_b and the mass within a few ulps times their
condition number in theta.

discretize turns a measure into one spectral grid, a MeasureQuadrature: the
Gauss nodes of the density on [0, E_max], then the atom as one more node
whose weight is its mass.  Every sum over the spectrum is a sum over that
grid.  Close to either end of the bound-state branch E_b leaves the double
range; bound_state_energy then raises DomainError rather than returning an
infinite or zero energy.

A measure, and so its grid, reads only the extension class: nu = |kappa|
and, for nu < 1, t = theta mod pi.  ExtensionParams takes that class and
its kernel from special._kernel_terms once, when it is built (theta_mod_pi,
theta_sign, the kernel's (cu, cw) and its key, the bits of (nu, t, parity),
are fields), spectral_measure records it in the SpectralMeasure, and
discretize caches one read-only grid per (nu, t, E_max, node_budget), keyed
by their bits: kappa and -kappa, and theta and theta + pi, share one grid,
built once, and kappa and -kappa one kernel.

theta is reduced modulo the double math.pi exactly (special.reduce_theta,
inside special._kernel_terms); the physics depends only on the class
theta + pi*Z, with eigenfunctions flipping sign between classes.  |theta|
past special.THETA_BOUND raises DomainError when the ExtensionParams is
built (for |kappa| < 1), since the parity of its multiple of pi is no
longer known.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .special import (
    _LOG_HUGE,
    _LOG_TINY,
    _kernel_terms,
    _pi_factors,
    _sinh_ratio,
    bound_state_exponent,
    theta_kappa,
)


@dataclass(frozen=True)
class ExtensionParams:
    """One radial problem: order kappa and extension angle theta.

    theta is ignored whenever |kappa| >= 1 (no boundary condition to choose).
    The extension class and its kernel are formed once, at construction, by
    special._kernel_terms: nu = |kappa|, needs_theta = nu < 1 and, for
    nu < 1, theta_mod_pi = t and theta_sign = (-1)**n for theta = t + n*pi
    (|theta| past special.THETA_BOUND raises DomainError here), with the
    kernel cu u(nu) + cw w(nu); t = 0, the sign 1 and the kernel u(nu) for
    nu >= 1.  key holds the bits of what a kernel of the extension reads,
    (nu, t, n mod 2): kappa and -kappa share it.
    """

    kappa: float
    theta: float = 0.0
    nu: float = field(init=False, repr=False, compare=False)
    needs_theta: bool = field(init=False, repr=False, compare=False)
    theta_mod_pi: float = field(init=False, repr=False, compare=False)
    theta_sign: int = field(init=False, repr=False, compare=False)
    cu: float = field(init=False, repr=False, compare=False)
    cw: float = field(init=False, repr=False, compare=False)
    key: tuple[bytes, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.theta)):
            raise DomainError("kappa and theta must be finite")
        nu, t, parity, cu, cw = _kernel_terms(self.kappa, self.theta)
        # frozen: the derived fields are written once, past __setattr__
        self.__dict__.update(nu=nu, needs_theta=nu < 1.0, theta_mod_pi=t,
                             theta_sign=-1 if parity else 1, cu=cu, cw=cw,
                             key=(struct.pack("3d", nu, t, parity),))


@dataclass(frozen=True)
class _CacheKey:
    bits: tuple[bytes, ...]  # everything the cached value reads, hashed and compared
    inputs: tuple = field(compare=False)  # the arguments to build it from


def _bits(*values) -> tuple[bytes, ...]:
    return tuple(np.asarray(v, dtype=float).tobytes() for v in values)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of a locked owner of array's values (array itself if
    it owns its data, else a copy): a view cannot be unlocked while its
    owner is locked, so what a cache hands out stays what it stored."""
    owner = array if array.base is None else array.copy()
    owner.setflags(write=False)
    return owner.view()


@dataclass(frozen=True)
class SpectralMeasure:
    """The spectral measure of one extension class: an absolutely continuous
    density on E >= 0 plus at most one atom at E < 0.

    The class is all the measure reads: nu = |kappa| and, for nu < 1,
    t = theta mod pi (t = 0 for nu >= 1, which has no theta).  Built by
    spectral_measure alone, which also supplies its (energy, weight) atoms."""

    nu: float
    t: float
    atoms: tuple[tuple[float, float], ...] = ()  # (energy, weight), energy < 0

    def density(self, E) -> float | np.ndarray:
        """Density of the absolutely continuous part at energy E (0 for E < 0).

        (1/2) E**nu for nu = |kappa| >= 1.  For nu < 1 it is (1/2) sin(pi nu)**2 / D,
        D = E**-nu A**2 - 2 cos(pi nu) A B + E**nu B**2, with A = sin(t + pi nu/2)
        and B = sin(t - pi nu/2); it is even in kappa, so it is computed on nu.
        With u = E**(nu/2) and R = (u - 1/u) / sin(pi nu) (special._sinh_ratio,
        ln(E)/pi at nu = 0), D / sin(pi nu)**2 is |u e^{it} - A R e^{i pi nu/2}|**2
        and also |e^{it}/u - B R e^{-i pi nu/2}|**2.  Rotated by e^{-it}, the first
        serves E < 1 and the second E >= 1, as X**2 + Y**2 with Y = A B R and
        X = u - A R cos(t - pi nu/2), or X = 1/u - B R cos(t + pi nu/2).  Nothing
        cancels as nu -> 0 or 1, nor where E**-nu A**2 or E**nu B**2 dominates D,
        and at E = 1 the density is exactly 1/2.  At E = 0 it is 0, except for the
        one extension with A = 0 exactly (nu = t = 0), whose density is 1/2
        everywhere.  A NaN or infinite energy raises DomainError.
        """
        nu = self.nu
        scalar = np.ndim(E) == 0
        E = np.atleast_1d(np.asarray(E, dtype=float))
        if not np.isfinite(E).all():
            raise DomainError("ac_density: the energy must be finite (not NaN or infinite)")
        out = np.zeros_like(E)
        pos = E > 0.0
        if nu >= 1.0:
            out[pos] = 0.5 * E[pos] ** nu
        else:
            t, half = self.t, theta_kappa(nu)
            A, B = math.sin(t + half), math.sin(t - half)
            ell = np.log(E[pos])
            R = _sinh_ratio(nu, 0.5 * ell)
            X = np.exp(-0.5 * nu * np.abs(ell))
            X -= R * np.where(ell >= 0.0, B * math.cos(t + half), A * math.cos(t - half))
            Y = R * (A * B)
            out[pos] = 0.5 / (X * X + Y * Y)
            if A == 0.0:
                out[E == 0.0] = 0.5
        return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class MeasureQuadrature:
    """Discretization of a SpectralMeasure: the spectral grid.

    e_nodes and e_weights are the density-weighted quadrature rule on
    [0, E_max] and atoms the (energy, weight) point masses; nodes and weights
    join them into one grid, the E nodes first, then the atom energies.  The
    arrays are read-only copies of those given (e_nodes and e_weights are views
    of nodes and weights), and key holds the bits of the E nodes and atom
    energies, what a kernel over the grid reads, formed once per grid.  Two
    grids compare, and hash, by identity."""

    e_nodes: np.ndarray
    e_weights: np.ndarray
    atoms: tuple[tuple[float, float], ...] = ()
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    key: tuple[bytes, ...] = field(init=False, repr=False)

    def __post_init__(self):
        atoms = np.reshape(np.asarray(self.atoms, dtype=float), (-1, 2))
        for name, column in (("nodes", 0), ("weights", 1)):
            continuum = np.asarray(getattr(self, "e_" + name), dtype=float)
            joined = _read_only(np.concatenate((continuum, atoms[:, column])))
            object.__setattr__(self, name, joined)
            object.__setattr__(self, "e_" + name, joined[: len(continuum)])
        object.__setattr__(self, "key", _bits(self.e_nodes, atoms[:, 0]))


def _require_extension_family(kappa: float, what: str) -> None:
    if abs(kappa) >= 1.0:
        raise DomainError(
            f"{what} is only defined for the extension family |kappa| < 1 "
            f"(got kappa={kappa}); |kappa| >= 1 has no bound state and no theta"
        )


def has_bound_state(params: ExtensionParams) -> bool:
    """True iff theta mod pi lies strictly inside (|pi*kappa/2|, pi - |pi*kappa/2|)."""
    _require_extension_family(params.kappa, "has_bound_state")
    return bound_state_exponent(params.kappa, params.theta_mod_pi) is not None


def bound_state_energy(params: ExtensionParams) -> float | None:
    """Energy of the atom, -exp(special.bound_state_exponent), or None on the
    atom-free branch.  Near the ends of the branch |E| leaves the range of
    normal doubles (above ~1.8e308 near |tk|, below ~2.2e-308 near pi - |tk|);
    that raises DomainError.
    """
    kappa = params.kappa
    _require_extension_family(kappa, "bound_state_energy")
    exponent = bound_state_exponent(kappa, params.theta_mod_pi)
    if exponent is None:
        return None
    if not _LOG_TINY <= exponent <= _LOG_HUGE:
        raise DomainError(
            f"bound-state energy -exp({exponent:.6g}) of kappa={kappa}, theta={params.theta} "
            "leaves the double range: theta is too close to an end of the bound-state branch"
        )
    return -math.exp(exponent)


def atom_weight(params: ExtensionParams) -> float | None:
    """Mass of the Dirac atom, or None on the atom-free branch:
    pi**2 sinc(nu) |E_b| / (2 A B), with nu = |kappa|, A = sin(t + pi nu/2) and
    B = sin(t - pi nu/2), even in kappa; pi**2 |E_b| / (2 sin(t)**2) at nu = 0."""
    _require_extension_family(params.kappa, "atom_weight")
    atoms = spectral_measure(params).atoms
    return atoms[0][1] if atoms else None


def ac_density(params: ExtensionParams, E) -> float | np.ndarray:
    """Density of the absolutely continuous part at energy E: the density of
    the extension's class (SpectralMeasure.density)."""
    return SpectralMeasure(params.nu, params.theta_mod_pi).density(E)


def spectral_measure(params: ExtensionParams) -> SpectralMeasure:
    """Assemble density plus bound-state atom (E_b, atom_weight) for the given
    extension, from one evaluation of E_b."""
    nu, t = params.nu, params.theta_mod_pi
    energy = bound_state_energy(params) if params.needs_theta else None
    if energy is None:
        return SpectralMeasure(nu, t)
    half = theta_kappa(nu)
    sinc = _pi_factors(nu)[3]
    weight = math.pi**2 * sinc * abs(energy) / (2.0 * math.sin(t + half) * math.sin(t - half))
    if not math.isfinite(weight):
        raise DomainError(f"atom weight of kappa={params.kappa}, theta={params.theta} overflows")
    return SpectralMeasure(nu, t, ((energy, weight),))


@functools.lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-n rule on [-1, 1], computed once per n and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(x), _read_only(w)


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [a, b], as fresh arrays."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


#: Number of geometric grading levels toward E = 0 used by discretize.
GRADING_LEVELS = 12


def discretize(
    measure: SpectralMeasure, E_max: float, node_budget: int = 16
) -> MeasureQuadrature:
    """Composite Gauss-Legendre rule for the continuous part on [0, E_max].

    Panels are graded geometrically toward 0 ([0, E_max] * 4**-j) so that the
    E**(+-kappa) and log E endpoint behaviors are absorbed without
    measure-specific rules.  node_budget is the Gauss order per panel.  All
    panels are mapped from the reference rule in one broadcast, one row per
    panel from E = 0 upward, and the density is evaluated once over all nodes.

    The grid is cached, keyed bit for bit by what it reads: the measure's
    class (nu, t), E_max and node_budget; so kappa and -kappa share one grid,
    as do theta and theta + pi, and E_max 40 is 40.0.  A hit returns the same
    read-only MeasureQuadrature.  E_max and node_budget are checked first, so
    errors are never stored."""
    if not 0.0 <= E_max < math.inf:
        raise DomainError(f"E_max must be finite and >= 0, got {E_max!r}")
    if not isinstance(node_budget, (int, np.integer)):
        raise DomainError(f"node_budget must be an integer, got {node_budget!r}")
    if node_budget < 16:
        raise DomainError("node_budget must be at least 16")
    read = (measure.nu, measure.t, E_max, node_budget)  # one array, one bytes object
    return _grid(_CacheKey(_bits(read), (measure, E_max, node_budget)))


@functools.lru_cache(maxsize=64)
def _grid(key: _CacheKey) -> MeasureQuadrature:
    """One extension class's spectral grid, about 10 KB at node_budget 32
    (nodes, weights and key, 417 doubles each).  Working sets measured in
    grids: 11 (the radial_sweep benchmark), 2 (expansion_3d), 19 (its
    trimmed verify suite) and 28 (the default suite); a full_forward reads
    none, its channel plan holding its own: 64 kept, under 1 MB."""
    measure, E_max, node_budget = key.inputs
    if E_max == 0.0:
        empty = np.zeros(0)
        return MeasureQuadrature(empty, empty, measure.atoms)
    hi = E_max * 4.0 ** -np.arange(GRADING_LEVELS, -1.0, -1.0)
    lo = np.concatenate(([0.0], hi[:-1]))
    mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
    x, w = _leggauss(node_budget)
    e_nodes = (mid + half * x).ravel()
    e_weights = (half * w).ravel() * measure.density(e_nodes)
    return MeasureQuadrature(e_nodes, e_weights, measure.atoms)
