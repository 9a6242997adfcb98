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

theta is canonicalized modulo pi at construction; the physics depends only on
the class theta + pi*Z, with eigenfunctions flipping sign between classes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .special import (
    _LOG_HUGE,
    _LOG_TINY,
    _pi_factors,
    _sinh_ratio,
    bound_state_exponent,
    reduce_theta,
    theta_kappa,
)


@dataclass(frozen=True)
class ExtensionParams:
    """One radial problem: order kappa and extension angle theta.

    theta is ignored whenever |kappa| >= 1 (no boundary condition to choose).
    """

    kappa: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.theta)):
            raise DomainError("kappa and theta must be finite")

    @property
    def theta_mod_pi(self) -> float:
        return reduce_theta(self.theta)[0]

    @property
    def theta_sign(self) -> int:
        """(-1)**n for theta = theta_mod_pi + n*pi; sign of the eigenfunctions."""
        return -1 if reduce_theta(self.theta)[1] % 2 else 1

    @property
    def needs_theta(self) -> bool:
        return abs(self.kappa) < 1.0


@dataclass(frozen=True)
class SpectralMeasure:
    """Absolutely continuous density on E >= 0 plus at most one atom at E < 0."""

    density: Callable[[np.ndarray], np.ndarray]
    atoms: tuple[tuple[float, float], ...] = ()  # (energy, weight), energy < 0


@dataclass(frozen=True)
class MeasureQuadrature:
    """Discretization of a SpectralMeasure: the spectral grid.

    e_nodes and e_weights are the density-weighted quadrature rule on
    [0, E_max] and atoms the (energy, weight) point masses; nodes and weights
    join them into one grid, the E nodes first, then the atom energies."""

    e_nodes: np.ndarray
    e_weights: np.ndarray
    atoms: tuple[tuple[float, float], ...] = ()

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return self._join(self.e_nodes, 0)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return self._join(self.e_weights, 1)

    def _join(self, continuum: np.ndarray, column: int) -> np.ndarray:
        atoms = np.reshape(np.asarray(self.atoms, dtype=float), (-1, 2))
        joined = np.concatenate((np.asarray(continuum, dtype=float), atoms[:, column]))
        joined.setflags(write=False)
        return joined


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
    energy = bound_state_energy(params)
    if energy is None:
        return None
    nu, t = abs(params.kappa), params.theta_mod_pi
    half = theta_kappa(nu)
    sinc = _pi_factors(nu)[3]
    weight = math.pi**2 * sinc * abs(energy) / (2.0 * math.sin(t + half) * math.sin(t - half))
    if not math.isfinite(weight):
        raise DomainError(f"atom weight of kappa={params.kappa}, theta={params.theta} overflows")
    return weight


def ac_density(params: ExtensionParams, E) -> float | np.ndarray:
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
    nu = abs(params.kappa)
    scalar = np.ndim(E) == 0
    E = np.atleast_1d(np.asarray(E, dtype=float))
    if not np.isfinite(E).all():
        raise DomainError("ac_density: the energy must be finite (not NaN or infinite)")
    out = np.zeros_like(E)
    pos = E > 0.0
    if nu >= 1.0:
        out[pos] = 0.5 * E[pos] ** nu
    else:
        t, half = params.theta_mod_pi, theta_kappa(nu)
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


def spectral_measure(params: ExtensionParams) -> SpectralMeasure:
    """Assemble density plus bound-state atom for the given extension."""
    atoms: tuple[tuple[float, float], ...] = ()
    if abs(params.kappa) < 1.0 and has_bound_state(params):
        atoms = ((bound_state_energy(params), atom_weight(params)),)
    return SpectralMeasure(density=lambda E: ac_density(params, E), atoms=atoms)


@functools.lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-n rule on [-1, 1], computed once per n and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
    """
    if not 0.0 <= E_max < math.inf:
        raise DomainError(f"E_max must be finite and >= 0, got {E_max!r}")
    if not isinstance(node_budget, (int, np.integer)):
        raise DomainError(f"node_budget must be an integer, got {node_budget!r}")
    if node_budget < 16:
        raise DomainError("node_budget must be at least 16")
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

