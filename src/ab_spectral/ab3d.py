"""Three-dimensional Aharonov-Bohm expansion assembled from radial channels.

A field on R^3 (minus the solenoid axis) decomposes into independent radial
problems labelled by channels s = (m, p): angular mode m and axial momentum p.
The channel of order kappa = m + phi carries the radial operator of
:mod:`ab_spectral.transform`; the finitely many critical channels with
|m + phi| < 1 additionally require an extension angle theta, supplied by a
:class:`ThetaSpec`.

The reduction of a field Phi to channel (m, p) is

    reduced(m, p | r) = (sqrt(r) / 2 pi) * int dx3 int dphi
                         Phi(r cos phi, r sin phi, x3) e^{-i p x3 - i m phi}

and the full forward map composes this reduction with the one-dimensional
eigenfunction transform per channel.  A 3D field hands the reduction its
exact factors: field.factors(r, x3) gives its angular mode m, radial factors
R (n_r, k) and axial factors X (k, n_x3), so that the field is
sum_k R_k(r) X_k(x3) e^{i m a} on the r and x3 nodes (k = 2 for H Phi).
SeparableField, FieldSum and a TransformedField of either have factors; a
field without them is a ConfigurationError.  A field of mode m lives in mode
m alone, so the angle integral is exact and no angle is sampled, and every
other mode's coefficients are exactly 0: a coefficient set stores the
blocks of mode m only, and a mode with no block is exactly 0.  One x3
matmul takes X to X_hat = X @ (e^{-i p x3} w3).T (k, n_p), and each block
of mode m is X_hat[:, group].T @ (K @ R_w).T: its extension's cached dense
kernel K meets only the k weighted radial factors R_w = sqrt(r) w_r R, and
the (n_r, n_modes, n_p) reduced array is never formed.  The channels of
mode m (its theta pieces, their extensions and spectral grids) and the
axial phases form the forward's channel plan, built once per (phi, m, m's
theta table, p nodes, x3 rule, E_max, node_budget) and cached; no other
mode is discretized, and a field of a mode outside |m| <= M_max is a
ConfigurationError.
Norms satisfy

    ||Phi||^2_{L2(R^3)} = sum_m int dp ||reduced(m, p)||^2_{L2(0, inf)}

which fixes every normalization used here.  Each channel's coefficients live
on the spectral grid of its measure (the E nodes, then the bound-state atom,
see MeasureQuadrature.nodes).  The diagonalized Hamiltonian acts by
multiplication with p^2 + E over that grid (p^2 + E_b on the atom), and the
rotation-translation symmetry G: (rotate by alpha, shift x3 by beta) acts on
coefficients as the phase e^{-i m alpha - i p beta}.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .measures import (
    ExtensionParams,
    MeasureQuadrature,
    discretize,
    gauss_legendre,
    spectral_measure,
)
from .special import radial_kernel
from .transform import (
    RadialFunction,
    _bits,
    _CacheKey,
    _interleaved,
    _read_only,
    kernel_matrix,
)


def critical_channels(phi: float) -> tuple[int, ...]:
    """Angular modes m with |kappa| < 1, kappa = channel_kappa(phi, m) as computed.

    One mode for integer phi, else two; a flux within rounding of an integer
    has one, because the other kappa rounds to +-1.  ConfigurationError for
    a non-finite phi.
    """
    if not math.isfinite(phi):
        raise ConfigurationError(f"the flux phi must be finite, got {phi}")
    base = -math.floor(phi)  # only base - 1 and base can satisfy |m + phi| < 1
    return tuple(m for m in (base - 1, base) if abs(channel_kappa(phi, m)) < 1.0)


class ChannelIndex(NamedTuple):
    """One channel s = (m, p)."""

    m: int
    p: float


def channel_kappa(phi: float, m: int) -> float:
    """Order of the radial problem in channel m: kappa = m + phi."""
    return m + phi


def channel_set(phi: float, M_max: int) -> list[tuple[int, float, bool]]:
    """(m, kappa, is_critical) for every m with |m| <= M_max.

    is_critical marks the channels where |kappa| < 1 and the extension angle
    theta selects the boundary condition.
    """
    critical = set(critical_channels(phi))
    return [
        (m, channel_kappa(phi, m), m in critical)
        for m in range(-M_max, M_max + 1)
    ]


@dataclass(frozen=True)
class PiecewiseTheta:
    """theta as a piecewise-constant function of p.

    values[i] applies on (breaks[i-1], breaks[i]]; values[-1] beyond the last
    break.  breaks must be finite and strictly increasing, values finite.
    """

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) + 1:
            raise ConfigurationError(
                "PiecewiseTheta needs exactly one more value than breakpoints"
            )
        if not all(map(math.isfinite, (*self.breaks, *self.values))):
            raise ConfigurationError("PiecewiseTheta breakpoints and values must be finite")
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ConfigurationError("PiecewiseTheta breakpoints must increase")

    def theta_at(self, p):
        """theta at p, a number or an array of p nodes (elementwise); DomainError
        for a non-finite p."""
        if not np.isfinite(p).all():
            raise DomainError(f"theta is only defined at a finite p, got p={p}")
        return np.asarray(self.values)[np.searchsorted(self.breaks, p, side="left")]


@dataclass(frozen=True)
class ThetaSpec:
    """Extension angles for the critical channels of flux parameter phi.

    entries maps each critical m (and only those) to either a constant theta
    or a :class:`PiecewiseTheta` table in p; a constant is stored as the
    one-piece table PiecewiseTheta((), (theta,)).
    """

    phi: float
    entries: Mapping[int, float | PiecewiseTheta]

    def __post_init__(self):
        expected = set(critical_channels(self.phi))
        got = set(self.entries)
        if got != expected:
            raise ConfigurationError(
                f"theta entries must cover exactly the critical channels "
                f"{sorted(expected)} of phi={self.phi}; got {sorted(got)}"
            )
        tables = {
            m: e if isinstance(e, PiecewiseTheta) else PiecewiseTheta((), (float(e),))
            for m, e in self.entries.items()
        }
        object.__setattr__(self, "entries", tables)

    @classmethod
    def constant(cls, phi: float, theta: float) -> "ThetaSpec":
        """Same theta for every critical channel."""
        return cls(phi, {m: theta for m in critical_channels(phi)})

    def theta_for(self, m: int, p: float) -> float:
        return float(self.entries[m].theta_at(p))  # KeyError on non-critical m, by design

    def shifted(self, delta: float) -> "ThetaSpec":
        """All angles shifted by delta (used by the theta + pi equivalence tests)."""
        return ThetaSpec(self.phi, {
            m: PiecewiseTheta(e.breaks, tuple(v + delta for v in e.values))
            for m, e in self.entries.items()
        })


def _check_rule(rule: str, nodes, weights, positive_nodes: bool = False) -> None:
    """ConfigurationError unless nodes and weights are 1-D arrays of one
    length, all finite, with positive weights (and positive nodes if asked)."""
    x, w = np.asarray(nodes), np.asarray(weights)
    if x.ndim != 1 or x.shape != w.shape or not np.all(
        np.isfinite(x) & np.isfinite(w) & (w > 0) & ((x > 0) | (not positive_nodes))
    ):
        raise ConfigurationError(
            f"the {rule} rule needs 1-D nodes and weights of one length, all finite, "
            f"with positive weights{' and nodes' if positive_nodes else ''}"
        )


def _radial_rule(r_rule) -> tuple[np.ndarray, np.ndarray]:
    """The r nodes and weights of r_rule = (nodes, weights) as float arrays;
    ConfigurationError unless they pass _check_rule with r > 0."""
    r, w = (np.asarray(a, dtype=float) for a in r_rule)
    _check_rule("r", r, w, positive_nodes=True)
    return r, w


@dataclass(frozen=True)
class ModeGrid:
    """Truncation of the channel sum/integral: |m| <= M_max, Gauss rule in p.

    ConfigurationError unless M_max is an integer >= 0 and the p rule is 1-D,
    finite and of positive weights."""

    M_max: int
    p_nodes: np.ndarray
    p_weights: np.ndarray

    def __post_init__(self):
        if not isinstance(self.M_max, (int, np.integer)) or self.M_max < 0:
            raise ConfigurationError(f"M_max must be an integer >= 0, got {self.M_max!r}")
        _check_rule("p", self.p_nodes, self.p_weights)

    @classmethod
    def build(cls, M_max: int, P_max: float, n_p: int = 64) -> "ModeGrid":
        p, w = gauss_legendre(-P_max, P_max, n_p)
        return cls(M_max, p, w)

    @property
    def modes(self) -> range:
        return range(-self.M_max, self.M_max + 1)


def _check_truncated(grid: ModeGrid, m: int) -> None:
    """ConfigurationError for an m outside grid.modes, whose channel the
    truncation dropped: its coefficients are unknown, not 0."""
    if m not in grid.modes:
        raise ConfigurationError(
            f"mode {m} is outside the truncation |m| <= M_max = {grid.M_max}"
        )


@dataclass(frozen=True)
class ReductionGrid:
    """Quadrature for the axial reduction integral: a Gauss-Legendre rule over
    the x3 support.  The angle integral needs none, as a field hands its
    exact mode.  ConfigurationError unless the x3 rule is 1-D, finite and of
    positive weights.
    """

    x3_nodes: np.ndarray
    x3_weights: np.ndarray

    def __post_init__(self):
        _check_rule("x3", self.x3_nodes, self.x3_weights)

    @classmethod
    def build(cls, x3_support: tuple[float, float], n_x3: int = 96):
        lo, hi = x3_support
        return cls(*gauss_legendre(lo, hi, n_x3))


# --------------------------------------------------------------------------
# Field families


class _OneMode:
    """A field of one angular mode and k separable terms:
    Phi(r cos a, r sin a, x3) = P(r, x3) e^{i m a} with P = sum_k R_k(r) X_k(x3),
    its mode m, profile _profile(r, x3) and factors(r, x3) given by the
    subclass.

    A call is the broadcast product P e^{i m a} over any shapes of r, angle and
    x3; factors hands the reduction (m, R, X) on 1-D r and x3 nodes instead:
    R_k(r_i), shape (len(r), k), and X_k(x3_l), shape (k, len(x3))."""

    def __call__(self, r, angle, x3):
        return self._profile(r, x3) * np.exp(1j * self.m * np.asarray(angle))


def _on_grid(f, x) -> np.ndarray:
    """f(x) broadcast to the shape of x: a factor may return a constant."""
    values = np.asarray(f(x))
    return values if values.shape == x.shape else np.broadcast_to(values, x.shape)


@dataclass(frozen=True)
class SeparableField(_OneMode):
    """Phi(r cos a, r sin a, x3) = r**-1/2 psi(r) chi(x3) e^{i m a}.

    Its channel reduction is exact: delta_{km} chi_hat(p) psi(r), which makes
    this the sharp test family for everything three-dimensional.  Its profile
    is r**-1/2 psi chi, one term: R = r**-1/2 psi and X = chi.
    ConfigurationError unless m is an integer: the field must be
    single-valued on R^3.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    chi: Callable[[np.ndarray], np.ndarray]
    m: int
    r_support: tuple[float, float]
    x3_support: tuple[float, float]
    psi_d2: Callable[[np.ndarray], np.ndarray] | None = None
    chi_d2: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)):
            raise ConfigurationError(f"the angular mode m must be an integer, got {self.m!r}")

    def _profile(self, r, x3):
        r = np.asarray(r, dtype=float)
        return self.psi(r) / np.sqrt(r) * np.asarray(self.chi(x3))

    def factors(self, r, x3):
        r, x3 = np.asarray(r, dtype=float), np.asarray(x3)
        radial = _on_grid(self.psi, r) / np.sqrt(r)
        return self.m, radial[:, None], _on_grid(self.chi, x3)[None, :]

    def hamiltonian_image(self, phi: float) -> "FieldSum":
        """The field H Phi, as a sum of two separable pieces.

        H acts on this family as r**-1/2 [ (l_q psi) chi - psi chi'' ] e^{ima}
        with q of order kappa = m + phi; requires analytic second derivatives.
        """
        if self.psi_d2 is None or self.chi_d2 is None:
            raise ConfigurationError(
                "hamiltonian_image needs analytic psi_d2 and chi_d2"
            )
        kappa = channel_kappa(phi, self.m)
        psi, psi_d2 = self.psi, self.psi_d2
        chi, chi_d2 = self.chi, self.chi_d2

        def lq_psi(r):
            r = np.asarray(r, dtype=float)
            return -np.asarray(psi_d2(r)) + (kappa * kappa - 0.25) / (r * r) * psi(r)

        def neg_chi_d2(x3):
            return -np.asarray(chi_d2(x3))

        return FieldSum(
            (
                SeparableField(lq_psi, chi, self.m, self.r_support, self.x3_support),
                SeparableField(psi, neg_chi_d2, self.m, self.r_support, self.x3_support),
            )
        )


@dataclass(frozen=True)
class FieldSum(_OneMode):
    """Pointwise sum of SeparableFields of one mode m and the same supports.

    Its profile is the sum of its terms' profiles, and its factors hold one
    term per column of R and row of X.
    """

    terms: tuple

    def __post_init__(self):
        first = self.terms[0] if self.terms else None
        if first is None or not all(
            isinstance(t, SeparableField)
            and (t.m, t.r_support, t.x3_support) == (first.m, first.r_support, first.x3_support)
            for t in self.terms
        ):
            raise ConfigurationError(
                "FieldSum needs SeparableField terms of one mode m and the same supports"
            )

    def _profile(self, r, x3):
        return sum(t._profile(r, x3) for t in self.terms)

    def factors(self, r, x3):
        _, radial, axial = zip(*(t.factors(r, x3) for t in self.terms))
        return self.m, np.hstack(radial), np.vstack(axial)

    @property
    def m(self):
        return self.terms[0].m

    @property
    def r_support(self):
        return self.terms[0].r_support

    @property
    def x3_support(self):
        return self.terms[0].x3_support


@dataclass(frozen=True)
class TransformedField:
    """field composed with the inverse symmetry: rotate by alpha, shift by beta.

    (Phi o G^-1)(r, angle, x3) = Phi(r, angle - alpha, x3 - beta); its channel
    coefficients are e^{-i m alpha - i p beta} times the original ones.
    ConfigurationError unless alpha and beta are finite.  Its factors are the
    field's at x3 - beta, X times the exact phase e^{-i m alpha}.
    """

    field: object
    alpha: float
    beta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta))):
            raise ConfigurationError(
                f"a symmetry needs a finite alpha and beta, got {self.alpha!r}, {self.beta!r}"
            )

    def __call__(self, r, angle, x3):
        return self.field(r, np.asarray(angle) - self.alpha, np.asarray(x3) - self.beta)

    def factors(self, r, x3):
        m, radial, axial = _factors(self.field, r, np.asarray(x3) - self.beta)
        return m, radial, axial * np.exp(-1j * m * self.alpha)

    @property
    def r_support(self):
        return self.field.r_support

    @property
    def x3_support(self):
        lo, hi = self.field.x3_support
        return (lo + self.beta, hi + self.beta)


# --------------------------------------------------------------------------
# Reduction


def _factors(field, r, x3):
    """field.factors(r, x3): its mode m, radial factors R (len(r), k) and
    axial factors X (k, len(x3)); ConfigurationError for a field without
    them, such as a plain callable."""
    factors = getattr(field, "factors", None)
    if factors is None:
        raise ConfigurationError(
            "a 3D field needs factors(r, x3) -> (m, R, X), as SeparableField, FieldSum "
            f"and a TransformedField of either have; got {type(field).__name__}"
        )
    return factors(r, x3)


def _abs_sq(z) -> np.ndarray:
    """|z|**2 elementwise, as re**2 + im**2, the sum taken in place in the
    first square: one temporary of the result's size fewer."""
    out = np.square(z.real)
    out += np.square(z.imag)
    return out


def _axial(p_nodes, grid: ReductionGrid) -> np.ndarray:
    """The x3 quadrature of e^{-i p x3}: e^{-i p x3} w3, shape (n_p, n_x3)."""
    return np.exp(-1j * np.outer(p_nodes, grid.x3_nodes)) * grid.x3_weights


def radial_reduce(
    field, channel: ChannelIndex, r_nodes, grid: ReductionGrid, quad_weights=None
) -> RadialFunction:
    """Channel reduction of a field at a single (m, p), sampled at r_nodes:
    sqrt(r) R @ (X @ e^{-i p x3} w3) for the field's own mode, 0 for any
    other.  ConfigurationError for a field without factors, or unless the r
    nodes and weights (all 1 by default) are a radial rule: 1-D, of one
    length, finite and positive."""
    r = np.asarray(r_nodes, dtype=float)
    r, wr = _radial_rule((r, np.ones_like(r) if quad_weights is None else quad_weights))
    m, radial, axial = _factors(field, r, grid.x3_nodes)
    reduced = radial @ (axial @ _axial([channel.p], grid)[0])
    return RadialFunction(r, wr, float(channel.m == m) * np.sqrt(r) * reduced)


def field_norm_sq(field, r_rule, grid: ReductionGrid) -> float:
    """||Phi||^2 over R^3 by quadrature from its factors:
    2 pi sum_i w_r r_i (|R @ X|^2 @ w3)_i, the angle integral exact.
    ConfigurationError for a field without factors, or unless r_rule is a
    radial rule (_radial_rule)."""
    r, wr = _radial_rule(r_rule)
    _, radial, axial = _factors(field, r, grid.x3_nodes)
    per_r = (_abs_sq(radial @ axial) @ grid.x3_weights) * (2.0 * math.pi)
    return float(np.sum(wr * r * per_r))


# --------------------------------------------------------------------------
# Coefficients


@dataclass
class ChannelBlock:
    """Coefficients of one angular mode over a set of p nodes sharing one theta.

    values has shape (len(p_indices), len(quad.nodes)): one row per p node over
    the spectral grid of the shared measure.  continuum and atom_values are
    its E-node and atom columns, and assigning either writes into values.
    p_indices and quad come from the forward's cached channel plan: read-only,
    and shared by every forward of the same signature.
    """

    m: int
    p_indices: np.ndarray
    quad: MeasureQuadrature
    values: np.ndarray

    @property
    def continuum(self) -> np.ndarray:
        return self.values[:, : len(self.quad.e_nodes)]

    @continuum.setter
    def continuum(self, part: np.ndarray) -> None:
        self.values = np.hstack((part, self.atom_values))

    @property
    def atom_values(self) -> np.ndarray:
        return self.values[:, len(self.quad.e_nodes) :]

    @atom_values.setter
    def atom_values(self, part: np.ndarray) -> None:
        self.values = np.hstack((self.continuum, part))

    def norm_sq(self, p_weights: np.ndarray, values: np.ndarray | None = None) -> float:
        """sum over the block's p nodes and grid nodes of p weight * w |values|**2
        (the block's own values by default)."""
        values = self.values if values is None else values
        return float(p_weights[self.p_indices] @ (_abs_sq(values) @ self.quad.weights))


@dataclass
class Coefficients3D:
    """Full forward transform of a field: blocks over (mode, theta-piece).

    A forward stores the blocks of its field's mode alone; a mode of the
    grid with no block is exactly 0 (its norm is 0.0)."""

    phi: float
    grid: ModeGrid
    blocks: list[ChannelBlock]

    def norm_sq(self, m: int | None = None) -> float:
        """Squared norm of every block, or of mode m's blocks only, a float
        (0.0 for a mode with no block); ConfigurationError for an m outside
        grid.modes (_check_truncated): its norm is unknown, not 0."""
        if m is not None:
            _check_truncated(self.grid, m)
        return sum(
            (blk.norm_sq(self.grid.p_weights) for blk in self.blocks if m is None or blk.m == m),
            0.0,
        )

    def channel_norm_sq(self, m: int) -> float:
        return self.norm_sq(m)


def _theta_groups(spec: ThetaSpec, m: int, p_nodes) -> list[tuple[float | None, np.ndarray]]:
    """p-node indices grouped by the theta in force, by increasing theta (None off-critical)."""
    if m not in spec.entries:
        return [(None, np.arange(len(p_nodes)))]
    thetas, group = np.unique(spec.entries[m].theta_at(p_nodes), return_inverse=True)
    return [(float(t), np.flatnonzero(group == k)) for k, t in enumerate(thetas)]


class _Channel(NamedTuple):
    """One block of a forward: the mode, the p nodes of one theta, their
    extension and its spectral grid."""

    m: int
    p_indices: np.ndarray
    params: ExtensionParams
    quad: MeasureQuadrature


class _Plan(NamedTuple):
    """A forward's blocks and its axial matrix e^{-i p x3} w3, all read-only."""

    channels: tuple[_Channel, ...]
    axial: np.ndarray


def _channel_plan(
    spec: ThetaSpec,
    m: int,
    grid: ModeGrid,
    reduction: ReductionGrid,
    E_max: float,
    node_budget: int,
) -> _Plan:
    """The blocks of mode m and the axial matrix of full_forward, keyed bit
    for bit by what they read: phi, m, mode m's theta table (breaks, values)
    if m is critical, the p nodes, the x3 nodes and weights, E_max and
    node_budget.  Nothing in a plan depends on the field, on r, on M_max or
    on another mode.  ConfigurationError for an m outside the truncation
    (_check_truncated), raised before any plan is built."""
    _check_truncated(grid, m)
    table = spec.entries.get(m)
    pieces = () if table is None else (table.breaks, table.values)
    read = (
        spec.phi, m, *pieces, grid.p_nodes,
        reduction.x3_nodes, reduction.x3_weights, E_max, node_budget,
    )
    inputs = (spec, int(m), grid, reduction, E_max, node_budget)  # an int, as in grid.modes
    return _cached_plan(_CacheKey(_bits(*read), inputs))


@functools.lru_cache(maxsize=4)
def _cached_plan(key: _CacheKey) -> _Plan:
    """One plan per forward signature and mode, its quadrature arrays, p
    indices and axial matrix read-only; errors are never stored.  A plan
    holds the channels of its mode alone, one per theta piece (one
    off-critical).  A forward reads the axial matrix once, to take its k
    axial factors to X_hat.  Working sets measured in plans: 1 for each of
    expansion_3d, its trimmed verify suite and transform --mode 3d, 4 for
    the default verify suite (phi = 1/2, 1e-6, 0.3 and 2), which fill the 4
    slots.  At 64 p nodes and node_budget 16 a plan's channels hold about
    7 KB per theta piece and its axial matrix 98 KB (by 96 x3 nodes), at
    any M_max, so 105-112 KB: 4 kept.  A cold plan took 0.32 ms at phi =
    0.3, M_max = 30, theta piecewise on m = 0 (1.96 ms for all 62 channels
    of that grid)."""
    spec, m, grid, reduction, E_max, node_budget = key.inputs
    kappa = channel_kappa(spec.phi, m)
    channels = []
    for theta, p_idx in _theta_groups(spec, m, grid.p_nodes):
        params = ExtensionParams(kappa, theta if theta is not None else 0.0)
        quad = discretize(spectral_measure(params), E_max, node_budget)
        _read_only((quad.e_nodes, quad.e_weights, p_idx))
        channels.append(_Channel(m, p_idx, params, quad))
    axial = _axial(grid.p_nodes, reduction)
    axial.setflags(write=False)
    return _Plan(tuple(channels), axial)


def _forward_blocks(plan: _Plan, factors, r, wr):
    """The ChannelBlocks of a forward of a field with factors (m, R, X) =
    field.factors(r, x3 nodes), over the channels of plan, mode m's plan;
    every other mode's coefficients are exactly 0 and are not stored.  One
    at a time: each block is computed when the next one is asked for, so a
    caller that reduces a block before asking for the next one holds one
    block.

    r and wr are a checked radial rule (_radial_rule).  Each block is
    X_hat[:, group].T @ (K @ R_w).T, with X_hat = X @ plan.axial.T and R_w =
    sqrt(r) w_r R: one real product with its extension's cached dense kernel
    K (transform.Kernel), called through this module's kernel_matrix
    binding, in k real columns (a complex R as its real and imaginary parts,
    2k columns), and the k-term sum one real product with the coefficients
    as interleaved re/im floats.  So a forward looks up and builds the
    kernels of mode m alone.  Block values are fresh writable arrays."""
    _, radial, axial = factors
    axial = axial @ plan.axial.T
    if np.iscomplexobj(radial):  # R X_hat = R.real X_hat + R.imag (i X_hat)
        radial, axial = np.hstack((radial.real, radial.imag)), np.vstack((axial, 1j * axial))
    radial = radial * (np.sqrt(r) * wr)[:, None]
    for ch in plan.channels:
        kernel = kernel_matrix(ch.params, ch.quad, r)
        # np.dot, not @: matmul skips BLAS for an inner dimension of 1
        coefs = _interleaved(axial[:, ch.p_indices])
        values = np.dot(kernel.matrix @ radial, coefs).view(complex).T
        yield ChannelBlock(ch.m, ch.p_indices, ch.quad, values)


def full_forward(
    spec: ThetaSpec,
    field,
    grid: ModeGrid,
    r_rule,
    reduction: ReductionGrid,
    E_max: float,
    node_budget: int = 16,
) -> Coefficients3D:
    """Channel-decompose a field and forward-transform every channel.

    r_rule is a (nodes, weights) Gauss rule on the field's radial support
    (ConfigurationError unless it is a radial rule, _radial_rule); E_max
    applies to every channel (special.energy_cap(b) caps it for support right
    edge b).  ConfigurationError for a field without factors, or of a mode
    outside the truncation |m| <= M_max, raised before any plan or kernel
    is built.  The blocks, one per theta group of the field's mode (every
    other mode is exactly 0 and holds no block), and the axial matrix come
    from that mode's cached channel plan, so a repeated
    signature builds no spectral grid and no phase matrix; blocks of two
    forwards with one signature share their quad and p_indices objects.  The
    blocks are those of _forward_blocks, the one forward path, all kept:
    each meets its extension's kernel in k real columns.  hamiltonian_defect
    and symmetry_defect run the same blocks and keep none of them.
    """
    r, wr = _radial_rule(r_rule)
    factors = _factors(field, r, reduction.x3_nodes)
    plan = _channel_plan(spec, factors[0], grid, reduction, E_max, node_budget)
    return Coefficients3D(spec.phi, grid, list(_forward_blocks(plan, factors, r, wr)))


def _scaled(coeffs: Coefficients3D, factor) -> Coefficients3D:
    """coeffs with each block's values multiplied by factor(block, its p nodes)."""
    p_nodes = coeffs.grid.p_nodes
    blocks = [
        dataclasses.replace(blk, values=factor(blk, p_nodes[blk.p_indices]) * blk.values)
        for blk in coeffs.blocks
    ]
    return Coefficients3D(coeffs.phi, coeffs.grid, blocks)


def _energy(blk: ChannelBlock, p: np.ndarray) -> np.ndarray:
    """p**2 + E over a block's p nodes and spectral grid: the multiplier of H.

    Formed as the transpose of E + p**2 over (E, p), the same bits (IEEE
    addition commutes), so that it is F-ordered, as a forward's block values
    are (_forward_blocks returns transposed products).  A C-ordered multiplier
    is read against the block's strides: on a 2-vCPU Xeon one real or
    imaginary step of _gaps took 229 us a block of verify's 3D job, and 57 us
    in the block's own order (131 and 37 us timed alone)."""
    return (blk.quad.nodes[:, None] + p[None, :] ** 2).T


def _phase(alpha: float, beta: float):
    """The multiplier e^{-i m alpha - i p beta} of the symmetry (alpha, beta),
    as a factor(block, its p nodes)."""
    return lambda blk, p: np.exp(-1j * (blk.m * alpha + p * beta))[:, None]


def apply_H(spec: ThetaSpec, coeffs: Coefficients3D) -> Coefficients3D:
    """Diagonalized Hamiltonian: multiply by p**2 + E over each block's grid."""
    return _scaled(coeffs, _energy)


def _grid_arrays(phi: float, grid: ModeGrid, blocks) -> list:
    """phi, M_max, the p nodes, then each block's m, p indices and spectral
    grid; blocks are ChannelBlocks or a channel plan's _Channels."""
    parts = [(blk.m, blk.p_indices, blk.quad.nodes, blk.quad.weights) for blk in blocks]
    return [phi, grid.M_max, grid.p_nodes, *(part for blk in parts for part in blk)]


def _check_one_grid(caller: str, a: tuple, b: tuple) -> None:
    """ConfigurationError, naming caller, unless a and b, each (phi, ModeGrid,
    blocks), have equal _grid_arrays: phi, M_max, the p nodes and every
    block's mode, p indices and spectral grid (nodes and weights).  Arrays
    shared through one cached channel plan are the same objects and pass
    without a scan (a shared array holding a NaN is one grid, too)."""
    a, b = _grid_arrays(*a), _grid_arrays(*b)
    if len(a) != len(b) or not all(x is y or np.array_equal(x, y) for x, y in zip(a, b)):
        raise ConfigurationError(
            f"{caller} needs two coefficient sets on one spectral grid: "
            "the same phi, M_max, p nodes and per-block mode, p indices and measure"
        )


def coefficient_distance(a: Coefficients3D, b: Coefficients3D) -> float:
    """Measure-weighted L2 distance between two coefficient sets on one grid:
    the same phi, M_max and p nodes, and the same blocks in each mode both
    hold (ConfigurationError otherwise, by _check_one_grid).  A mode one set
    holds no block of is exactly 0 there, so it adds the other's norm; the
    sum runs over the modes in order, as over dense sets."""
    shared = {blk.m for blk in a.blocks} & {blk.m for blk in b.blocks}
    _check_one_grid("coefficient_distance", *(
        (c.phi, c.grid, [blk for blk in c.blocks if blk.m in shared]) for c in (a, b)
    ))

    def gaps(m: int):
        own_a, own_b = ([blk for blk in c.blocks if blk.m == m] for c in (a, b))
        if not (own_a and own_b):  # an absent mode is exactly 0
            return [blk.norm_sq(a.grid.p_weights) for blk in own_a or own_b]
        return [x.norm_sq(a.grid.p_weights, x.values - y.values) for x, y in zip(own_a, own_b)]

    modes = sorted({blk.m for c in (a, b) for blk in c.blocks})
    return math.sqrt(sum((gap for m in modes for gap in gaps(m)), 0.0))


def symmetry_phase(coeffs: Coefficients3D, alpha: float, beta: float) -> Coefficients3D:
    """Coefficients of the rotated/translated field predicted by covariance."""
    return _scaled(coeffs, _phase(alpha, beta))


def _gaps(caller: str, base: Coefficients3D, factor, measure, spec: ThetaSpec, field,
          grid: ModeGrid, r_rule, reduction: ReductionGrid, E_max: float, node_budget: int):
    """measure(gap) for each block of field's forward, gap = the block minus
    factor(base block, its p nodes) * base block, one block at a time.

    A field without factors, or of a mode outside the truncation, is a
    ConfigurationError, raised before any plan or kernel is built; then
    base's grid and blocks are checked against the channels of the field's
    mode's plan (ConfigurationError naming caller, _check_one_grid: a base
    of another mode is refused), before any block is computed.  Each gap is
    formed in place in the forward's block, and the block is measured and
    dropped before the next one is computed.  A real
    factor (H's p**2 + E) scales the real and imaginary parts of the base
    block apart, with the bits of the complex product: cast to complex, it
    took numpy's cast buffers and raised hamiltonian_defect's traced peak
    from 569 to 806 KB at the acceptance grid, past glibc's heap-trim
    threshold in some processes, which then faulted about 1,100 pages back
    in per call.  The factor comes in the block's memory order (F, _energy):
    against a C-ordered one each step took 229 us, not 57 us, a block."""
    r, wr = _radial_rule(r_rule)
    factors = _factors(field, r, reduction.x3_nodes)
    plan = _channel_plan(spec, factors[0], grid, reduction, E_max, node_budget)
    _check_one_grid(caller, (base.phi, base.grid, base.blocks), (spec.phi, grid, plan.channels))

    def gap(blk: ChannelBlock, ref: ChannelBlock):
        scale = factor(ref, grid.p_nodes[ref.p_indices])
        if np.isrealobj(scale):
            blk.values.real -= scale * ref.values.real
            blk.values.imag -= scale * ref.values.imag
        else:
            blk.values -= scale * ref.values
        return measure(blk)

    return map(gap, _forward_blocks(plan, factors, r, wr), base.blocks)


def hamiltonian_defect(
    spec: ThetaSpec,
    field,
    grid: ModeGrid,
    r_rule,
    reduction: ReductionGrid,
    E_max: float,
    node_budget: int = 16,
    *,
    base: Coefficients3D,
) -> float:
    """coefficient_distance(full_forward(H Phi), apply_H(spec, base)), with
    H Phi = field.hamiltonian_image(spec.phi), formed without either set.

    base is full_forward of field on the same grids; a base on any other
    spectral grid, or of another mode, is a ConfigurationError, raised
    before any block of H Phi is computed.  The forward of H Phi runs one
    block at a time: (p**2 + E) times base's block is subtracted from it in
    place, and the block is reduced to sum p_w w |gap|**2 before the next
    one is computed.  A NaN in any block gives NaN.  ConfigurationError for
    a field without hamiltonian_image, or of a mode outside the truncation.
    """
    image = getattr(field, "hamiltonian_image", None)
    if image is None:
        raise ConfigurationError("hamiltonian_defect needs a field with hamiltonian_image")
    gaps = _gaps(
        "hamiltonian_defect", base, _energy, lambda blk: blk.norm_sq(grid.p_weights),
        spec, image(spec.phi), grid, r_rule, reduction, E_max, node_budget,
    )
    return math.sqrt(sum(gaps))


def symmetry_defect(
    spec: ThetaSpec,
    field,
    alpha: float,
    beta: float,
    grid: ModeGrid,
    r_rule,
    reduction: ReductionGrid,
    E_max: float,
    node_budget: int = 16,
    *,
    base: Coefficients3D,
) -> float:
    """sup |c_transformed - e^{-i m alpha - i p beta} c| over sampled (m,p,E).

    base is full_forward of the untransformed field on the same grids, so
    callers share it over several (alpha, beta) pairs; a base on any other
    spectral grid, or of another mode, is a ConfigurationError, raised
    before any block of the moved field is computed.  The forward of the
    moved field runs one block at a time: symmetry_phase's multiple of
    base's block is subtracted from it in place, and the block is reduced
    to max |gap|**2 before the next one is computed.  A NaN in any block
    gives NaN.  ConfigurationError for a field of a mode outside the
    truncation.
    """
    gaps = _gaps(
        "symmetry_defect", base, _phase(alpha, beta),
        lambda blk: np.max(_abs_sq(blk.values), initial=0.0),
        spec, TransformedField(field, alpha, beta), grid, r_rule, reduction, E_max, node_budget,
    )
    return math.sqrt(functools.reduce(np.maximum, gaps, 0.0))  # np.maximum keeps a NaN


def eigenfunction_3d(
    spec: ThetaSpec, channel: ChannelIndex, E: float, x: Sequence[float]
) -> complex:
    """Generalized 3D eigenfunction of channel (m, p) at energy E and point x.

    value = e^{i p x3} / (2 pi sqrt(r)) * ((x1 + i x2)/r)**m * J(E | r) with
    r = hypot(x1, x2) and J the channel's radial eigenfunction.  DomainError
    on the x3-axis and for a non-finite p or x3.
    """
    x1, x2, x3 = (float(c) for c in x)
    r = math.hypot(x1, x2)
    if r == 0.0:
        raise DomainError("eigenfunction_3d is undefined on the x3-axis")
    if not (math.isfinite(channel.p) and math.isfinite(x3)):
        raise DomainError(f"eigenfunction_3d needs a finite p and x3, got p={channel.p} x3={x3}")
    m = channel.m
    kappa = channel_kappa(spec.phi, m)
    theta = spec.theta_for(m, channel.p) if abs(kappa) < 1.0 else 0.0
    radial = complex(radial_kernel(kappa, theta, float(E), r))
    angular = ((x1 + 1j * x2) / r) ** m
    return (
        np.exp(1j * channel.p * x3) * angular * radial / (2.0 * math.pi * math.sqrt(r))
    )


def bound_state_table(spec: ThetaSpec) -> list[tuple[int, float, float, float, float]]:
    """(m, kappa, E_b, weight, theta) rows for every critical-channel bound state.

    theta is reported modulo pi (the canonical representative), so two specs
    differing by multiples of pi -- physically identical extensions -- produce
    identical tables.  Piecewise theta tables contribute one row per distinct
    theta class that produces a bound state.
    """
    rows = []
    for m in critical_channels(spec.phi):
        seen = set()
        for theta in spec.entries[m].values:
            params = ExtensionParams(channel_kappa(spec.phi, m), theta)
            canonical = params.theta_mod_pi
            if canonical in seen:
                continue
            seen.add(canonical)
            for energy, weight in spectral_measure(params).atoms:
                rows.append((m, params.kappa, energy, weight, canonical))
    return rows

