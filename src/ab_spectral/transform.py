"""Eigenfunction transforms diagonalizing the radial operators.

forward/inverse realize the unitary map between compactly supported radial
functions and L2 of the spectral measure: analysis integrates the function
against the real kernel u(E|r) (or u_theta(E|r) on the extension family),
synthesis sums kernel * coefficient against the discretized measure.

The measure is one grid, MeasureQuadrature.nodes with weights w: the E
nodes, then the bound-state atom, whose kernel row is the bound eigenfunction.
With K[i, j] = kernel(node_i | r_j) over that grid, forward is K (w_r psi),
inverse is (w c) K and ||c||**2 = sum w |c|**2.  No interpolation in E
happens anywhere, so the discrete pair is a matrix and its adjoint.

On the E nodes K is sqrt(r) (a F + b G) over the Bessel pair (F, G) = (J_nu,
Y_nu) of order nu = |kappa| at x = r sqrt(E), and only the per-energy
coefficients (a, b) depend on theta and on the sign of kappa.  kernel_matrix
forms K once per extension as one read-only dense matrix (Kernel), so K @ v
and c @ K are one real product each, a complex operand entering as
interleaved re/im floats.  Two caches: the pairs (the 32 most recent; 213 KB
per array at 416 E nodes x 64 r nodes, so at most 13.6 MB), the one store of
Bessel values, and per extension the dense K (the 64 most recent; 213 KB at
417 x 64, so at most about 13.7 MB).  Each is sized to the largest working
set measured in its docstring, a full_forward at M_max = 30 (31 pairs, 32
kernels); a default verify suite needs 17 pairs and 27 kernels.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DomainError
from .measures import ExtensionParams, MeasureQuadrature, gauss_legendre
from . import special
from .special import radial_kernel, u_theta_eigen, wronskian


class Endpoint(enum.Enum):
    LIMIT_POINT = "limit_point"
    LIMIT_CIRCLE = "limit_circle"


class ProblemClass(NamedTuple):
    endpoint_0: Endpoint
    endpoint_inf: Endpoint


def classify(kappa: float) -> ProblemClass:
    """Weyl endpoint classification of -d2/dr2 + (kappa**2 - 1/4)/r**2.

    Limit circle at 0 exactly when |kappa| < 1 (both r**(1/2 +- kappa)
    solutions square-integrable near 0); always limit point at infinity.
    """
    at_zero = Endpoint.LIMIT_CIRCLE if abs(kappa) < 1.0 else Endpoint.LIMIT_POINT
    return ProblemClass(endpoint_0=at_zero, endpoint_inf=Endpoint.LIMIT_POINT)


@dataclass
class RadialFunction:
    """A complex function sampled on a Gauss rule over a compact [a,b] in (0,inf)."""

    r_nodes: np.ndarray
    quad_weights: np.ndarray
    values: np.ndarray
    second_derivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.r_nodes = np.asarray(self.r_nodes, dtype=float)
        self.quad_weights = np.asarray(self.quad_weights, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if not (len(self.r_nodes) == len(self.quad_weights) == len(self.values)):
            raise DomainError("nodes, weights, values must have equal length")
        if len(self.r_nodes) < 8:
            raise DomainError("need at least 8 quadrature nodes")
        # ufunc reductions, cheaper per call than ndarray.min; a NaN fails each check
        r, w = self.r_nodes, self.quad_weights
        if not (np.minimum.reduce(r) > 0.0 and np.maximum.reduce(r) < math.inf):
            raise DomainError("radial nodes must be finite and lie strictly inside (0, inf)")
        if not (np.minimum.reduce(w) >= 0.0 and np.maximum.reduce(w) < math.inf):
            raise DomainError("quadrature weights must be finite and >= 0")
        if not np.isfinite(self.values).all():
            raise DomainError("radial values must be finite")

    @classmethod
    def from_callable(cls, f, a: float, b: float, n: int = 64, second_derivative=None):
        r, w = gauss_legendre(a, b, n)
        return cls(r, w, np.asarray(f(r), dtype=complex), second_derivative)

    def norm_sq(self) -> float:
        return float(np.sum(self.quad_weights * np.abs(self.values) ** 2))


@dataclass
class TransformCoefficients:
    """Coefficients on the spectral grid quad.nodes: one per E node, then one
    per atom.  continuum_values and atom_values are views of the two parts."""

    quad: MeasureQuadrature
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.quad.nodes.shape:
            raise DomainError("coefficient values do not match the spectral grid")

    @property
    def continuum_values(self) -> np.ndarray:
        return self.values[: len(self.quad.e_nodes)]

    @property
    def atom_values(self) -> np.ndarray:
        return self.values[len(self.quad.e_nodes) :]

    def norm_sq(self) -> float:
        return float(np.sum(self.quad.weights * np.abs(self.values) ** 2))


@dataclass(frozen=True)
class Kernel:
    """K[i, j] = kernel(node_i | r_j) over a spectral grid as one read-only
    dense matrix: sqrt(r_j) (a_i F_ij + b_i G_ij) on the E nodes, over the
    Bessel pair (F, G) of the channel's order, then one row per atom, the
    bound eigenfunction.  K @ v and c @ K are one real product each, a complex
    operand entering as interleaved re/im floats, so K is never cast to complex."""

    matrix: np.ndarray

    __array_ufunc__ = None  # ndarray @ Kernel defers to __rmatmul__

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def __matmul__(self, v) -> np.ndarray:
        """K @ v for v of shape (n_r,) or (n_r, k)."""
        v = np.asarray(v)
        out = self.matrix @ _interleaved(v.reshape(self.shape[1], -1))
        if np.iscomplexobj(v):
            out = out.view(complex)
        return out.reshape(out.shape[:1] + v.shape[1:])

    def __rmatmul__(self, c) -> np.ndarray:
        """c @ K for c of shape (n_nodes,) or (k, n_nodes), as K.T @ c.T."""
        c = np.asarray(c)
        out = self.matrix.T @ _interleaved(c.reshape(-1, self.shape[0]).T)
        if np.iscomplexobj(c):
            out = out.view(complex)
        return out.T.reshape(c.shape[:-1] + out.shape[:1])


def _interleaved(v: np.ndarray) -> np.ndarray:
    """A 2-D v as real columns, a complex v as interleaved re/im floats, so a
    real matrix times it is never cast to complex."""
    return np.ascontiguousarray(v).view(float) if np.iscomplexobj(v) else v


@dataclass(frozen=True)
class _CacheKey:
    bits: tuple[bytes, ...]  # everything the cached value reads, hashed and compared
    inputs: tuple = field(compare=False)  # the arguments to build it from


def _bits(*values) -> tuple[bytes, ...]:
    return tuple(np.asarray(v, dtype=float).tobytes() for v in values)


def kernel_matrix(params: ExtensionParams, quad: MeasureQuadrature, r_nodes) -> Kernel:
    """The kernel over the spectral grid quad.nodes and r_nodes as a Kernel:
    the continuum rows over the Bessel pair of order |kappa|, the atom rows
    radial_kernel at the atom energies (at E_b the bound eigenfunction).

    Cached per extension, keyed bit for bit by what the matrix reads: |kappa|
    or (kappa, theta_mod_pi, theta_sign), the E nodes (not the weights), the
    atom energies and the r nodes.  A hit returns the same Kernel and builds
    nothing; a miss reads the Bessel pair from its own cache, keyed by (nu,
    E nodes, r nodes), so every theta and both signs of kappa of one order
    share one pair.  The grid is checked when its pair is built; errors are
    never stored, and both caches are safe to share between threads."""
    r = np.asarray(r_nodes, dtype=float)
    branch = (abs(params.kappa),)
    if params.needs_theta:
        branch = (params.kappa, params.theta_mod_pi, params.theta_sign)
    read = (branch, quad.e_nodes, quad.nodes[len(quad.e_nodes) :], r)
    return _build_kernel(_CacheKey(_bits(*read), (params, quad, r)))


@functools.lru_cache(maxsize=64)
def _build_kernel(key: _CacheKey) -> Kernel:
    """One extension's dense kernel, 213 KB at 417 nodes x 64 r nodes.  Working
    sets measured in extensions: 11 (the radial_sweep benchmark), 6
    (expansion_3d), 14 (its trimmed verify suite), 27 (the default suite) and
    32 (a full_forward at M_max = 30): 64 kept, at most about 13.7 MB."""
    params, quad, r = key.inputs
    n = len(quad.e_nodes)
    F, G = _bessel_pair(abs(params.kappa), quad.e_nodes[:, None], r[None, :])
    a, b = special._kernel_coefficients(params.kappa, params.theta, quad.e_nodes)
    K = np.empty((len(quad.nodes), len(r)))
    np.multiply(a[:, None], F, out=K[:n])
    if b is not None:
        K[:n] += b[:, None] * G
    K[:n] *= np.sqrt(r)
    K[n:] = radial_kernel(params.kappa, params.theta, quad.nodes[n:, None], r[None, :])
    K.setflags(write=False)
    return Kernel(K)


def _bessel_pair(nu: float, E: np.ndarray, r: np.ndarray) -> tuple:
    """special._jy_pair(nu, E, r), the 32 most recent kept read-only."""
    return _cached_pair(_CacheKey(_bits(nu, E, r), (nu, E, r)))


@functools.lru_cache(maxsize=32)
def _cached_pair(key: _CacheKey) -> tuple:
    """The one store of Bessel values, 213 KB per array at 416 x 64.  Working
    sets measured in pairs: 5 (radial_sweep), 4 (expansion_3d), 9 (the
    trimmed suite), 17 (the default suite) and 31 (a full_forward at M_max =
    30): 32 kept, at most 13.6 MB."""
    return _read_only(special._jy_pair(*key.inputs))


def _read_only(parts: tuple) -> tuple:
    for part in parts:
        if part is not None:
            part.setflags(write=False)
    return parts


def forward(
    params: ExtensionParams,
    psi: RadialFunction,
    quad: MeasureQuadrature,
    include_atoms: bool = True,
) -> TransformCoefficients:
    """Analysis: c(E) = integral kernel(E|r) psi(r) dr over the support.

    include_atoms=False zeroes the bound-state coefficients; the resulting
    Parseval deficit is the expected negative control.
    """
    values = kernel_matrix(params, quad, psi.r_nodes) @ (psi.quad_weights * psi.values)
    if not include_atoms:
        values[len(quad.e_nodes) :] = 0.0
    return TransformCoefficients(quad, values)


def inverse(
    params: ExtensionParams,
    coeffs: TransformCoefficients,
    r_nodes,
    quad_weights=None,
) -> RadialFunction:
    """Synthesis (the adjoint): psi(r) = int kernel(E|r) c(E) dV(E), atom included."""
    r_nodes = np.asarray(r_nodes, dtype=float)
    values = (coeffs.quad.weights * coeffs.values) @ kernel_matrix(params, coeffs.quad, r_nodes)
    weights = np.ones_like(r_nodes) if quad_weights is None else quad_weights
    return RadialFunction(r_nodes, np.asarray(weights, dtype=float), values)


def apply_l_q(kappa: float, psi: RadialFunction) -> RadialFunction:
    """Differential action -psi'' + ((kappa**2 - 1/4)/r**2) psi.

    Requires the analytic second derivative attached to psi; finite
    differences are rejected so that diagonalization tests measure transform
    error only.
    """
    if psi.second_derivative is None:
        raise ContractError(
            "apply_l_q needs psi.second_derivative (analytic); "
            "finite differences are not accepted here"
        )
    r = psi.r_nodes
    q = (kappa * kappa - 0.25) / (r * r)
    values = -np.asarray(psi.second_derivative(r), dtype=complex) + q * psi.values
    return RadialFunction(r, psi.quad_weights, values)


def boundary_defect(params: ExtensionParams, E: float, r_probe: Sequence[float]):
    """W_r(u_theta(0), u_theta(E)) at each probe radius.

    Tends to 0 as r -> 0: u_theta(E) satisfies the boundary condition at the
    origin that defines the theta-extension.
    """
    if abs(params.kappa) >= 1.0:
        raise DomainError("boundary_defect requires |kappa| < 1")
    t = params.theta_mod_pi
    out = []
    for r in r_probe:
        f0 = u_theta_eigen(params.kappa, t, 0.0, float(r))
        fE = u_theta_eigen(params.kappa, t, float(E), float(r))
        out.append(float(wronskian(f0, fE)))
    return np.asarray(out)


def parseval_defect(psi: RadialFunction, coeffs: TransformCoefficients) -> float:
    """| ||psi||**2 - ||c||**2 | / ||psi||**2, the numerical unitarity witness."""
    n = psi.norm_sq()
    return abs(n - coeffs.norm_sq()) / n


def roundtrip_defect(params: ExtensionParams, psi: RadialFunction, quad) -> float:
    """||inverse(forward(psi)) - psi|| / ||psi|| on psi's own grid."""
    back = inverse(params, forward(params, psi, quad), psi.r_nodes, psi.quad_weights)
    diff = float(np.sum(psi.quad_weights * np.abs(back.values - psi.values) ** 2))
    return math.sqrt(diff / psi.norm_sq())
