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
coefficients (a, b) depend on theta: special._pair_coefficients over the
extension's (nu, cu, cw), which ExtensionParams holds.  The family is even
in kappa, so kappa and -kappa at one theta share one kernel.  kernel_matrix
forms K once per extension class as one read-only real array, and
_real_product is the one product of a real kernel with data: forward is
_real_product(K, w_r psi), inverse _real_product(K.T, w c), and ab3d's
blocks use it too, each one np.dot with a complex operand entering as
interleaved re/im floats.  Two caches: the pairs (the 32 most recent; 213 KB
per array at 416 E nodes x 64 r nodes, so at most 13.6 MB), the one store of
Bessel values, and per extension the dense K (the 64 most recent; 213 KB at
417 x 64, so at most about 13.7 MB).  Each is sized above the largest
working set measured in its docstring, the default verify suite's 10
pairs and 19 kernels; a full_forward needs its field's mode's one pair and
one kernel per theta piece, at any M_max.  The grids themselves come from
measures.discretize, which caches one per extension class.  A kernel's key
joins three keys, each formed once by the object that holds it: the
extension's (ExtensionParams.key), the grid's (MeasureQuadrature.key) and
the r rule's (RadialRule.key), so a warm lookup with a rule reduces no
theta and hashes no array.

A radial function lives on a RadialRule, the one check of an r rule; the
transforms and ab3d's reduction take the rule they are handed and do not
check it again.
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
from .measures import _bits, _CacheKey, _read_only
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


@dataclass(frozen=True, eq=False)
class RadialRule:
    """A quadrature rule in r on (0, inf), checked once, where it is made:
    DomainError unless nodes and weights are 1-D, of one length, at least 8
    nodes, all finite, with 0 < r < inf and weights > 0.  The arrays are
    read-only copies of those given, and key holds the bits of the nodes,
    what a kernel over the rule reads, formed once per rule.  np.asarray of
    a rule is its nodes.  Two rules compare, and hash, by identity."""

    nodes: np.ndarray
    weights: np.ndarray
    key: tuple[bytes, ...] = field(init=False, repr=False)

    def __post_init__(self):
        r, w = np.asarray(self.nodes, dtype=float), np.asarray(self.weights, dtype=float)
        both = np.array((r, w)) if r.ndim == 1 and r.shape == w.shape and len(r) >= 8 else None
        if both is None or not 0.0 < both.min() <= both.max() < math.inf:  # a NaN fails, too
            raise DomainError(
                "the r rule needs 1-D nodes and weights of one length, at least 8 nodes, "
                "all finite, with nodes strictly inside (0, inf) and weights > 0"
            )
        both.setflags(write=False)  # one read-only copy of both
        # frozen: the fields are written once, past __setattr__
        self.__dict__.update(nodes=both[0], weights=both[1], key=_bits(both[0]))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.nodes, dtype=dtype, copy=copy)

    @classmethod
    def of(cls, r_rule) -> "RadialRule":
        """r_rule itself if it is a RadialRule, else the rule of a (nodes,
        weights) pair."""
        return r_rule if isinstance(r_rule, cls) else cls(*r_rule)


@dataclass(eq=False)
class RadialFunction:
    """A complex function sampled on a RadialRule: finite values, one per
    node.  r_nodes and quad_weights are given as arrays, checked as a new
    rule, or r_nodes is a RadialRule and quad_weights None, and the rule is
    not checked again; either way they end as the rule's read-only arrays.
    Two functions compare, and hash, by identity."""

    r_nodes: np.ndarray
    quad_weights: np.ndarray | None
    values: np.ndarray
    second_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    rule: RadialRule = field(init=False, repr=False)

    def __post_init__(self):
        nodes, weights = self.r_nodes, self.quad_weights
        self.rule = rule = RadialRule.of(nodes if weights is None else (nodes, weights))
        self.r_nodes, self.quad_weights = rule.nodes, rule.weights
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != rule.nodes.shape or not np.isfinite(self.values).all():
            raise DomainError("radial values must be finite, one per r node")

    @classmethod
    def from_callable(cls, f, a: float, b: float, n: int = 64, second_derivative=None):
        r, w = gauss_legendre(a, b, n)
        return cls(r, w, np.asarray(f(r), dtype=complex), second_derivative)

    def norm_sq(self) -> float:
        return float(np.sum(self.quad_weights * np.abs(self.values) ** 2))


@dataclass(eq=False)
class TransformCoefficients:
    """Coefficients on the spectral grid quad.nodes: one per E node, then one
    per atom.  continuum_values and atom_values are views of the two parts.
    Two coefficient sets compare, and hash, by identity."""

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


def _real_product(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for a real 2-D A and a real or complex v of shape (n,) or (n, k),
    the one product of a real kernel with data: one np.dot, a complex v
    entering as interleaved re/im floats, so A is never cast to complex.
    np.dot, not @: numpy's matmul skips BLAS for an inner dimension of 1."""
    if not np.iscomplexobj(v):
        return np.dot(A, v)
    out = np.dot(A, np.ascontiguousarray(v).view(float).reshape(len(v), -1)).view(complex)
    return out if v.ndim == 2 else out[:, 0]


def kernel_matrix(params: ExtensionParams, quad: MeasureQuadrature, r) -> np.ndarray:
    """K[i, j] = kernel(node_i | r_j) over the spectral grid quad.nodes and the
    r nodes of r, a RadialRule or bare nodes, as one read-only real array of
    shape (len(quad.nodes), len(r)): the continuum rows sqrt(r) (a F + b G)
    over the Bessel pair (F, G) of order nu = |kappa| with the coefficients of
    params' (cu, cw), the atom rows radial_kernel at the atom energies (at
    E_b the bound eigenfunction).  Products with it go through _real_product.

    Cached per extension class, keyed bit for bit by what the matrix reads:
    the extension's key (params.key: nu, theta mod pi and the parity of
    theta's multiple of pi, so kappa and -kappa share a kernel; for
    |kappa| >= 1 theta is not read), the grid's key (quad.key: its E nodes and
    atom energies, not the weights) and the rule's key (RadialRule.key: its
    nodes), each formed once per object, so a warm lookup with a rule hashes
    no array; the bits of bare nodes are formed per call.  A hit returns the
    same array and builds nothing; a miss reads the Bessel pair from its own
    cache, keyed by (nu, E nodes, r nodes), so every theta and both signs of
    kappa of one order share one pair.  The grid is checked when its pair is
    built; errors are never stored, and both caches are safe to share
    between threads."""
    nodes = r.nodes if isinstance(r, RadialRule) else np.asarray(r, dtype=float)
    key = params.key + quad.key + (r.key if isinstance(r, RadialRule) else _bits(nodes))
    return _build_kernel(_CacheKey(key, (params, quad, nodes)))


@functools.lru_cache(maxsize=64)
def _build_kernel(key: _CacheKey) -> np.ndarray:
    """One extension's dense kernel, 213 KB at 417 nodes x 64 r nodes.  Working
    sets measured in extensions: 11 (the radial_sweep benchmark), 2
    (expansion_3d), 10 (its trimmed verify suite) and 19 (the default suite);
    a full_forward builds its field's mode's alone (1 per theta piece at
    any M_max): 64 kept, at most about 13.7 MB."""
    params, quad, r = key.inputs
    n = len(quad.e_nodes)
    F, G = _bessel_pair(params.nu, quad.e_nodes[:, None], r[None, :])
    a, b = special._pair_coefficients(params.nu, params.cu, params.cw, quad.e_nodes)
    K = np.empty((len(quad.nodes), len(r)))
    np.multiply(a[:, None], F, out=K[:n])
    if b is not None:
        K[:n] += b[:, None] * G
    K[:n] *= np.sqrt(r)
    K[n:] = radial_kernel(params.kappa, params.theta, quad.nodes[n:, None], r[None, :])
    return _read_only(K)


def _bessel_pair(nu: float, E: np.ndarray, r: np.ndarray) -> tuple:
    """special._jy_pair(nu, E, r), the 32 most recent kept read-only."""
    return _cached_pair(_CacheKey(_bits(nu, E, r), (nu, E, r)))


@functools.lru_cache(maxsize=32)
def _cached_pair(key: _CacheKey) -> tuple:
    """The one store of Bessel values, 213 KB per array at 416 x 64.  Working
    sets measured in pairs: 5 (radial_sweep), 1 (expansion_3d), 6 (the
    trimmed suite) and 10 (the default suite); a full_forward reads its
    field's mode's one pair: 32 kept, at most 13.6 MB."""
    pair = special._jy_pair(*key.inputs)
    return tuple(None if part is None else _read_only(part) for part in pair)


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
    values = _real_product(kernel_matrix(params, quad, psi.rule), psi.quad_weights * psi.values)
    if not include_atoms:
        values[len(quad.e_nodes) :] = 0.0
    return TransformCoefficients(quad, values)


def inverse(
    params: ExtensionParams,
    coeffs: TransformCoefficients,
    r_nodes,
    quad_weights=None,
) -> RadialFunction:
    """Synthesis (the adjoint): psi(r) = int kernel(E|r) c(E) dV(E), atom
    included, on a RadialRule r_nodes (quad_weights None), or on r_nodes and
    quad_weights (all 1 by default) checked as a new rule."""
    if quad_weights is None and not isinstance(r_nodes, RadialRule):
        quad_weights = np.ones(np.shape(r_nodes))
    rule = RadialRule.of(r_nodes if quad_weights is None else (r_nodes, quad_weights))
    K = kernel_matrix(params, coeffs.quad, rule)
    values = _real_product(K.T, coeffs.quad.weights * coeffs.values)
    return RadialFunction(rule, None, values)


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
    return RadialFunction(psi.rule, None, values)


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


def _nonzero_norm_sq(psi: RadialFunction) -> float:
    """||psi||**2, the scale of a relative defect; DomainError when it is 0."""
    n = psi.norm_sq()
    if n == 0.0:
        raise DomainError("psi has zero norm, and a relative defect divides by ||psi||**2")
    return n


def parseval_defect(psi: RadialFunction, coeffs: TransformCoefficients) -> float:
    """| ||psi||**2 - ||c||**2 | / ||psi||**2, the numerical unitarity witness;
    DomainError for psi of zero norm."""
    n = _nonzero_norm_sq(psi)
    return abs(n - coeffs.norm_sq()) / n


def roundtrip_defect(params: ExtensionParams, psi: RadialFunction, quad) -> float:
    """||inverse(forward(psi)) - psi|| / ||psi|| on psi's own grid; DomainError
    for psi of zero norm."""
    n = _nonzero_norm_sq(psi)
    back = inverse(params, forward(params, psi, quad), psi.rule)
    diff = float(np.sum(psi.quad_weights * np.abs(back.values - psi.values) ** 2))
    return math.sqrt(diff / n)
