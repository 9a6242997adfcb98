"""Radial eigenfunction families for the inverse-square potential.

    chi_kappa(zeta)        = zeta**(-kappa/2) J_kappa(sqrt(zeta))
    u(kappa, E | r)        = r**(1/2+kappa) chi_kappa(r**2 E)
    w(kappa, E)            = [u(kappa,E) cos(pi kappa) - u(-kappa,E)] / sin(pi kappa)
    u_theta(kappa,theta,E) = u cos(theta - pi*kappa/2) + w sin(theta - pi*kappa/2)

For E != 0 each is sqrt(r) [a F(x) + b G(x)], x = r sqrt|E|, over one Bessel
pair of order nu = |kappa|: (J_nu, Y_nu) for E > 0, (I_nu, K_nu) for E < 0,
with a, b per energy by DLMF 10.4.7 and 10.27.2 for J_{-nu} and I_{-nu}.  w's
coefficient of F holds (|E|**(nu/2) - |E|**(-nu/2)) / sin(pi nu), formed as
2 sinh(nu ln|E| / 2) / sin(pi nu), so kappa -> 0 passes continuously into the
log solutions sqrt(r) [Y_0 - ln(E)/pi J_0] and -sqrt(r) [ln|E|/pi I_0 + 2/pi K_0];
E = 0 is the power-law limit, its difference formed the same way.

Every factor of pi nu that the extension family reads -- cos(pi nu),
sin(pi nu), tan(pi nu / 2) and sinc(nu) = sin(pi nu) / (pi nu) -- comes from
one helper, _pi_factors, for the kernels here and for the measure in
measures.  It is exact at nu = 0 and 1/2, and past 1/2 it forms each factor
from 1 - nu, which is exact there while pi nu is not: so no rule switches
form as nu -> 0 or nu -> 1, where one critical channel of a flux next to an
integer sits.

One rule turns (kappa, theta, E) into the kernel u_theta, in radial_kernel and
u_theta_eigen alike: theta is taken modulo pi, t = theta - n pi in [0, pi),
and the parity sign (-1)**n multiplies (cu, cw), so theta -> theta + pi flips
every value exactly whenever theta + pi rounds to the same t.  Where E equals
the extension's bound-state energy E_b, -exp(bound_state_exponent), a normal
double, a = 0 exactly (the I term vanishes, DLMF 10.40.1-2): the
cancellation-free -(2/pi) sin(theta - pi kappa/2) |E|**(kappa/2) sqrt(r) K_nu(x).
An E_b outside the double range is met by no energy, so it raises nothing here.

The pair comes from scipy (AMOS, Amos 1986, ACM TOMS Alg. 644; Cephes at
orders 0 and 1; spherical Bessel functions at half-odd orders, every critical
channel at flux 1/2, where jv(1/2, x) loses ulps).  radial_kernel returns
values only; the transforms take the pair from _jy_pair (one per order) and
(a, b) from _kernel_coefficients.  u_eigen, w_eigen and u_theta_eigen add d/dr
from the pair at orders nu + 1 and nu - 1 (DLMF 10.6.2, 10.29.2).
Where a = 0 (a bound state) F and F_{nu+1} are not evaluated.

Against mpmath (tests/test_special.py): chi_kappa and its zeta-derivative to
1.3e-14 of max(1, |chi|) for 0 <= zeta <= 2500 and 3.8e-15 relative for
zeta < 0; u, w, u_theta and d/dr for E of either sign or 0 to 6.7e-14 of
max(1, |f|); w and u_theta at |kappa| from 1e-12 to 1e-5 and from 1 - 1e-6 to
nextafter(1, 0) to 8.2e-15 of max(1, |f|); bound-state kernel rows to
2.1e-14 relative.
|zeta| = |r**2 E| > ZETA_BOUND raises SeriesDomainError, a kept contract of the
public API (energy cutoffs derive from it), not a precision limit; so does an
infinite E.  A non-finite kappa, r or theta (when |kappa| < 1), or a NaN E,
raises DomainError.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np
from scipy import special as sc

from .errors import DomainError, SeriesDomainError

#: Largest |r**2 E| accepted by the kernels (i.e. r sqrt|E| <= 50).
ZETA_BOUND = 2500.0


def energy_cap(b: float) -> float:
    """Largest E_max whose kernels stay within ZETA_BOUND out to r = b: ZETA_BOUND / b**2."""
    return ZETA_BOUND / (b * b)


_EULER_GAMMA = 0.5772156649015328606
# the odd k of DLMF 5.7.3 and zeta(k), formed once: about 13 us a call if recomputed
_ODD_K = np.arange(3.0, 59.0, 2.0)
_ODD_ZETA = sc.zeta(_ODD_K)


class ValueWithDerivative(NamedTuple):
    """A function value together with its radial derivative."""

    value: np.ndarray | float
    d_dr: np.ndarray | float


def gamma_fn(x: float) -> float:
    """Euler gamma function; rejects the poles at non-positive integers."""
    x_arr = np.asarray(x, dtype=float)
    if np.any((x_arr <= 0) & (x_arr == np.floor(x_arr))):
        raise DomainError(f"gamma_fn: pole at non-positive integer argument {x}")
    out = sc.gamma(x_arr)
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def theta_kappa(kappa: float) -> float:
    """Reference extension angle pi*kappa/2 of the order-kappa problem."""
    return math.pi * kappa / 2.0


def reduce_theta(theta: float) -> tuple[float, int]:
    """Return (t, parity) with t = theta - parity*pi in [0, pi)."""
    n = math.floor(theta / math.pi)
    t = theta - n * math.pi
    if t >= math.pi:
        t -= math.pi
        n += 1
    if t < 0.0:
        t += math.pi
        n -= 1
        if t >= math.pi:  # theta was a negative rounding error below 0
            t = 0.0
            n += 1
    return t, n


# ln of the largest and of the smallest normal double: the range of |E_b|
_LOG_HUGE = math.log(sys.float_info.max)
_LOG_TINY = math.log(sys.float_info.min)


def bound_state_exponent(kappa: float, t: float) -> float | None:
    """ln|E_b| of the extension with theta mod pi = t, or None off the
    bound-state branch |pi*kappa/2| < t < pi - |pi*kappa/2| (empty for |kappa| >= 1).

    E_b = -(A/B)**(1/nu) with nu = |kappa|, A = sin(t + pi nu/2) and
    B = sin(t - pi nu/2); it is even in kappa, so it is computed on nu.  The
    ratio increment A/B - 1 = 2 cos(t) sin(pi nu/2) / B is nu q, with
    q = pi sinc(nu) cos(t) / (cos(pi nu/2) B) and 1/cos(pi nu/2) =
    hypot(1, tan(pi nu/2)), all from _pi_factors; the exponent is
    q log1p(nu q) / (nu q), which nothing cancels in as nu -> 0 or 1 and which
    is pi cot t at nu = 0 (E_b = -exp(pi cot t)).  E_b is a normal double
    exactly when the exponent lies in [_LOG_TINY, _LOG_HUGE].
    """
    nu = abs(kappa)
    half = theta_kappa(nu)
    if not half < t < math.pi - half:
        return None
    _, _, tan_half, sinc = _pi_factors(nu)
    q = math.pi * sinc * math.cos(t) * math.hypot(1.0, tan_half) / math.sin(t - half)
    x = nu * q
    return q * (math.log1p(x) / x if x else 1.0)


def _check_zeta(zeta: np.ndarray) -> None:
    if np.any(np.abs(zeta) > ZETA_BOUND):
        bad = float(np.max(np.abs(zeta)))
        raise SeriesDomainError(
            f"kernel argument |zeta|={bad:.6g} exceeds the supported bound {ZETA_BOUND:g}"
        )


def _pi_factors(nu: float) -> tuple[float, float, float, float]:
    """(cos pi nu, sin pi nu, tan(pi nu / 2), sin(pi nu) / (pi nu)) for 0 <= nu < 1:
    every factor of pi nu that the extension family reads, formed here alone.

    They are exact at nu = 0 and 1/2.  Past 1/2 they are formed from 1 - nu,
    which is exact there, while pi nu rounds away the digits that set
    sin(pi nu), 1 + cos(pi nu) and tan(pi nu / 2) as nu -> 1.  For nu >= 1
    (u at an order kappa <= -1) the first two are those of nu mod 2, exact at
    every multiple of 1/2; the last two are not read there.
    """
    if nu >= 1.0:
        rest = math.fmod(nu, 2.0)
        c, s, _, _ = _pi_factors(rest % 1.0)
        return (c, s, math.nan, math.nan) if rest < 1.0 else (-c, -s, math.nan, math.nan)
    if nu > 0.5:
        c, s, tan_half, _ = _pi_factors(1.0 - nu)
        return -c, s, 1.0 / tan_half, s / (math.pi * nu)
    if nu == 0.5:
        return 0.0, 1.0, 1.0, 2.0 / math.pi
    x = math.pi * nu
    s = math.sin(x)
    return math.cos(x), s, math.tan(0.5 * x), (s / x if x else 1.0)


def _sinh_ratio(nu: float, m) -> np.ndarray:
    """2 sinh(nu m) / sin(pi nu), continuous through nu = 0 (limit 2 m / pi).
    Below the normal range sinh(nu m) / nu is m to the last bit, while nu m
    would lose digits to underflow and 1 / nu overflow, so the limit serves."""
    m = np.asarray(m, dtype=float)
    if nu < np.finfo(float).tiny:
        return (2.0 / math.pi) * m
    return np.sinh(nu * m) * (2.0 / (math.pi * nu * _pi_factors(nu)[3]))


def _log_gamma_odd(nu: float) -> float:
    """[ln Gamma(1 - nu) - ln Gamma(1 + nu)] / (2 nu), Euler's gamma at nu = 0; up to
    nu = 1/2 by DLMF 5.7.3, as gammaln(1 +- nu) loses a small nu to rounding."""
    if nu > 0.5:
        return (sc.gammaln(1.0 - nu) - sc.gammaln(1.0 + nu)) / (2.0 * nu)
    return _EULER_GAMMA + float(np.sum(_ODD_ZETA * nu ** (_ODD_K - 1.0) / _ODD_K))


# each kind: (order 0, order 1, spherical of order n for n + 1/2, any order)
_J = (sc.j0, sc.j1, sc.spherical_jn, sc.jv)
_Y = (sc.y0, sc.y1, sc.spherical_yn, sc.yv)
_I = (sc.i0, sc.i1, sc.spherical_in, sc.iv)
_K = (sc.k0, sc.k1, sc.spherical_kn, sc.kv)


def _bessel(kind: tuple, order: float, x: np.ndarray) -> np.ndarray:
    """J, Y, I or K of order >= 0 at x > 0 through the most accurate scipy routine."""
    order0, order1, spherical, general = kind
    if order < np.finfo(float).tiny:  # yv, kv fail at subnormal orders, equal to 0 here
        order = 0.0
    if order in (0.0, 1.0):
        return (order0, order1)[int(order)](x)
    if (2.0 * order) % 2.0 == 1.0:
        # all four kinds of order n + 1/2 are sqrt(2x/pi) times the spherical
        # function of order n (DLMF 10.47.3, 10.47.4, 10.47.7, 10.47.9)
        return np.sqrt(2.0 * x / math.pi) * spherical(int(order), x)
    return general(order, x)


def _bessel_where(kind: tuple, order: float, x: np.ndarray, live: np.ndarray) -> np.ndarray:
    """_bessel(kind, order, x) where live, 0 elsewhere; no call if nothing is live."""
    if live.all():
        return _bessel(kind, order, x)
    out = np.zeros_like(x)
    if live.any():
        out[live] = _bessel(kind, order, x[live])
    return out


def _zero_energy(kappa: float, cu: float, cw: float, r: np.ndarray):
    """(value, d/dr) of cu u + cw w at E = 0.  With m = ln(r/2) + _log_gamma_odd(nu),
    u(+-nu) = sqrt(r sinc(nu)) exp(+-nu m), and so w = sqrt(r sinc(nu)) times
    2 sinh(nu m) / sin(pi nu) - sign(kappa) tan(pi nu / 2) exp(kappa m)."""
    u = cu * r ** (0.5 + kappa) * (2.0 ** -kappa / gamma_fn(kappa + 1.0))
    value, d_dr = u, (0.5 + kappa) * u / r
    if cw != 0.0:
        nu = abs(kappa)
        _, _, tan_half, sinc = _pi_factors(nu)
        m = np.log(0.5 * r) + _log_gamma_odd(nu)
        grow = tan_half * np.exp(kappa * m)
        f = _sinh_ratio(nu, m) - math.copysign(1.0, kappa) * grow
        df = (2.0 / math.pi) * np.cosh(nu * m) / sinc - nu * grow  # nu df/dbeta
        scale = cw * math.sqrt(sinc) * np.sqrt(r)
        value = value + scale * f
        d_dr = d_dr + scale * (0.5 * f + df) / r
    return value, d_dr


def _checked_grid(kappa: float, E, r) -> tuple[np.ndarray, np.ndarray]:
    """E and r broadcast together, once kappa is finite, E is not NaN, r is
    finite and > 0, and |r**2 E| <= ZETA_BOUND (so E is finite) hold."""
    if not math.isfinite(kappa) or np.isnan(E).any():
        raise DomainError(f"the order must be finite and the energy not NaN (kappa={kappa})")
    if not np.all((r > 0.0) & (r < math.inf)):
        raise DomainError("radial coordinate must be finite and satisfy r > 0")
    E_b, r_b = np.broadcast_arrays(E, r)
    _check_zeta(r_b * r_b * E_b)
    return E_b, r_b


def _pair_coefficients(kappa: float, cu: float, cw: float, E) -> tuple:
    """(a, b) with cu u + cw w = sqrt(r) [a F + b G] at each energy E != 0, over
    the pair (F, G) of order |kappa|; b is None where G is not read (kappa >= 0
    with no w term)."""
    nu = abs(kappa)
    c, s, tan_half, _ = _pi_factors(nu)
    neg = E < 0.0
    M = np.where(E == 0.0, 1.0, np.abs(E))
    p = M ** (0.5 * nu)
    if kappa >= 0.0:
        a, b = cu / p, 0.0
    else:
        a = cu * np.where(neg, 1.0, c) * p
        b = cu * np.where(neg, 2.0 / math.pi, -1.0) * s * p
    if cw != 0.0:
        R = _sinh_ratio(nu, 0.5 * np.log(M))  # (p - 1/p) / sin(pi nu)
        if kappa >= 0.0:
            a = a - cw * (c * R + np.where(neg, tan_half, 0.0) * p)
        else:
            a = a + cw * (np.where(neg, tan_half, s) * p - R)
        b = b + cw * np.where(neg, -2.0 / math.pi, 1.0) * (1.0 if kappa >= 0.0 else c) * p
    return a, (b if kappa < 0.0 or cw != 0.0 else None)


def _assemble(kappa: float, cu: float, cw: float, E, r, derivative=False, bound=False):
    """(value, d/dr or None) of cu u + cw w; the pair coefficients (a, b) are
    formed per energy and broadcast over r.  a = 0 where bound (a mask over E,
    from _at_bound_state)."""
    # the Bessel routines underflow below |E| = 1e-200, where the E = 0 limit is exact
    E = np.where(np.abs(E) < 1e-200, 0.0, np.asarray(E, dtype=float))
    r = np.asarray(r, dtype=float)
    E_b, r_b = _checked_grid(kappa, E, r)
    nu = abs(kappa)
    a, b = _pair_coefficients(kappa, cu, cw, E)
    second = b is not None
    bound = np.broadcast_to(bound, E_b.shape)
    a, b = np.where(bound, 0.0, a), np.broadcast_to(b if second else 0.0, E_b.shape)
    value = np.empty(E_b.shape)
    d_dr = np.empty(E_b.shape) if derivative else None
    for mask, (F_kind, G_kind), sign in ((E_b > 0.0, (_J, _Y), -1.0), (E_b < 0.0, (_I, _K), 1.0)):
        if not mask.any():  # no point of this energy sign: no Bessel call
            continue
        k, rm, am, bm = np.sqrt(np.abs(E_b[mask])), r_b[mask], a[mask], b[mask]
        x, sq, live = rm * k, np.sqrt(rm), ~bound[mask]
        F = _bessel_where(F_kind, nu, x, live)
        G = _bessel(G_kind, nu, x) if second else 0.0
        value[mask] = sq * (am * F + bm * G)
        if derivative:
            # DLMF 10.6.2, 10.29.2 in the forms free of cancellation as x -> 0:
            # F' = (nu/x) F -+ F_{nu+1} and G' = -(nu/x) G +- G_{nu-1}
            slope = am * _bessel_where(F_kind, nu + 1.0, x, live)
            if second:  # G_{nu-1}: K is even in its order, Y by DLMF 10.4.7
                mu = abs(nu - 1.0)
                lower = _bessel(G_kind, mu, x)
                if G_kind is _Y and nu < 1.0:  # Y_{-mu} = sin(pi mu) J_mu + cos(pi mu) Y_mu
                    c, s, _, _ = _pi_factors(nu)
                    lower = s * _bessel(_J, mu, x) - c * lower
                slope = slope - bm * lower
            d_dr[mask] = sq * (((0.5 + nu) * am * F + (0.5 - nu) * bm * G) / rm + sign * k * slope)
    zero = E_b == 0.0
    if zero.any():
        value[zero], slope = _zero_energy(kappa, cu, cw, r_b[zero])
        if derivative:
            d_dr[zero] = slope
    return value, d_dr


def chi_kappa(kappa: float, zeta):
    """The entire function behind u: chi_kappa(zeta) = zeta**(-kappa/2) J_kappa(sqrt(zeta))."""
    val = _assemble(kappa, 1.0, 0.0, zeta, 1.0)[0]
    return float(val) if np.ndim(zeta) == 0 else val


def _kernel_terms(kappa: float, theta: float) -> tuple[float, float, float, float]:
    """(order, t, cu, cw) with the transform kernel cu u + cw w of that order and
    t = theta mod pi; the parity sign (-1)**n of theta = t + n pi is in (cu, cw),
    so theta -> theta + pi flips the kernel exactly."""
    if abs(kappa) >= 1.0:
        return abs(kappa), 0.0, 1.0, 0.0
    if not math.isfinite(theta):
        raise DomainError(f"the extension angle must be finite (theta={theta})")
    t, n = reduce_theta(theta)
    delta, sign = t - theta_kappa(kappa), (-1.0 if n % 2 else 1.0)
    return kappa, t, sign * math.cos(delta), sign * math.sin(delta)


def _at_bound_state(kappa: float, t: float, E) -> np.ndarray | bool:
    """Where E is the bound-state energy E_b of the extension (kappa, t), a
    normal double: there the kernel is the decaying K form (its I term vanishes,
    DLMF 10.40.1-2), so _assemble sets a = 0.  Off the branch, or where E_b
    leaves the double range, no E is E_b."""
    exponent = bound_state_exponent(kappa, t)
    if exponent is None or not _LOG_TINY <= exponent <= _LOG_HUGE:
        return False
    return np.asarray(E, dtype=float) == -math.exp(exponent)


def _kernel_coefficients(kappa: float, theta: float, E) -> tuple[np.ndarray, np.ndarray | None]:
    """(a, b) with radial_kernel(kappa, theta, E, r) = sqrt(r) [a F + b G] over
    (F, G) = _jy_pair(|kappa|, E, r) at energies E > 1e-200 other than E_b; b is
    None where the kernel reads no G (always for |kappa| >= 1)."""
    order, _, cu, cw = _kernel_terms(kappa, theta)
    return _pair_coefficients(order, cu, cw, E)


def radial_kernel(kappa: float, theta: float, E, r) -> np.ndarray:
    """Transform kernel values, no derivatives: u(|kappa|, E | r) for |kappa| >= 1
    (theta unused), else u_theta(kappa, theta, E | r), the decaying K form at E_b."""
    order, t, cu, cw = _kernel_terms(kappa, theta)
    return _assemble(order, cu, cw, E, r, bound=_at_bound_state(kappa, t, E))[0]


def _jy_pair(nu: float, E, r) -> tuple[np.ndarray, np.ndarray | None]:
    """(J_nu, Y_nu) at x = r sqrt(E) on the grid of E and r, checked first as
    radial_kernel checks it; Y_nu only for nu < 1, since the kernel of an order
    |kappa| >= 1 is u alone.  A node at the E = 0 limit (E <= 1e-200) or below
    it has no such pair and raises DomainError."""
    _checked_grid(nu, E, r)
    if not np.all(E > 1e-200):
        raise DomainError("the Bessel pair (J, Y) needs energies E > 1e-200")
    x = r * np.sqrt(E)
    return _bessel(_J, nu, x), (_bessel(_Y, nu, x) if nu < 1.0 else None)


def _eigen(E, r, value, d_dr) -> ValueWithDerivative:
    """An _assemble result, as floats at a scalar E and r."""
    if np.ndim(E) == 0 and np.ndim(r) == 0:
        return ValueWithDerivative(float(value), float(d_dr))
    return ValueWithDerivative(value, d_dr)


def u_eigen(kappa: float, E, r) -> ValueWithDerivative:
    """u(kappa, E | r) = r**(1/2+kappa) chi_kappa(r**2 E) and d/dr."""
    return _eigen(E, r, *_assemble(kappa, 1.0, 0.0, E, r, derivative=True))


def w_eigen(kappa: float, E, r) -> ValueWithDerivative:
    """Second real solution w(kappa, E); the reference partner of u in the
    extension family.  Only defined for |kappa| < 1."""
    if abs(kappa) >= 1.0:
        raise DomainError(f"w_eigen requires |kappa| < 1, got kappa={kappa}")
    return _eigen(E, r, *_assemble(kappa, 0.0, 1.0, E, r, derivative=True))


def u_theta_eigen(kappa: float, theta: float, E, r) -> ValueWithDerivative:
    """Extension-family eigenfunction u_theta = u cos(d) + w sin(d), d = theta - pi*kappa/2.

    Stable for all |kappa| < 1, kappa -> 0 included; the decaying K form at exactly E_b.
    Its value is radial_kernel's.
    """
    if abs(kappa) >= 1.0:
        raise DomainError(f"u_theta_eigen requires |kappa| < 1, got kappa={kappa}")
    _, t, cu, cw = _kernel_terms(kappa, theta)
    bound = _at_bound_state(kappa, t, E)
    return _eigen(E, r, *_assemble(kappa, cu, cw, E, r, derivative=True, bound=bound))


def wronskian(f: ValueWithDerivative, g: ValueWithDerivative):
    """W_r(f, g) = f g' - f' g for two sampled value/derivative pairs."""
    return np.asarray(f.value) * g.d_dr - np.asarray(f.d_dr) * g.value
