"""Radial eigenfunction families for the inverse-square potential.

Everything here is built on two entire functions, evaluated in closed form
through scipy's Bessel routines (AMOS, Amos 1986, ACM TOMS Algorithm 644, and
Cephes for the integer orders of the kappa = 0 branch):

    chi_kappa(zeta) = zeta**(-kappa/2) J_kappa(sqrt(zeta))         zeta > 0
                    = |zeta|**(-kappa/2) I_kappa(sqrt(|zeta|))     zeta < 0
                    = 2**(-kappa) / Gamma(kappa + 1)               zeta = 0
    script_y(zeta)  = sum_{n>=1} (-zeta)**n c_n / ((n!)**2 4**n),  c_n = 1 + 1/2 + ... + 1/n

from which the generalized eigenfunctions are assembled:

    u(kappa, E | r)        = r**(1/2+kappa) chi_kappa(r**2 E)
    w(kappa, E)            = [u(kappa,E) cos(pi kappa) - u(-kappa,E)] / sin(pi kappa)
    u_theta(kappa,theta,E) = u cos(theta - pi*kappa/2) + w sin(theta - pi*kappa/2)

At kappa = 0, w is the logarithmic solution

    w(0, E | r) =  sqrt(r) [Y_0(x) - ln(E)/pi J_0(x)],                x = r sqrt(E),   E > 0
    w(0, E | r) = -sqrt(r) [ln|E|/pi I_0(y) + 2/pi K_0(y)],           y = r sqrt(-E),  E < 0

Radial derivatives come from the exact identity d chi_kappa / d zeta =
-chi_{kappa+1}(zeta) / 2 and from J_1, Y_1, I_1, K_1, never from finite
differences.  Half-odd-integer orders (every critical channel at flux
phi = 1/2) go through the spherical Bessel functions, which are closed forms
in sin, cos and exp and are accurate to a few ulp where jv(1/2, x) is not.

Measured against mpmath at 30 digits on zeta in [-2500, 2500] (see
tests/test_special.py), chi_kappa and its zeta-derivative are accurate to
1.3e-14 of max(1, |chi|) for zeta >= 0 and to 3.6e-15 relative for zeta < 0;
w(0, E | r) and its r-derivative to 1.3e-14 of max(1, |w|).

Arguments are restricted to |zeta| <= ZETA_BOUND and larger ones raise
SeriesDomainError.  The bound is a kept contract of the public API (energy
cutoffs across the library are derived from it), not a precision limit of the
kernels.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import special as sc

from .errors import DomainError, SeriesDomainError

#: Largest |r**2 E| accepted by the kernels (i.e. r sqrt|E| <= 50).
ZETA_BOUND = 2500.0

_EULER_GAMMA = 0.5772156649015328606
_KAPPA_ZERO_SWITCH = 1e-6


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


def _check_zeta(zeta: np.ndarray) -> None:
    if np.any(np.abs(zeta) > ZETA_BOUND):
        bad = float(np.max(np.abs(zeta)))
        raise SeriesDomainError(
            f"kernel argument |zeta|={bad:.6g} exceeds the supported bound {ZETA_BOUND:g}"
        )


def _chi(kappa: float, zeta: np.ndarray) -> np.ndarray:
    """chi_kappa(zeta) elementwise; zeta is a float array already checked."""
    out = np.where(zeta == 0.0, 2.0 ** (-kappa) / gamma_fn(kappa + 1.0), np.nan)
    pos, neg = zeta > 0.0, zeta < 0.0
    x, y = np.sqrt(zeta[pos]), np.sqrt(-zeta[neg])
    if (2.0 * kappa) % 2.0 != 1.0:
        out[pos] = x ** -kappa * sc.jv(kappa, x)
        out[neg] = y ** -kappa * sc.iv(kappa, y)
        return out
    # kappa = +-(n + 1/2):  J, I of order n + 1/2 are sqrt(2x/pi) j_n, i_n
    # (DLMF 10.47.3, 10.47.7), and by DLMF 10.2.3 and 10.27.2
    #   J_{-n-1/2} = (-1)**(n+1) sqrt(2x/pi) y_n,
    #   I_{-n-1/2} = sqrt(2x/pi) [i_n + (2/pi) (-1)**n k_n].
    n = int(abs(kappa))
    scale = math.sqrt(2.0 / math.pi)
    if kappa > 0.0:
        out[pos] = scale * x ** (0.5 - kappa) * sc.spherical_jn(n, x)
        out[neg] = scale * y ** (0.5 - kappa) * sc.spherical_in(n, y)
    else:
        sign = -1.0 if n % 2 else 1.0
        out[pos] = -sign * scale * x ** (0.5 - kappa) * sc.spherical_yn(n, x)
        out[neg] = scale * y ** (0.5 - kappa) * (
            sc.spherical_in(n, y) + (2.0 / math.pi) * sign * sc.spherical_kn(n, y)
        )
    return out


def _chi_with_slope(kappa: float, zeta) -> tuple[np.ndarray, np.ndarray]:
    """(chi_kappa(zeta), d chi_kappa / d zeta), elementwise.

    The derivative is d chi_kappa / d zeta = -chi_{kappa+1}(zeta) / 2
    (DLMF 10.6.6).
    """
    zeta = np.asarray(zeta, dtype=float)
    _check_zeta(zeta)
    return _chi(kappa, zeta), -0.5 * _chi(kappa + 1.0, zeta)


def chi_kappa(kappa: float, zeta):
    """The entire function behind u: chi_kappa(zeta) = zeta**(-kappa/2) J_kappa(sqrt(zeta))."""
    val, _ = _chi_with_slope(kappa, zeta)
    return float(val) if np.ndim(zeta) == 0 else val


def script_y(zeta):
    """Entire function carrying the logarithmic branch of the kappa=0 family.

    From pi Y_0(x) = 2 (ln(x/2) + gamma) J_0(x) - 2 script_y(x**2) and the
    matching identity for K_0 at negative argument.
    """
    z = np.asarray(zeta, dtype=float)
    _check_zeta(z)
    out = np.where(z == 0.0, 0.0, np.nan)
    pos, neg = z > 0.0, z < 0.0
    x, y = np.sqrt(z[pos]), np.sqrt(-z[neg])
    out[pos] = (np.log(x / 2.0) + _EULER_GAMMA) * sc.j0(x) - 0.5 * math.pi * sc.y0(x)
    out[neg] = (np.log(y / 2.0) + _EULER_GAMMA) * sc.i0(y) + sc.k0(y)
    return float(out) if np.ndim(zeta) == 0 else out


def _as_arrays(E, r):
    E = np.asarray(E, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("radial coordinate must satisfy r > 0")
    return np.broadcast_arrays(E, r)


def u_eigen(kappa: float, E, r) -> ValueWithDerivative:
    """u(kappa, E | r) = r**(1/2+kappa) chi_kappa(r**2 E) and d/dr."""
    E_b, r_b = _as_arrays(E, r)
    zeta = r_b * r_b * E_b
    chi, dchi = _chi_with_slope(kappa, zeta)
    rp = r_b ** (0.5 + kappa)
    value = rp * chi
    d_dr = (0.5 + kappa) * rp / r_b * chi + rp * dchi * 2.0 * r_b * E_b
    if np.ndim(E) == 0 and np.ndim(r) == 0:
        return ValueWithDerivative(float(value), float(d_dr))
    return ValueWithDerivative(value, d_dr)


def _w_eigen_zero(E, r) -> ValueWithDerivative:
    """kappa = 0 logarithmic branch, in closed form through J/Y (E > 0), I/K (E < 0)."""
    E_b, r_b = _as_arrays(E, r)
    _check_zeta(r_b * r_b * E_b)
    value, d_dr = np.full(E_b.shape, np.nan), np.full(E_b.shape, np.nan)
    sq = np.sqrt(r_b)
    pos, neg, zero = E_b > 0.0, E_b < 0.0, E_b == 0.0
    # E > 0: w = sqrt(r) f(x), f = Y0 - (ln E / pi) J0, x = r sqrt(E)
    k, s = np.sqrt(E_b[pos]), sq[pos]
    x, lg = r_b[pos] * k, np.log(E_b[pos]) / math.pi
    f = sc.y0(x) - lg * sc.j0(x)
    df = lg * sc.j1(x) - sc.y1(x)
    value[pos] = s * f
    d_dr[pos] = 0.5 * f / s + s * k * df
    # E < 0: w = -sqrt(r) g(y), g = (ln|E| / pi) I0 + (2 / pi) K0, y = r sqrt(-E)
    k, s = np.sqrt(-E_b[neg]), sq[neg]
    y, lg = r_b[neg] * k, np.log(-E_b[neg]) / math.pi
    g = lg * sc.i0(y) + (2.0 / math.pi) * sc.k0(y)
    dg = lg * sc.i1(y) - (2.0 / math.pi) * sc.k1(y)
    value[neg] = -s * g
    d_dr[neg] = -0.5 * g / s - s * k * dg
    # E = 0: w = (2/pi)(ln(r/2) + gamma) sqrt(r)
    s = sq[zero]
    lg = np.log(r_b[zero] / 2.0) + _EULER_GAMMA
    value[zero] = (2.0 / math.pi) * lg * s
    d_dr[zero] = (2.0 / math.pi) * (1.0 + 0.5 * lg) / s
    return ValueWithDerivative(value, d_dr)


def w_eigen(kappa: float, E, r) -> ValueWithDerivative:
    """Second real solution w(kappa, E); the reference partner of u in the
    extension family.  Only defined for |kappa| < 1."""
    if abs(kappa) >= 1.0:
        raise DomainError(f"w_eigen requires |kappa| < 1, got kappa={kappa}")
    if abs(kappa) < _KAPPA_ZERO_SWITCH:
        out = _w_eigen_zero(E, r)
    else:
        up = u_eigen(kappa, E, r)
        um = u_eigen(-kappa, E, r)
        c = math.cos(math.pi * kappa)
        s = math.sin(math.pi * kappa)
        out = ValueWithDerivative(
            (np.asarray(up.value) * c - um.value) / s,
            (np.asarray(up.d_dr) * c - um.d_dr) / s,
        )
    if np.ndim(E) == 0 and np.ndim(r) == 0:
        return ValueWithDerivative(float(out.value), float(out.d_dr))
    return out


def u_theta_eigen(kappa: float, theta: float, E, r) -> ValueWithDerivative:
    """Extension-family eigenfunction u_theta = u cos(d) + w sin(d), d = theta - pi*kappa/2.

    Numerically stable for all |kappa| < 1 including kappa -> 0, unlike the
    raw difference quotient defining w for small kappa.
    """
    if abs(kappa) >= 1.0:
        raise DomainError(f"u_theta_eigen requires |kappa| < 1, got kappa={kappa}")
    delta = theta - theta_kappa(kappa)
    c, s = math.cos(delta), math.sin(delta)
    u = u_eigen(kappa, E, r)
    if s == 0.0:
        out = ValueWithDerivative(np.asarray(u.value) * c, np.asarray(u.d_dr) * c)
    else:
        w = w_eigen(kappa, E, r)
        out = ValueWithDerivative(
            np.asarray(u.value) * c + np.asarray(w.value) * s,
            np.asarray(u.d_dr) * c + np.asarray(w.d_dr) * s,
        )
    if np.ndim(E) == 0 and np.ndim(r) == 0:
        return ValueWithDerivative(float(out.value), float(out.d_dr))
    return out


def wronskian(f: ValueWithDerivative, g: ValueWithDerivative):
    """W_r(f, g) = f g' - f' g for two sampled value/derivative pairs."""
    return np.asarray(f.value) * g.d_dr - np.asarray(f.d_dr) * g.value
