"""Closed-form references for the radial eigenfunctions, from scipy's Bessel
functions, and the tolerance each pointwise check uses.

Every reference is returned with its *scale*: the sum of the magnitudes of the
terms the closed form adds up.  The library sums the same terms, so its
rounding error is proportional to that scale, not to the (possibly cancelled)
result.  The tolerance follows the accuracy the README documents for the
series kernels chi and script_y: relative 1e-11 for |zeta| <= 100, and an
absolute floor beyond, where the E > 0 kernels are O(1) oscillations.  That
floor is 1e-10 in kernel units; the README says ~1e-12, but the mpmath
comparison recorded in ROADMAP.md measured 1.5e-11 at kappa = -0.7, and the
check must not fail on a figure the project already documents.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

EULER_GAMMA = 0.5772156649015328606
#: |zeta| up to which the README promises relative accuracy.
RELATIVE_ZETA = 100.0
RTOL = 1e-11
ATOL_KERNEL = 1e-10
#: kappa below which the library switches to its logarithmic kappa = 0 branch.
KAPPA_ZERO = 1e-6


def _kernel_error(chi_abs, zeta, E):
    """Error budget of one series kernel value (chi units)."""
    floor = np.where((np.abs(zeta) > RELATIVE_ZETA) & (E > 0.0), ATOL_KERNEL, 0.0)
    return RTOL * chi_abs + floor


def u_ref(nu: float, E: float, r: np.ndarray):
    """(value, error budget) of u(nu, E | r) = r**(1/2+nu) chi_nu(r**2 E)."""
    r = np.asarray(r, dtype=float)
    prefix = r ** (0.5 + nu)
    if E > 0.0:
        x = r * math.sqrt(E)
        chi = sp.jv(nu, x) * x ** (-nu)
    elif E < 0.0:
        y = r * math.sqrt(-E)
        chi = sp.iv(nu, y) * y ** (-nu)
    else:
        chi = np.full_like(r, 2.0 ** (-nu) / math.gamma(nu + 1.0))
    zeta = r * r * E
    return prefix * chi, prefix * _kernel_error(np.abs(chi), zeta, E)


def _w0_ref(E: float, r: np.ndarray):
    """(value, error budget) of the kappa = 0 partner w_0(E | r).

    w_0 = (2/pi)[(ln(r/2) + gamma) u_0 - sqrt(r) script_y(r**2 E)], which is
    sqrt(r)[Y_0(x) - ln(E) J_0(x) / pi] for E > 0 (x = r sqrt E) and
    -(2/pi) sqrt(r)[K_0(y) + ln|E| I_0(y) / 2] for E < 0 (y = r sqrt|E|).
    """
    sq = np.sqrt(r)
    zeta = r * r * E
    if E > 0.0:
        x = r * math.sqrt(E)
        j0, y0 = sp.j0(x), sp.y0(x)
        log_term = math.log(E) / math.pi
        value = sq * (y0 - log_term * j0)
        terms = np.abs(y0) + abs(log_term) * np.abs(j0)
    elif E < 0.0:
        y = r * math.sqrt(-E)
        i0, k0 = sp.i0(y), sp.k0(y)
        log_term = 0.5 * math.log(-E)
        value = -(2.0 / math.pi) * sq * (k0 + log_term * i0)
        terms = (2.0 / math.pi) * (np.abs(k0) + abs(log_term) * i0)
    else:
        lg = np.log(r / 2.0) + EULER_GAMMA
        value = (2.0 / math.pi) * sq * lg
        terms = np.abs(value) / sq
    return value, sq * _kernel_error(terms, zeta, E)


def u_theta_ref(kappa: float, theta: float, E: float, r: np.ndarray):
    """(value, error budget) of u_theta = u cos(d) + w sin(d), d = theta - pi kappa/2."""
    r = np.asarray(r, dtype=float)
    delta = theta - math.pi * kappa / 2.0
    c, s = math.cos(delta), math.sin(delta)
    u, u_err = u_ref(kappa, E, r)
    if abs(kappa) < KAPPA_ZERO:
        w, w_err = _w0_ref(E, r)
    else:
        um, um_err = u_ref(-kappa, E, r)
        cpk, spk = math.cos(math.pi * kappa), math.sin(math.pi * kappa)
        w = (u * cpk - um) / spk
        w_err = (u_err * abs(cpk) + um_err) / abs(spk)
        # float64 rounding of the reference's own cancellation
        w_err = w_err + 4e-16 * (np.abs(u * cpk) + np.abs(um)) / abs(spk)
    value = c * u + s * w
    err = abs(c) * u_err + abs(s) * w_err + 4e-16 * (abs(c * u) + abs(s * w))
    return value, err


def bound_state_energy(kappa: float, theta: float) -> float | None:
    """E_b of the extension (kappa, theta), or None on the atom-free branch."""
    t = theta % math.pi
    tk = abs(math.pi * kappa / 2.0)
    if not tk < t < math.pi - tk:
        return None
    if abs(kappa) < 1e-8:
        return -math.exp(math.pi * math.cos(t) / math.sin(t))
    tk = math.pi * kappa / 2.0
    return -((math.sin(t + tk) / math.sin(t - tk)) ** (1.0 / kappa))


def bound_state_ref(kappa: float, theta: float, E_b: float, r: np.ndarray):
    """u_theta at its own bound-state energy, free of cancellation:
    -(2/pi) sin(theta - pi kappa/2) |E_b|**(kappa/2) sqrt(r) K_kappa(sqrt|E_b| r)."""
    r = np.asarray(r, dtype=float)
    k = math.sqrt(-E_b)
    return (
        -(2.0 / math.pi)
        * math.sin(theta - math.pi * kappa / 2.0)
        * k**kappa
        * np.sqrt(r)
        * sp.kv(kappa, k * r)
    )
