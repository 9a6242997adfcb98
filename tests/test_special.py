"""Tests of the eigenfunction families and their kernels against oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ab_spectral import special
from ab_spectral.ab3d import ChannelIndex, ThetaSpec, eigenfunction_3d
from ab_spectral.errors import DomainError, SeriesDomainError
from ab_spectral.measures import (
    ExtensionParams,
    bound_state_energy,
    discretize,
    spectral_measure,
)
from ab_spectral.special import (
    ZETA_BOUND,
    chi_kappa,
    gamma_fn,
    theta_kappa,
    u_eigen,
    u_theta_eigen,
    w_eigen,
    wronskian,
)
from ab_spectral.transform import kernel_matrix

mpmath.mp.dps = 30


def chi_oracle(kappa: float, zeta: float) -> float:
    """High-precision reference: zeta**(-kappa/2) * J_kappa(sqrt(zeta))."""
    z = mpmath.mpf(zeta)
    return float(mpmath.besselj(kappa, mpmath.sqrt(z)) / z ** (mpmath.mpf(kappa) / 2))


class TestChiKappa:
    @pytest.mark.parametrize("kappa", [0.0, 0.3, -0.3, 0.9, -0.9, 1.5, 3.0])
    @pytest.mark.parametrize("zeta", [0.01, 1.0, 25.0, 100.0, 900.0, 2400.0])
    def test_against_bessel_oracle(self, kappa, zeta):
        # Relative accuracy up to moderate arguments; at extreme arguments the
        # double-double accumulation guarantees ~1e-12 absolute accuracy (the
        # cancelled terms reach ~1e19 against results that can be << 1).
        expected = chi_oracle(kappa, zeta)
        error = abs(chi_kappa(kappa, zeta) - expected)
        if zeta <= 100.0:
            assert error < 1e-11 * max(abs(expected), 1e-8)
        else:
            assert error < 5e-12

    def test_negative_zeta(self):
        # negative arguments correspond to E < 0; oracle via modified Bessel
        kappa, zeta = 0.4, -50.0
        z = mpmath.sqrt(mpmath.mpf(-zeta))
        expected = float(mpmath.besseli(kappa, z) / z ** mpmath.mpf(kappa))
        assert abs(chi_kappa(kappa, zeta) - expected) / abs(expected) < 1e-12

    def test_half_order_closed_form(self):
        zeta = np.linspace(0.5, 100.0, 57)
        exact = math.sqrt(2.0 / math.pi) * np.sin(np.sqrt(zeta)) / np.sqrt(zeta)
        assert np.max(np.abs(chi_kappa(0.5, zeta) - exact)) < 1e-14

    def test_at_zero(self):
        # chi_kappa(0) = 2**-kappa / Gamma(kappa + 1)
        for kappa in (0.0, 0.5, 2.0):
            expected = 2.0**-kappa / gamma_fn(kappa + 1.0)
            assert chi_kappa(kappa, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_domain_bound_enforced(self):
        with pytest.raises(SeriesDomainError):
            chi_kappa(0.5, ZETA_BOUND * 1.01)
        chi_kappa(0.5, ZETA_BOUND)  # the bound itself is allowed

    def test_vectorized_matches_scalar(self):
        zeta = np.array([0.1, 10.0, 500.0])
        vec = chi_kappa(0.7, zeta)
        for i, z in enumerate(zeta):
            assert vec[i] == chi_kappa(0.7, float(z))


class TestEigenfunctions:
    @pytest.mark.parametrize("kappa", [0.0, 0.3, -0.7, 1.5])
    @pytest.mark.parametrize("E", [-2.0, 0.0, 5.0])
    def test_derivative_consistent_with_finite_difference(self, kappa, E):
        r, h = 1.3, 1e-5
        numeric = (u_eigen(kappa, E, r + h).value - u_eigen(kappa, E, r - h).value) / (
            2 * h
        )
        assert u_eigen(kappa, E, r).d_dr == pytest.approx(numeric, rel=1e-8, abs=1e-9)

    def test_u_leading_power(self):
        # u(kappa, E | r) ~ r**(1/2 + kappa) * chi_kappa(0) as r -> 0
        kappa, E = 0.4, 3.0
        r = 1e-4
        expected = r ** (0.5 + kappa) * chi_kappa(kappa, 0.0)
        assert u_eigen(kappa, E, r).value == pytest.approx(expected, rel=1e-6)

    def test_half_order_sine(self):
        # u(1/2, E | r) = sqrt(2/pi) sin(r sqrt(E)) / sqrt(E)
        E, r = 4.0, np.linspace(0.3, 3.0, 11)
        exact = math.sqrt(2 / math.pi) * np.sin(r * math.sqrt(E)) / math.sqrt(E)
        assert np.max(np.abs(u_eigen(0.5, E, r).value - exact)) < 1e-15

    @pytest.mark.parametrize("E", [-2.0, 3.0])
    def test_negative_integer_order_is_the_positive_one(self, E):
        # J_{-2} = J_2 and I_{-2} = I_2, so u(-2) = E**2 u(2): cos and sin of
        # 2 pi are exactly 1 and 0, and no Y_2 or K_2 term enters as r -> 0
        r = np.geomspace(1e-3, 3.0, 9)
        got, expected = u_eigen(-2.0, E, r).value, E**2 * u_eigen(2.0, E, r).value
        assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))

    def test_w_zero_order_closed_form_at_E0(self):
        # w(0, 0 | r) = (2/pi)(ln(r/2) + gamma) sqrt(r)
        for r in (0.2, 1.0, 7.0):
            expected = (
                2.0
                / math.pi
                * (math.log(r / 2.0) + float(mpmath.euler))
                * math.sqrt(r)
            )
            assert w_eigen(0.0, 0.0, r).value == pytest.approx(expected, rel=1e-13)

    def test_w_continuous_at_kappa_switch(self):
        # one form serves every kappa: w passes continuously into the log solution
        E, r = 2.0, 1.4
        below = w_eigen(5e-7, E, r).value
        above = w_eigen(5e-6, E, r).value
        assert below == pytest.approx(above, rel=1e-4)

    @pytest.mark.parametrize("kappa", [1.0 - 1e-9, math.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("E", [-1.0, 1.0])
    def test_w_next_to_kappa_one(self, kappa, E):
        """Within ~5e-9 of kappa = 1 cos(pi kappa) rounds to -1; the factors of
        pi kappa are formed from 1 - kappa there, not divided by zero."""
        r = np.array([0.5, 1.3, 3.0])
        oracle = np.array([w_oracle(kappa, E, x) for x in r], dtype=float)
        _assert_close(w_eigen(kappa, E, r), oracle)

    def test_w_requires_extension_family(self):
        with pytest.raises(DomainError):
            w_eigen(1.0, 0.0, 1.0)

    def test_u_theta_at_reference_angle_is_u(self):
        kappa, E, r = 0.3, 2.0, 1.1
        ref = u_theta_eigen(kappa, theta_kappa(kappa), E, r)
        plain = u_eigen(kappa, E, r)
        assert ref.value == plain.value  # exact: the sin term short-circuits

    def test_positive_r_required(self):
        with pytest.raises(DomainError):
            u_eigen(0.5, 1.0, 0.0)

    def test_gamma_pole_rejected(self):
        with pytest.raises(DomainError):
            gamma_fn(-2.0)


class TestWronskian:
    @pytest.mark.parametrize("kappa", [0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9])
    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_u_w_wronskian_is_two_over_pi(self, kappa, r):
        u = u_eigen(kappa, 0.0, r)
        w = w_eigen(kappa, 0.0, r)
        assert wronskian(u, w) == pytest.approx(2.0 / math.pi, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        kappa=st.floats(-0.95, 0.95),
        r=st.floats(0.05, 3.0),
        E=st.floats(-2.0, 5.0),
    )
    def test_wronskian_independent_of_r_and_E(self, kappa, r, E):
        # W_r(u(E), w(E)) = 2/pi for every E, not only E = 0.  Deep negative
        # energies are excluded: both solutions grow like exp(r sqrt(-E)) and
        # the Wronskian cancellation amplifies roundoff accordingly.
        u = u_eigen(kappa, E, r)
        w = w_eigen(kappa, E, r)
        assert wronskian(u, w) == pytest.approx(2.0 / math.pi, abs=1e-9)


SWEEP_KAPPAS = [0.0, 0.3, -0.3, 0.5, -0.5, -0.7, 0.9, 1.5, 2.5, 3.5]
_MAGNITUDES = np.geomspace(1e-6, ZETA_BOUND, 40)
SWEEP_ZETA = np.unique(
    np.concatenate(
        [-_MAGNITUDES, [0.0], _MAGNITUDES, np.linspace(-ZETA_BOUND, ZETA_BOUND, 41)]
    )
)


def chi_with_slope_oracle(kappa: float, zeta: float) -> tuple[float, float]:
    """(chi_kappa, d chi_kappa / d zeta) from mpmath J/I and their x-derivatives."""
    k = mpmath.mpf(kappa)
    if zeta == 0.0:
        value = mpmath.mpf(2) ** -k / mpmath.gamma(k + 1)
        slope = -(mpmath.mpf(2) ** (-k - 2)) / mpmath.gamma(k + 2)
        return float(value), float(slope)
    bessel = mpmath.besselj if zeta > 0 else mpmath.besseli
    x = mpmath.sqrt(abs(mpmath.mpf(zeta)))
    f, df = bessel(k, x), bessel(k, x, derivative=1)
    dx_dzeta = 1 / (2 * x) if zeta > 0 else -1 / (2 * x)
    value = x**-k * f
    slope = (-k * x ** (-k - 1) * f + x**-k * df) * dx_dzeta
    return float(value), float(slope)


def w_zero_oracle(E: float, r: float) -> tuple[float, float]:
    """(w(0, E | r), d/dr) from mpmath Y0/J0 (E > 0) or K0/I0 (E < 0)."""
    E, r = mpmath.mpf(E), mpmath.mpf(r)
    k, lg, sq = mpmath.sqrt(abs(E)), mpmath.log(abs(E)) / mpmath.pi, mpmath.sqrt(r)
    x = r * k
    if E > 0:
        f = mpmath.bessely(0, x) - lg * mpmath.besselj(0, x)
        df = -mpmath.bessely(1, x) + lg * mpmath.besselj(1, x)
    else:
        f = -(lg * mpmath.besseli(0, x) + 2 / mpmath.pi * mpmath.besselk(0, x))
        df = -(lg * mpmath.besseli(1, x) - 2 / mpmath.pi * mpmath.besselk(1, x))
    return float(sq * f), float(f / (2 * sq) + sq * k * df)


KERNEL_KAPPAS = SWEEP_KAPPAS + [1e-7, -1e-7, 1e-4, -1e-4]
KERNEL_ENERGIES = [-1e3, -30.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 30.0, 1e3]
KERNEL_R = np.geomspace(0.05, 50.0, 9)


def u_oracle(kappa, E, r):
    """(u(kappa, E | r), d/dr) from mpmath J/I (E != 0) or the power at E = 0."""
    k, E, r = mpmath.mpf(kappa), mpmath.mpf(E), mpmath.mpf(r)
    if E == 0:
        value = r ** (k + 0.5) * 2**-k / mpmath.gamma(k + 1)
        return value, (k + 0.5) * value / r
    bessel, s = (mpmath.besselj if E > 0 else mpmath.besseli), mpmath.sqrt(abs(E))
    f, df = bessel(k, r * s), bessel(k, r * s, derivative=1)
    scale = abs(E) ** (-k / 2)
    return scale * mpmath.sqrt(r) * f, scale * (f / (2 * mpmath.sqrt(r)) + mpmath.sqrt(r) * s * df)


def w_oracle(kappa, E, r):
    """(w, d/dr) from its definition at 80 digits, which absorbs the cancellation
    of growing terms; kappa = 0 is taken at kappa = 1e-40."""
    with mpmath.workdps(80):
        k = mpmath.mpf(kappa) if kappa != 0.0 else mpmath.mpf("1e-40")
        up, um = u_oracle(k, E, r), u_oracle(-k, E, r)
        c, s = mpmath.cos(mpmath.pi * k), mpmath.sin(mpmath.pi * k)
        return (up[0] * c - um[0]) / s, (up[1] * c - um[1]) / s


def u_theta_oracle(kappa, theta, E, r):
    """(u_theta, d/dr); u(|kappa|) for |kappa| >= 1, as the transform kernel."""
    if abs(kappa) >= 1.0:
        return u_oracle(abs(kappa), E, r)
    delta = mpmath.mpf(theta) - mpmath.pi * mpmath.mpf(kappa) / 2
    u, w = u_oracle(kappa, E, r), w_oracle(kappa, E, r)
    return tuple(mpmath.cos(delta) * a + mpmath.sin(delta) * b for a, b in zip(u, w))


def bound_state_oracle(kappa, theta, E, r):
    """-(2/pi) sin(theta - pi kappa/2) |E|**(kappa/2) sqrt(r) K_|kappa|(sqrt|E| r)."""
    k, y = mpmath.mpf(kappa), mpmath.sqrt(-mpmath.mpf(E))
    amplitude = -2 / mpmath.pi * mpmath.sin(mpmath.mpf(theta) - mpmath.pi * k / 2)
    values = [amplitude * y**k * mpmath.sqrt(x) * mpmath.besselk(abs(k), y * x) for x in r]
    return np.array(values, dtype=float)


def _assert_close(got, oracle, positive=False):
    """Value and d/dr within 2e-13 of max(1, |f|); a positive value (u at E < 0)
    within 2e-14 relative."""
    for values, expected in ((got.value, oracle[:, 0]), (got.d_dr, oracle[:, 1])):
        scale = np.maximum(1.0, np.abs(expected))
        assert np.all(np.abs(values - expected) <= 2e-13 * scale)
    if positive:
        assert np.all(np.abs(got.value - oracle[:, 0]) <= 2e-14 * oracle[:, 0])


class TestBesselKernelSweep:
    """30-digit mpmath sweep of the closed-form kernels over the whole supported
    range, zeta in [-ZETA_BOUND, ZETA_BOUND] with zeta = 0 exactly.

    Tolerances are 100x tighter than the point tests above (5e-12 absolute,
    1e-12 relative), and the point tests' relative bound is kept on
    |zeta| <= 100.  Worst errors measured with scipy 1.17.1:

    - chi_kappa, zeta >= 0: 1.3e-14 of max(1, |chi|) (value, kappa = -0.7);
      2.3e-14 relative on |zeta| <= 100 (value, kappa = 0.9).
    - chi_kappa, zeta < 0: 3.8e-15 relative (slope, kappa = 0.3).
    - w(0, E | r): 6.7e-15 of max(1, |w|) for the value and 1.3e-14 of
      max(1, |dw/dr|) for the derivative, over both signs of E.
    """

    @pytest.mark.parametrize("kappa", SWEEP_KAPPAS)
    def test_chi_and_slope(self, kappa):
        # d chi_kappa / d zeta = -chi_{kappa+1} / 2 (DLMF 10.6.6)
        value, slope = chi_kappa(kappa, SWEEP_ZETA), -0.5 * chi_kappa(kappa + 1, SWEEP_ZETA)
        oracle = np.array([chi_with_slope_oracle(kappa, z) for z in SWEEP_ZETA])
        for got, expected in ((value, oracle[:, 0]), (slope, oracle[:, 1])):
            error = np.abs(got - expected)
            neg = SWEEP_ZETA < 0
            assert np.all(error[neg] <= 1e-14 * np.abs(expected[neg]))
            assert np.all(error[~neg] <= 5e-14 * np.maximum(1.0, np.abs(expected[~neg])))
            small = np.abs(SWEEP_ZETA) <= 100.0
            assert np.all(
                error[small] <= 1e-11 * np.maximum(np.abs(expected[small]), 1e-8)
            )

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_w_zero_order(self, sign):
        r = np.geomspace(0.05, 50.0, 13)
        for magnitude in np.geomspace(1e-4, 1e4, 17):
            E = sign * magnitude
            rr = r[r * r * magnitude <= ZETA_BOUND]
            got = w_eigen(0.0, E, rr)
            oracle = np.array([w_zero_oracle(E, x) for x in rr])
            for values, expected in ((got.value, oracle[:, 0]), (got.d_dr, oracle[:, 1])):
                error = np.abs(values - expected)
                assert np.all(error <= 5e-14 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("kappa", KERNEL_KAPPAS)
    def test_eigenfunctions_and_slopes(self, kappa):
        """u, w, u_theta and d/dr at E < 0, E = 0 and E > 0 against the defining
        Bessel forms.  Worst errors measured with scipy 1.17.1: 6.7e-14 of
        max(1, |f|) (d/dr of u, kappa = -0.7, E = 1000), and 3.8e-15 relative
        for the value of u at E < 0."""
        for E in KERNEL_ENERGIES:
            r = KERNEL_R[KERNEL_R**2 * abs(E) <= ZETA_BOUND]
            u = np.array([u_oracle(kappa, E, x) for x in r], dtype=float)
            _assert_close(u_eigen(kappa, E, r), u, positive=E < 0)
            if abs(kappa) >= 1.0:
                continue
            w = np.array([w_oracle(kappa, E, x) for x in r], dtype=float)
            _assert_close(w_eigen(kappa, E, r), w)
            for theta in (1.0, 2.5):
                delta = theta - theta_kappa(kappa)
                expected = math.cos(delta) * u + math.sin(delta) * w
                _assert_close(u_theta_eigen(kappa, theta, E, r), expected)

    @pytest.mark.parametrize(
        "kappa,theta", [(0.3, 1.0), (1e-7, 1.2), (-0.7, 2.0), (-0.5, 1.0), (0.0, 2.0), (2.5, 0.0)]
    )
    def test_kernel_matrix_rows(self, kappa, theta):
        """Continuum rows of kernel_matrix are u_theta (u(|kappa|) for
        |kappa| >= 1), atom rows the bound eigenfunction, both with the
        parity sign of theta + pi."""
        params = ExtensionParams(kappa, theta + math.pi)
        sign = -1.0 if abs(kappa) < 1.0 else 1.0
        quad = discretize(spectral_measure(params), 100.0)
        r = KERNEL_R[(KERNEL_R >= 0.1) & (KERNEL_R <= 2.0)]
        K = np.eye(len(quad.nodes)) @ kernel_matrix(params, quad, r)  # every row, as c @ K
        n = len(quad.e_nodes)
        for i in range(0, n, 29):
            E = quad.e_nodes[i]
            expected = sign * np.array([u_theta_oracle(kappa, theta, E, x)[0] for x in r])
            assert np.all(np.abs(K[i] - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))
        for row, (E, _) in zip(K[n:], quad.atoms):
            expected = sign * bound_state_oracle(kappa, theta, E, r)
            assert np.all(np.abs(row - expected) <= 1e-13 * np.abs(expected))

    @pytest.mark.parametrize("kappa", [0.3, -0.7, 0.0, 0.5, -0.5])
    def test_bound_state_rows_approaching_threshold(self, kappa):
        """theta -> |pi kappa / 2|+ drives the bound state deep.  Over the whole
        range r sqrt|E_b| <= 50 the atom row matches the K form of
        bound_state_oracle to 1e-13 relative (2.1e-14 measured), while the
        two-term form u cos + w sin, which cancels growing I terms, misses it."""
        tk = abs(theta_kappa(kappa))
        for gap in (0.8, 0.4, 0.2, 0.1):
            params = ExtensionParams(kappa, tk + gap)
            quad = discretize(spectral_measure(params), 0.0)  # the atom alone
            (energy, _), = quad.atoms
            r = np.sqrt(ZETA_BOUND / abs(energy)) * np.geomspace(0.01, 0.999, 9)
            (row,) = np.eye(1) @ kernel_matrix(params, quad, r)
            expected = bound_state_oracle(kappa, tk + gap, energy, r)
            assert np.all(np.abs(row - expected) <= 1e-13 * np.abs(expected))
        delta = tk + gap - theta_kappa(kappa)
        two_term = (
            u_eigen(kappa, energy, r).value * math.cos(delta)
            + w_eigen(kappa, energy, r).value * math.sin(delta)
        )
        assert not np.all(np.abs(two_term - expected) <= 1e-13 * np.abs(expected))


class TestNearIntegerKernels:
    """w and u_theta, value and d/dr, at |kappa| near 0 and near 1, against
    80-digit mpmath, within 1e-14 of max(1, |f|).  Every factor of pi nu comes
    from one helper that forms it from 1 - nu past nu = 1/2; the earlier
    tan(pi nu / 2) = sin(pi nu) / (1 + cos(pi nu)) and sinc(nu) left w off by
    22 % at kappa = 1 - 1e-8, E = 0 and by 76 % at kappa = nextafter(1, 0).
    Worst measured: 8.2e-15 (u_theta at kappa = -(1 - 1e-8))."""

    R = np.array([0.5, 1.3, 3.0])

    @staticmethod
    def _assert_within(got, oracle):
        for values, expected in ((got.value, oracle[:, 0]), (got.d_dr, oracle[:, 1])):
            assert np.all(np.abs(values - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize(
        "kappa",
        [sign * k for k in (1e-12, 1e-8, 1e-5, 1 - 1e-6, 1 - 1e-8, 1 - 1e-9) for sign in (1, -1)]
        + [math.nextafter(1.0, 0.0)],
    )
    @pytest.mark.parametrize("E", [-1.0, 0.0, 1.0])
    def test_w_and_u_theta(self, kappa, E):
        w = np.array([w_oracle(kappa, E, x) for x in self.R], dtype=float)
        self._assert_within(w_eigen(kappa, E, self.R), w)
        u = np.array([u_theta_oracle(kappa, 1.3, E, x) for x in self.R], dtype=float)
        self._assert_within(u_theta_eigen(kappa, 1.3, E, self.R), u)

    @pytest.mark.parametrize("kappa", [5e-324, -5e-324, np.finfo(float).tiny, -1e-300])
    @pytest.mark.parametrize("E", [-1.0, 0.0, 1.0])
    def test_below_the_normal_range(self, kappa, E):
        """For nu below the normal range the sinh ratio takes its nu = 0 limit,
        as nu m would underflow and 1 / nu overflow; just above it, a radius
        where m = ln(r/2) + Euler's gamma is near 0 puts nu m in the subnormal
        range.  w and u_theta differ from their kappa = 0 values by O(kappa),
        so the kappa = 0 oracle serves."""
        r = np.append(self.R, 2.0 * math.exp(-float(mpmath.euler)))
        w = np.array([w_oracle(0.0, E, x) for x in r], dtype=float)
        self._assert_within(w_eigen(kappa, E, r), w)
        u = np.array([u_theta_oracle(0.0, 1.3, E, x) for x in r], dtype=float)
        self._assert_within(u_theta_eigen(kappa, 1.3, E, r), u)


def bound_state_slope_oracle(kappa, theta, E, r):
    """d/dr of bound_state_oracle, with K_nu' = -(K_{nu-1} + K_{nu+1}) / 2."""
    k, y = mpmath.mpf(kappa), mpmath.sqrt(-mpmath.mpf(E))
    nu = abs(k)
    amplitude = -2 / mpmath.pi * mpmath.sin(mpmath.mpf(theta) - mpmath.pi * k / 2)
    slopes = []
    for x in r:
        x = mpmath.mpf(x)
        K = mpmath.besselk(nu, y * x)
        dK = -(mpmath.besselk(nu - 1, y * x) + mpmath.besselk(nu + 1, y * x)) / 2
        slopes.append(amplitude * y**k * (K / (2 * mpmath.sqrt(x)) + mpmath.sqrt(x) * y * dK))
    return np.array(slopes, dtype=float)


class TestBoundStateEigenfunction:
    """The public eigenfunctions at the extension's own bound-state energy are
    the decaying K form, like the kernel_matrix atom rows; summing the growing
    I terms there left an error far above the decaying value."""

    @pytest.mark.parametrize(
        "kappa,theta", [(0.3, 0.7), (0.3, 0.7 + math.pi), (-0.7, 1.2), (0.0, 0.5), (0.5, 1.0)]
    )
    def test_u_theta_at_bound_state(self, kappa, theta):
        """u_theta and radial_kernel, which is told nothing about E_b, both take
        the K form there out to 0.999 of the zeta bound; the two-term sum was
        wrong by 3e27 relative at r = 4.83 for kappa = 0.3, theta = 0.7."""
        energy = bound_state_energy(ExtensionParams(kappa, theta))
        r = np.sqrt(ZETA_BOUND / abs(energy)) * np.geomspace(0.01, 0.999, 9)
        got = u_theta_eigen(kappa, theta, energy, r)
        value = bound_state_oracle(kappa, theta, energy, r)
        slope = bound_state_slope_oracle(kappa, theta, energy, r)
        assert np.all(np.abs(got.value - value) <= 1e-13 * np.abs(value))
        assert np.all(np.abs(got.d_dr - slope) <= 1e-13 * np.abs(slope))
        assert np.array_equal(special.radial_kernel(kappa, theta, energy, r), got.value)

    def test_scalar_far_out(self):
        """kappa = 0.3, theta = 0.7 (E_b = -106.97) at r = 1.5 and 3, where the
        two-term sum gave -2.0716e-8 and -4.126e-4."""
        energy = bound_state_energy(ExtensionParams(0.3, 0.7))
        for r in (1.5, 3.0):
            got = u_theta_eigen(0.3, 0.7, energy, r)
            (value,) = bound_state_oracle(0.3, 0.7, energy, [r])
            (slope,) = bound_state_slope_oracle(0.3, 0.7, energy, [r])
            assert isinstance(got.value, float)
            assert got.value == pytest.approx(value, rel=1e-13)
            assert got.d_dr == pytest.approx(slope, rel=1e-13)

    def test_mask_is_elementwise(self):
        """Only the entries at E_b take the K form: every entry of one array call
        equals the scalar call at its energy, one ulp off E_b included."""
        kappa, theta = 0.3, 0.7
        energy = bound_state_energy(ExtensionParams(kappa, theta))
        E = np.array([energy, -1.0, 2.0, np.nextafter(energy, 0.0)])
        got = u_theta_eigen(kappa, theta, E, 3.0)
        for i, e in enumerate(E):
            scalar = u_theta_eigen(kappa, theta, float(e), 3.0)
            assert (got.value[i], got.d_dr[i]) == (scalar.value, scalar.d_dr)
        assert got.value[0] == pytest.approx(bound_state_oracle(kappa, theta, energy, [3.0])[0])
        assert abs(got.value[3]) > 1e6 * abs(got.value[0])  # the growing I term is kept

    @pytest.mark.parametrize("kappa, theta", [(0.3, 0.7), (-0.7, 1.2), (0.0, 0.5), (0.5, 1.0)])
    def test_bound_state_skips_the_growing_term(self, kappa, theta, monkeypatch):
        """Where a = 0 no I_nu or I_{nu+1} is evaluated: an atom row and u_theta
        at E_b call K alone, and every value and slope is bit for bit the one
        that evaluating I everywhere (and multiplying it by 0) gives."""
        energy = bound_state_energy(ExtensionParams(kappa, theta))
        r = np.sqrt(ZETA_BOUND / abs(energy)) * np.geomspace(0.01, 0.999, 9)
        E = np.array([[energy], [-1.0], [2.0]])

        def evaluate():
            row = special.radial_kernel(kappa, theta, energy, r)
            mixed = special.radial_kernel(kappa, theta, E, r[None, :])
            return (row, mixed, *u_theta_eigen(kappa, theta, energy, r))

        original, kinds = special._bessel, []

        def counted(kind, order, x):
            kinds.append(kind)
            return original(kind, order, x)

        monkeypatch.setattr(special, "_bessel", counted)
        special.radial_kernel(kappa, theta, energy, r)
        assert kinds == [special._K]
        kinds.clear()
        u_theta_eigen(kappa, theta, energy, r)
        assert set(kinds) == {special._K}
        got = evaluate()
        # as before: the growing term evaluated everywhere, then multiplied by 0
        monkeypatch.setattr(
            special, "_bessel_where", lambda kind, order, x, live: original(kind, order, x)
        )
        for new, before in zip(got, evaluate()):
            assert new.tobytes() == before.tobytes()

    @pytest.mark.parametrize("theta", [0.001, math.pi - 0.001])
    def test_no_bound_state_energy_past_the_double_range(self, theta):
        """kappa = 0 with theta 0.001 from an end of the bound-state branch: E_b =
        -exp(pi cot theta) is no double, so no energy is E_b, and u_theta and the
        3D eigenfunction at E = 1 are radial_kernel's finite values; only the
        measure, which would hold E_b as its atom, raises."""
        r = np.linspace(0.5, 3.0, 4)
        kernel = special.radial_kernel(0.0, theta, 1.0, r)
        got = u_theta_eigen(0.0, theta, 1.0, r)
        assert np.all(np.isfinite(kernel)) and np.all(np.isfinite(got.d_dr))
        assert np.array_equal(got.value, kernel)
        spec = ThetaSpec.constant(1.0, theta)  # channel m = -1 has kappa = 0
        for x, radial in zip(r, kernel):
            psi = eigenfunction_3d(spec, ChannelIndex(-1, 0.0), 1.0, (x, 0.0, 0.0))
            assert psi == pytest.approx(radial / (2 * math.pi * math.sqrt(x)), rel=1e-15)
        params = ExtensionParams(0.0, theta)
        for measure in (bound_state_energy, spectral_measure):
            with pytest.raises(DomainError, match="double range"):
                measure(params)

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        theta=st.floats(-20.0, 20.0),
        E=st.floats(0.01, 100.0),
        negative=st.booleans(),
    )
    def test_theta_plus_pi_flips_exactly(self, kappa, theta, E, negative):
        """Wherever theta + pi rounds to the class of theta (the same theta mod
        pi), the kernel and u_theta with d/dr are bit for bit negated."""
        assume(special.reduce_theta(theta + math.pi)[0] == special.reduce_theta(theta)[0])
        E, r = -E if negative else E, np.linspace(0.5, 4.0, 5)
        for evaluate in (
            lambda t: special.radial_kernel(kappa, t, E, r),
            lambda t: u_theta_eigen(kappa, t, E, r).value,
            lambda t: u_theta_eigen(kappa, t, E, r).d_dr,
        ):
            assert (-evaluate(theta + math.pi)).tobytes() == evaluate(theta).tobytes()

    @pytest.mark.parametrize("theta", [0.7, 0.7 + math.pi])
    def test_eigenfunction_3d_at_bound_state(self, theta):
        """phi = 0.3, channel m = 0 (kappa = 0.3) at its own E_b, off the support."""
        spec = ThetaSpec.constant(0.3, theta)
        energy = bound_state_energy(ExtensionParams(0.3, theta))
        x1, x2, x3, p = 1.8, 2.4, 0.4, 1.5
        r = math.hypot(x1, x2)  # 3.0
        (radial,) = bound_state_oracle(0.3, theta, energy, [r])
        expected = np.exp(1j * p * x3) * radial / (2 * math.pi * math.sqrt(r))  # m = 0
        got = eigenfunction_3d(spec, ChannelIndex(0, p), energy, (x1, x2, x3))
        assert abs(got - expected) <= 1e-13 * abs(expected)


class TestEnergySignBranches:
    """A call whose energies all have one sign evaluates only that sign's
    Bessel pair: no J/Y on negative energies, no I/K on positive ones."""

    @pytest.fixture
    def bessel_sizes(self, monkeypatch):
        sizes = []
        original = special._bessel

        def counted(kind, order, x):
            sizes.append(np.size(x))
            return original(kind, order, x)

        monkeypatch.setattr(special, "_bessel", counted)
        return sizes

    def test_no_bessel_call_on_an_empty_branch(self, bessel_sizes):
        r = np.linspace(0.5, 3.0, 8)
        E = np.array([[2.0], [5.0]])
        special.radial_kernel(0.3, 1.0, E, r)
        energy = bound_state_energy(ExtensionParams(0.3, math.pi / 2))  # -1.0000000000000002
        special.radial_kernel(0.3, math.pi / 2, energy, r)
        u_theta_eigen(-0.7, 1.0, 2.0, r)
        u_theta_eigen(0.3, math.pi / 2, -1.0, r)
        assert bessel_sizes and 0 not in bessel_sizes


class TestNonFiniteInputs:
    """A NaN or infinite order, energy or radius is a typed error, never a value."""

    @pytest.mark.parametrize("zeta", [math.nan, [math.nan, 1.0], [1.0, math.nan]])
    def test_chi_kappa_nan_argument(self, zeta):
        for _ in range(2):  # before, a NaN left uninitialized memory in the result
            with pytest.raises(DomainError):
                chi_kappa(0.3, zeta)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_order(self, kappa):
        with pytest.raises(DomainError):
            u_eigen(kappa, 1.0, 1.0)
        with pytest.raises(DomainError):
            w_eigen(kappa, 1.0, 1.0)
        with pytest.raises(DomainError):
            special.radial_kernel(kappa, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_extension_angle(self, theta):
        # before, a NaN theta gave a NaN kernel and an infinite one a bare
        # ValueError from math.cos
        with pytest.raises(DomainError):
            special.radial_kernel(0.3, theta, 1.0, 1.0)
        # off the extension family theta is not read
        assert math.isfinite(special.radial_kernel(1.5, theta, 1.0, 1.0))

    @pytest.mark.parametrize("r", [math.nan, math.inf, [0.5, math.nan]])
    def test_non_finite_radius(self, r):
        with pytest.raises(DomainError):
            u_eigen(0.5, 1.0, r)
        with pytest.raises(DomainError):
            u_theta_eigen(0.3, 1.0, 0.0, r)

    @pytest.mark.parametrize("E", [math.inf, -math.inf])
    def test_infinite_energy_meets_the_zeta_bound(self, E):
        with pytest.raises(SeriesDomainError):
            u_eigen(0.5, E, 1.0)
        with pytest.raises(SeriesDomainError):
            chi_kappa(0.3, E)
