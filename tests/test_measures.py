"""Tests of spectral measures, bound states, and their discretization."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ab_spectral.errors import DomainError
from ab_spectral.measures import (
    GRADING_LEVELS,
    ExtensionParams,
    ac_density,
    atom_weight,
    bound_state_energy,
    discretize,
    gauss_legendre,
    has_bound_state,
    reduce_theta,
    spectral_measure,
)
from ab_spectral.special import theta_kappa


class TestReduceTheta:
    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(-50.0, 50.0))
    def test_decomposition(self, theta):
        t, n = reduce_theta(theta)
        assert 0.0 <= t < math.pi
        assert t + n * math.pi == pytest.approx(theta, abs=1e-12)

    def test_exact_pi_shift(self):
        # when theta + pi rounds exactly, reduction returns theta bitwise
        for theta in (0.25, 0.5, 1.0):
            t, n = reduce_theta(theta + math.pi)
            assert t == theta and n == 1

    def test_theta_sign(self):
        assert ExtensionParams(0.3, 0.5).theta_sign == 1
        assert ExtensionParams(0.3, 0.5 + math.pi).theta_sign == -1
        assert ExtensionParams(0.3, 0.5 + 2 * math.pi).theta_sign == 1
        assert ExtensionParams(0.3, 0.5 - math.pi).theta_sign == -1


class TestBoundStates:
    @pytest.mark.parametrize("kappa", np.linspace(-0.9, 0.9, 19))
    def test_half_pi_energy_is_minus_one(self, kappa):
        energy = bound_state_energy(ExtensionParams(float(kappa), math.pi / 2))
        assert energy == pytest.approx(-1.0, abs=1e-12)

    def test_quarter_pi_zero_order(self):
        energy = bound_state_energy(ExtensionParams(0.0, math.pi / 4))
        assert energy == pytest.approx(-math.exp(math.pi), abs=1e-12 * math.exp(math.pi))

    def test_half_pi_weight_zero_order(self):
        assert atom_weight(ExtensionParams(0.0, math.pi / 2)) == pytest.approx(
            math.pi**2 / 2.0, abs=1e-12
        )

    def test_direct_formula_agreement(self):
        # the library's cancellation-free form equals the textbook ratio power
        kappa, t = 0.45, 1.2
        tk = theta_kappa(kappa)
        direct = -((math.sin(t + tk) / math.sin(t - tk)) ** (1.0 / kappa))
        assert bound_state_energy(ExtensionParams(kappa, t)) == pytest.approx(
            direct, rel=1e-13
        )

    def test_branch_boundary_is_strict(self):
        kappa = 0.6
        tk = theta_kappa(kappa)
        assert not has_bound_state(ExtensionParams(kappa, tk))
        assert not has_bound_state(ExtensionParams(kappa, math.pi - tk))
        assert has_bound_state(ExtensionParams(kappa, tk + 1e-9))

    def test_no_theta_for_large_kappa(self):
        with pytest.raises(DomainError):
            has_bound_state(ExtensionParams(1.2, 0.3))
        with pytest.raises(DomainError):
            bound_state_energy(ExtensionParams(-1.0, 0.3))

    @settings(max_examples=40, deadline=None)
    @given(kappa=st.floats(-0.9, 0.9), theta=st.floats(0.1, math.pi - 0.1))
    def test_weight_positive_whenever_bound(self, kappa, theta):
        params = ExtensionParams(kappa, theta)
        if has_bound_state(params):
            assert atom_weight(params) > 0.0
            assert bound_state_energy(params) < 0.0
        else:
            assert atom_weight(params) is None

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.sampled_from([0.0, 1e-8, -1e-8, 1e-4, -1e-4]),
        gap=st.floats(1e-12, 1e-3),
        upper=st.booleans(),
    )
    def test_energy_past_double_range_is_a_domain_error(self, kappa, gap, upper):
        """Within 1e-3 of either end of the branch, small |kappa| drives |E_b|
        out of the double range: past ~1e308 near |theta_kappa|, to -0.0 near
        pi - |theta_kappa|.  Both are DomainError, for the measure too."""
        tk = abs(theta_kappa(kappa))
        params = ExtensionParams(kappa, math.pi - tk - gap if upper else tk + gap)
        assert has_bound_state(params)
        with pytest.raises(DomainError):
            bound_state_energy(params)
        with pytest.raises(DomainError):
            spectral_measure(params)

    def test_weight_overflow_is_a_domain_error(self):
        # pi cot(theta) = 709 keeps E_b = -exp(709) finite, but its mass
        # pi**2 |E_b| / (2 sin(theta)**2) overflows
        params = ExtensionParams(0.0, math.atan(math.pi / 709.0))
        assert math.isfinite(bound_state_energy(params))
        with pytest.raises(DomainError):
            atom_weight(params)

    @settings(max_examples=60, deadline=None)
    @given(kappa=st.floats(-0.99, 0.99), theta=st.floats(0.0, math.pi))
    def test_every_energy_is_finite_and_negative(self, kappa, theta):
        params = ExtensionParams(kappa, theta)
        try:
            energy, weight = bound_state_energy(params), atom_weight(params)
        except DomainError:
            return
        if energy is not None:
            assert -math.inf < energy < 0.0 and 0.0 < weight < math.inf

    def test_kappa_zero_limit_of_formulas(self):
        for theta in (0.9, math.pi / 2, 2.2):
            small = ExtensionParams(1e-4, theta)
            zero = ExtensionParams(0.0, theta)
            e0 = bound_state_energy(zero)
            w0 = atom_weight(zero)
            assert bound_state_energy(small) == pytest.approx(e0, rel=1e-6)
            assert atom_weight(small) == pytest.approx(w0, rel=1e-6)


class TestAcDensity:
    @pytest.mark.parametrize("kappa", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("E", [0.1, 1.0, 10.0])
    def test_collapse_at_reference_angle(self, kappa, E):
        value = ac_density(ExtensionParams(kappa, theta_kappa(kappa)), E)
        assert value == pytest.approx(0.5 * E**kappa, rel=1e-13)

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 3.0, -2.0])
    def test_fixed_measure_off_extension_family(self, kappa):
        E = np.array([0.5, 2.0, 40.0])
        assert np.allclose(
            ac_density(ExtensionParams(kappa), E), 0.5 * E ** abs(kappa), rtol=1e-14
        )

    def test_zero_order_formula(self):
        theta, E = 1.1, 3.7
        c, s = math.cos(theta), math.sin(theta)
        expected = 0.5 / ((c - math.log(E) * s / math.pi) ** 2 + s * s)
        assert ac_density(ExtensionParams(0.0, theta), E) == pytest.approx(
            expected, rel=1e-14
        )

    def test_negative_energy_density_vanishes(self):
        assert ac_density(ExtensionParams(0.3, 1.0), -2.0) == 0.0

    def test_periodicity_mod_pi(self):
        E = np.geomspace(1e-3, 100.0, 64)
        a = ac_density(ExtensionParams(0.3, 1.0), E)
        b = ac_density(ExtensionParams(0.3, 1.0 + math.pi), E)
        assert np.max(np.abs(a - b)) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.floats(-0.95, 0.95),
        theta=st.floats(0.0, math.pi, exclude_max=True),
        E=st.floats(1e-6, 1e3),
    )
    def test_density_nonnegative(self, kappa, theta, E):
        assert ac_density(ExtensionParams(kappa, theta), E) >= 0.0


def density_oracle(kappa: float, t: float, E: float):
    """(1/2) sin(pi k)**2 / (E**-k A**2 - 2 cos(pi k) A B + E**k B**2) at 60
    digits, A = sin(t + pi k/2), B = sin(t - pi k/2); the log form at k = 0."""
    with mpmath.workdps(60):
        k, t, E = mpmath.mpf(kappa), mpmath.mpf(t), mpmath.mpf(E)
        if kappa == 0.0:
            c, s = mpmath.cos(t), mpmath.sin(t)
            return 0.5 / ((c - mpmath.log(E) * s / mpmath.pi) ** 2 + s * s)
        A, B = mpmath.sin(t + mpmath.pi * k / 2), mpmath.sin(t - mpmath.pi * k / 2)
        denom = E**-k * A * A - 2 * mpmath.cos(mpmath.pi * k) * A * B + E**k * B * B
        return mpmath.sin(mpmath.pi * k) ** 2 / (2 * denom)


def bound_state_oracle(kappa: float, t: float):
    """(E_b, atom mass) at 60 digits: -(A/B)**(1/k) and pi sin(pi k) |E_b| / (2 k A B)."""
    with mpmath.workdps(60):
        k, t = mpmath.mpf(kappa), mpmath.mpf(t)
        A, B = mpmath.sin(t + mpmath.pi * k / 2), mpmath.sin(t - mpmath.pi * k / 2)
        energy = -((A / B) ** (1 / k))
        return energy, mpmath.pi * mpmath.sin(mpmath.pi * k) * abs(energy) / (2 * k * A * B)


NEAR_INTEGER_KAPPAS = [
    sign * k for k in (1e-12, 1e-8, 1e-5, 1.0 - 1e-6, 1.0 - 1e-9) for sign in (1.0, -1.0)
]


class TestNearIntegerFlux:
    """The critical channels of a flux near an integer have |kappa| near 0 and
    near 1.  There the density, E_b and the atom mass each have one
    cancellation-free form on nu = |kappa|; the earlier forms were off by up to
    27 % in the density (at kappa = 1 - 1e-8) and divided by zero at
    -(1 - 1e-9)."""

    @pytest.mark.parametrize("kappa", NEAR_INTEGER_KAPPAS)
    def test_density_against_mpmath(self, kappa):
        """Within 1e-13 relative over theta mod pi and 1e-6 <= E <= 1e5
        (3.4e-15 measured, from 7.6e-2 at kappa = 2e-8 before)."""
        E = np.geomspace(1e-6, 1e5, 23)
        for t in (0.01, 0.3, 1.0, 2.0, 2.9, 3.13):
            got = ac_density(ExtensionParams(kappa, t), E)
            oracle = np.array([density_oracle(kappa, t, e) for e in E], dtype=float)
            assert np.all(np.abs(got - oracle) <= 1e-13 * oracle)

    @pytest.mark.parametrize("kappa", NEAR_INTEGER_KAPPAS)
    def test_bound_state_against_mpmath(self, kappa):
        """E_b and the atom mass across the branch, within 8 ulps times their
        condition number in t, 1 + pi t sinc(nu) / (A B): the branch
        (|pi kappa/2|, pi - |pi kappa/2|) narrows to a width pi (1 - |kappa|),
        so a float t fixes A and B only to about 1e-16 / (1 - |kappa|)
        relative (2 ulps times it measured)."""
        nu = abs(kappa)
        half = math.pi * nu / 2
        sinc = math.sin(math.pi * nu) / (math.pi * nu)
        for f in np.linspace(0.02, 0.98, 13):
            t = half + f * (math.pi - 2 * half)
            params = ExtensionParams(kappa, t)
            energy, weight = bound_state_oracle(kappa, t)
            cond = 1.0 + math.pi * t * sinc / (math.sin(t + half) * math.sin(t - half))
            tol = 8 * 2.0**-52 * cond
            assert abs(bound_state_energy(params) - energy) <= tol * abs(energy)
            assert abs(atom_weight(params) - weight) <= tol * weight

    @pytest.mark.parametrize("kappa", [5e-324, -5e-324, np.finfo(float).tiny, -1e-300, 1e-200])
    def test_density_below_the_normal_range(self, kappa):
        """For nu below the normal range the sinh ratio takes its nu = 0 limit,
        as nu ln(E) / 2 would underflow and 1 / nu overflow; just above it, an
        E next to 1 puts nu ln(E) / 2 in the subnormal range.  The density
        differs from the kappa = 0 one by O(kappa), so that oracle serves."""
        E = np.append(np.geomspace(1e-6, 1e5, 23), 1.0 + np.array([-1e-12, -1e-15, 2.0**-52, 1e-13]))
        for t in (0.01, 1.0, 2.9):
            got = ac_density(ExtensionParams(kappa, t), E)
            oracle = np.array([density_oracle(0.0, t, e) for e in E], dtype=float)
            assert np.all(np.abs(got - oracle) <= 1e-13 * oracle)

    @settings(max_examples=200, deadline=None)
    @given(kappa=st.floats(-3.0, 3.0), theta=st.floats(-10.0, 10.0))
    def test_density_is_one_half_at_unit_energy(self, kappa, theta):
        """A**2 - 2 cos(pi nu) A B + B**2 = sin(pi nu)**2, so every extension
        has density exactly 1/2 at E = 1, as the |kappa| >= 1 measure
        (1/2) E**|kappa| has."""
        assert ac_density(ExtensionParams(kappa, theta), 1.0) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(nu=st.floats(0.0, 1.0, exclude_max=True), theta=st.floats(-10.0, 10.0))
    def test_even_in_kappa(self, nu, theta):
        """u_theta does not change under kappa -> -kappa at fixed theta, so
        neither does the measure: the density, E_b and the mass are computed
        on nu = |kappa| and agree bitwise."""
        plus, minus = ExtensionParams(nu, theta), ExtensionParams(-nu, theta)
        E = np.geomspace(1e-4, 1e3, 50)
        assert np.array_equal(ac_density(plus, E), ac_density(minus, E))
        try:
            energy, weight = bound_state_energy(plus), atom_weight(plus)
        except DomainError:
            with pytest.raises(DomainError):
                spectral_measure(minus)
            return
        assert (bound_state_energy(minus), atom_weight(minus)) == (energy, weight)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 1.5])
    def test_ac_density_nan_energy(self, kappa):
        params = ExtensionParams(kappa, 1.0)
        for E in (math.nan, [1.0, math.nan]):
            with pytest.raises(DomainError):
                ac_density(params, E)

    @pytest.mark.parametrize("kappa,theta", [(0.3, theta_kappa(0.3)), (0.0, 0.0), (0.3, 1.0), (1.5, 0.0)])
    def test_ac_density_infinite_energy(self, kappa, theta):
        """+inf used to give nan (at kappa = 0.3, theta = theta_kappa, and at
        kappa = theta = 0), inf for |kappa| >= 1, and -inf a density of 0; both
        now raise for every kappa, as NaN does."""
        params = ExtensionParams(kappa, theta)
        for E in (math.inf, -math.inf, [1.0, math.inf]):
            with pytest.raises(DomainError):
                ac_density(params, E)

    @pytest.mark.parametrize("e_max", [math.nan, math.inf])
    def test_discretize_non_finite_cutoff(self, e_max):
        with pytest.raises(DomainError):
            discretize(spectral_measure(ExtensionParams(0.3, 1.0)), e_max)


class TestDiscretize:
    def test_weights_integrate_power_density(self):
        # integral of (1/2) E**kappa over [0, E_max] has a closed form
        kappa, e_max = 1.5, 20.0
        quad = discretize(spectral_measure(ExtensionParams(kappa)), e_max)
        exact = 0.5 * e_max ** (kappa + 1.0) / (kappa + 1.0)
        assert np.sum(quad.e_weights) == pytest.approx(exact, rel=1e-12)

    def test_endpoint_singularity_absorbed(self):
        # kappa < 0 gives an integrable E**kappa blow-up at 0; graded panels
        # must integrate it to usable accuracy without special-casing (the
        # innermost ungraded panel limits a strong E**-0.7 singularity to ~1e-3)
        kappa = -0.7
        quad = discretize(
            spectral_measure(ExtensionParams(kappa, theta_kappa(kappa))), 10.0
        )
        exact = 0.5 * 10.0 ** (kappa + 1.0) / (kappa + 1.0)
        assert np.sum(quad.e_weights) == pytest.approx(exact, rel=2e-3)

    def test_atoms_carried_through(self):
        quad = discretize(spectral_measure(ExtensionParams(0.3, math.pi / 2)), 5.0)
        assert len(quad.atoms) == 1
        energy, weight = quad.atoms[0]
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert weight > 0

    def test_atom_is_the_last_grid_node(self):
        quad = discretize(spectral_measure(ExtensionParams(0.3, math.pi / 2)), 5.0)
        ((energy, weight),) = quad.atoms
        assert np.array_equal(quad.nodes, np.append(quad.e_nodes, energy))
        assert np.array_equal(quad.weights, np.append(quad.e_weights, weight))
        assert not quad.nodes.flags.writeable and not quad.weights.flags.writeable

    def test_grid_without_atoms_is_the_e_rule(self):
        quad = discretize(spectral_measure(ExtensionParams(1.5)), 5.0)
        assert np.array_equal(quad.nodes, quad.e_nodes)
        assert np.array_equal(quad.weights, quad.e_weights)

    def test_zero_e_max_gives_empty_grid(self):
        quad = discretize(spectral_measure(ExtensionParams(1.5)), 0.0)
        assert len(quad.e_nodes) == 0

    def test_node_budget_floor(self):
        measure = spectral_measure(ExtensionParams(1.5))
        with pytest.raises(DomainError, match="at least 16"):
            discretize(measure, 1.0, node_budget=8)
        for budget in (16.5, 16.0, "16", None):
            with pytest.raises(DomainError, match="integer"):
                discretize(measure, 1.0, node_budget=budget)
        assert len(discretize(measure, 1.0, node_budget=np.int64(16)).e_nodes) == 13 * 16

    def test_deterministic(self):
        m = spectral_measure(ExtensionParams(0.3, 1.0))
        a = discretize(m, 100.0)
        b = discretize(m, 100.0)
        assert np.array_equal(a.e_nodes, b.e_nodes)
        assert np.array_equal(a.e_weights, b.e_weights)

    @staticmethod
    def panel_by_panel(measure, e_max, node_budget):
        """The graded rule one panel at a time: gauss_legendre on [lo, hi]
        times the density there, panels joined from E = 0 upward."""
        edges = [e_max * 4.0 ** -j for j in range(GRADING_LEVELS + 1)] + [0.0]
        nodes, weights = [], []
        for lo, hi in zip(edges[:0:-1], edges[-2::-1]):
            x, w = gauss_legendre(lo, hi, node_budget)
            nodes.append(x)
            weights.append(w * measure.density(x))
        return np.concatenate(nodes), np.concatenate(weights)

    @pytest.mark.parametrize(
        "kappa", [0.0, 1e-9, -1e-9, 1e-4, 0.3, -0.7, 0.5, -0.5, 1.5, 3.0]
    )
    # off the atom branch at every kappa (0), on it at every |kappa| < 1 (pi/2),
    # on or off by kappa (0.2, 1.0, 2.9), and a theta in the next class mod pi
    @pytest.mark.parametrize("theta", [0.0, 0.2, 1.0, math.pi / 2, 2.9, 1.0 + math.pi])
    def test_bit_for_bit_the_panel_by_panel_rule(self, kappa, theta):
        measure = spectral_measure(ExtensionParams(kappa, theta))
        for e_max in (2500 / 9, 2500 / 36, 40.0, 1e-3):
            for node_budget in (16, 32):
                quad = discretize(measure, e_max, node_budget)
                nodes, weights = self.panel_by_panel(measure, e_max, node_budget)
                assert quad.e_nodes.tobytes() == nodes.tobytes()
                assert quad.e_weights.tobytes() == weights.tobytes()
                assert quad.atoms == measure.atoms
        for node_budget in (16, 32):
            quad = discretize(measure, 0.0, node_budget)
            assert quad.e_nodes.size == quad.e_weights.size == 0
            assert quad.atoms == measure.atoms


class TestCsv:
    def test_gauss_legendre_rule(self):
        x, w = gauss_legendre(1.0, 3.0, 24)
        assert np.sum(w) == pytest.approx(2.0, rel=1e-14)
        assert np.sum(w * x**3) == pytest.approx((3.0**4 - 1.0) / 4.0, rel=1e-13)


class TestGaussLegendreCache:
    """The [-1, 1] rule is computed once per order; each call maps it afresh."""

    @pytest.mark.parametrize("a,b,n", [(1.0, 3.0, 24), (0.0, 1e-7, 32), (-8.0, 8.0, 64)])
    def test_equals_mapped_leggauss(self, a, b, n):
        for _ in range(2):  # a miss, then a hit
            x, w = gauss_legendre(a, b, n)
            t, v = np.polynomial.legendre.leggauss(n)
            assert x.tobytes() == (0.5 * (a + b) + 0.5 * (b - a) * t).tobytes()
            assert w.tobytes() == (0.5 * (b - a) * v).tobytes()

    def test_results_are_fresh_and_writable(self):
        x, w = gauss_legendre(-1.0, 1.0, 16)
        expected = (x.copy(), w.copy())
        x[:] = 7.0
        w *= 3.0
        x2, w2 = gauss_legendre(-1.0, 1.0, 16)
        assert np.array_equal(x2, expected[0]) and np.array_equal(w2, expected[1])
        assert x2.flags.writeable and w2.flags.writeable
