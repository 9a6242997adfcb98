"""Tests of the forward/inverse eigenfunction transforms."""

import dataclasses
import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from ab_spectral import ab3d, special, transform
from ab_spectral.bumps import GaussianBump
from ab_spectral.errors import ContractError, DomainError, SeriesDomainError
from ab_spectral.measures import (
    ExtensionParams,
    MeasureQuadrature,
    discretize,
    spectral_measure,
)
from ab_spectral.special import ZETA_BOUND, radial_kernel, theta_kappa, u_theta_eigen
from ab_spectral.transform import (
    Endpoint,
    RadialFunction,
    TransformCoefficients,
    apply_l_q,
    boundary_defect,
    classify,
    forward,
    inverse,
    kernel_matrix,
    parseval_defect,
    roundtrip_defect,
)

mpmath.mp.dps = 30

BUMP = GaussianBump(0.5, 3.0)
E_MAX = ZETA_BOUND / BUMP.b**2  # largest energy whose kernel stays in-series


def make_psi(n=64, bump=BUMP):
    return RadialFunction.from_callable(
        bump, bump.a, bump.b, n, second_derivative=bump.derivative2
    )


class TestClassify:
    @pytest.mark.parametrize("kappa", [0.0, 0.5, -0.99])
    def test_limit_circle_at_zero(self, kappa):
        assert classify(kappa).endpoint_0 is Endpoint.LIMIT_CIRCLE

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 3.5])
    def test_limit_point_at_zero(self, kappa):
        assert classify(kappa).endpoint_0 is Endpoint.LIMIT_POINT

    def test_always_limit_point_at_infinity(self):
        assert classify(0.3).endpoint_inf is Endpoint.LIMIT_POINT


class TestRadialFunction:
    def test_rejects_nonpositive_support(self):
        r = np.linspace(0.0, 1.0, 16)
        with pytest.raises(DomainError):
            RadialFunction(r, np.ones(16), np.ones(16))

    def test_rejects_length_mismatch(self):
        r = np.linspace(0.5, 1.0, 16)
        with pytest.raises(DomainError):
            RadialFunction(r, np.ones(16), np.ones(15))
        with pytest.raises(DomainError, match="one per r node"):  # values of shape (8, 3)
            RadialFunction(r[:8], np.ones(8), np.ones((8, 3)))
        with pytest.raises(DomainError, match="the r rule"):  # 2-D nodes and weights
            RadialFunction(np.tile(r[:8, None], 2), np.ones((8, 2)), np.ones(8))

    def test_rejects_tiny_grids(self):
        r = np.linspace(0.5, 1.0, 4)
        with pytest.raises(DomainError):
            RadialFunction(r, np.ones(4), np.ones(4))

    def test_rejects_an_empty_grid(self):
        with pytest.raises(DomainError, match="at least 8"):
            RadialFunction([], [], [])

    @pytest.mark.parametrize("where", ["r_nodes", "values", "quad_weights"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_samples(self, where, bad):
        arrays = {
            "r_nodes": np.linspace(0.5, 1.0, 16), "quad_weights": np.ones(16), "values": np.ones(16)
        }
        arrays[where][5] = bad
        with pytest.raises(DomainError):
            RadialFunction(**arrays)

    def test_rejects_a_negative_weight(self):
        w = np.ones(16)
        w[5] = -1e-300
        with pytest.raises(DomainError, match="weights"):
            RadialFunction(np.linspace(0.5, 1.0, 16), w, np.ones(16))
        with pytest.raises(DomainError, match="weights"):  # a zero weight, too
            RadialFunction(np.linspace(0.5, 1.0, 16), np.zeros(16), np.ones(16))

    @pytest.mark.parametrize("node", [0.0, -0.25])
    def test_rejects_an_interior_node_off_the_half_line(self, node):
        r = np.linspace(0.5, 1.0, 16)
        r[7] = node  # unsorted: the first node is still > 0
        with pytest.raises(DomainError, match="strictly inside"):
            RadialFunction(r, np.ones(16), np.ones(16))

    def test_functions_on_one_rule_share_it(self):
        """The rule is checked once, where it is made: apply_l_q and inverse
        hand it on, read-only, and it compares by identity, as do the
        function, its coefficients, a 3D block, the 3D mode and reduction
        grids and a 3D coefficient set, each against an equal twin: comparing
        their arrays by value would raise ValueError, and hashing them
        TypeError."""
        psi = make_psi()
        params = ExtensionParams(0.3, 1.0)
        quad = discretize(spectral_measure(params), 10.0)
        coeffs = forward(params, psi, quad)
        back = inverse(params, coeffs, psi.rule)
        for other in (apply_l_q(0.3, psi), back):
            assert other.rule is psi.rule and other.r_nodes is psi.r_nodes
        assert not psi.r_nodes.flags.writeable and not psi.quad_weights.flags.writeable
        assert np.asarray(psi.rule, dtype=float) is psi.r_nodes
        copy = transform.RadialRule(psi.r_nodes, psi.quad_weights)
        assert copy.key == psi.rule.key
        block = ab3d.ChannelBlock(0, np.arange(1), quad, coeffs.values[None, :])
        grid = ab3d.ModeGrid.build(1, 5.0, 16)
        reduction = ab3d.ReductionGrid.build((-1.0, 1.0))
        coeffs_3d = ab3d.Coefficients3D(0.5, grid, [block])
        for one, twin in (
            (psi.rule, copy),
            (psi, RadialFunction(psi.rule, None, psi.values)),
            (coeffs, TransformCoefficients(quad, coeffs.values)),
            (block, dataclasses.replace(block)),
            (grid, ab3d.ModeGrid.build(1, 5.0, 16)),
            (reduction, ab3d.ReductionGrid.build((-1.0, 1.0))),
            (coeffs_3d, dataclasses.replace(coeffs_3d)),
        ):
            assert one == one and one != twin and hash(one) == hash(one) != hash(twin)

    def test_norm_of_unit_constant(self):
        psi = RadialFunction.from_callable(lambda r: np.ones_like(r), 1.0, 3.0, 32)
        assert psi.norm_sq() == pytest.approx(2.0, rel=1e-14)


class TestKernel:
    def test_theta_shift_flips_sign_exactly(self):
        # fl(1.0 + pi) reduces back to exactly 1.0, so the flip is bitwise
        r = np.linspace(0.5, 3.0, 7)
        base = radial_kernel(0.3, 1.0, 2.0, r)
        flipped = radial_kernel(0.3, 1.0 + math.pi, 2.0, r)
        assert np.array_equal(flipped, -base)

    def test_fixed_kernel_ignores_theta_and_sign_of_kappa(self):
        r = np.linspace(0.5, 3.0, 7)
        a = radial_kernel(1.5, 0.0, 2.0, r)
        b = radial_kernel(-1.5, 2.0, 2.0, r)
        assert np.array_equal(a, b)


def fresh_kernel(params, quad, r):
    """A dense kernel matrix built directly from radial_kernel, bypassing the
    caches: the E-node rows in one call, then each atom row on its own."""
    K = radial_kernel(params.kappa, params.theta, quad.e_nodes[:, None], r[None, :])
    rows = [radial_kernel(params.kappa, params.theta, e, r) for e, _ in quad.atoms]
    return np.vstack([K] + rows)


def fresh_build(params, quad, r):
    """(fresh_kernel, its parts): the a F rows, the b G rows (where the kernel
    reads G) and the atom rows, each zero elsewhere, built from special's pair
    and coefficients, bypassing the caches."""
    n = len(quad.e_nodes)
    dense = fresh_kernel(params, quad, r)
    F, G = special._jy_pair(params.nu, quad.e_nodes[:, None], r[None, :])
    a, b = special._pair_coefficients(params.nu, params.cu, params.cw, quad.e_nodes)
    terms = [(a, F)] + ([(b, G)] if b is not None else [])
    parts = [np.vstack([np.sqrt(r) * x[:, None] * P, np.zeros_like(dense[n:])]) for x, P in terms]
    parts.append(np.vstack([np.zeros_like(dense[:n]), dense[n:]]))
    return dense, parts


def assert_products_match(K, fresh):
    """The products of the cached kernel through _real_product, K v (complex),
    K V (real, 2-D), K.T c (complex, c @ K), K.T C.T (complex, 2-D, (C @
    K).T) and a 3D block's (K R) X (a real n_nodes x 1 matrix against a
    complex 1 x n_p operand), against the complex matmuls of the fresh dense
    matrix, each within 1e-14 of the peak of its parts' magnitudes: the a F
    rows, the b G rows and the atom rows applied on their own, |.| summed.
    Where nothing cancels that is about the product's own peak; where a F and
    b G cancel (kappa = 0 with a w term, |a| about 6 at the lowest E nodes
    against a kernel peak of 0.8) a product rounds on the scale of its parts,
    not of their sum."""
    dense, parts = fresh
    assert K.shape == dense.shape
    rng = np.random.default_rng(11)
    v = rng.standard_normal(dense.shape[1]) + 1j * rng.standard_normal(dense.shape[1])
    V = rng.standard_normal((dense.shape[1], 3))
    c = rng.standard_normal(dense.shape[0]) + 1j * rng.standard_normal(dense.shape[0])
    C = rng.standard_normal((2, dense.shape[0])) + 1j * rng.standard_normal((2, dense.shape[0]))
    R = rng.standard_normal((dense.shape[1], 1))
    X = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
    for operands in (
        lambda M: (M, v), lambda M: (M, V), lambda M: (M.T, c), lambda M: (M.T, C.T),
        lambda M: (M @ R, X),
    ):
        got = transform._real_product(*operands(K))
        expected = np.matmul(*operands(dense))
        assert got.shape == expected.shape and got.dtype == expected.dtype
        scale = sum(np.abs(np.matmul(*operands(part))) for part in parts)
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-14 * np.max(scale, initial=0.0)


def cache_counts():
    """(hits, misses) of the per-extension cache, then of the pair cache."""
    return tuple(
        (info.hits, info.misses)
        for info in (transform._build_kernel.cache_info(), transform._cached_pair.cache_info())
    )


class TestKernelCache:
    """kernel_matrix keeps each extension's dense kernel, keyed bit for bit by
    what the kernel reads; every answer must be the fresh build's matrix and
    give its products."""

    R = np.linspace(0.5, 3.0, 12)
    PARAMS = ExtensionParams(0.3, 1.0)  # has a bound state

    def quad(self, params=PARAMS, E_max=50.0):
        return discretize(spectral_measure(params), E_max)

    def test_hit_equals_fresh_build(self):
        quad = self.quad()
        first = kernel_matrix(self.PARAMS, quad, self.R)
        counts = cache_counts()
        again = kernel_matrix(self.PARAMS, quad, self.R.copy())
        assert again is first
        (hits, misses), pair = counts
        assert cache_counts() == ((hits + 1, misses), pair)  # the pair cache is not consulted
        assert np.array_equal(again, fresh_kernel(self.PARAMS, quad, self.R))
        assert_products_match(again, fresh_build(self.PARAMS, quad, self.R))

    def test_a_warm_lookup_with_a_rule_hashes_no_array(self, monkeypatch):
        """A rule's key is formed when the rule is made, the bits of its nodes:
        bare nodes share its kernel, and a warm lookup with the rule forms no
        bits at all."""
        quad = self.quad()
        rule = transform.RadialRule(self.R, np.ones(len(self.R)))
        K = kernel_matrix(self.PARAMS, quad, rule)
        assert kernel_matrix(self.PARAMS, quad, self.R) is K
        formed = []
        bits = transform._bits
        monkeypatch.setattr(transform, "_bits", lambda *v: formed.append(v) or bits(*v))
        assert kernel_matrix(self.PARAMS, quad, rule) is K
        assert formed == []

    def test_weights_are_not_part_of_the_key(self):
        quad = self.quad()
        reweighted = MeasureQuadrature(quad.e_nodes.copy(), 2.0 * quad.e_weights, quad.atoms)
        assert kernel_matrix(self.PARAMS, reweighted, self.R) is kernel_matrix(
            self.PARAMS, quad, self.R
        )

    def test_a_grid_holds_its_own_copy(self):
        """MeasureQuadrature copies what it is given and leaves the caller's
        arrays writable; writing to them afterwards moves neither the grid
        nor its cached kernel."""
        quad = self.quad()
        e_nodes, e_weights = quad.e_nodes.copy(), quad.e_weights.copy()
        own = MeasureQuadrature(e_nodes, e_weights, quad.atoms)
        assert e_nodes.flags.writeable and e_weights.flags.writeable
        assert not own.e_nodes.flags.writeable and not own.e_weights.flags.writeable
        K = kernel_matrix(self.PARAMS, own, self.R)
        e_nodes *= 2.0
        e_weights[:] = 0.0
        assert own.e_nodes.tobytes() == quad.e_nodes.tobytes()
        assert own.e_weights.tobytes() == quad.e_weights.tobytes()
        assert kernel_matrix(self.PARAMS, own, self.R) is K
        assert np.array_equal(K, fresh_kernel(self.PARAMS, quad, self.R))

    def test_results_are_read_only(self):
        quad = self.quad()
        K = kernel_matrix(self.PARAMS, quad, self.R)
        assert type(K) is np.ndarray and K.dtype == float
        assert K.shape == (len(quad.e_nodes) + 1, len(self.R))  # one atom row
        assert not K.flags.writeable
        with pytest.raises(ValueError):
            K[0] = 1.0

    def test_results_cannot_be_unlocked(self):
        """A caller cannot turn the cached kernel writable, and so cannot
        change what the next lookup reads; a hit is still the same array."""
        quad = self.quad()
        K = kernel_matrix(self.PARAMS, quad, self.R)
        row = K[0].copy()
        with pytest.raises(ValueError):
            K.setflags(write=True)
        again = kernel_matrix(self.PARAMS, quad, self.R)
        assert again is K and again[0].tobytes() == row.tobytes()

    def test_theta_plus_pi_negates(self):
        quad = self.quad()
        flipped = ExtensionParams(0.3, 1.0 + math.pi)
        assert flipped.theta_mod_pi == self.PARAMS.theta_mod_pi
        K, K_flipped = (kernel_matrix(p, quad, self.R) for p in (self.PARAMS, flipped))
        assert np.array_equal(K_flipped, -K)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(len(self.R)) + 1j * rng.standard_normal(len(self.R))
        V = rng.standard_normal((len(self.R), 3))
        c = rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(K.shape[0])
        product = transform._real_product
        assert np.array_equal(product(K_flipped, v), -product(K, v))
        assert np.array_equal(product(K_flipped, V), -product(K, V))
        assert np.array_equal(product(K_flipped.T, c), -product(K.T, c))

    @pytest.mark.parametrize("kappa, theta", [(0.3, 1.0), (0.7, 0.0), (0.5, 2.0), (1e-3, 2.9),
                                              (0.999999, 1.0), (1.5, 0.0)])
    def test_minus_kappa_is_the_same_kernel(self, kappa, theta):
        """The extension family is even in kappa, and the key is (nu, t,
        parity): after one build, -kappa at the same theta is a hit on the
        same array, which is -kappa's fresh build to the bit."""
        plus, minus = ExtensionParams(kappa, theta), ExtensionParams(-kappa, theta)
        quad = self.quad(plus)
        assert self.quad(minus) is quad and minus.key == plus.key
        K = kernel_matrix(plus, quad, self.R)
        (hits, misses), pair = cache_counts()
        assert kernel_matrix(minus, quad, self.R) is K
        assert cache_counts() == ((hits + 1, misses), pair)
        assert np.array_equal(K, fresh_kernel(minus, quad, self.R))

    def test_r_grid_one_ulp_apart_misses(self):
        quad = self.quad()
        shifted = self.R.copy()
        shifted[5] = np.nextafter(shifted[5], np.inf)
        expected = fresh_kernel(self.PARAMS, quad, shifted)
        assert not np.array_equal(expected, fresh_kernel(self.PARAMS, quad, self.R))
        kernel_matrix(self.PARAMS, quad, self.R)
        (_, kernel_misses), (_, pair_misses) = cache_counts()
        K = kernel_matrix(self.PARAMS, quad, shifted)
        assert [misses for _, misses in cache_counts()] == [kernel_misses + 1, pair_misses + 1]
        assert np.array_equal(K, expected)
        assert_products_match(K, fresh_build(self.PARAMS, quad, shifted))

    def test_atom_energy_is_part_of_the_key(self):
        quad = self.quad()
        ((energy, weight),) = quad.atoms
        moved = MeasureQuadrature(quad.e_nodes, quad.e_weights, ((0.5 * energy, weight),))
        kernel_matrix(self.PARAMS, quad, self.R)
        (_, kernel_misses), (pair_hits, _) = cache_counts()
        K = kernel_matrix(self.PARAMS, moved, self.R)
        assert cache_counts()[0][1] == kernel_misses + 1  # new atom row, same pair
        assert cache_counts()[1][0] == pair_hits + 1
        pair = cache_counts()[1]
        assert kernel_matrix(self.PARAMS, moved, self.R) is K
        assert cache_counts()[1] == pair  # a warm call does not consult the pair cache
        assert_products_match(K, fresh_build(self.PARAMS, moved, self.R))

    def test_errors_are_not_cached(self):
        quad = self.quad(E_max=2.0 * ZETA_BOUND / 9.0)  # past the bound at r = 3
        (kernel_hits, kernel_misses), (pair_hits, pair_misses) = cache_counts()
        for _ in range(2):
            with pytest.raises(SeriesDomainError):
                kernel_matrix(self.PARAMS, quad, self.R)
        # both calls miss both caches and store nothing
        assert cache_counts() == (
            (kernel_hits, kernel_misses + 2), (pair_hits, pair_misses + 2)
        )

    def test_concurrent_builds_past_capacity(self):
        """4 threads, 168 distinct extensions over 48 distinct pairs (past the
        64 and 32 kept), each thread in its own order; every answer must give
        its fresh build's products."""
        cases = []
        for kappa, thetas in (
            (0.3, (0.2, 1.0, 1.6, 2.2, 2.8, 4.0)),
            (-0.7, (0.0, 0.5, 1.0, 2.0, 2.5, 3.0)),
            (0.0, (0.0, 0.9, 1.2, 1.9, 2.4, 3.1)),
            (1.5, (0.0,)), (2.5, (0.0,)), (-3.0, (0.0,)),
        ):
            for E_max in (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0):
                for theta in thetas:
                    params = ExtensionParams(kappa, theta)
                    quad = self.quad(params, E_max)
                    cases.append((params, quad, fresh_build(params, quad, self.R)))
        failures = []

        def work(order):
            try:
                for i in order:
                    params, quad, expected = cases[i]
                    assert_products_match(kernel_matrix(params, quad, self.R), expected)
            except Exception as exc:  # reported below, from the main thread
                failures.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rng = np.random.default_rng(7)
            threads = [
                threading.Thread(target=work, args=(rng.permutation(2 * len(cases)) % len(cases),))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures


class TestBesselPairCache:
    """A kernel_matrix miss reads the Bessel pair (J_nu, Y_nu) at r sqrt(E)
    from its own cache, keyed by (nu, E nodes, r nodes): every theta and both
    signs of kappa of one order share one pair, a hit never consults it, and
    each kernel is its fresh build."""

    # r grids (and shifts of them) no other test uses, so each pair starts uncached
    R_COUNT = np.linspace(0.55, 2.95, 10)
    R_BITS = np.linspace(0.45, 2.85, 9)

    @pytest.fixture
    def jy_calls(self, monkeypatch):
        """(nu, shape) of every J or Y evaluation at one point or more; the atom
        rows evaluate K only."""
        calls = []
        original = special._bessel

        def counted(kind, order, x):
            if kind in (special._J, special._Y) and np.size(x):
                calls.append((order, np.shape(x)))
            return original(kind, order, x)

        monkeypatch.setattr(special, "_bessel", counted)
        return calls

    @staticmethod
    def quad(params, E_max=50.0):
        return discretize(spectral_measure(params), E_max)

    def test_one_pair_build_per_order(self, jy_calls):
        r = self.R_COUNT
        shape = (len(self.quad(ExtensionParams(0.3, 1.0)).e_nodes), len(r))
        for kappa, theta, built in (
            (0.3, 0.0, [(0.3, shape)] * 2),  # J and Y
            (0.3, 1.0, []),
            (0.3, math.pi / 2, []),
            (0.3, 1.0 + math.pi, []),
            (-0.7, 1.0, [(0.7, shape)] * 2),
            (0.7, 1.0, []),
            (1.5, 0.0, [(1.5, shape)]),  # J only: u alone for |kappa| >= 1
            (-1.5, 0.0, []),
        ):
            jy_calls.clear()
            params = ExtensionParams(kappa, theta)
            quad = self.quad(params)
            kernel_matrix(params, quad, r)
            assert jy_calls == built, (kappa, theta)
            pair = cache_counts()[1]
            kernel_matrix(params, quad, r)  # warm: neither built nor looked up
            assert jy_calls == built and cache_counts()[1] == pair, (kappa, theta)

    def test_every_kernel_is_a_fresh_build(self):
        r = self.R_BITS
        cases = [
            (0.3, 0.0), (0.3, 1.0), (0.3, math.pi / 2), (0.3, 1.0 + math.pi),
            (0.3, theta_kappa(0.3)),  # delta = 0 exactly: no w term, Y unused
            (0.3, 0.7),  # the deep atom, E_b about -107
            (-0.7, 1.0), (0.7, 1.0), (1e-7, 1.0), (-1e-4, 1.0), (-1e-4, 2.5),
            (0.0, 0.0), (1.5, 0.0), (-2.5, 0.0), (3.0, 0.0),
        ]
        for E_max in (ZETA_BOUND / 9.0, ZETA_BOUND / 36.0):
            for kappa, theta in cases:
                params = ExtensionParams(kappa, theta)
                quad = self.quad(params, E_max)
                dense, parts = fresh_build(params, quad, r)
                K = kernel_matrix(params, quad, r)
                assert np.array_equal(K, dense), (kappa, theta)
                assert_products_match(K, (dense, parts))
        assert ExtensionParams(0.3, theta_kappa(0.3)).theta_mod_pi == theta_kappa(0.3)
        reference = ExtensionParams(0.3, theta_kappa(0.3))
        assert len(fresh_build(reference, self.quad(reference), r)[1]) == 2  # a F and atoms

    def test_pairs_are_read_only(self):
        E = self.quad(ExtensionParams(0.3, 1.0)).e_nodes[:, None]
        r = self.R_BITS[None, :]
        F, G = transform._bessel_pair(0.3, E, r)
        for part in (F, G):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 1.0
            with pytest.raises(ValueError):
                part.setflags(write=True)
        assert transform._bessel_pair(0.3, E, r)[0] is F
        F, G = transform._bessel_pair(1.5, E, r)
        assert not F.flags.writeable and G is None

    def test_pair_key_holds_r_and_the_e_nodes(self):
        params = ExtensionParams(-0.7, 1.0)
        r = self.R_BITS + 0.02
        moved_r = r.copy()
        moved_r[3] = np.nextafter(moved_r[3], np.inf)
        for quad, nodes in (
            (self.quad(params, 40.0), r),
            (self.quad(params, 40.0), moved_r),  # same nu and E, r one ulp apart
            (self.quad(params, 41.0), r),  # same nu and r, other E nodes
        ):
            pair_misses = cache_counts()[1][1]
            K = kernel_matrix(params, quad, nodes)
            assert cache_counts()[1][1] == pair_misses + 1
            assert_products_match(K, fresh_build(params, quad, nodes))

    def test_errors_reach_no_cache(self, jy_calls):
        params = ExtensionParams(0.3, 1.0)
        quad = self.quad(params, 2.0 * ZETA_BOUND / 9.0)  # past the bound at r = 3
        for _ in range(2):
            with pytest.raises(SeriesDomainError):
                kernel_matrix(params, quad, self.R_COUNT + 0.05)
        assert jy_calls == []  # the bound is checked before any pair is built
        with pytest.raises(DomainError):
            kernel_matrix(params, self.quad(params), np.linspace(0.0, 3.0, 12))

    @pytest.mark.parametrize("node", [0.0, 1e-300, -2.0])
    @pytest.mark.parametrize("kappa, theta", [(0.3, 1.0), (-0.7, 0.0), (1.5, 0.0)])
    def test_hand_built_grids_off_the_pair(self, node, kappa, theta):
        """An E node at the E = 0 limit or below 0 has no (J, Y) pair, and
        discretize never makes one: kernel_matrix raises DomainError, and
        caches nothing."""
        params = ExtensionParams(kappa, theta)
        quad = MeasureQuadrature(np.array([node, 1.0, 4.0]), np.ones(3))
        counts = cache_counts()
        with pytest.raises(DomainError):
            kernel_matrix(params, quad, self.R_BITS)
        (hits, misses), pair = counts
        assert cache_counts() == ((hits, misses + 1), (pair[0], pair[1] + 1))


class TestForwardOracle:
    @pytest.mark.parametrize("E", [0.5, 4.0, 40.0])
    def test_sine_transform_closed_form(self, E):
        # kappa = 1/2 at its reference angle has the plain sine kernel
        # sqrt(2/pi) sin(r sqrt(E)) / sqrt(E); compare the forward integral
        # against adaptive high-precision quadrature of the same integrand
        params = ExtensionParams(0.5, theta_kappa(0.5))
        psi = make_psi()
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        # evaluate the analysis integral at this exact energy via a one-node grid
        weighted = psi.quad_weights * psi.values.real
        got = float(np.sum(radial_kernel(params.kappa, params.theta, E, psi.r_nodes) * weighted))

        sqrtE = mpmath.sqrt(E)
        a, b, c, w, k = BUMP.a, BUMP.b, 1.75, 0.5, 3

        def integrand(r):
            poly = (r - a) ** k * (b - r) ** k
            bump = poly * mpmath.exp(-(((r - c) / w) ** 2))
            return mpmath.sqrt(2 / mpmath.pi) * mpmath.sin(r * sqrtE) / sqrtE * bump

        expected = float(mpmath.quad(integrand, [a, (a + b) / 2, b]))
        assert got == pytest.approx(expected, rel=1e-11, abs=1e-13)


class TestUnitarity:
    @pytest.mark.parametrize(
        "params",
        [
            ExtensionParams(1.5),
            ExtensionParams(0.3, 1.0),
            ExtensionParams(0.0, math.pi / 2),
            ExtensionParams(-0.7, 0.0),
        ],
        ids=lambda p: f"kappa={p.kappa},theta={p.theta}",
    )
    def test_parseval_and_roundtrip(self, params):
        psi = make_psi()
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        coeffs = forward(params, psi, quad)
        assert parseval_defect(psi, coeffs) < 1e-8
        assert roundtrip_defect(params, psi, quad) < 2e-6

    def test_zero_function_has_no_relative_defect(self):
        """Both defects are relative to ||psi||**2, which is 0 for psi = 0:
        a typed DomainError naming the zero norm, not a ZeroDivisionError."""
        params = ExtensionParams(0.3, 1.0)
        zero = RadialFunction(make_psi().rule, None, np.zeros(64))
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        coeffs = forward(params, zero, quad)
        assert coeffs.norm_sq() == 0.0
        with pytest.raises(DomainError, match="zero"):
            parseval_defect(zero, coeffs)
        with pytest.raises(DomainError, match="zero"):
            roundtrip_defect(params, zero, quad)

    @pytest.mark.parametrize("kappa,theta", [(1e-6, 1.0), (2e-8, 2.0), (-1e-8, 1.0)])
    def test_parseval_next_to_kappa_zero(self, kappa, theta):
        """The density's digits no longer cancel as kappa -> 0: the defect is the
        kappa = 0 one (1.25e-11 at theta = 1, 1.9e-13 at (2e-8, 2)), where it
        was 2.3e-5, 3.0e-3 and 0.18."""
        params = ExtensionParams(kappa, theta)
        psi = make_psi()
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        assert parseval_defect(psi, forward(params, psi, quad)) <= 1e-10

    def test_diagonalization(self):
        # transform intertwines the differential operator with E-multiplication
        params = ExtensionParams(0.3, 1.0)
        psi = make_psi()
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        c = forward(params, psi, quad)
        d = forward(params, apply_l_q(params.kappa, psi), quad)
        num = np.sum(
            quad.e_weights
            * np.abs(d.continuum_values - quad.e_nodes * c.continuum_values) ** 2
        )
        den = np.sum(quad.e_weights * np.abs(quad.e_nodes * c.continuum_values) ** 2)
        assert math.sqrt(float(num / den)) < 1e-9

    def test_atom_diagonalization(self):
        # the atom coefficient of L psi is E_b times that of psi
        params = ExtensionParams(0.3, math.pi / 2)  # E_b = -1
        psi = make_psi()
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        c = forward(params, psi, quad)
        d = forward(params, apply_l_q(params.kappa, psi), quad)
        energy, _ = quad.atoms[0]
        assert d.atom_values[0] == pytest.approx(energy * c.atom_values[0], rel=1e-10)

    @pytest.mark.parametrize(
        "kappa,theta,E_b",
        [(0.3, 0.7, -106.97), (0.0, 0.9, -12.10), (-0.7, 1.2, -17.58)],
    )
    def test_deep_atoms(self, kappa, theta, E_b):
        """Bound states far below E = -1 keep Parseval, roundtrip and the
        diagonalization over the whole grid, atom node included."""
        params = ExtensionParams(kappa, theta)
        psi = make_psi()
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        ((energy, _),) = quad.atoms
        assert energy == pytest.approx(E_b, abs=5e-3)
        c = forward(params, psi, quad)
        d = forward(params, apply_l_q(kappa, psi), quad)
        diag = np.sum(quad.weights * np.abs(d.values - quad.nodes * c.values) ** 2)
        assert parseval_defect(psi, c) < 1e-6
        assert roundtrip_defect(params, psi, quad) < 1e-6
        assert math.sqrt(float(diag) / psi.norm_sq()) < 1e-6
        assert d.atom_values[0] == pytest.approx(energy * c.atom_values[0], rel=1e-8)

    def test_norm_sums_the_e_nodes_and_the_atom(self):
        params = ExtensionParams(0.3, math.pi / 2)
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        c = forward(params, make_psi(), quad)
        ((_, weight),) = quad.atoms
        parts = np.sum(quad.e_weights * np.abs(c.continuum_values) ** 2)
        parts += weight * abs(c.atom_values[0]) ** 2
        assert c.norm_sq() == pytest.approx(float(parts), rel=1e-14)

    def test_dropping_the_atom_breaks_parseval(self):
        # negative control: the atom carries a visible share of the norm
        params = ExtensionParams(0.3, math.pi / 2)
        psi = make_psi()
        quad = discretize(spectral_measure(params), E_MAX, node_budget=32)
        honest = parseval_defect(psi, forward(params, psi, quad))
        broken = parseval_defect(psi, forward(params, psi, quad, include_atoms=False))
        assert honest < 1e-8
        assert broken > 1e-3


class TestInverse:
    def test_zero_coefficients_give_zero_function(self):
        params = ExtensionParams(0.3, 1.0)
        quad = discretize(spectral_measure(params), 10.0)
        coeffs = TransformCoefficients(quad, np.zeros(len(quad.nodes)))
        r = np.linspace(0.5, 3.0, 16)
        assert np.all(inverse(params, coeffs, r).values == 0.0)

    def test_pure_atom_synthesizes_bound_eigenfunction(self):
        params = ExtensionParams(0.3, math.pi / 2)
        quad = discretize(spectral_measure(params), 10.0)
        coeffs = TransformCoefficients(quad, np.eye(len(quad.nodes))[-1])  # the atom alone
        r = np.linspace(0.5, 3.0, 16)
        back = inverse(params, coeffs, r).values
        energy, weight = quad.atoms[0]
        expected = weight * u_theta_eigen(0.3, math.pi / 2, energy, r).value
        assert np.allclose(back, expected, rtol=1e-14)

    def test_coefficient_grid_mismatch_rejected(self):
        quad = discretize(spectral_measure(ExtensionParams(1.5)), 10.0)
        with pytest.raises(DomainError):
            TransformCoefficients(quad, np.zeros(3))


class TestOperator:
    def test_apply_l_q_requires_analytic_second_derivative(self):
        psi = RadialFunction.from_callable(BUMP, BUMP.a, BUMP.b, 16)
        with pytest.raises(ContractError):
            apply_l_q(0.3, psi)

    def test_apply_l_q_half_order_on_sine(self):
        # kappa = 1/2 removes the potential: L is -d2/dr2, and sin(omega r)
        # is an exact eigenvector with value omega**2
        omega = 2.0
        psi = RadialFunction.from_callable(
            lambda r: np.sin(omega * r),
            0.5,
            3.0,
            32,
            second_derivative=lambda r: -(omega**2) * np.sin(omega * r),
        )
        out = apply_l_q(0.5, psi)
        assert np.allclose(out.values, omega**2 * psi.values, rtol=1e-13)


class TestBoundaryDefect:
    @pytest.mark.parametrize("kappa,theta", [(0.3, 1.0), (0.0, math.pi / 2)])
    def test_vanishes_toward_origin(self, kappa, theta):
        probes = [1e-1, 1e-2, 1e-3, 1e-4]
        defects = np.abs(boundary_defect(ExtensionParams(kappa, theta), 2.0, probes))
        assert defects[-1] < 1e-3
        assert np.all(np.diff(defects) < 0)

    def test_requires_extension_family(self):
        with pytest.raises(DomainError):
            boundary_defect(ExtensionParams(1.5), 2.0, [0.1])

    def test_mismatched_extensions_do_not_vanish(self):
        # u_theta1(0) against u_theta2(E) has Wronskian -> (2/pi) sin(t2 - t1)
        from ab_spectral.special import wronskian

        kappa, t1, t2, E = 0.3, 0.4, 1.3, 2.0
        limit = 2.0 / math.pi * math.sin(t2 - t1)
        vals = [
            wronskian(
                u_theta_eigen(kappa, t1, 0.0, r), u_theta_eigen(kappa, t2, E, r)
            )
            for r in (1e-3, 1e-4)
        ]
        assert vals[-1] == pytest.approx(limit, rel=1e-3)
