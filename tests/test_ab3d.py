"""Tests of the three-dimensional channel decomposition and assembly."""

import bisect
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ab_spectral import ab3d, transform
from ab_spectral.ab3d import (
    ChannelIndex,
    Coefficients3D,
    FieldSum,
    ModeGrid,
    PiecewiseTheta,
    ReductionGrid,
    SeparableField,
    ThetaSpec,
    TransformedField,
    _channel_plan,
    _theta_groups,
    apply_H,
    bound_state_table,
    channel_kappa,
    channel_set,
    coefficient_distance,
    critical_channels,
    eigenfunction_3d,
    field_norm_sq,
    full_forward,
    hamiltonian_defect,
    radial_reduce,
    symmetry_defect,
    symmetry_phase,
)
from ab_spectral.bumps import GaussianBump, GaussianProfile
from ab_spectral.errors import ConfigurationError, DomainError
from ab_spectral.measures import gauss_legendre
from ab_spectral.special import ZETA_BOUND, theta_kappa, u_eigen


class TestChannels:
    @pytest.mark.parametrize(
        "phi,expected",
        [
            (2.0, (-2,)),
            (0.0, (0,)),
            (-3.0, (3,)),
            (0.3, (-1, 0)),
            (0.5, (-1, 0)),
            (1.7, (-2, -1)),
            (-0.5, (0, 1)),
        ],
    )
    def test_critical_channels(self, phi, expected):
        assert critical_channels(phi) == expected

    def test_criticality_matches_kappa(self):
        for m, kappa, crit in channel_set(0.5, 4):
            assert kappa == m + 0.5
            assert crit == (abs(kappa) < 1.0)

    def test_channel_kappa(self):
        assert channel_kappa(0.3, -2) == pytest.approx(-1.7)

    @pytest.mark.parametrize(
        "phi,expected",
        [(1e-17, (0,)), (-1e-17, (0,)), (1.0 - 2.0**-53, (-1, 0)), (0.5, (-1, 0))],
    )
    def test_criticality_within_an_ulp_of_integer_flux(self, phi, expected):
        # kappa_{-1} = -1 + 1e-17 rounds to -1.0, so m = -1 is not critical there
        assert critical_channels(phi) == expected
        flagged = tuple(m for m, kappa, crit in channel_set(phi, 3) if crit)
        assert flagged == expected
        for m, kappa, crit in channel_set(phi, 3):
            assert crit == (abs(kappa) < 1.0)


class TestThetaSpec:
    def test_constant_covers_critical_set(self):
        spec = ThetaSpec.constant(0.5, 1.0)
        assert set(spec.entries) == {-1, 0}
        assert spec.theta_for(0, 3.7) == 1.0

    def test_missing_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            ThetaSpec(0.5, {0: 1.0})

    def test_extra_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            ThetaSpec(0.5, {-1: 1.0, 0: 1.0, 2: 1.0})

    def test_piecewise_lookup(self):
        pw = PiecewiseTheta(breaks=(0.0, 2.0), values=(0.1, 0.2, 0.3))
        spec = ThetaSpec(0.5, {-1: pw, 0: 1.0})
        assert spec.theta_for(-1, -5.0) == 0.1
        assert spec.theta_for(-1, 0.0) == 0.1  # intervals are (lo, hi]
        assert spec.theta_for(-1, 1.0) == 0.2
        assert spec.theta_for(-1, 100.0) == 0.3

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_p_rejected(self, p):
        pw = PiecewiseTheta((0.0,), (1.0, 1.3))
        spec = ThetaSpec(0.5, {-1: pw, 0: 1.0})
        for lookup in (lambda: pw.theta_at(p), lambda: pw.theta_at(np.array([0.5, p])),
                       lambda: spec.theta_for(-1, p), lambda: spec.theta_for(0, p)):
            with pytest.raises(DomainError, match="finite p"):
                lookup()

    def test_piecewise_validation(self):
        with pytest.raises(ConfigurationError):
            PiecewiseTheta(breaks=(0.0,), values=(0.1,))
        with pytest.raises(ConfigurationError):
            PiecewiseTheta(breaks=(1.0, 1.0), values=(0.1, 0.2, 0.3))

    def test_shifted(self):
        spec = ThetaSpec.constant(0.5, 1.0).shifted(math.pi)
        assert spec.theta_for(0, 0.0) == 1.0 + math.pi


P_RULE = gauss_legendre(-8.0, 8.0, 32)
X3_RULE = gauss_legendre(-2.0, 2.5, 32)
NAN_NODE = np.where(np.arange(32) == 5, math.nan, P_RULE[0])


class TestGrids:
    def test_mode_grid_validation(self):
        with pytest.raises(ConfigurationError):
            ModeGrid(-1, np.zeros(4), np.ones(4))
        with pytest.raises(ConfigurationError):
            ModeGrid(1, np.zeros(4), -np.ones(4))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ModeGrid(3, P_RULE[0][:10], P_RULE[1]),  # 10 nodes, 32 weights
            lambda: ModeGrid(3, NAN_NODE, P_RULE[1]),
            lambda: ModeGrid(2.5, *P_RULE),
            lambda: ModeGrid(3, P_RULE[0][None, :], P_RULE[1][None, :]),  # 2-D
            lambda: ModeGrid(3, P_RULE[0], np.where(np.arange(32) == 0, math.inf, P_RULE[1])),
            lambda: ReductionGrid(X3_RULE[0], -X3_RULE[1]),
            lambda: ReductionGrid(X3_RULE[0][:-1], X3_RULE[1]),
            lambda: ReductionGrid(NAN_NODE, X3_RULE[1]),
            lambda: PiecewiseTheta((math.nan,), (1.0, 1.3)),
            lambda: PiecewiseTheta((0.0,), (1.0, math.inf)),
            lambda: ThetaSpec.constant(math.nan, 1.0),
            lambda: ThetaSpec(math.inf, {}),
            lambda: SeparableField(PSI, CHI, 0.5, (PSI.a, PSI.b), CHI.support),
            lambda: TransformedField(make_field(m=1), math.nan, 0.2),
            lambda: TransformedField(make_field(m=1), 0.7, math.inf),
        ],
        ids=[
            "p-lengths", "p-nan-node", "m-max-float", "p-2d", "p-inf-weight",
            "x3-negative-weights", "x3-lengths", "x3-nan-node",
            "theta-nan-break", "theta-inf-value", "phi-nan", "phi-inf",
            "field-m-half", "moved-alpha-nan", "moved-beta-inf",
        ],
    )
    def test_malformed_3d_inputs_raise_configuration_error(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_mode_grid_build(self):
        grid = ModeGrid.build(2, 5.0, 32)
        assert list(grid.modes) == [-2, -1, 0, 1, 2]
        assert np.sum(grid.p_weights) == pytest.approx(10.0, rel=1e-14)

    def test_transformed_field_support_shift(self):
        field = SeparableField(
            GaussianBump(0.5, 3.0), GaussianProfile(), 0, (0.5, 3.0), (-4.0, 4.0)
        )
        moved = TransformedField(field, 0.3, 1.5)
        assert moved.x3_support == (-2.5, 5.5)


PHI = 0.5
PSI = GaussianBump(0.5, 3.0)
CHI = GaussianProfile(center=0.3, width=0.7)


def make_field(m=0):
    return SeparableField(
        PSI,
        CHI,
        m,
        (PSI.a, PSI.b),
        CHI.support,
        psi_d2=PSI.derivative2,
        chi_d2=CHI.derivative2,
    )


#: The oracle's angle grid: 128 uniform angles resolve the modes |m| < 64.
N_ANGLES = 128
ANGLES = 2.0 * math.pi * np.arange(N_ANGLES) / N_ANGLES


def whole_tensor(field, r, x3):
    """Phi(r_i, angle_j, x3_k) sampled at once over the oracle's angles,
    shape (n_r, N_ANGLES, n_x3)."""
    return np.asarray(
        field(np.asarray(r)[:, None, None], ANGLES[None, :, None], np.asarray(x3)[None, None, :]),
        dtype=complex,
    )


def oracle_reduction(field, r, modes, p, grid):
    """reduced(m, p | r) / sqrt(r) from the field's samples, independent of its
    factors: an FFT over the angles, then the x3 quadrature of e^{-i p x3};
    shape (n_r, len(modes), len(p))."""
    spectrum = np.fft.fft(whole_tensor(field, r, grid.x3_nodes), axis=1) / N_ANGLES
    phases = np.exp(-1j * np.outer(p, grid.x3_nodes)) * grid.x3_weights
    return spectrum[:, [m % N_ANGLES for m in modes], :] @ phases.T


def oracle_norm_sq(field, r_rule, grid):
    """||Phi||^2 by tensor quadrature of the samples: r dr x dangle x dx3."""
    r, wr = r_rule
    per_r = np.sum(np.abs(whole_tensor(field, r, grid.x3_nodes)) ** 2 @ grid.x3_weights, axis=1)
    return float(np.sum(wr * r * per_r)) * 2.0 * math.pi / N_ANGLES


class TestReduction:
    def test_separable_reduction_closed_form(self):
        # reducing r**-1/2 psi(r) chi(x3) e^{i m a} at channel (m, p) gives
        # exactly chi_hat(p) psi(r); other modes are exactly 0
        field = make_field(m=1)
        grid = ReductionGrid.build(CHI.support, n_x3=96)
        r = np.linspace(0.6, 2.9, 12)
        p = 1.3
        hit = radial_reduce(field, ChannelIndex(1, p), r, grid)
        expected = complex(CHI.fourier(p)) * PSI(r)
        assert np.max(np.abs(hit.values - expected)) < 1e-10
        miss = radial_reduce(field, ChannelIndex(0, p), r, grid)
        assert np.all(miss.values == 0.0)

    def test_field_norm_separates(self):
        # ||Phi||^2 = 2 pi ||psi||^2 ||chi||^2 for the separable family
        field = make_field(m=2)
        grid = ReductionGrid.build(CHI.support, n_x3=96)
        r_rule = gauss_legendre(PSI.a, PSI.b, 64)
        x, w = gauss_legendre(*CHI.support, 96)
        psi_norm = float(np.sum(gauss_legendre(PSI.a, PSI.b, 64)[1] * PSI(r_rule[0]) ** 2))
        chi_norm = float(np.sum(w * CHI(x) ** 2))
        expected = 2.0 * math.pi * psi_norm * chi_norm
        assert field_norm_sq(field, r_rule, grid) == pytest.approx(expected, rel=1e-10)
        with pytest.raises(DomainError, match="at least 8"):  # an empty rule has no norm
            field_norm_sq(field, (np.zeros(0), np.zeros(0)), grid)

    def test_an_empty_r_grid_has_no_radial_function(self):
        grid = ReductionGrid.build(CHI.support, n_x3=16)
        with pytest.raises(DomainError, match="at least 8"):
            radial_reduce(make_field(m=1), ChannelIndex(1, 0.4), np.zeros(0), grid)

    def test_a_library_field_is_never_sampled(self, monkeypatch):
        """SeparableField, FieldSum and a TransformedField of either are reduced
        and normed from their factors: no call of any of them."""
        called = []
        for cls in (SeparableField, FieldSum, TransformedField):
            monkeypatch.setattr(cls, "__call__", lambda self, *args: called.append(self))
        spec, grid, reduction, r_rule = small_setup()
        base = make_field(m=1)
        for field in (base, base.hamiltonian_image(PHI), TransformedField(base, 0.7, 0.2),
                      TransformedField(base.hamiltonian_image(PHI), 0.7, 0.2)):
            full_forward(spec, field, grid, r_rule, reduction, 10.0)
            radial_reduce(field, ChannelIndex(1, 0.4), r_rule[0], reduction)
            field_norm_sq(field, r_rule, reduction)
        assert called == []

    @pytest.mark.parametrize("kind", ["m=-3", "m=-1", "m=0", "m=2", "image", "complex"])
    @pytest.mark.parametrize("moved", [False, True])
    def test_mode_factors_reduce_as_the_whole_tensor(self, kind, moved):
        """A library field's factors (m, R, X) give its samples, R @ X times
        e^{i m a}; radial_reduce and field_norm_sq from them agree with the
        FFT, axial sum and tensor quadrature of its whole sample tensor within
        1e-15 of their peak, and every other mode's reduction is exactly 0."""
        field = {
            "m=-3": make_field(m=-3),
            "m=-1": make_field(m=-1),
            "m=0": make_field(m=0),
            "m=2": make_field(m=2),
            "image": make_field(m=2).hamiltonian_image(PHI),
            "complex": SeparableField(
                lambda r: PSI(r) * np.exp(0.8j * r), CHI, -2, (PSI.a, PSI.b), CHI.support
            ),
        }[kind]
        if moved:
            field = TransformedField(field, 0.7, 0.2)
        grid = ReductionGrid.build((-2.0, 2.5), n_x3=40)
        r, wr = gauss_legendre(PSI.a, PSI.b, 9)
        modes, p = list(range(-5, 6)), np.array([-1.1, 0.0, 0.4, 2.5])
        tensor = whole_tensor(field, r, grid.x3_nodes)
        m, radial, axial = field.factors(r, grid.x3_nodes)
        assert radial.shape == (len(r), axial.shape[0]) and axial.shape[1] == len(grid.x3_nodes)
        samples = (radial @ axial)[:, None, :] * np.exp(1j * m * ANGLES)[None, :, None]
        assert np.max(np.abs(samples - tensor)) <= 1e-14 * np.max(np.abs(tensor))
        expected = oracle_reduction(field, r, modes, p, grid)
        peak = np.max(np.abs(expected))
        assert peak > 0.1
        for (i, mode), (j, pj) in itertools.product(enumerate(modes), enumerate(p)):
            got = radial_reduce(field, ChannelIndex(mode, pj), r, grid).values / np.sqrt(r)
            if mode == m:
                assert np.max(np.abs(got - expected[:, i, j])) <= 1e-15 * peak
            else:
                assert np.all(got == 0.0)
                assert np.max(np.abs(expected[:, i, j])) <= 1e-15 * peak
        norm = oracle_norm_sq(field, (r, wr), grid)
        assert abs(field_norm_sq(field, (r, wr), grid) - norm) <= 1e-15 * norm


class CountingField:
    """A plain callable field that counts the calls made to it.  It has no
    factors, so the reduction refuses it; its H image is another one."""

    def __init__(self, field):
        self.field = field
        self.calls = 0

    def __call__(self, r, angle, x3):
        self.calls += 1
        return self.field(r, angle, x3)

    def hamiltonian_image(self, phi):
        return CountingField(self.field.hamiltonian_image(phi))


class TestFieldProtocol:
    """A 3D field hands its exact factors (m, R, X); one without them, a
    plain callable or a TransformedField of one, is refused."""

    @staticmethod
    def misses():
        caches = (transform._build_kernel, transform._cached_pair, ab3d._cached_plan)
        return [cache.cache_info().misses for cache in caches]

    @pytest.mark.parametrize("moved", [False, True], ids=["callable", "moved-callable"])
    def test_a_field_without_factors_is_refused_before_any_build(self, moved):
        """full_forward, field_norm_sq, radial_reduce, hamiltonian_defect and
        symmetry_defect raise ConfigurationError before any kernel, Bessel pair
        or channel plan is built, and without calling the field."""
        spec, grid, reduction, r_rule = small_setup()
        base = full_forward(spec, make_field(m=0), grid, r_rule, reduction, 10.0)
        counted = CountingField(make_field(m=0))
        fields = [counted, lambda r, angle, x3: make_field(m=0)(r, angle, x3)]
        if moved:
            fields = [TransformedField(f, 0.7, 0.2) for f in fields]
        for cache in (transform._build_kernel, transform._cached_pair, ab3d._cached_plan):
            cache.cache_clear()  # so that anything built now is a miss
        before = self.misses()
        args = (grid, r_rule, reduction, 10.0)
        for field in fields:
            for call in (
                lambda: full_forward(spec, field, *args),
                lambda: field_norm_sq(field, r_rule, reduction),
                lambda: radial_reduce(field, ChannelIndex(0, 0.4), r_rule[0], reduction),
                lambda: hamiltonian_defect(spec, field, *args, base=base),
                lambda: symmetry_defect(spec, field, 0.7, 1.3, *args, base=base),
            ):
                with pytest.raises(ConfigurationError, match="factors|hamiltonian_image"):
                    call()
        assert self.misses() == before
        assert counted.calls == 0

    def test_a_transformed_field_has_the_exact_phase(self):
        """TransformedField's factors are the field's at x3 - beta, X times
        e^{-i m alpha}: bit for bit that product."""
        field = make_field(m=3).hamiltonian_image(PHI)
        r, x3 = gauss_legendre(PSI.a, PSI.b, 9)[0], X3_RULE[0]
        m, radial, axial = TransformedField(field, 0.7, 0.2).factors(r, x3)
        m0, radial0, axial0 = field.factors(r, x3 - 0.2)
        assert m == m0 == 3 and radial.tobytes() == radial0.tobytes()
        assert axial.tobytes() == (axial0 * np.exp(-3j * 0.7)).tobytes()


class TestThetaGroups:
    @staticmethod
    def dict_grouping(spec, m, p_nodes):
        """The p nodes grouped by a dict over a per-node bisect of the table,
        values[i] on (breaks[i-1], breaks[i]], sorted by theta."""
        table, groups = spec.entries[m], {}
        for i, p in enumerate(p_nodes):
            theta = table.values[bisect.bisect_left(table.breaks, float(p))]
            groups.setdefault(theta, []).append(i)
        return [(t, np.asarray(idx)) for t, idx in sorted(groups.items())]

    @pytest.mark.parametrize("seed", range(24))
    def test_same_groups_as_a_dict_over_theta_for(self, seed):
        rng = np.random.default_rng(seed)
        p_nodes = ModeGrid.build(0, 8.0, 64).p_nodes
        n_breaks = int(rng.integers(0, 7))
        # breaks on p nodes (a node there takes the piece below) and between them;
        # values from a pool of 3, so pieces that share one theta are common
        candidates = np.concatenate((p_nodes[::3], rng.uniform(-9.0, 9.0, 12)))
        breaks = np.sort(rng.choice(candidates, n_breaks, replace=False))
        values = rng.choice([0.2, 1.0, 1.3], n_breaks + 1)
        table = PiecewiseTheta(tuple(map(float, breaks)), tuple(map(float, values)))
        spec = ThetaSpec(PHI, {-1: 0.7, 0: table})
        for m in (-1, 0):
            got = _theta_groups(spec, m, p_nodes)
            want = self.dict_grouping(spec, m, p_nodes)
            assert [t for t, _ in got] == [t for t, _ in want]
            for (theta, idx), (_, ref) in zip(got, want):
                assert idx.dtype == ref.dtype and np.array_equal(idx, ref)
                assert all(spec.theta_for(m, float(p)) == theta for p in p_nodes[idx])

    def test_pieces_sharing_a_theta_merge(self):
        p_nodes = np.array([-2.0, -1.0, 0.5, 1.0, 3.0])
        table = PiecewiseTheta((-1.0, 1.0), (1.3, 0.2, 1.3))
        spec = ThetaSpec(PHI, {-1: 0.7, 0: table})
        groups = _theta_groups(spec, 0, p_nodes)
        assert [t for t, _ in groups] == [0.2, 1.3]
        assert [idx.tolist() for _, idx in groups] == [[2, 3], [0, 1, 4]]
        [(theta, idx)] = _theta_groups(spec, 2, p_nodes)  # off-critical: one group
        assert theta is None and idx.tolist() == [0, 1, 2, 3, 4]


def small_setup(theta=1.0):
    spec = ThetaSpec.constant(PHI, theta)
    grid = ModeGrid.build(1, 5.0, 16)
    reduction = ReductionGrid.build(CHI.support, n_x3=64)
    r_rule = gauss_legendre(PSI.a, PSI.b, 48)
    return spec, grid, reduction, r_rule


class TestFullForward:
    def test_mode_selectivity(self):
        # a pure e^{i m a} field puts all coefficient mass in mode m
        spec, grid, reduction, r_rule = small_setup()
        coeffs = full_forward(spec, make_field(m=1), grid, r_rule, reduction, 100.0)
        total = coeffs.norm_sq()
        for m in (-1, 0):
            assert coeffs.channel_norm_sq(m) < 1e-25 * total
        assert coeffs.channel_norm_sq(1) == pytest.approx(total)
        assert [coeffs.norm_sq(m) for m in grid.modes] == [
            coeffs.channel_norm_sq(m) for m in grid.modes
        ]

    def test_parseval(self):
        # needs the full p-resolution: the small 16-node p grid used elsewhere
        # leaves a ~5e-4 truncation deficit in the |chi_hat|^2 integral
        spec = ThetaSpec.constant(PHI, 1.0)
        grid = ModeGrid.build(1, 8.0, 64)
        reduction = ReductionGrid.build(CHI.support, n_x3=96)
        r_rule = gauss_legendre(PSI.a, PSI.b, 48)
        field = make_field(m=0)
        coeffs = full_forward(spec, field, grid, r_rule, reduction, 250.0, 32)
        assert coeffs.norm_sq() == pytest.approx(
            field_norm_sq(field, r_rule, reduction), rel=1e-5
        )

    def test_warm_forward_at_m_max_30_misses_no_cache(self):
        """The acceptance field at M_max = 30 (node_budget 32): one forward
        needs its mode's one Bessel pair, one extension's kernel and one
        channel plan; a second forward finds every one of them in the
        caches."""
        grid = ModeGrid.build(30, 8.0, 64)
        r_rule = gauss_legendre(PSI.a, PSI.b, 64)
        args = (ThetaSpec.constant(PHI, 1.0), make_field(m=0), grid, r_rule,
                ReductionGrid.build(CHI.support), ZETA_BOUND / PSI.b**2, 32)

        def misses():
            caches = (transform._build_kernel, transform._cached_pair, ab3d._cached_plan)
            return [cache.cache_info().misses for cache in caches]

        full_forward(*args)
        before = misses()
        full_forward(*args)
        assert misses() == before

    @pytest.mark.parametrize("m, kernels", [(0, 2), (2, 1)], ids=["critical-m=0", "m=2"])
    def test_a_cold_forward_builds_only_its_own_modes_kernels(self, m, kernels):
        """phi = 0.3, M_max = 30, theta piecewise in p on m = 0: a cold
        forward builds the plan and the kernels of the field's mode alone,
        over its one Bessel pair (mode 0: one channel and kernel per theta
        piece; mode 2, kappa = 2.3: one), and a warm forward misses none of
        the three caches."""
        spec = ThetaSpec(0.3, {-1: 1.0, 0: PiecewiseTheta((0.0,), (1.0, 1.3))})
        grid, reduction = ModeGrid.build(30, 8.0, 64), ReductionGrid.build(CHI.support)
        e_max = ZETA_BOUND / PSI.b**2
        args = (spec, make_field(m=m), grid, gauss_legendre(PSI.a, PSI.b, 64), reduction, e_max)
        caches = (transform._build_kernel, transform._cached_pair, ab3d._cached_plan)
        for cache in caches:
            cache.cache_clear()
        coeffs = full_forward(*args)
        assert [cache.cache_info().misses for cache in caches] == [kernels, 1, 1]
        assert len(_channel_plan(spec, m, grid, reduction, e_max, 16).channels) == kernels
        assert [blk.m for blk in coeffs.blocks] == [m] * kernels
        full_forward(*args)
        assert [cache.cache_info().misses for cache in caches] == [kernels, 1, 1]

    def test_diagonalization(self):
        # apply_H on coefficients matches transforming H Phi directly
        spec, grid, reduction, r_rule = small_setup(theta=math.pi / 2)
        field = make_field(m=0)
        base = full_forward(spec, field, grid, r_rule, reduction, 100.0)
        lhs = apply_H(spec, base)
        rhs = full_forward(
            spec, field.hamiltonian_image(PHI), grid, r_rule, reduction, 100.0
        )
        assert coefficient_distance(lhs, rhs) < 1e-6 * math.sqrt(base.norm_sq())

    def test_symmetry_defect(self):
        spec, grid, reduction, r_rule = small_setup()
        field = make_field(m=0)
        base = full_forward(spec, field, grid, r_rule, reduction, 100.0)
        defect = symmetry_defect(
            spec, field, 0.7, 1.3, grid, r_rule, reduction, 100.0, base=base
        )
        assert defect < 1e-8
        with pytest.raises(TypeError):  # base is a required keyword
            symmetry_defect(spec, field, 0.7, 1.3, grid, r_rule, reduction, 100.0)

    def test_deep_atoms_on_both_critical_channels(self):
        """theta = 0.9 puts E_b = -75.47 on both critical channels of phi = 1/2;
        Parseval and apply_H hold at the 3D acceptance tolerances."""
        spec = ThetaSpec.constant(PHI, 0.9)
        grid = ModeGrid.build(3, 8.0, 64)
        reduction = ReductionGrid.build(CHI.support)
        r_rule = gauss_legendre(PSI.a, PSI.b, 64)
        e_max = 2500.0 / PSI.b**2
        field = make_field(m=0)
        energies = [row[2] for row in bound_state_table(spec)]
        assert energies == pytest.approx([-75.47, -75.47], abs=5e-3)
        base = full_forward(spec, field, grid, r_rule, reduction, e_max)
        image = full_forward(spec, field.hamiltonian_image(PHI), grid, r_rule, reduction, e_max)
        nsq = field_norm_sq(field, r_rule, reduction)
        assert abs(nsq - base.norm_sq()) / nsq <= 1e-5
        assert coefficient_distance(image, apply_H(spec, base)) / math.sqrt(nsq) <= 1e-4

    def test_norm_sums_the_e_nodes_and_the_atoms(self):
        spec, grid, reduction, r_rule = small_setup(theta=math.pi / 2)
        coeffs = full_forward(spec, make_field(m=0), grid, r_rule, reduction, 10.0)
        parts = 0.0
        for blk in coeffs.blocks:
            pw = grid.p_weights[blk.p_indices]
            parts += np.sum(pw * np.sum(blk.quad.e_weights * np.abs(blk.continuum) ** 2, axis=1))
            for j, (_, weight) in enumerate(blk.quad.atoms):
                parts += np.sum(pw * weight * np.abs(blk.atom_values[:, j]) ** 2)
        assert coeffs.norm_sq() == pytest.approx(float(parts), rel=1e-14)

    def test_block_parts_are_assignable(self):
        # continuum and atom_values are the two column ranges of values
        spec, grid, reduction, r_rule = small_setup(theta=math.pi / 2)
        coeffs = full_forward(spec, make_field(m=0), grid, r_rule, reduction, 10.0)
        blk = next(b for b in coeffs.blocks if b.m == 0)
        continuum, atoms = blk.continuum.copy(), blk.atom_values.copy()
        blk.continuum = 2.0 * continuum
        blk.atom_values = 3.0 * atoms
        assert np.array_equal(blk.values, np.hstack((2.0 * continuum, 3.0 * atoms)))

    def test_hamiltonian_image_needs_derivatives(self):
        field = SeparableField(PSI, CHI, 0, (PSI.a, PSI.b), CHI.support)
        with pytest.raises(ConfigurationError):
            field.hamiltonian_image(PHI)

    def test_a_truncated_channel_has_no_norm(self):
        """A mode outside grid.modes was dropped by the truncation: its norm is
        unknown, not 0."""
        spec, grid, reduction, r_rule = small_setup()
        coeffs = full_forward(spec, make_field(m=1), grid, r_rule, reduction, 10.0)
        for m in (2, -2, 9):
            with pytest.raises(ConfigurationError, match="outside the truncation"):
                coeffs.channel_norm_sq(m)
            with pytest.raises(ConfigurationError, match="outside the truncation"):
                coeffs.norm_sq(m)
        assert sum(coeffs.norm_sq(m) for m in grid.modes) == pytest.approx(coeffs.norm_sq())

    @pytest.mark.parametrize("m", [5, -4])
    def test_a_field_outside_the_truncation_is_refused_before_any_build(self, m):
        """A field of a mode outside |m| <= M_max has no kept channel: its
        forward and both defects raise ConfigurationError before any kernel,
        Bessel pair or channel plan is built.  They used to return a forward
        of no blocks, and defects of exactly 0.0 against it."""
        _, _, reduction, r_rule = small_setup()
        spec, grid = ThetaSpec.constant(PHI, 1.0), ModeGrid.build(3, 8.0, 64)
        field, args = make_field(m=m), (grid, r_rule, reduction, 10.0)
        base = Coefficients3D(PHI, grid, [])
        caches = (transform._build_kernel, transform._cached_pair, ab3d._cached_plan)
        for cache in caches:
            cache.cache_clear()
        for call in (
            lambda: full_forward(spec, field, *args),
            lambda: hamiltonian_defect(spec, field, *args, base=base),
            lambda: symmetry_defect(spec, field, 0.7, 1.3, *args, base=base),
        ):
            with pytest.raises(ConfigurationError, match="outside the truncation"):
                call()
        assert [cache.cache_info().misses for cache in caches] == [0, 0, 0]

    @pytest.mark.parametrize("both", [False, True], ids=["chi", "psi-and-chi"])
    def test_a_constant_factor_is_broadcast_to_its_grid(self, both):
        """A factor that returns a scalar gives the bits of one that returns
        the same constant as an array, in the forward, the norm and one channel."""
        def field(const):
            return SeparableField(const if both else PSI, const, 1, (PSI.a, PSI.b), CHI.support)

        scalar, array = field(lambda x: 0.5), field(lambda x: np.full(np.shape(x), 0.5))
        assert scalar(1.0, 0.3, 0.2) == array(1.0, 0.3, 0.2)
        spec, grid, reduction, r_rule = small_setup()
        forwards = [full_forward(spec, f, grid, r_rule, reduction, 10.0) for f in (scalar, array)]
        for blk_s, blk_a in zip(*(c.blocks for c in forwards)):
            assert blk_s.values.tobytes() == blk_a.values.tobytes()
        assert field_norm_sq(scalar, r_rule, reduction) == field_norm_sq(array, r_rule, reduction)
        one, other = (
            radial_reduce(TransformedField(f, 0.7, 0.2), ChannelIndex(1, 0.4), r_rule[0], reduction)
            for f in (scalar, array)
        )
        assert one.values.tobytes() == other.values.tobytes()


R_RULE = gauss_legendre(PSI.a, PSI.b, 16)


class TestRadialRule:
    """full_forward, field_norm_sq and radial_reduce take one radial rule,
    transform.RadialRule: 1-D nodes and weights of one length, at least 8
    nodes, all finite, with r > 0 and w > 0, else DomainError.  The rule is
    checked first: a plain callable, which the reduction would refuse for
    its missing factors, is told of the rule, as a library field is."""

    @pytest.mark.parametrize(
        "rule",
        [
            (R_RULE[0], np.full(16, math.nan)),
            (R_RULE[0], -R_RULE[1]),
            (R_RULE[0], R_RULE[1][:-1]),
            (R_RULE[0][None, :], R_RULE[1][None, :]),
            (np.where(np.arange(16) == 3, math.inf, R_RULE[0]), R_RULE[1]),
            (R_RULE[0] - R_RULE[0][0], R_RULE[1]),
            (R_RULE[0], np.where(np.arange(16) == 3, 0.0, R_RULE[1])),
        ],
        ids=["nan-weights", "negated-weights", "lengths", "2d", "inf-node", "node-at-0",
             "zero-weight"],
    )
    @pytest.mark.parametrize("field", [make_field(m=1), CountingField(make_field(m=1))],
                             ids=["factored", "sampled"])
    def test_a_malformed_rule_raises_configuration_error(self, rule, field):
        spec, grid, reduction, _ = small_setup()
        with pytest.raises(DomainError, match="the r rule"):
            full_forward(spec, field, grid, rule, reduction, 10.0)
        with pytest.raises(DomainError, match="the r rule"):
            field_norm_sq(field, rule, reduction)
        with pytest.raises(DomainError, match="the r rule"):
            radial_reduce(field, ChannelIndex(1, 0.4), rule[0], reduction, rule[1])

    def test_radial_reduce_checks_its_nodes_without_weights(self):
        _, _, reduction, _ = small_setup()
        nodes = R_RULE[0] - R_RULE[0][0]  # the first node at r = 0
        with pytest.raises(DomainError, match="the r rule"):
            radial_reduce(make_field(m=1), ChannelIndex(1, 0.4), nodes, reduction)


def dense_forward_blocks(spec, field, grid, r_rule, reduction, e_max):
    """(channel, values) for every channel of every mode's plan, in mode
    order: the values through the whole reduced array of the sample oracle
    (oracle_reduction), weighted by sqrt(r) w_r, each its dense kernel
    matrix times the group's (n_r, n_group) columns."""
    r, wr = r_rule
    weighted = oracle_reduction(field, r, list(grid.modes), grid.p_nodes, reduction)
    weighted *= (np.sqrt(r) * wr)[:, None, None]
    return [
        (ch, (transform.kernel_matrix(ch.params, ch.quad, r)
              @ weighted[:, ch.m + grid.M_max, ch.p_indices]).T)
        for m in grid.modes
        for ch in _channel_plan(spec, m, grid, reduction, e_max, 16).channels
    ]


class TestFactoredForward:
    @pytest.mark.parametrize("M_max", [3, 30])
    @pytest.mark.parametrize("phi", [0.3, 0.5, 1e-6])
    def test_the_factored_forward_is_the_dense_one(self, phi, M_max):
        """The forward holds the channels of its field's mode's plan and no
        other: each block, one kernel matvec with the radial factors, equals
        the dense kernel product with the sample oracle's whole reduced array
        within 2e-15 of the dense set's peak, and every other mode's channel
        norm is exactly 0.0 (the oracle's FFT leaks about 1e-17 of the peak
        there, which the kappa = -0.999999 kernel at phi = 1e-6 raises to
        1e-10): field modes -1, 0 and 2, their H images and moved copies of
        all six, theta piecewise in p on m = 0, and a complex psi."""
        spec = ThetaSpec(phi, {-1: 1.0, 0: PiecewiseTheta((0.0,), (1.0, 1.3))})
        grid = ModeGrid.build(M_max, 8.0, 64)
        reduction = ReductionGrid.build(CHI.support)
        r_rule = gauss_legendre(PSI.a, PSI.b, 64)
        e_max = 2500.0 / PSI.b**2
        fields = [make_field(m=m) for m in (-1, 0, 2)]
        fields += [f.hamiltonian_image(phi) for f in fields]
        fields += [TransformedField(f, 0.7, 1.3) for f in fields]
        fields.append(SeparableField(
            lambda r: PSI(r) * np.exp(0.8j * r), CHI, 2, (PSI.a, PSI.b), CHI.support
        ))
        for field in fields:
            expected = dense_forward_blocks(spec, field, grid, r_rule, reduction, e_max)
            got = full_forward(spec, field, grid, r_rule, reduction, e_max)
            peak = max(np.max(np.abs(values)) for _, values in expected)
            assert peak > 1e-3
            m = field.factors(r_rule[0], reduction.x3_nodes)[0]
            plan = _channel_plan(spec, m, grid, reduction, e_max, 16)  # the forward's, cached
            own = [values for ch, values in expected if ch.m == m]
            assert len(got.blocks) == len(plan.channels) == len(own) == (2 if m == 0 else 1)
            for blk, ch, values in zip(got.blocks, plan.channels, own):
                assert blk.m == m and blk.quad is ch.quad and blk.p_indices is ch.p_indices
                assert blk.values.shape == values.shape
                assert np.max(np.abs(blk.values - values)) <= 2e-15 * peak
            for mode in grid.modes:
                if mode != m:
                    norm = got.channel_norm_sq(mode)
                    assert type(norm) is float and norm == 0.0


class TestFluxSymmetries:
    """Two symmetries of the AB Hamiltonian that relate two fluxes (Aharonov
    and Bohm 1959), on the forward blocks of mode m's theta table, theta
    piecewise in p on one critical mode."""

    GRID = ModeGrid.build(3, 8.0, 32)
    REDUCTION = ReductionGrid.build(CHI.support, n_x3=64)
    R_RULE = gauss_legendre(PSI.a, PSI.b, 48)

    @staticmethod
    def table(phi):
        return dict(zip(critical_channels(phi), (PiecewiseTheta((0.0,), (1.0, 1.3)), 1.0)))

    def forward(self, phi, entries, m):
        return full_forward(ThetaSpec(phi, entries), make_field(m), self.GRID, self.R_RULE,
                            self.REDUCTION, ZETA_BOUND / PSI.b**2)

    @pytest.mark.parametrize("m", [-1, 0, 2])
    @pytest.mark.parametrize("phi", [0.3, 0.5, 1e-6, 2.0, -0.4, 1.7])
    def test_reflection_is_exact(self, phi, m):
        """x2 -> -x2 takes (phi, m) to (-phi, -m), with the theta table on the
        mirrored modes: kappa -> -kappa exactly, and the kernel path, computed
        on nu = |kappa|, gives the blocks to the bit, on the same grids."""
        coeffs = self.forward(phi, self.table(phi), m)
        mirrored = self.forward(-phi, {-k: v for k, v in self.table(phi).items()}, -m)
        assert len(mirrored.blocks) == len(coeffs.blocks) >= 1
        for blk, image in zip(coeffs.blocks, mirrored.blocks):
            assert image.m == -blk.m and image.quad is blk.quad
            assert np.array_equal(image.p_indices, blk.p_indices)
            assert image.values.tobytes() == blk.values.tobytes()

    @pytest.mark.parametrize("m", [-1, 0, 2])
    @pytest.mark.parametrize("phi", [0.3, 0.5, 2.0, 1.7])
    def test_gauge_shift(self, phi, m):
        """phi -> phi + 1 with the field times e^{-i alpha} (mode m - 1) and the
        table moved from m to m - 1: kappa = (m - 1) + (phi + 1) is m + phi up
        to the rounding of phi + 1.  Where it is m + phi the blocks agree to
        the bit, elsewhere within 4e-15 of the peak (7.7e-16 measured).  Next
        to an integer flux the rounding moves 1 - |kappa| itself: at phi = 1e-6
        and m = -1 an ulp of kappa = -0.999999 moves the blocks by 1.1e-10."""
        coeffs = self.forward(phi, self.table(phi), m)
        shifted = self.forward(phi + 1.0, {k - 1: v for k, v in self.table(phi).items()}, m - 1)
        exact = channel_kappa(phi + 1.0, m - 1) == channel_kappa(phi, m)
        peak = max(np.max(np.abs(blk.values)) for blk in coeffs.blocks)
        assert len(shifted.blocks) == len(coeffs.blocks) >= 1
        for blk, image in zip(coeffs.blocks, shifted.blocks):
            assert image.m == blk.m - 1 and np.array_equal(image.p_indices, blk.p_indices)
            assert np.max(np.abs(image.values - blk.values)) <= (0.0 if exact else 4e-15 * peak)


def piecewise_setup(theta_above=1.3):
    """small_setup with theta piecewise in p on m = 0, so that mode has two blocks."""
    _, grid, reduction, r_rule = small_setup()
    spec = ThetaSpec(PHI, {-1: 1.0, 0: PiecewiseTheta((0.0,), (1.0, theta_above))})
    return spec, grid, reduction, r_rule


class TestChannelPlan:
    @staticmethod
    def misses():
        return ab3d._cached_plan.cache_info().misses

    def test_a_warm_forward_builds_no_spectral_grid(self, monkeypatch):
        spec, grid, reduction, r_rule = piecewise_setup()
        built, original = [], ab3d.discretize
        matrices, original_matrices = [], ab3d._axial

        def discretize(*args):
            built.append(args)
            return original(*args)

        def reduction_matrices(*args):
            matrices.append(args)
            return original_matrices(*args)

        monkeypatch.setattr(ab3d, "discretize", discretize)
        monkeypatch.setattr(ab3d, "_axial", reduction_matrices)
        ab3d._cached_plan.cache_clear()
        cold = full_forward(spec, make_field(m=0), grid, r_rule, reduction, 10.0)
        assert len(built) == 2  # the plan of mode 0: its two theta pieces
        assert [blk.m for blk in cold.blocks] == [0, 0]  # the field's own mode only
        assert len(matrices) == 1
        warm = full_forward(spec, make_field(m=0), grid, r_rule, reduction, 10.0)
        assert len(built) == 2 and len(matrices) == 1  # no spectral grid, no phases
        for blk_c, blk_w in zip(cold.blocks, warm.blocks):
            assert blk_c.quad is blk_w.quad and blk_c.p_indices is blk_w.p_indices

    def test_each_input_it_reads_is_in_the_key(self):
        """Each input the plan of mode 0 reads is a miss; another mode's
        theta table and M_max, which it does not read, are hits."""
        spec, grid, red, _ = piecewise_setup()
        x3, w3 = red.x3_nodes, red.x3_weights
        base = (spec, 0, grid, red, 10.0, 16)
        table = spec.entries[0]
        variants = {
            "one piece's theta": (piecewise_setup(1.4)[0], 0, grid, red, 10.0, 16),
            "E_max": (spec, 0, grid, red, 10.0 * (1 + 2**-52), 16),
            "node_budget": (spec, 0, grid, red, 10.0, 17),
            "p grid": (spec, 0, ModeGrid.build(1, 5.0 * (1 + 2**-52), 16), red, 10.0, 16),
            "phi": (ThetaSpec(0.25, spec.entries), 0, grid, red, 10.0, 16),
            "x3 nodes": (spec, 0, grid, ReductionGrid(np.nextafter(x3, np.inf), w3), 10.0, 16),
            "x3 weights": (spec, 0, grid, ReductionGrid(x3, np.nextafter(w3, np.inf)), 10.0, 16),
            # mode -1 under mode 0's table: the mode alone differs
            "mode": (ThetaSpec(PHI, {-1: table, 0: table}), -1, grid, red, 10.0, 16),
        }
        hits = {
            "another mode's theta table": (ThetaSpec(PHI, {-1: 0.4, 0: table}), 0, grid, red,
                                           10.0, 16),
            "M_max": (spec, 0, ModeGrid(3, grid.p_nodes, grid.p_weights), red, 10.0, 16),
        }
        plan = _channel_plan(*base)
        for name, args in hits.items():
            before = self.misses()
            assert _channel_plan(*args) is plan, name
            assert self.misses() == before, name
        for name, args in variants.items():
            before = self.misses()
            plan = _channel_plan(*args)
            assert self.misses() == before + 1, name
            assert _channel_plan(*args) is plan, name
            assert self.misses() == before + 1, name

    def test_warm_blocks_are_the_cold_bytes(self):
        spec, grid, reduction, r_rule = piecewise_setup()
        args = (spec, make_field(m=0), grid, r_rule, reduction, 10.0)
        full_forward(*args)
        warm = full_forward(*args)
        ab3d._cached_plan.cache_clear()
        cold = full_forward(*args)
        assert len(warm.blocks) == len(cold.blocks)
        for blk_w, blk_c in zip(warm.blocks, cold.blocks):
            assert blk_w.m == blk_c.m
            assert blk_w.p_indices.tobytes() == blk_c.p_indices.tobytes()
            assert blk_w.quad.nodes.tobytes() == blk_c.quad.nodes.tobytes()
            assert blk_w.quad.weights.tobytes() == blk_c.quad.weights.tobytes()
            assert blk_w.values.tobytes() == blk_c.values.tobytes()

    def test_plan_arrays_are_read_only(self):
        spec, grid, red, _ = piecewise_setup()
        plans = [_channel_plan(spec, m, grid, red, 10.0, 16) for m in grid.modes]
        assert [[(ch.m, ch.params.theta) for ch in plan.channels] for plan in plans] == [
            [(-1, 1.0)], [(0, 1.0), (0, 1.3)], [(1, 0.0)]
        ]
        parts = []
        for plan in plans:
            assert plan.axial.shape == (len(grid.p_nodes), len(red.x3_nodes))
            parts.append(plan.axial)
            for ch in plan.channels:
                quad = ch.quad
                parts += [ch.p_indices, quad.e_nodes, quad.e_weights, quad.nodes, quad.weights]
        for part in parts:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[:1] = 0

    def test_plan_arrays_cannot_be_unlocked(self):
        """A forward's blocks hold its plan's p indices; neither they nor the
        axial matrix can be turned writable, and the next forward with that
        signature gets the same plan and the same arrays."""
        spec, grid, red, r_rule = piecewise_setup()
        coeffs = full_forward(spec, make_field(0), grid, r_rule, red, 10.0)
        plan = _channel_plan(spec, 0, grid, red, 10.0, 16)
        indices = [blk.p_indices for blk in coeffs.blocks]
        assert indices == [ch.p_indices for ch in plan.channels] and len(indices) == 2
        for part in (*indices, plan.axial):
            with pytest.raises(ValueError):
                part.setflags(write=True)
        again = full_forward(spec, make_field(0), grid, r_rule, red, 10.0)
        assert _channel_plan(spec, 0, grid, red, 10.0, 16) is plan
        assert all(blk.p_indices is idx for blk, idx in zip(again.blocks, indices))

    def test_errors_are_not_stored(self):
        spec, grid, red, _ = piecewise_setup()
        before = ab3d._cached_plan.cache_info()
        for _ in range(2):
            with pytest.raises(DomainError):
                _channel_plan(spec, 0, grid, red, math.inf, 16)
        after = ab3d._cached_plan.cache_info()
        assert after.misses == before.misses + 2
        assert after.currsize == before.currsize


class TestFieldSum:
    def test_equals_the_sum_of_its_terms(self):
        image = make_field(m=2).hamiltonian_image(PHI)
        grid = ReductionGrid.build(CHI.support, n_x3=24)
        r = np.linspace(0.6, 2.9, 5)[:, None, None]
        angle, x3 = ANGLES[None, ::8, None], grid.x3_nodes[None, None, :]
        got = image(r, angle, x3)
        want = image.terms[0](r, angle, x3) + image.terms[1](r, angle, x3)
        assert got.shape == want.shape == (5, 16, 24)
        peak = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-15 * peak
        for point in ((1.3, 0.4, 0.2), (2.0, 5.0, -0.7), (0.7, -1.0, 1.1)):
            value = image(*point)
            assert np.ndim(value) == 0
            assert abs(value - sum(t(*point) for t in image.terms)) <= 1e-15 * peak

    def test_terms_share_one_mode_and_the_supports(self):
        base = make_field(m=0)
        for terms in (
            (base, make_field(m=1)),
            (base, TransformedField(base, 0.1, 0.0)),
            (base, dataclasses.replace(base, x3_support=(-1.0, 1.0))),
            (base, dataclasses.replace(base, r_support=(0.4, 3.0))),
            (),
        ):
            with pytest.raises(ConfigurationError):
                FieldSum(terms)
        assert FieldSum((base, base))(1.3, 0.4, 0.2) == pytest.approx(2 * base(1.3, 0.4, 0.2))


class TestModeSamples:
    """A call of a field of one angular mode is the broadcast product
    profile * e^{i m a}, on every shape of its arguments."""

    def layout(self):
        grid = ReductionGrid.build(CHI.support, n_x3=40)
        r = gauss_legendre(PSI.a, PSI.b, 5)[0]
        return r[:, None, None], ANGLES[None, ::4, None], grid.x3_nodes[None, None, :]

    @staticmethod
    def assert_same_floats(got, want):
        # bit for bit, up to the sign of a zero
        assert got.shape == want.shape and got.dtype == want.dtype == complex
        assert got.flags.c_contiguous
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("m", [-3, 0, 2])
    def test_a_separable_field_is_the_broadcast_product(self, m):
        r, angle, x3 = self.layout()
        want = PSI(r) / np.sqrt(r) * CHI(x3) * np.exp(1j * m * angle)
        self.assert_same_floats(make_field(m)(r, angle, x3), want)
        assert want.shape == (5, 32, 40)

    def test_the_hamiltonian_image_is_the_broadcast_product(self):
        r, angle, x3 = self.layout()
        image = make_field(m=2).hamiltonian_image(PHI)
        first, second = image.terms
        profile = first.psi(r) / np.sqrt(r) * first.chi(x3)
        profile = profile + second.psi(r) / np.sqrt(r) * second.chi(x3)
        want = profile * np.exp(2j * angle)
        self.assert_same_floats(image(r, angle, x3), want)

    def test_a_transformed_field_is_the_broadcast_product(self):
        r, angle, x3 = self.layout()
        moved = TransformedField(make_field(m=3), 0.7, 0.2)
        want = PSI(r) / np.sqrt(r) * CHI(x3 - 0.2) * np.exp(3j * (angle - 0.7))
        self.assert_same_floats(moved(r, angle, x3), want)

    def test_points_and_other_layouts_take_the_broadcast_product(self):
        r, angle, x3 = (np.array(v) for v in ([1.3, 2.0, 0.7], [0.4, 5.0, -1.0], [0.2, -0.7, 1.1]))
        field = make_field(m=2)
        want = PSI(r) / np.sqrt(r) * CHI(x3) * np.exp(2j * angle)
        assert field(r, angle, x3).tobytes() == want.tobytes()
        for fld in (field, FieldSum((field,)), TransformedField(field, 0.0, 0.0)):
            values = fld(r, angle, x3)
            assert values.shape == (3,)
            assert np.max(np.abs(values - want)) <= 1e-15 * np.max(np.abs(want))
            for i in range(3):
                value = fld(r[i], angle[i], x3[i])
                assert np.ndim(value) == 0 and value == values[i]
        # angles along the last axis and x3 along axis -2: the transposed samples
        r, angle, x3 = self.layout()
        swapped = field(r, angle.reshape(1, 1, -1), x3.reshape(1, -1, 1))
        swapped = np.ascontiguousarray(swapped.transpose(0, 2, 1))
        self.assert_same_floats(swapped, field(r, angle, x3))

    def test_a_complex_profile(self):
        r, angle, x3 = self.layout()

        def psi(r):
            return PSI(r) * np.exp(0.8j * r)

        field = SeparableField(psi, CHI, -2, (PSI.a, PSI.b), CHI.support)
        want = psi(r) / np.sqrt(r) * CHI(x3) * np.exp(-2j * angle)
        got = field(r, angle, x3)
        assert got.shape == want.shape
        peak = np.max(np.abs(want))
        assert peak > 0.1
        assert np.max(np.abs(got - want)) <= 1e-15 * peak


class TestCoefficientDistance:
    def forward(self, theta=1.0, M_max=1, E_max=10.0, node_budget=16, m=0):
        spec, _, reduction, r_rule = small_setup(theta)
        grid = ModeGrid.build(M_max, 5.0, 16)
        return full_forward(spec, make_field(m=m), grid, r_rule, reduction, E_max, node_budget)

    def test_an_empty_selection_has_the_float_norm_0(self):
        a = self.forward()
        assert [blk.m for blk in a.blocks] == [0]
        for norm in (Coefficients3D(a.phi, a.grid, []).norm_sq(), a.norm_sq(1), a.norm_sq(-1)):
            assert type(norm) is float and norm == 0.0

    @pytest.mark.parametrize("m_a, m_b", [(0, 1), (1, 0), (-1, 1)])
    def test_an_absent_mode_counts_as_exactly_0(self, m_a, m_b):
        """Two sets of other modes are sqrt(||a||^2 + ||b||^2) apart, the
        sum taken over the modes in order, as over whole sets whose other
        blocks are 0; a set is its norm away from the empty set."""
        a, b = self.forward(M_max=3, m=m_a), self.forward(M_max=3, m=m_b)
        norms = sorted([(m_a, a.norm_sq()), (m_b, b.norm_sq())])
        expected = math.sqrt(0.0 + norms[0][1] + norms[1][1])
        assert coefficient_distance(a, b) == coefficient_distance(b, a) == expected
        empty = Coefficients3D(a.phi, a.grid, [])
        assert coefficient_distance(a, empty) == math.sqrt(a.norm_sq())
        assert coefficient_distance(empty, empty) == 0.0
        with pytest.raises(ConfigurationError, match="coefficient_distance"):
            coefficient_distance(a, self.forward(M_max=2, m=m_b))

    def test_a_base_of_another_mode_is_refused_before_any_block(self, monkeypatch):
        """base must hold the plan's channels of the field's mode: a base of
        another mode, or with no blocks, is another grid."""
        spec, grid, reduction, r_rule = small_setup()
        field = make_field(m=0)
        others = [full_forward(spec, make_field(m=1), grid, r_rule, reduction, 10.0)]
        others.append(Coefficients3D(PHI, grid, []))
        kernels = []
        monkeypatch.setattr(ab3d, "kernel_matrix", lambda *args: kernels.append(args))
        for base in others:
            with pytest.raises(ConfigurationError, match="hamiltonian_defect"):
                hamiltonian_defect(spec, field, grid, r_rule, reduction, 10.0, base=base)
            with pytest.raises(ConfigurationError, match="symmetry_defect"):
                symmetry_defect(spec, field, 0.7, 1.3, grid, r_rule, reduction, 10.0, base=base)
        assert kernels == []

    @pytest.mark.parametrize(
        "other",
        [
            {"theta": 2.0},  # another atom in both critical channels
            {"E_max": 2500.0 / 36},  # other E nodes
            {"M_max": 2},  # more blocks
            {"E_max": 5.0},  # as many E nodes, at other energies
            {"node_budget": 32},  # more E nodes per block
        ],
    )
    def test_different_spectral_grids_are_rejected(self, monkeypatch, other):
        """coefficient_distance, symmetry_defect and hamiltonian_defect (whose
        base is on other grids than their own forward) share one grid check,
        and the streamed two make it before any kernel is asked for."""
        with pytest.raises(ConfigurationError, match="coefficient_distance"):
            coefficient_distance(self.forward(), self.forward(**other))
        spec, grid, reduction, r_rule = small_setup()
        base = self.forward(**other)
        kernels = []
        monkeypatch.setattr(ab3d, "kernel_matrix", lambda *args: kernels.append(args))
        with pytest.raises(ConfigurationError, match="symmetry_defect"):
            symmetry_defect(
                spec, make_field(m=0), 0.7, 1.3, grid, r_rule, reduction, 10.0, base=base
            )
        with pytest.raises(ConfigurationError, match="hamiltonian_defect"):
            hamiltonian_defect(spec, make_field(m=0), grid, r_rule, reduction, 10.0, base=base)
        assert kernels == []

    def test_different_measures_on_the_same_nodes_are_rejected(self):
        # theta = 0.1 and 0.2 have no atom at phi = 1/2: the nodes agree, the weights do not
        a, b = self.forward(theta=0.1), self.forward(theta=0.2)
        assert [blk.quad.nodes.tobytes() for blk in a.blocks] == [
            blk.quad.nodes.tobytes() for blk in b.blocks
        ]
        with pytest.raises(ConfigurationError):
            coefficient_distance(a, b)

    def test_one_grid_gives_the_distance(self):
        a = self.forward()
        b = symmetry_phase(a, 0.0, 0.0)
        assert all(x.quad is y.quad for x, y in zip(a.blocks, b.blocks))
        assert coefficient_distance(a, b) == 0.0
        ab3d._cached_plan.cache_clear()  # equal grids in distinct objects pass too
        c = self.forward()
        assert coefficient_distance(a, c) == 0.0

    @pytest.mark.parametrize("part", ["e_nodes", "e_weights", "p_indices", "p_nodes"])
    def test_equal_shapes_with_other_values_are_rejected(self, part):
        """Arrays shared through the cached plan pass by identity, without a
        scan; a copy of one passes by its values, and a copy with one entry
        moved, of the same shape, is another grid."""
        a = self.forward()

        def changed(moved):
            """a with a copy of part in its last block (or in its mode grid),
            the copy's last entry moved by one index or 1e-9 if asked."""
            blk, grid = a.blocks[-1], a.grid
            owner = {"p_nodes": grid, "p_indices": blk}.get(part, blk.quad)
            values = getattr(owner, part).copy()
            if moved:
                values[-1] += 1 if part == "p_indices" else 1e-9
            owner = dataclasses.replace(owner, **{part: values})
            if part == "p_nodes":
                grid = owner
            else:
                blk = owner if part == "p_indices" else dataclasses.replace(blk, quad=owner)
            return Coefficients3D(a.phi, grid, [*a.blocks[:-1], blk])

        assert coefficient_distance(a, changed(False)) == 0.0
        with pytest.raises(ConfigurationError, match="coefficient_distance"):
            coefficient_distance(a, changed(True))


class TestStreamedDefects:
    """hamiltonian_defect and symmetry_defect run a forward block by block
    against base instead of forming whole coefficient sets."""

    MOVES = ((0.7, 0.0), (0.0, 1.3), (0.7, 1.3))

    @staticmethod
    def setup(phi):
        """theta piecewise in p on m = 0, M_max = 3: 8 blocks."""
        _, _, reduction, r_rule = small_setup()
        spec = ThetaSpec(phi, {-1: 1.0, 0: PiecewiseTheta((0.0,), (1.0, 1.3))})
        return spec, ModeGrid.build(3, 8.0, 32), reduction, r_rule

    @pytest.mark.parametrize("off_critical", [False, True])
    @pytest.mark.parametrize("phi", [0.3, 0.5, 1e-6])
    def test_the_streamed_defects_are_the_whole_set_ones(self, phi, off_critical):
        """Within rounding of the distance between whole coefficient sets,
        for the field's own base and for a base 0.1 % off it: a field in the
        critical mode 0 and one in mode 1, whose blocks take the |kappa| >= 1
        kernel and leave the critical blocks exactly 0."""
        spec, grid, reduction, r_rule = self.setup(phi)
        field = make_field(m=1 if off_critical else 0)
        args = (grid, r_rule, reduction, 100.0)
        base = full_forward(spec, field, *args)
        image = full_forward(spec, field.hamiltonian_image(phi), *args)
        moved = {
            move: full_forward(spec, TransformedField(field, *move), *args) for move in self.MOVES
        }
        off = Coefficients3D(phi, grid, [
            dataclasses.replace(blk, values=1.001 * blk.values) for blk in base.blocks
        ])
        for ref in (base, off):
            whole = coefficient_distance(image, apply_H(spec, ref))
            streamed = hamiltonian_defect(spec, field, *args, base=ref)
            assert streamed == pytest.approx(whole, rel=1e-12, abs=1e-300)
            for move, coeffs in moved.items():
                predicted = symmetry_phase(ref, *move)
                whole = max(
                    np.max(np.abs(t.values - p.values))
                    for t, p in zip(coeffs.blocks, predicted.blocks)
                )
                streamed = symmetry_defect(spec, field, *move, *args, base=ref)
                assert streamed == pytest.approx(whole, rel=1e-12, abs=1e-300)
        assert hamiltonian_defect(spec, field, *args, base=base) < 1e-6
        assert hamiltonian_defect(spec, field, *args, base=off) > 1e-4

    @pytest.mark.parametrize("off_critical", [False, True])
    def test_the_multiplier_of_h_is_in_the_blocks_order(self, monkeypatch, off_critical):
        """_energy is p**2 + E to the bit, in each forward block's memory order,
        and hamiltonian_defect reads the bits it read with a C-ordered one, for
        a field in mode 0 and one in mode 1."""
        spec, grid, reduction, r_rule = self.setup(PHI)
        field = make_field(m=1 if off_critical else 0)
        args = (grid, r_rule, reduction, 100.0)
        base = full_forward(spec, field, *args)
        for blk in base.blocks:
            p = grid.p_nodes[blk.p_indices]
            energy = ab3d._energy(blk, p)
            assert energy.tobytes() == (p[:, None] ** 2 + blk.quad.nodes).tobytes()
            assert energy.flags.f_contiguous and blk.values.flags.f_contiguous
            assert not energy.flags.c_contiguous and not blk.values.flags.c_contiguous
        off = Coefficients3D(PHI, grid, [
            dataclasses.replace(blk, values=1.001 * blk.values) for blk in base.blocks
        ])
        defects = [hamiltonian_defect(spec, field, *args, base=ref) for ref in (base, off)]
        monkeypatch.setattr(ab3d, "_energy", lambda blk, p: p[:, None] ** 2 + blk.quad.nodes)
        assert [hamiltonian_defect(spec, field, *args, base=ref) for ref in (base, off)] == defects

    @pytest.mark.parametrize("block", range(8))
    def test_a_nan_in_any_block_of_base_gives_nan(self, block):
        """A NaN in any stored block of base gives NaN, for each of the 8
        channels of the modes' plans: a field of the channel's mode, its
        base poisoned in that channel's block (the second one of mode 0's
        two).  Python's max keeps its first value against a NaN, so a NaN
        past the first block used to be dropped from the symmetry defect."""
        spec, grid, reduction, r_rule = self.setup(PHI)
        args = (grid, r_rule, reduction, 100.0)
        channels = [
            (m, j) for m in grid.modes
            for j, _ in enumerate(_channel_plan(spec, m, grid, reduction, 100.0, 16).channels)
        ]
        assert len(channels) == 8
        m, j = channels[block]
        field = make_field(m=m)
        base = full_forward(spec, field, *args)
        base.blocks[j].values[-1, -1] = np.nan
        assert math.isnan(hamiltonian_defect(spec, field, *args, base=base))
        assert math.isnan(symmetry_defect(spec, field, 0.7, 1.3, *args, base=base))

    def test_a_field_without_a_hamiltonian_image_is_refused(self):
        spec, grid, reduction, r_rule = self.setup(PHI)
        args = (grid, r_rule, reduction, 100.0)
        base = full_forward(spec, make_field(m=0), *args)
        with pytest.raises(ConfigurationError, match="hamiltonian_image"):
            hamiltonian_defect(spec, lambda r, a, x3: make_field(m=0)(r, a, x3), *args, base=base)

    def test_a_warm_call_holds_less_than_one_coefficient_set(self):
        """At the acceptance grid (7 modes of 64 p nodes), a warm call's
        traced peak stays below the bytes of one dense coefficient set, a
        block for each channel of every mode's plan: no whole set is
        formed, and the field is never sampled."""
        spec = ThetaSpec.constant(PHI, 1.0)
        args = (
            ModeGrid.build(3, 8.0, 64), gauss_legendre(PSI.a, PSI.b, 64),
            ReductionGrid.build(CHI.support), ZETA_BOUND / PSI.b**2,
        )
        field = make_field(m=0)
        base = full_forward(spec, field, *args)
        plans = [_channel_plan(spec, m, args[0], args[2], args[3], 16) for m in args[0].modes]
        whole_set = sum(
            16 * len(ch.p_indices) * len(ch.quad.nodes) for plan in plans for ch in plan.channels
        )
        assert whole_set == 1_492_992
        calls = [
            lambda: hamiltonian_defect(spec, field, *args, base=base),
            lambda: symmetry_defect(spec, field, 0.7, 1.3, *args, base=base),
        ]
        for call in calls:
            call()  # warm: the kernels and the plan are cached
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < whole_set


class TestEigenfunction3D:
    def test_on_axis_rejected(self):
        spec = ThetaSpec.constant(0.5, 1.0)
        with pytest.raises(DomainError):
            eigenfunction_3d(spec, ChannelIndex(0, 1.0), 2.0, (0.0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "p,x3",
        [(math.nan, 0.4), (math.inf, 0.4), (0.0, math.nan), (1.5, math.inf), (1.5, -math.inf)],
    )
    def test_a_non_finite_p_or_x3_is_rejected(self, p, x3):
        spec = ThetaSpec.constant(0.5, 1.0)
        for m in (0, 2):  # a critical channel and one without theta
            with pytest.raises(DomainError, match="finite p and x3"):
                eigenfunction_3d(spec, ChannelIndex(m, p), 2.0, (1.0, 1.0, x3))

    def test_value_off_critical_channel(self):
        # m = 2, kappa = 2.5: no theta involved, value is the plain product
        spec = ThetaSpec.constant(0.5, 1.0)
        x1, x2, x3, p, E = 1.0, 1.0, 0.4, 1.5, 3.0
        r = math.hypot(x1, x2)
        value = eigenfunction_3d(spec, ChannelIndex(2, p), E, (x1, x2, x3))
        expected = (
            np.exp(1j * p * x3)
            * ((x1 + 1j * x2) / r) ** 2
            * u_eigen(2.5, E, r).value
            / (2.0 * math.pi * math.sqrt(r))
        )
        assert value == pytest.approx(expected, rel=1e-13)

    def test_symmetry_covariance_pointwise(self):
        # W(G x) = e^{i(m alpha + p beta)} W(x) for rotation alpha, shift beta
        spec = ThetaSpec.constant(0.5, 1.0)
        channel, E = ChannelIndex(-1, 0.8), 2.0
        alpha, beta = 0.7, 1.3
        r, ang, x3 = 1.2, 0.4, -0.2
        x = (r * math.cos(ang), r * math.sin(ang), x3)
        gx = (r * math.cos(ang + alpha), r * math.sin(ang + alpha), x3 + beta)
        lhs = eigenfunction_3d(spec, channel, E, gx)
        rhs = np.exp(1j * (channel.m * alpha + channel.p * beta)) * eigenfunction_3d(
            spec, channel, E, x
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBoundStateTable:
    def test_half_pi_gives_two_unit_depth_states(self):
        rows = bound_state_table(ThetaSpec.constant(0.5, math.pi / 2))
        assert [row[0] for row in rows] == [-1, 0]
        for _, kappa, energy, weight, theta in rows:
            assert energy == pytest.approx(-1.0, abs=1e-12)
            assert weight > 0
            assert theta == math.pi / 2

    def test_reference_angles_give_empty_table(self):
        spec = ThetaSpec(
            0.5, {-1: theta_kappa(-0.5), 0: theta_kappa(0.5)}
        )
        assert bound_state_table(spec) == []

    def test_integer_flux_zero_order_channel(self):
        rows = bound_state_table(ThetaSpec.constant(3.0, math.pi / 2))
        assert len(rows) == 1
        m, kappa, energy, weight, _ = rows[0]
        assert (m, kappa) == (-3, 0.0)
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert weight == pytest.approx(math.pi**2 / 2.0, abs=1e-12)

    def test_invariant_under_pi_shift(self):
        spec = ThetaSpec.constant(0.5, 1.0)
        assert bound_state_table(spec) == bound_state_table(spec.shifted(math.pi))

    def test_piecewise_dedupes_theta_classes(self):
        pw = PiecewiseTheta(breaks=(0.0,), values=(1.0, 1.0 + math.pi))
        spec = ThetaSpec(0.5, {-1: pw, 0: 1.0})
        rows = bound_state_table(spec)
        assert len([row for row in rows if row[0] == -1]) == 1


class TestApplyH:
    def test_atom_multiplier(self):
        # at theta = pi/2 the atom sits at E_b = -1, so p = 2 gives factor 3
        spec, grid, reduction, r_rule = small_setup(theta=math.pi / 2)
        coeffs = full_forward(spec, make_field(m=0), grid, r_rule, reduction, 10.0)
        out = apply_H(spec, coeffs)
        for blk_in, blk_out in zip(coeffs.blocks, out.blocks):
            if not blk_in.atom_values.size:
                continue
            p = grid.p_nodes[blk_in.p_indices]
            expected = (p**2 - 1.0)[:, None] * blk_in.atom_values
            assert np.allclose(blk_out.atom_values, expected, rtol=1e-14)
