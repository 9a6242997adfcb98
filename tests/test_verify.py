"""Tests of the property-check suite machinery and a trimmed real run."""

import collections
import json
import math
import os

import pytest

import ab_spectral.verify as verify
from ab_spectral import ab3d, bumps, measures, transform
from ab_spectral.errors import ConfigurationError
from ab_spectral.verify import (
    CheckResult,
    SuiteConfig,
    doubling_rule,
    run_suite,
    suite_exit_status,
    write_report,
)


class TestDoublingRule:
    def test_constant_defect_stops_immediately(self):
        result = doubling_rule(lambda v: 0.5, start=4.0, cap=64.0, tol=1e-6)
        assert result == (4.0, True)

    def test_decaying_defect_converges(self):
        result = doubling_rule(lambda v: 0.5 / v, start=1.0, cap=1e6, tol=1e-3)
        # |d(2v) - d(v)| = 0.25/v < 1e-4 first holds at the power of two 4096
        assert result == (4096.0, True)

    def test_never_stabilizing_reports_cap(self):
        result = doubling_rule(
            lambda v: 0.0 if int(math.log2(v)) % 2 else 1.0,
            start=1.0,
            cap=8.0,
            tol=1e-3,
        )
        assert result.value == 8.0
        assert not result.converged

    def test_cap_below_start_rejected(self):
        with pytest.raises(ConfigurationError):
            doubling_rule(lambda v: 0.0, start=8.0, cap=4.0, tol=1e-3)


class TestCheckResult:
    def test_passed_iff_within_tolerance(self):
        ok = CheckResult.from_measurement("x", {}, 1e-9, 1e-6)
        bad = CheckResult.from_measurement("x", {}, 2e-6, 1e-6)
        edge = CheckResult.from_measurement("x", {}, 1e-6, 1e-6)
        assert ok.passed and not bad.passed and edge.passed

    def test_control_flag(self):
        plain = CheckResult.from_measurement("x", {"kappa": 0.3}, 0.0, 1.0)
        ctrl = CheckResult.from_measurement("x", {"control": True}, 0.0, 1.0)
        assert not plain.is_control and ctrl.is_control

    def test_exit_status_rules(self):
        ok = CheckResult.from_measurement("a", {}, 0.0, 1.0)
        bad = CheckResult.from_measurement("b", {}, 2.0, 1.0)
        expected_bad = CheckResult("c", {"control": True}, 2.0, 1.0, False)
        assert suite_exit_status([ok]) == 0
        assert suite_exit_status([ok, expected_bad]) == 0
        assert suite_exit_status([ok, bad]) == 1


class TestSuiteMechanics:
    def test_empty_kappas_skip_only_the_unitarity_jobs(self):
        """kappas = () drops the unitarity rows, as phis = () drops the 3D
        rows; every other check of the default suite still runs."""
        declared = [check for job in verify._build_jobs(SuiteConfig()) for check in job.checks]
        expected = sorted(
            check_id for check_id, _, _ in declared if not check_id.startswith("unitarity_")
        )
        results = run_suite(SuiteConfig(kappas=()))
        assert len(results) == 79
        assert sorted(r.check_id for r in results) == expected
        assert suite_exit_status(results) == 0

    def test_invalid_support_rejected(self):
        with pytest.raises(ConfigurationError):
            SuiteConfig(support=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            SuiteConfig(support=(2.0, 1.0))

    @pytest.fixture
    def stubbed(self, monkeypatch):
        """Replace the job list with one passing and one raising stub job."""
        monkeypatch.setattr(
            verify,
            "_build_jobs",
            lambda config: [
                verify.Job([("ok_check", {"x": 1}, 1.0)], lambda: [(0.5, {})]),
                verify.Job([("boom_check", {"x": 2}, 1.0)], lambda: [(1 / 0, {})]),
            ],
        )
        return SuiteConfig(kappas=(1.5,))

    def test_errors_recorded_never_raised(self, stubbed):
        results = run_suite(stubbed)
        failed = [r for r in results if r.check_id == "boom_check"]
        assert len(failed) == 1
        assert not failed[0].passed
        assert failed[0].measured == math.inf
        assert "ZeroDivisionError" in failed[0].error

    def test_results_sorted(self, stubbed):
        results = run_suite(stubbed)
        keys = [(r.check_id, json.dumps(r.params, sort_keys=True)) for r in results]
        assert keys == sorted(keys)

    def test_raising_control_job_fails_both_controls(self):
        # |r**2 E_b| = 100**2 at the bound state exceeds the kernel bound
        config = SuiteConfig(
            kappas=(1.5,), thetas=(1.0,), phis=(), support=(0.5, 100.0)
        )
        controls = [
            r for r in run_suite(config) if r.check_id.startswith("negative_control_")
        ]
        assert sorted(r.check_id for r in controls) == [
            "negative_control_atom_dropped",
            "negative_control_deficit_matches_atom",
        ]
        assert all(r.measured == math.inf and not r.passed for r in controls)
        assert all("SeriesDomainError" in r.error for r in controls)


class TestSharedKappaJobs:
    """The Wronskian rows of one kappa share one u_eigen and one w_eigen call,
    the collapse rows of one kappa one ac_density call."""

    @pytest.mark.parametrize(
        "check_id, binding, kappa",
        [("wronskian", "w_eigen", -0.5), ("measure_collapse", "ac_density", 0.5)],
    )
    def test_a_raising_job_fails_exactly_its_own_rows(self, monkeypatch, check_id, binding,
                                                      kappa):
        original = getattr(verify, binding)

        def raising(*args):
            nu = args[0] if binding == "w_eigen" else args[0].kappa
            if nu == kappa:
                raise ConfigurationError("boom")
            return original(*args)

        monkeypatch.setattr(verify, binding, raising)
        jobs = [job for job in verify._build_jobs(SuiteConfig()) if job.checks[0][0] == check_id]
        results = [result for job in jobs for result in verify._run_job(job)]
        failed = [r for r in results if not r.passed]
        assert len(results) == (21 if check_id == "wronskian" else 9)
        assert len(failed) == 3
        assert all(r.params["kappa"] == kappa and r.measured == math.inf for r in failed)
        assert all(r.error == "ConfigurationError('boom')" for r in failed)

    def test_one_kernel_call_per_kappa(self, monkeypatch):
        calls = collections.Counter()

        def counted(name):
            original = getattr(verify, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in ("u_eigen", "w_eigen", "ac_density"):
            monkeypatch.setattr(verify, name, counted(name))
        for job in verify._build_jobs(SuiteConfig()):
            if job.checks[0][0] in ("wronskian", "measure_collapse"):
                assert all(r.passed for r in verify._run_job(job))
        assert calls == {"u_eigen": 7, "w_eigen": 7, "ac_density": 3}


class TestJobTable:
    """The default suite's checks, read from the job list without running it."""

    EXPECTED = {
        "wronskian": 21,
        "bessel_half_order": 2,
        "ode_residual_ratio": 12,
        "bound_state_reference": 4,
        "measure_collapse": 9,
        "sine_transform": 1,
        "theta_periodicity_measure": 6,
        "theta_periodicity_coefficients": 3,
        "measure_continuity_kappa_to_zero": 3,
        "threed_selectivity": 4,
        "threed_parseval": 4,
        "threed_apply_h": 4,
        "threed_symmetry": 4,
        "unitarity_parseval": 11,
        "unitarity_roundtrip": 11,
        "unitarity_diagonalization": 11,
        "negative_control_atom_dropped": 1,
        "negative_control_deficit_matches_atom": 1,
    }

    def test_default_suite_declares_112_checks(self):
        checks = [check for job in verify._build_jobs(SuiteConfig()) for check in job.checks]
        assert len(checks) == 112
        assert collections.Counter(check_id for check_id, _, _ in checks) == self.EXPECTED
        keys = {(check_id, json.dumps(params, sort_keys=True)) for check_id, params, _ in checks}
        assert len(keys) == 112


@pytest.mark.parametrize("phi", [1e-6, 1e-7])
def test_near_integer_flux_passes_the_3d_checks(phi):
    """At phi = 1e-6 (a default row) and 1e-7 the critical channels have
    kappa = phi and phi - 1.  Their 3D Parseval defect is 2.08e-8, as at
    phi = 1/2, where it was 2.31e-5 and 3.0e-4 while the density lost its
    digits as kappa -> 0."""
    (job,) = [
        job
        for job in verify._build_jobs(SuiteConfig(phis=(phi,)))
        if job.checks[0][0].startswith("threed_")
    ]
    results = verify._run_job(job)
    assert len(results) == 4 and all(r.passed for r in results)
    (parseval,) = [r.measured for r in results if r.check_id == "threed_parseval"]
    assert parseval < 1e-7


def test_selectivity_is_exactly_zero_at_every_default_row():
    """A library field hands its exact mode, so its forward stores no block
    of another mode and each such mode's norm is exactly 0.0:
    threed_selectivity is a regression check that reads 0.0 at phi = 1/2,
    1e-6, 0.3 and 2, not a measurement of rounding."""
    results = [
        result
        for job in verify._build_jobs(SuiteConfig())
        if job.checks[0][0].startswith("threed_")
        for result in verify._run_job(job)
        if result.check_id == "threed_selectivity"
    ]
    assert [(r.params, r.measured) for r in results] == [
        ({"phi": 0.5}, 0.0), ({"phi": 1e-6}, 0.0), ({"phi": 0.3}, 0.0), ({"phi": 2.0}, 0.0)
    ]


class TestUnitarityJob:
    def test_the_chosen_cutoff_is_read_from_its_probe(self, monkeypatch):
        """The doubling rule starts at the cap, so it probes one spectral grid;
        the chosen cutoff's grid, coefficients and defects come from that probe,
        so the one further forward is the diagonalization's image of L psi."""
        counts = collections.Counter()

        def counted(name):
            original = getattr(verify, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in ("discretize", "forward"):
            monkeypatch.setattr(verify, name, counted(name))
        config = SuiteConfig()
        outcomes = verify._unitarity_defects(config, 0.0, 0.0)
        assert counts == {"discretize": 1, "forward": 2}
        assert [extra for _, extra in outcomes] == 3 * [
            {"E_max": config.e_cap, "doubling_converged": False}
        ]


class TestThreeDimensionalJob:
    CHECKS = [
        "threed_apply_h",
        "threed_parseval",
        "threed_selectivity",
        "threed_symmetry",
    ]
    CONFIG = SuiteConfig(kappas=(1.5,), phis=(0.5,))

    @staticmethod
    def _threed(results):
        return [r for r in results if r.check_id.startswith("threed_")]

    def test_one_phi_runs_five_forwards(self, monkeypatch):
        """Counted as runs of the block generator, which full_forward,
        hamiltonian_defect and symmetry_defect share."""
        calls = []
        original = verify.ab3d._forward_blocks

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify.ab3d, "_forward_blocks", counted)
        results = self._threed(run_suite(self.CONFIG))
        # the field, its H-image and the three moved fields
        assert len(calls) == 5
        assert sorted(r.check_id for r in results) == self.CHECKS
        assert all(r.passed for r in results)

    def test_raising_job_fails_all_four_checks(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ConfigurationError("boom")

        monkeypatch.setattr(verify.ab3d, "full_forward", boom)
        results = self._threed(run_suite(self.CONFIG))
        assert sorted(r.check_id for r in results) == self.CHECKS
        assert all(r.measured == math.inf and not r.passed for r in results)
        assert all(r.error == "ConfigurationError('boom')" for r in results)

    def test_a_nan_in_any_block_fails_symmetry_and_selectivity(self, monkeypatch):
        """A NaN in any stored block of the field's coefficients (its mode's
        one block) fails both checks: Python's max used to drop a NaN past
        the first block of a symmetry defect, and past the first mode of the
        selectivity maximum."""
        jobs = verify._build_jobs(self.CONFIG)
        [job] = [j for j in jobs if j.checks[0][0] == "threed_selectivity"]
        original = verify.ab3d.full_forward
        poisoned = []

        def forward(*args, **kwargs):
            coeffs = original(*args, **kwargs)
            coeffs.blocks[poisoned[-1]].values[-1, -1] = math.nan
            return coeffs

        monkeypatch.setattr(verify.ab3d, "full_forward", forward)
        spec, fld, grid, red, r_rule = verify._3d_setup(self.CONFIG, 0.5)
        stored = len(original(spec, fld, grid, r_rule, red, self.CONFIG.e_cap).blocks)
        assert stored == 1
        for block in range(stored):
            poisoned.append(block)
            results = {r.check_id: r for r in verify._run_job(job)}
            for check_id in ("threed_selectivity", "threed_symmetry"):
                assert math.isnan(results[check_id].measured)
                assert not results[check_id].passed


class TestReport:
    def test_deterministic_and_atomic(self, tmp_path):
        results = [
            CheckResult.from_measurement("b", {"x": 2.0}, 0.1, 1.0),
            CheckResult("a", {"control": True}, math.inf, 1.0, False, "boom"),
        ]
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(results, str(p1))
        write_report(results, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        payload = json.loads(p1.read_text())
        assert payload[1]["passed"] is False
        assert payload[1]["error"] == "boom"
        assert payload[0]["measured"] == 0.1

    def test_non_finite_values_are_strict_json(self, tmp_path):
        """JSON has no Infinity or NaN: a non-finite float, as measured or in
        params, is written as a string, and the report parses strictly."""
        results = [
            CheckResult("a", {"x": math.nan}, math.inf, 1.0, False, "boom"),
            CheckResult.from_measurement("b", {"x": -math.inf}, math.nan, 1.0),
            CheckResult.from_measurement("c", {"x": 2.0}, 0.1, 1.0),
        ]
        path = tmp_path / "report.json"
        write_report(results, str(path))

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(path.read_text(), parse_constant=refuse)
        assert [(row["measured"], row["params"]["x"]) for row in payload] == [
            ("inf", "nan"), ("nan", "-inf"), (0.1, 2.0)
        ]


_SUITE_CACHES = (
    transform._build_kernel,
    transform._cached_pair,
    ab3d._cached_plan,
    measures._grid,
    bumps._sampled,
)


def _suite_cache_misses():
    return [cache.cache_info().misses for cache in _SUITE_CACHES]


def test_cold_default_suite_builds_one_grid_per_extension():
    """Every extension is discretized once, at the cap, and each periodicity
    check reuses the unitarity job's kernel at theta = 1, and a 3D job
    builds the one kernel of its field's mode, over one Bessel pair: a cold
    default suite builds 15 + 4 extensions' kernels over 6 + 4 Bessel pairs,
    and four channel plans (phi = 1/2, 1e-6, 0.3 and 2).  The kernels read
    16 spectral grids, kappa and -kappa, and theta and theta + pi, sharing
    one, and the kappa -> 0 continuity check reads 12 more (4 kappas x 3
    thetas at E_max = 40): 28 grids.  The profiles are sampled once per
    grid: the bump and its second derivative on the 64-node r rule, the
    continuity profile on 6 of its grids (one of 416 E nodes, five with
    different atoms) and chi on the x3 rule and on it shifted by a
    symmetry: 9 samples."""
    for cache in _SUITE_CACHES:
        cache.cache_clear()
    run_suite()
    assert _suite_cache_misses() == [19, 10, 4, 28, 9]


def test_second_default_suite_misses_no_cache():
    """The default suite needs 10 Bessel pairs, 19 extensions' kernels,
    four channel plans (phi = 1/2, 1e-6, 0.3 and 2), which fill the plan
    cache's four slots, 28 spectral grids and 9 profile samples; a second
    run in one process finds every one of them in the caches."""
    run_suite()
    before = _suite_cache_misses()
    run_suite()
    assert _suite_cache_misses() == before


@pytest.fixture(scope="module")
def trimmed_results():
    config = SuiteConfig(kappas=(0.3,), thetas=(1.0,), phis=())
    return run_suite(config)


class TestTrimmedRealRun:
    def test_everything_green(self, trimmed_results):
        assert suite_exit_status(trimmed_results) == 0
        assert not [r for r in trimmed_results if r.error is not None]

    def test_expected_checks_present(self, trimmed_results):
        ids = {r.check_id for r in trimmed_results}
        assert {
            "wronskian",
            "bessel_half_order",
            "ode_residual_ratio",
            "bound_state_reference",
            "measure_collapse",
            "sine_transform",
            "theta_periodicity_measure",
            "theta_periodicity_coefficients",
            "measure_continuity_kappa_to_zero",
            "unitarity_parseval",
            "unitarity_roundtrip",
            "unitarity_diagonalization",
            "negative_control_atom_dropped",
            "negative_control_deficit_matches_atom",
        } <= ids
        assert not [i for i in ids if i.startswith("threed_")]  # phis=() skips 3D

    def test_negative_control_is_flagged_failure(self, trimmed_results):
        controls = [r for r in trimmed_results if r.is_control]
        assert controls
        assert all(not r.passed for r in controls)
        assert all(r.params["deficit"] >= 1e-3 for r in controls)
