"""Negative controls for the benchmark's output checks, and the tracer's counts.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import math
import os
import types

import numpy as np
import pytest

from ab_spectral import ab3d, bumps, cli, errors, measures, special, transform, verify
from perfbench import workloads
from perfbench.tracer import Tracer
from perfbench.workloads import Calls

LIB = types.SimpleNamespace(
    ab3d=ab3d, bumps=bumps, cli=cli, errors=errors, measures=measures,
    special=special, transform=transform, verify=verify,
)


def test_radial_check_rejects_dropped_atom(tmp_path):
    sweep = workloads.RadialSweep(LIB, Calls(LIB), 0, str(tmp_path))
    kappa, theta = 0.3, math.pi / 2
    params = measures.ExtensionParams(kappa, theta)
    quad = measures.discretize(
        measures.spectral_measure(params), workloads.E_MAX, workloads.NODE_BUDGET
    )
    assert quad.atoms, "the control needs an extension with a bound state"
    defects = sweep._op(kappa, theta)
    assert workloads.radial_ok(defects)
    dropped = transform.forward(params, sweep.psi, quad, include_atoms=False)
    planted = (transform.parseval_defect(sweep.psi, dropped),) + defects[1:]
    assert not workloads.radial_ok(planted)


def test_pointwise_check_rejects_perturbed_reference(tmp_path):
    batch = workloads.PointwiseEval(LIB, Calls(LIB), 0, str(tmp_path))
    # one well-conditioned op per function and energy sign: off the bound
    # state and inside |zeta| <= 100, where the README promises 1e-11
    picked = {}
    for inp, ref in zip(batch.inputs, batch.refs):
        key = (inp["kind"], inp["regime"])
        if inp["regime"] != 2 and ref[2] <= 100.0 and key not in picked:
            picked[key] = (inp, ref)
    assert len(picked) == 6
    for inp, (value, err, max_zeta) in picked.values():
        result = batch._call(inp)
        assert batch.op_ok(result, (value, err, max_zeta)), inp
        perturbed = (np.asarray(value) * (1.0 + 1e-9), err, max_zeta)
        assert not batch.op_ok(result, perturbed), inp


def test_pointwise_check_accepts_domain_error_only_past_the_bound(tmp_path):
    batch = workloads.PointwiseEval(LIB, Calls(LIB), 0, str(tmp_path))
    refused = errors.SeriesDomainError("past the bound")
    value = np.zeros(3)
    assert batch.op_ok(refused, (value, value, 2.0 * special.ZETA_BOUND))
    assert not batch.op_ok(refused, (value, value, 0.5 * special.ZETA_BOUND))
    assert not batch.op_ok(ValueError("x"), (value, value, 2.0 * special.ZETA_BOUND))


def test_expansion_check_rejects_scaled_active_block(tmp_path):
    exp = workloads.Expansion3D(LIB, Calls(LIB), 0, str(tmp_path))
    spec, field, grid, r_rule, red = exp.setup
    base = ab3d.full_forward(spec, field, grid, r_rule, red, workloads.E_MAX)
    calls = Calls(LIB)
    good = workloads.expansion_defects(calls, exp.setup, base, base, [])
    assert good["parseval"] <= workloads.TOL_3D["parseval"]
    active = [blk for blk in base.blocks if blk.m == field.m]
    assert len(active) == 2, "piecewise theta splits the active channel"
    blk = active[0]
    blk.continuum = 1.01 * blk.continuum
    blk.atom_values = 1.01 * blk.atom_values
    bad = workloads.expansion_defects(calls, exp.setup, base, base, [])
    assert bad["parseval"] > workloads.TOL_3D["parseval"]
    assert not workloads.expansion_ok(bad)


def test_verify_check_needs_exit_zero_and_every_check():
    report = [{"passed": True, "params": {}}] * workloads.VERIFY_CHECKS
    assert workloads.verify_ok(0, report)
    assert not workloads.verify_ok(1, report)
    assert not workloads.verify_ok(0, report[:-1])
    failing = report[:-1] + [{"passed": False, "params": {}}]
    assert not workloads.verify_ok(0, failing)


def test_tracer_counts_kernel_builds_once_per_layer(tmp_path):
    tracer = Tracer()
    original = transform.kernel_matrix
    tracer.install(LIB)
    try:
        sweep = workloads.RadialSweep(LIB, Calls(LIB, tracer), 0, str(tmp_path))
        tracer.op = (0, 0)
        sweep._op(1.5, 0.0)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert transform.kernel_matrix is original
    layers = tracer.layer_metrics(passes=1, ops=1, op_wall_s=1.0)
    # forward, forward + inverse inside roundtrip_defect, forward of l_q psi
    assert layers["transform.kernel_matrix.calls"] == 4
    assert layers["transform.kernel_matrix.distinct_frac"] == 0.25
    assert layers["special.calls"] == 4
    assert layers["measures.discretize.calls"] == 1
    assert layers["special.zeta_points"] == 4 * 416 * 64


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    from perfbench.run import _with_units

    layers = Tracer().layer_metrics(passes=1, ops=1, op_wall_s=1.0)
    declared = json.load(open(os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")))
    assert {name: unit for name, (_, unit) in _with_units(layers).items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]
    }


@pytest.mark.parametrize("n, value, pct", [(5, 5.0, 100.0), (19, 19.0, 100.0), (100, 90.0, 90.0)])
def test_tail_has_ten_samples_beyond(n, value, pct):
    from perfbench.run import tail

    got = tail([float(i) for i in range(1, n + 1)])
    assert got[0] == value and got[1] == pct


def test_run_prints_exactly_the_declared_end_to_end_metrics(capsys):
    from perfbench.run import main

    assert main(["--workload", "expansion_3d", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 5 and result["failed"] == 0
    declared = json.load(open(os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]
    }
