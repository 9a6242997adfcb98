"""Reproduce the ROADMAP.md baseline with the benchmark's tracer.

    python3 perfbench/baseline.py            # from the repository root, ~2 minutes

Runs the default ``run_suite()`` once under the tracer and one traced pass of
radial_sweep, and prints:
  - kernel_matrix builds in run_suite() and how many are distinct,
  - the special layer's share of run_suite() wall time,
  - the 416x64 kernel_matrix build time per kappa in radial_sweep.
This is a one-off measurement, not a workload: the numbers are single runs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict

sys.path.insert(0, os.getcwd())
from perfbench import run  # noqa: E402  (pins the BLAS threads before numpy loads)
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import Calls, RadialSweep  # noqa: E402


def main() -> int:
    lib = run.load_library()
    tracer = Tracer()
    tracer.install(lib)

    tracer.op = (0, 0)
    start = time.perf_counter()
    results = lib.verify.run_suite()
    suite_s = time.perf_counter() - start
    suite = tracer.layer_metrics(passes=1, ops=1, op_wall_s=suite_s)
    failures = sum(1 for r in results if not r.passed and not r.is_control)

    tracer.spans.clear()
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        sweep = RadialSweep(lib, Calls(lib, tracer), 0, workdir)
        for i, (_, fn) in enumerate(sweep.pass_ops()):
            tracer.op = (0, i)
            fn()
    tracer.uninstall()
    builds = defaultdict(list)
    for name, t0, t1, _, op, attrs in tracer.spans:
        if name == "transform.kernel_matrix" and op is not None:
            builds[attrs["key"][0][0]].append(t1 - t0)

    print(json.dumps({
        "run_suite_s": suite_s,
        "run_suite_checks": len(results),
        "run_suite_failures": failures,
        "run_suite_kernel_matrix_builds": suite["transform.kernel_matrix.calls"],
        "run_suite_kernel_matrix_distinct": round(
            suite["transform.kernel_matrix.calls"] * suite["transform.kernel_matrix.distinct_frac"]
        ),
        "run_suite_special_share": suite["special.busy_share"],
        "radial_sweep_kernel_matrix_s": {
            f"kappa={kappa}": {"median": statistics.median(t), "min": min(t), "max": max(t), "builds": len(t)}
            for kappa, t in sorted(builds.items())
        },
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
