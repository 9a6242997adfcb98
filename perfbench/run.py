"""Benchmark entry point for ab_spectral.

    python3 perfbench/run.py --workload radial_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  One process, one caller, a closed loop: each op starts when the
previous one has returned.  The BLAS pool is pinned to one thread and
AB_SPECTRAL_THREADS is removed, so the library runs at its default.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run, and the spans are written to ``.perfbench/``.  The line before it
is a JSON record of the run (seed, input fingerprint, versions, ...).
"""

from __future__ import annotations

import os
import sys

# pinned at import, before anything loads numpy: this process, the set-up
# children and baseline.py (which imports this module first) all inherit it
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("AB_SPECTRAL_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

ROOT = os.getcwd()
#: set-up samples per run: this process plus SETUP_SAMPLES - 1 fresh ones
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def load_library():
    """Import ab_spectral from the checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ab_spectral", "__init__.py")):
        raise SystemExit(f"error: no ab_spectral sources under {src}")
    sys.path.insert(0, src)
    import ab_spectral
    from ab_spectral import ab3d, bumps, cli, errors, measures, special, transform, verify

    if not os.path.abspath(ab_spectral.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: ab_spectral imported from {ab_spectral.__file__}")
    return types.SimpleNamespace(
        ab3d=ab3d, bumps=bumps, cli=cli, errors=errors, measures=measures,
        special=special, transform=transform, verify=verify,
    )


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples_ms: list[float]):
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it.  Below 20 samples that percentile would not
    reach the median, so the maximum is reported instead (p100, 0 beyond)."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes, each importing the library anew."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up run failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept when a traced run wrote spans
            os.rmdir(os.path.dirname(workdir))


def _run(args, workdir) -> int:
    # set-up: everything from the first import of numpy to the first timed op
    start = time.perf_counter()
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS, Calls

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    lib = load_library()
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install(lib)
    workload = WORKLOADS[args.workload](lib, Calls(lib, tracer), args.seed, workdir)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    extra_setups = [] if args.trace else setup_samples(args)

    durations: list[float] = []
    failed = attempted = passes = 0
    deadline = time.perf_counter() + args.seconds
    while passes == 0 or time.perf_counter() < deadline:
        results = []
        for i, (_, fn) in enumerate(workload.pass_ops()):
            if tracer is not None:
                tracer.op = (passes, i)
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 - the pass's check judges it
                result = exc
            durations.append(time.perf_counter() - t0)
            results.append(result)
        if tracer is not None:
            tracer.op = (passes, "check")
        ok = workload.check_pass(results)
        attempted += len(ok)
        failed += ok.count(False)
        passes += 1
    if tracer is not None:
        tracer.op = None

    ops, op_wall_s = len(durations), sum(durations)
    ms = [1e3 * d for d in durations]
    tail_ms, tail_pct, beyond = tail(ms)
    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_fingerprint": workload.fingerprint,
        "trace": args.trace,
        "passes": passes,
        "ops": ops,
        "op_wall_s": op_wall_s,
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "failed_frac": failed / attempted,
        "setup_samples_s": [setup_s] + extra_setups,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "ab_spectral_threads": os.environ.get("AB_SPECTRAL_THREADS", "unset (default 1)"),
        "git_commit": git_commit(),
        **workload.meta(),
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median([setup_s] + extra_setups), "s"),
            "ops_per_s": (ops / op_wall_s, "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # printed and recorded, but not bounded in BENCHMARK.json (see README)
        shown = {**metrics, "op_tail_ms": (tail_ms, "ms"), "failed_frac": (record["failed_frac"], "1")}
    else:
        spans = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write(spans)
        record["spans"] = os.path.relpath(spans, ROOT)
        metrics = _with_units(tracer.layer_metrics(passes, ops, op_wall_s))
        shown = metrics

    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _with_units(layers: dict) -> dict:
    def unit(name):
        if name.endswith("ops_per_s"):
            return "1/s"
        if name.endswith("_s"):
            return "s"
        if name.endswith("ns_per_zeta"):
            return "ns"
        if name.endswith("us_per_call"):
            return "us"
        if name.endswith(("_frac", "_share")):
            return "1"
        if name.endswith("_bytes"):
            return "B"
        if name.endswith("max_abs_zeta"):
            return "1"
        return "count"

    return {name: (value, unit(name)) for name, value in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
