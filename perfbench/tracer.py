"""In-memory span tracer for the traced benchmark run.

Spans are recorded at the boundaries where one layer of ab_spectral calls
into another: the tracer replaces the *binding* of a public function in the
calling module's namespace (``transform.u_theta_eigen``, ``ab3d.kernel_matrix``,
``verify.forward``, ``cli.run_suite``, ...), never a function's own module
global when that module calls itself.  So ``special.u_theta_eigen`` calling
``special.u_eigen`` stays one span, and a call inside a layer is never
counted twice.  The benchmark's own calls into the library go through
:meth:`Tracer.entry`.

Each span is ``[name, start, end, parent, op, attrs]``; ``op`` identifies the
(pass, op) the span belongs to, or ``(pass, "check")`` for the benchmark's
output checks.  A layer's self time is its span minus its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from collections import defaultdict

import numpy as np

#: special-function kernels other layers import by name
SPECIAL_FUNCS = ("u_eigen", "u_theta_eigen", "w_eigen")


def _fingerprint(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
        h.update(b"|")
    return h.hexdigest()


def _quad_key(quad) -> str:
    atoms = [x for atom in quad.atoms for x in atom]
    return _fingerprint(quad.e_nodes, quad.e_weights, atoms)


# --------------------------------------------------------------------------
# attribute extractors: (args, kwargs, result) -> dict


def _special_attrs(name):
    def attrs(args, kwargs, result):
        if name == "chi_kappa":
            kappa, zeta = args[0], np.asarray(args[1], dtype=float)
        else:
            kappa = args[0]
            E, r = args[-2], args[-1]
            zeta = np.asarray(r, dtype=float) ** 2 * np.asarray(E, dtype=float)
        if name in ("u_eigen", "chi_kappa"):
            family = "u"
        elif abs(kappa) < 1e-6:
            family = "kappa0"
        else:
            family = "u_theta"
        return {
            "family": family,
            "zeta_points": int(zeta.size),
            "max_abs_zeta": float(np.max(np.abs(zeta))) if zeta.size else 0.0,
        }

    return attrs


def _discretize_attrs(args, kwargs, result):
    return {"key": _quad_key(result), "e_nodes": int(len(result.e_nodes))}


def _kernel_matrix_attrs(args, kwargs, result):
    params, quad, r_nodes = args[:3]
    if abs(params.kappa) >= 1.0:
        ext = (abs(params.kappa),)
    else:
        ext = (params.kappa, params.theta_mod_pi, params.theta_sign)
    return {"key": (ext, _quad_key(quad), _fingerprint(r_nodes))}


def _full_forward_attrs(args, kwargs, result):
    return {"blocks": len(result.blocks)}


def _run_suite_attrs(args, kwargs, result):
    failures = sum(1 for r in result if not r.passed and not r.is_control)
    return {"checks": len(result), "failures": failures}


def _write_report_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


#: span name -> attribute extractor, for every span that records more than time
ATTRS = {
    **{f"special.{fn}": _special_attrs(fn) for fn in SPECIAL_FUNCS + ("chi_kappa",)},
    "measures.discretize": _discretize_attrs,
    "transform.kernel_matrix": _kernel_matrix_attrs,
    "ab3d.full_forward": _full_forward_attrs,
    "verify.run_suite": _run_suite_attrs,
    "cli.write_report": _write_report_attrs,
}


class Tracer:
    """Collects spans in memory; patches inter-layer bindings on install()."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = time.perf_counter()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                self._stack.pop()
            span[2] = time.perf_counter()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def _patch(self, module, attr: str, name: str, replacement=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, replacement or self.wrap(name, original))

    def install(self, lib) -> None:
        """Wrap every binding through which one layer calls another."""
        special, transform, ab3d, verify, cli = (
            lib.special, lib.transform, lib.ab3d, lib.verify, lib.cli
        )
        for module in (transform, verify, cli):
            for fn in SPECIAL_FUNCS:
                if hasattr(module, fn):
                    self._patch(module, fn, f"special.{fn}")
        # verify imports chi_kappa at call time, from the special module itself;
        # nothing inside special calls chi_kappa, so this binding is safe to wrap
        self._patch(special, "chi_kappa", "special.chi_kappa")
        for module in (verify, ab3d, cli):
            self._patch(module, "discretize", "measures.discretize")
        for module in (transform, ab3d):
            self._patch(module, "kernel_matrix", "transform.kernel_matrix")
        for module in (transform, verify, cli):
            self._patch(module, "forward", "transform.forward")
        self._patch(transform, "inverse", "transform.inverse")
        for module in (verify, cli):
            self._patch(module, "parseval_defect", "transform.parseval_defect")
            self._patch(module, "roundtrip_defect", "transform.roundtrip_defect")
        self._patch(ab3d, "full_forward", "ab3d.full_forward")
        for fn in ("field_norm_sq", "apply_H", "coefficient_distance",
                   "symmetry_phase", "symmetry_defect"):
            self._patch(ab3d, fn, f"ab3d.{fn}")
        for module in (verify, cli):
            self._patch(module, "run_suite", "verify.run_suite")
        self._patch(cli, "write_report", "cli.write_report")
        self._patch(verify, "doubling_rule", "verify.doubling_rule",
                    replacement=self._doubling_rule(verify.doubling_rule))

    def _doubling_rule(self, original):
        """doubling_rule with each E_max probe of its defect function recorded."""
        rule = self.wrap("verify.doubling_rule", original)

        def traced(defect_fn, *args, **kwargs):
            return rule(self.wrap("verify.doubling_probe", defect_fn), *args, **kwargs)

        return traced

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def entry(self, module, attr: str, layer: str):
        """The benchmark's own call into the library, traced as one span."""
        fn = next(
            (orig for m, a, orig in self._patched if m is module and a == attr),
            getattr(module, attr),
        )
        return self.wrap(f"{layer}.{attr}", fn)

    def write(self, path: str) -> None:
        """Spans as CSV: index, name, start, end, parent, pass, op, attrs."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,pass,op,attrs\n")
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                p, o = op if op is not None else ("", "")
                parent = "" if parent is None else parent
                extra = "" if attrs is None else repr(attrs).replace(",", ";")
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{p},{o},{extra}\n")

    # ----------------------------------------------------------------------

    def layer_metrics(self, passes: int, ops: int, op_wall_s: float) -> dict:
        """Per-pass layer metrics from the spans recorded during the passes,
        plus the traced run's throughput."""
        n = float(passes)
        child_time = defaultdict(float)
        for name, t0, t1, parent, op, attrs in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        by_name = defaultdict(list)  # name -> [(index, duration, self, op, attrs)]
        for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
            if op is not None:
                by_name[name].append((i, t1 - t0, t1 - t0 - child_time[i], op, attrs or {}))

        def count(name):
            return len(by_name[name]) / n

        def busy(name):
            return sum(s[1] for s in by_name[name]) / n

        def self_s(name):
            return sum(s[2] for s in by_name[name]) / n

        def total(name, key):
            return sum(s[4][key] for s in by_name[name]) / n

        def distinct_frac(name):
            per_pass = defaultdict(list)
            for s in by_name[name]:
                per_pass[s[3][0]].append(s[4]["key"])
            fracs = [len(set(keys)) / len(keys) for keys in per_pass.values()]
            return sum(fracs) / len(fracs) if fracs else 0.0

        special = [s for name, group in by_name.items() if name.startswith("special.") for s in group]
        evaluated = [s for s in special if "family" in s[4]]
        special_busy = sum(s[1] for s in special)

        def ns_per_zeta(family):
            group = [s for s in evaluated if s[4]["family"] == family]
            points = sum(s[4]["zeta_points"] for s in group)
            return 1e9 * sum(s[1] for s in group) / points if points else 0.0

        forwards = by_name["ab3d.full_forward"]
        forward_ids = {s[0] for s in forwards}
        builds_in_forward = sum(
            1 for s in by_name["transform.kernel_matrix"] if self.spans[s[0]][3] in forward_ids
        )
        return {
            "special.calls": len(special) / n,
            "special.zeta_points": sum(s[4]["zeta_points"] for s in evaluated) / n,
            "special.busy_s": special_busy / n,
            "special.busy_share": special_busy / op_wall_s if op_wall_s else 0.0,
            "special.us_per_call": 1e6 * special_busy / len(special) if special else 0.0,
            "special.max_abs_zeta": max((s[4]["max_abs_zeta"] for s in evaluated), default=0.0),
            "special.domain_errors": sum(
                1 for s in special if s[4].get("error") in ("DomainError", "SeriesDomainError")
            ) / n,
            "special.u.ns_per_zeta": ns_per_zeta("u"),
            "special.u_theta.ns_per_zeta": ns_per_zeta("u_theta"),
            "special.kappa0.ns_per_zeta": ns_per_zeta("kappa0"),
            "measures.discretize.calls": count("measures.discretize"),
            "measures.discretize.busy_s": busy("measures.discretize"),
            "measures.discretize.distinct_frac": distinct_frac("measures.discretize"),
            "measures.e_nodes": total("measures.discretize", "e_nodes"),
            "transform.kernel_matrix.calls": count("transform.kernel_matrix"),
            "transform.kernel_matrix.distinct_frac": distinct_frac("transform.kernel_matrix"),
            "transform.kernel_matrix.self_s": self_s("transform.kernel_matrix"),
            "transform.forward.self_s": self_s("transform.forward"),
            "transform.inverse.self_s": self_s("transform.inverse"),
            "ab3d.full_forward.calls": count("ab3d.full_forward"),
            "ab3d.full_forward.self_s": self_s("ab3d.full_forward"),
            "ab3d.blocks_per_forward": (
                sum(s[4]["blocks"] for s in forwards) / len(forwards) if forwards else 0.0
            ),
            "ab3d.kernel_builds_per_forward": (
                builds_in_forward / len(forwards) if forwards else 0.0
            ),
            "ab3d.field_norm_sq.busy_s": busy("ab3d.field_norm_sq"),
            "verify.run_suite.self_s": self_s("verify.run_suite"),
            "verify.checks": total("verify.run_suite", "checks"),
            "verify.check_failures": total("verify.run_suite", "failures"),
            "verify.doubling_probes": count("verify.doubling_probe"),
            "cli.main.busy_s": busy("cli.main"),
            "cli.write_report.busy_s": busy("cli.write_report"),
            "cli.report_bytes": total("cli.write_report", "bytes"),
            "traced.ops_per_s": ops / op_wall_s if op_wall_s else 0.0,
        }
