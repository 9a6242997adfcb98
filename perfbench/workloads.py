"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, hands the library only
those inputs, and checks every output.  A workload is run in *passes*; a pass
is a fixed list of ops, and the benchmark always times whole passes, so the
mix of ops in a run does not depend on where the time limit falls.

radial_sweep    the acceptance 1D grid, one op per extension
expansion_3d    the acceptance 3D field, one op per full_forward call
pointwise_eval  single-point and 16-point eigenfunction evaluations
verify_suite    one in-process `ab-spectral verify` on a trimmed suite

pointwise_eval is run by hand only; it is not listed in BENCHMARK.json
because its run-to-run spread on a shared host exceeds the allowed bound
(see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np

from . import reference

SUPPORT = (0.5, 3.0)
R_NODES = 64
E_MAX = 2500.0 / SUPPORT[1] ** 2
NODE_BUDGET = 32
PHI = 0.5


def _fingerprint(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:16]


class Calls:
    """Resolves the benchmark's entry points into the library, traced or not."""

    def __init__(self, lib, tracer=None):
        self.lib = lib
        self.tracer = tracer

    def __call__(self, layer: str, attr: str):
        module = getattr(self.lib, layer)
        if self.tracer is None:
            return getattr(module, attr)
        return self.tracer.entry(module, attr, layer)


# --------------------------------------------------------------------------
# radial_sweep


def radial_ok(defects) -> bool:
    """The acceptance tolerances: Parseval 1e-6, roundtrip 1e-6, l_q 1e-5."""
    pv, rt, diag = defects
    return pv <= 1e-6 and rt <= 1e-6 and diag <= 1e-5


def diagonalization_defect(quad, coeffs, image, psi_norm_sq) -> float:
    """|| forward(l_q psi) - E forward(psi) || / ||psi|| over the measure."""
    num = float(
        np.sum(
            quad.e_weights
            * np.abs(image.continuum_values - quad.e_nodes * coeffs.continuum_values) ** 2
        )
    )
    for j, (energy, weight) in enumerate(quad.atoms):
        num += weight * abs(image.atom_values[j] - energy * coeffs.atom_values[j]) ** 2
    return math.sqrt(num / psi_norm_sq)


class RadialSweep:
    """kappa in {0, 0.3, -0.7, 1.5, 3}, theta in {0, 1, pi/2}: 11 extensions.

    The seed fixes the order in which a pass visits them.
    """

    name = "radial_sweep"

    def __init__(self, lib, calls: Calls, seed: int, workdir: str):
        bump = lib.bumps.GaussianBump(*SUPPORT)
        r, w = lib.measures.gauss_legendre(SUPPORT[0], SUPPORT[1], R_NODES)
        self.psi = lib.transform.RadialFunction(r, w, bump(r), second_derivative=bump.derivative2)
        pairs = []
        for kappa in (0.0, 0.3, -0.7, 1.5, 3.0):
            thetas = (0.0, 1.0, math.pi / 2) if abs(kappa) < 1.0 else (0.0,)
            pairs.extend((kappa, theta) for theta in thetas)
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs
        self.fingerprint = _fingerprint(pairs)
        self.lib = lib
        self.discretize = calls("measures", "discretize")
        self.forward = calls("transform", "forward")
        self.parseval_defect = calls("transform", "parseval_defect")
        self.roundtrip_defect = calls("transform", "roundtrip_defect")
        self.apply_l_q = calls("transform", "apply_l_q")

    def _op(self, kappa, theta):
        measures = self.lib.measures
        params = measures.ExtensionParams(kappa, theta)
        quad = self.discretize(measures.spectral_measure(params), E_MAX, NODE_BUDGET)
        coeffs = self.forward(params, self.psi, quad)
        pv = self.parseval_defect(self.psi, coeffs)
        rt = self.roundtrip_defect(params, self.psi, quad)
        image = self.forward(params, self.apply_l_q(kappa, self.psi), quad)
        return pv, rt, diagonalization_defect(quad, coeffs, image, self.psi.norm_sq())

    def pass_ops(self):
        return [(f"{k}/{t:.4f}", lambda k=k, t=t: self._op(k, t)) for k, t in self.pairs]

    def check_pass(self, results) -> list[bool]:
        return [not isinstance(res, Exception) and radial_ok(res) for res in results]

    def meta(self) -> dict:
        return {}


# --------------------------------------------------------------------------
# expansion_3d

TOL_3D = {"parseval": 1e-5, "apply_h": 1e-4, "symmetry": 1e-6, "selectivity": 1e-10}
MOVES = ((0.7, 0.0), (0.0, 1.3), (0.7, 1.3))


def expansion_defects(calls, setup, base, image, moved) -> dict:
    """The four acceptance defects of one pass's coefficients."""
    spec, field, grid, r_rule, red = setup
    nsq = calls("ab3d", "field_norm_sq")(field, r_rule, red)
    active = base.channel_norm_sq(field.m)
    cross = max(base.channel_norm_sq(m) for m in grid.modes if m != field.m)
    apply_h = calls("ab3d", "coefficient_distance")(
        image, calls("ab3d", "apply_H")(spec, base)
    ) / math.sqrt(nsq)
    symmetry = 0.0
    phase = calls("ab3d", "symmetry_phase")
    for (alpha, beta), coeffs in zip(MOVES, moved):
        predicted = phase(base, alpha, beta)
        for blk_t, blk_p in zip(coeffs.blocks, predicted.blocks):
            for a, b in ((blk_t.continuum, blk_p.continuum), (blk_t.atom_values, blk_p.atom_values)):
                if a.size:
                    symmetry = max(symmetry, float(np.max(np.abs(a - b))))
    return {
        "parseval": abs(nsq - base.norm_sq()) / nsq,
        "apply_h": apply_h,
        "symmetry": symmetry,
        "selectivity": cross / active,
    }


def expansion_ok(defects: dict) -> bool:
    return all(defects[k] <= tol for k, tol in TOL_3D.items())


class Expansion3D:
    """The acceptance field at phi = 0.5 with M_max 3, n_p 64, P_max 8.

    theta is 1.0 on m = -1 and piecewise on m = 0 (1.0 for p <= 0, 1.3
    beyond), so the active channel splits into two theta pieces.  A pass
    transforms the field, its H-image and three moved copies; the seed fixes
    their order.
    """

    name = "expansion_3d"

    def __init__(self, lib, calls: Calls, seed: int, workdir: str):
        ab3d = lib.ab3d
        psi = lib.bumps.GaussianBump(*SUPPORT)
        chi = lib.bumps.GaussianProfile(center=0.3, width=0.7)
        field = ab3d.SeparableField(
            psi, chi, 0, SUPPORT, chi.support, psi_d2=psi.derivative2, chi_d2=chi.derivative2
        )
        spec = ab3d.ThetaSpec(PHI, {-1: 1.0, 0: ab3d.PiecewiseTheta((0.0,), (1.0, 1.3))})
        grid = ab3d.ModeGrid.build(3, 8.0, 64)
        red = ab3d.ReductionGrid.build(chi.support)
        r_rule = lib.measures.gauss_legendre(SUPPORT[0], SUPPORT[1], R_NODES)
        self.setup = (spec, field, grid, r_rule, red)
        fields = {"base": field, "h_image": field.hamiltonian_image(PHI)}
        for i, (alpha, beta) in enumerate(MOVES):
            fields[f"moved{i}"] = ab3d.TransformedField(field, alpha, beta)
        order = list(fields)
        random.Random(seed).shuffle(order)
        self.order = order
        self.fields = fields
        self.fingerprint = _fingerprint((order, MOVES, PHI))
        self.calls = calls
        self.full_forward = calls("ab3d", "full_forward")

    def pass_ops(self):
        spec, _, grid, r_rule, red = self.setup
        return [
            (label, lambda f=self.fields[label]: self.full_forward(spec, f, grid, r_rule, red, E_MAX))
            for label in self.order
        ]

    def check_pass(self, results) -> list[bool]:
        if any(isinstance(res, Exception) for res in results):
            return [False] * len(results)
        by_label = dict(zip(self.order, results))
        defects = expansion_defects(
            self.calls, self.setup, by_label["base"], by_label["h_image"],
            [by_label[f"moved{i}"] for i in range(len(MOVES))],
        )
        return [expansion_ok(defects)] * len(results)

    def meta(self) -> dict:
        return {}


# --------------------------------------------------------------------------
# pointwise_eval

#: inputs per (function, energy regime) cell; 9 cells make a pass of 594 ops
PER_CELL = 66
R_POINTS = 16
#: keeps theta off the ends of the bound-state branch, where E_b overflows
THETA_MARGIN = 0.02


def pointwise_ok(value, ref, err) -> bool:
    """Every sample within its error budget (see reference.py)."""
    value = np.asarray(value)
    return bool(value.shape == np.shape(ref) and np.all(np.abs(value - ref) <= err))


def _strata(rng, n: int) -> list[float]:
    """One uniform sample from each of n equal strata of [0, 1), shuffled."""
    out = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _critical_channels(phi: float):
    if phi == int(phi):
        return (int(-phi),)
    lo = -math.ceil(phi)
    return (lo, lo + 1)


class PointwiseEval:
    """Seeded single evaluations: eigenfunction_3d at one point, u_eigen and
    u_theta_eigen on 16 radii.

    The batch is stratified: a third of the ops per function, and within each
    function a third at E > 0, a third at E < 0 and a third at the extension's
    own bound-state energy E_b (E = 0 for u_eigen, which has no bound state).
    |E| runs log-uniformly over four decades below E_MAX, and theta over
    (0, pi).  A quarter of the extension-family inputs sit at kappa = 0
    exactly, the rest at 0.05 <= |kappa| <= 0.95; eigenfunction_3d cycles m
    through -3..3.  |E| <= E_MAX keeps r**2 |E| inside the series bound; a
    bound state can be deeper, and then the library's documented answer is
    SeriesDomainError.
    """

    name = "pointwise_eval"

    def __init__(self, lib, calls: Calls, seed: int, workdir: str):
        rng = random.Random(seed)
        self.inputs = self._make_inputs(rng)
        self.fingerprint = _fingerprint(self.inputs)
        with np.errstate(over="ignore", invalid="ignore"):
            self.refs = [self._reference(inp) for inp in self.inputs]
        self.zeta_bound = lib.special.ZETA_BOUND
        self.domain_error = lib.errors.DomainError
        ab3d = lib.ab3d
        self.specs = {}
        for inp in self.inputs:
            if inp["kind"] == "eig3d":
                key = (inp["phi"], inp["theta"])
                if key not in self.specs:
                    self.specs[key] = ab3d.ThetaSpec.constant(*key)
        self.channel = ab3d.ChannelIndex
        self.fns = {
            "eig3d": calls("ab3d", "eigenfunction_3d"),
            "u": calls("special", "u_eigen"),
            "u_theta": calls("special", "u_theta_eigen"),
        }
        self._last_results = []

    @staticmethod
    def _make_inputs(rng):
        """The pass's inputs, Latin-hypercube stratified within each
        (function, energy regime) cell, so that every seed gets the same mix
        of costs and only the positions inside each stratum move."""
        inputs = []
        for kind in ("eig3d", "u", "u_theta"):
            for regime in (0, 1, 2):  # E > 0, E < 0, E_b (E = 0 for u)
                strata = [_strata(rng, PER_CELL) for _ in range(3)]
                for j, (a, b, c) in enumerate(zip(*strata)):
                    inp = {"kind": kind, "regime": regime}
                    magnitude = E_MAX * 10.0 ** (-4.0 * a)
                    energy = magnitude if regime == 0 else -magnitude
                    if kind == "u":
                        inp["kappa"] = 3.5 * b
                        inp["E"] = 0.0 if regime == 2 else energy
                    else:
                        zero = j % 4 == 0
                        if kind == "eig3d":
                            phi = 0.0 if zero else 0.05 + 0.9 * b
                            critical = _critical_channels(phi)
                            m = critical[j % len(critical)] if regime == 2 else j % 7 - 3
                            kappa = m + phi
                            inp.update(phi=phi, m=m, p=rng.uniform(-8.0, 8.0))
                        else:
                            kappa = 0.0 if zero else (-1) ** j * (0.05 + 0.9 * b)
                        inp["kappa"] = kappa
                        if regime == 2:
                            lo = abs(math.pi * kappa / 2.0) + THETA_MARGIN
                            inp["theta"] = lo + (math.pi - 2.0 * lo) * c
                            inp["E"] = reference.bound_state_energy(kappa, inp["theta"])
                        else:
                            inp["theta"] = 0.05 + (math.pi - 0.1) * c
                            inp["E"] = energy
                    if kind == "eig3d":
                        r = rng.uniform(*SUPPORT)
                        angle = rng.uniform(0.0, 2.0 * math.pi)
                        inp["x"] = (r * math.cos(angle), r * math.sin(angle), rng.uniform(-2.0, 2.0))
                    else:
                        inp["r"] = tuple(sorted(rng.uniform(*SUPPORT) for _ in range(R_POINTS)))
                    inputs.append(inp)
        rng.shuffle(inputs)
        return inputs

    @staticmethod
    def _radial_reference(kappa, theta, E, bound, r):
        if abs(kappa) >= 1.0:
            return reference.u_ref(abs(kappa), E, r)
        value, err = reference.u_theta_ref(kappa, theta, E, r)
        if bound:
            value = reference.bound_state_ref(kappa, theta, E, r)
        return value, err

    def _reference(self, inp):
        """(value, error budget, max |zeta|) of one op."""
        bound = inp["kind"] != "u" and inp["regime"] == 2
        if inp["kind"] == "u":
            r = np.asarray(inp["r"])
            value, err = reference.u_ref(inp["kappa"], inp["E"], r)
        elif inp["kind"] == "u_theta":
            r = np.asarray(inp["r"])
            value, err = self._radial_reference(inp["kappa"], inp["theta"], inp["E"], bound, r)
        else:
            x1, x2, x3 = inp["x"]
            r = np.asarray([math.hypot(x1, x2)])
            radial, radial_err = self._radial_reference(
                inp["kappa"], inp["theta"], inp["E"], bound, r
            )
            rr = float(r[0])
            prefactor = (
                np.exp(1j * inp["p"] * x3) * ((x1 + 1j * x2) / rr) ** inp["m"]
                / (2.0 * math.pi * math.sqrt(rr))
            )
            value = complex(prefactor * radial[0])
            err = float(abs(prefactor) * radial_err[0] + 1e-15 * abs(value))
        return value, err, float(np.max(r * r * abs(inp["E"])))

    def _call(self, inp):
        kind = inp["kind"]
        if kind == "eig3d":
            spec = self.specs[(inp["phi"], inp["theta"])]
            return self.fns[kind](spec, self.channel(inp["m"], inp["p"]), inp["E"], inp["x"])
        if kind == "u":
            return self.fns[kind](inp["kappa"], inp["E"], np.asarray(inp["r"])).value
        return self.fns[kind](inp["kappa"], inp["theta"], inp["E"], np.asarray(inp["r"])).value

    def pass_ops(self):
        return [(inp["kind"], lambda inp=inp: self._call(inp)) for inp in self.inputs]

    def op_ok(self, result, ref) -> bool:
        """Within the documented accuracy, or the documented typed error
        for an argument past the series bound."""
        value, err, max_zeta = ref
        if isinstance(result, Exception):
            return isinstance(result, self.domain_error) and max_zeta > self.zeta_bound
        return pointwise_ok(result, value, err)

    def check_pass(self, results) -> list[bool]:
        self._last_results = results
        return [self.op_ok(res, ref) for res, ref in zip(results, self.refs)]

    def meta(self) -> dict:
        """The bound-state inputs, judged by relative error against the
        cancellation-free K_kappa form (a known defect, ROADMAP.md)."""
        bound = [
            (res, ref) for inp, res, ref in zip(self.inputs, self._last_results, self.refs)
            if inp["kind"] != "u" and inp["regime"] == 2
        ]
        rel = [
            float(np.max(np.abs(np.asarray(res) - value)) / np.max(np.abs(value)))
            for res, (value, _, _) in bound
            if not isinstance(res, Exception)
        ]
        return {
            "bound_state_inputs": len(bound),
            "bound_state_refused": sum(isinstance(res, Exception) for res, _ in bound),
            "bound_state_rel_err_over_1e-6": sum(e > 1e-6 for e in rel),
            "bound_state_max_rel_err": max(rel, default=0.0),
        }


# --------------------------------------------------------------------------
# verify_suite

VERIFY_INI = """\
[run]
phi = 0.5
kappas = 0.3,1.5
thetas = 1.0
phis = 0.5

[theta]
-1 = 1.0
0 = 1.0
"""
# 21 wronskian + 2 half-order Bessel + 12 ODE ratios + 4 bound-state anchors
# + 9 measure collapses + 1 sine transform + 6 + 3 theta periodicity
# + 3 measure continuity + 4 three-dimensional checks (one phi)
# + 3 unitarity checks x 2 extensions + 2 negative controls
VERIFY_CHECKS = 73


def verify_ok(exit_code: int, report: list) -> bool:
    return (
        exit_code == 0
        and len(report) == VERIFY_CHECKS
        and all(r["passed"] or r["params"].get("control") for r in report)
    )


class VerifySuite:
    """`ab-spectral verify --config <ini> --report <file>`, in process, on
    kappa (0.3, 1.5), theta 1.0, phi 0.5.  The suite is fixed; the seed only
    names the run."""

    name = "verify_suite"

    def __init__(self, lib, calls: Calls, seed: int, workdir: str):
        self.config = os.path.join(workdir, "verify.ini")
        self.report = os.path.join(workdir, "report.json")
        with open(self.config, "w") as fh:
            fh.write(VERIFY_INI)
        self.fingerprint = _fingerprint(VERIFY_INI)
        self.main = calls("cli", "main")

    def _op(self):
        if os.path.exists(self.report):
            os.unlink(self.report)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.main(["verify", "--config", self.config, "--report", self.report])
        with open(self.report) as fh:
            return code, json.load(fh)

    def pass_ops(self):
        return [("verify", self._op)]

    def check_pass(self, results) -> list[bool]:
        return [not isinstance(res, Exception) and verify_ok(*res) for res in results]

    def meta(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (RadialSweep, Expansion3D, PointwiseEval, VerifySuite)}
