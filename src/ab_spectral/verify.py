"""Property suite: every identity the library promises, measured and reported.

Each check computes a single nonnegative defect and compares it against a
fixed tolerance; a :class:`CheckResult` records the measurement.  Negative
controls are first-class: they run configurations where the theory demands a
visible failure (e.g. dropping bound-state atoms from Parseval sums) and are
flagged via ``params["control"]`` so that an expected failure does not count
against the suite's exit status.

The report is a deterministic JSON array sorted by (check_id, params).
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import ab3d
from .bumps import GaussianBump, GaussianProfile
from .errors import ConfigurationError
from .measures import (
    ExtensionParams,
    ac_density,
    atom_weight,
    bound_state_energy,
    discretize,
    gauss_legendre,
    spectral_measure,
)
from .special import chi_kappa, energy_cap, radial_kernel, theta_kappa, u_eigen, w_eigen, wronskian
from .transform import (
    RadialFunction,
    apply_l_q,
    forward,
    parseval_defect,
    roundtrip_defect,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check at one parameter tuple; passed iff measured <= tolerance."""

    check_id: str
    params: dict
    measured: float
    tolerance: float
    passed: bool
    error: str | None = None

    @classmethod
    def from_measurement(cls, check_id, params, measured, tolerance):
        measured = float(measured)
        return cls(check_id, params, measured, tolerance, measured <= tolerance)

    @property
    def is_control(self) -> bool:
        return bool(self.params.get("control", False))

    def to_json_dict(self) -> dict:
        """The fields as a dict, with a shallow copy of params (its values are
        scalars, so asdict's deep copy is not needed); a non-finite float,
        here or in params, as the string "inf", "-inf" or "nan", which JSON
        can hold (an errored check has measured = inf)."""
        return {
            **{key: _json_number(value) for key, value in vars(self).items()},
            "params": {key: _json_number(value) for key, value in self.params.items()},
        }


def _json_number(value):
    """value, or str(float(value)) for a non-finite float."""
    return str(float(value)) if isinstance(value, float) and not math.isfinite(value) else value


class Job(NamedTuple):
    """Checks measured by one computation.

    checks holds (check_id, params, tolerance) per check; measure returns one
    (measured, extra params) pair per check, in the same order.
    """

    checks: list
    measure: Callable[[], list]


def _job(check_id: str, params: dict, tolerance: float, thunk: Callable[[], float]):
    """A job of one check whose thunk returns its measured defect."""
    return Job([(check_id, params, tolerance)], lambda: [(thunk(), {})])


class DoublingResult(NamedTuple):
    """Chosen cutoff and whether successive defects actually stabilized."""

    value: float
    converged: bool


def doubling_rule(
    defect_fn: Callable[[float], float], start: float, cap: float, tol: float
) -> DoublingResult:
    """Double a cutoff until the defect stops moving.

    Returns the smallest cutoff v for which |defect(2v) - defect(v)| < tol/10,
    or the cap (converged=False) when no stabilization is observed below it.
    """
    if cap < start:
        raise ConfigurationError("doubling_rule requires cap >= start")
    value = start
    current = defect_fn(value)
    while 2.0 * value <= cap:
        nxt = defect_fn(2.0 * value)
        if abs(nxt - current) < tol / 10.0:
            return DoublingResult(value, True)
        value, current = 2.0 * value, nxt
    # never stabilized: report the largest cutoff probed with a warning flag
    return DoublingResult(value, False)


# Resolutions of the suite: r nodes on the support, Gauss order per E panel,
# and the 3D mode grid (|m| <= _M_MAX, _N_P p nodes on [-_P_MAX, _P_MAX]).
_R_NODES = 64
_NODE_BUDGET = 32
_M_MAX = 3
_N_P = 64
_P_MAX = 8.0


@dataclass(frozen=True)
class SuiteConfig:
    """Parameter grids for the property suite.

    phis holds one 3D job per flux: half-odd orders (1/2), a near-integer
    flux (1e-6, kappa = 1e-6 and -0.999999), a generic one (0.3) and an
    integer one (2, with kappa = 0 critical)."""

    kappas: tuple = (0.0, 0.3, -0.7, 1.5, 3.0)
    thetas: tuple = (0.0, 1.0, math.pi / 2)
    phis: tuple = (0.5, 1e-6, 0.3, 2.0)
    support: tuple = (0.5, 3.0)

    def __post_init__(self):
        if self.support[0] <= 0.0 or self.support[1] <= self.support[0]:
            raise ConfigurationError("support must satisfy 0 < a < b")

    @property
    def e_cap(self) -> float:
        """Largest usable E_max: special.energy_cap of the support's right edge."""
        return energy_cap(self.support[1])

    def extension_pairs(self):
        """(kappa, theta) with theta fixed to 0 off the extension family."""
        pairs = []
        for kappa in self.kappas:
            if abs(kappa) < 1.0:
                pairs.extend((kappa, theta) for theta in self.thetas)
            else:
                pairs.append((kappa, 0.0))
        return pairs


# --------------------------------------------------------------------------
# Individual checks (each returns the measured defect)


def _wronskian_defects(kappa: float, radii: tuple) -> list:
    """|W(u, w) - 2/pi| at E = 0 at each radius, from one u_eigen and one
    w_eigen call over the radii."""
    r = np.array(radii)
    values = wronskian(u_eigen(kappa, 0.0, r), w_eigen(kappa, 0.0, r))
    return [(abs(float(value) - 2.0 / math.pi), {}) for value in values]


def _check_bessel_half_order(kappa: float) -> float:
    """chi_kappa at kappa = +-1/2 against its sine and cosine closed forms."""
    zeta = np.linspace(0.1, 100.0, 1000)
    values = chi_kappa(kappa, zeta)
    root = np.sqrt(zeta)
    if kappa > 0:
        exact = math.sqrt(2.0 / math.pi) * np.sin(root) / root
    else:
        exact = math.sqrt(2.0 / math.pi) * np.cos(root)
    return float(np.max(np.abs(values - exact) / np.abs(exact)))


def _ode_residual(kappa, E, r, h, u_minus, u_0, u_plus) -> float:
    """Finite-difference residual of the radial equation; O(h^2) by design."""
    d2 = (u_plus - 2.0 * u_0 + u_minus) / (h * h)
    q = (kappa * kappa - 0.25) / (r * r)
    return float(np.max(np.abs(-d2 + q * u_0 - E * u_0)))


def _check_ode_ratio(kappa, theta, E) -> float:
    r = np.linspace(0.6, 2.0, 16)
    h = 1e-2
    # the five stencil rows r - h, r - h/2, r, r + h/2, r + h in one kernel call
    u = radial_kernel(kappa, theta, E, r + np.array([-h, -h / 2.0, 0.0, h / 2.0, h])[:, None])
    ratio = _ode_residual(kappa, E, r, h, u[0], u[2], u[4]) / _ode_residual(
        kappa, E, r, h / 2.0, u[1], u[2], u[3]
    )
    return abs(ratio - 4.0)


def _check_bound_state_reference(kind: str) -> float:
    if kind == "half_pi_energy":
        worst = 0.0
        for kappa in np.linspace(-0.9, 0.9, 19):
            energy = bound_state_energy(ExtensionParams(float(kappa), math.pi / 2))
            worst = max(worst, abs(energy + 1.0))
        return worst
    if kind == "quarter_pi_energy":
        energy = bound_state_energy(ExtensionParams(0.0, math.pi / 4))
        return abs(energy + math.exp(math.pi))
    if kind == "half_pi_weight":
        weight = atom_weight(ExtensionParams(0.0, math.pi / 2))
        return abs(weight - math.pi**2 / 2.0)
    if kind == "kappa_zero_limit":
        worst = 0.0
        for theta in (0.9, math.pi / 2, 2.2):
            small = ExtensionParams(1e-4, theta)
            zero = ExtensionParams(0.0, theta)
            e0, w0 = bound_state_energy(zero), atom_weight(zero)
            worst = max(
                worst,
                abs(bound_state_energy(small) - e0) / abs(e0),
                abs(atom_weight(small) - w0) / w0,
            )
        return worst
    raise ConfigurationError(f"unknown bound-state reference check {kind!r}")


def _collapse_defects(kappa: float, energies: tuple) -> list:
    """At theta = theta_kappa the density collapses to the |kappa| >= 1 form:
    its relative defect at each energy, from one ac_density call over them."""
    values = ac_density(ExtensionParams(kappa, theta_kappa(kappa)), np.array(energies))
    exact = [0.5 * E**kappa for E in energies]
    return [(abs(float(v) - x) / x, {}) for v, x in zip(values, exact)]


def _suite_bump(config: SuiteConfig) -> RadialFunction:
    bump = GaussianBump(*config.support)
    return RadialFunction.from_callable(
        bump, *config.support, _R_NODES, second_derivative=bump.derivative2
    )


def _unitarity_defects(config: SuiteConfig, kappa: float, theta: float):
    """Parseval, roundtrip and diagonalization defects of one extension, each
    with the E_max the doubling rule chose.  The rule starts at the cap, so it
    probes the one spectral grid of the extension; the probe keeps its grid,
    coefficients and defects, so the chosen cutoff's are read back, not
    measured again."""
    psi = _suite_bump(config)
    params = ExtensionParams(kappa, theta)
    measure = spectral_measure(params)
    cap = config.e_cap
    probes = {}

    def defect_at(e_max: float) -> float:
        quad = discretize(measure, e_max, _NODE_BUDGET)
        coeffs = forward(params, psi, quad)
        pv, rt = parseval_defect(psi, coeffs), roundtrip_defect(params, psi, quad)
        probes[e_max] = quad, coeffs, pv, rt
        return max(pv, rt)

    chosen = doubling_rule(defect_at, cap, cap, 1e-6)
    quad, coeffs, pv, rt = probes[chosen.value]

    image = forward(params, apply_l_q(kappa, psi), quad)
    num = float(np.sum(quad.weights * np.abs(image.values - quad.nodes * coeffs.values) ** 2))
    diag = math.sqrt(num / psi.norm_sq())
    extra = {"E_max": chosen.value, "doubling_converged": chosen.converged}
    return [(pv, extra), (rt, extra), (diag, extra)]


def _check_sine_transform(config: SuiteConfig, kappa: float) -> float:
    """kappa = 1/2 at the reference angle: the kernel is the sine kernel."""
    psi = _suite_bump(config)
    params = ExtensionParams(kappa, theta_kappa(kappa))
    quad = discretize(spectral_measure(params), config.e_cap, _NODE_BUDGET)
    coeffs = forward(params, psi, quad)
    root = np.sqrt(quad.e_nodes)
    sines = np.sin(np.outer(root, psi.r_nodes))
    exact = math.sqrt(2.0 / math.pi) / root * (sines @ (psi.quad_weights * psi.values.real))
    return float(np.max(np.abs(coeffs.continuum_values - exact)))


def _check_theta_periodicity_measure(kappa: float, theta: float) -> float:
    E = np.geomspace(1e-3, 100.0, 200)
    a = ac_density(ExtensionParams(kappa, theta), E)
    b = ac_density(ExtensionParams(kappa, theta + math.pi), E)
    return float(np.max(np.abs(a - b)))


def _check_theta_periodicity_coefficients(config: SuiteConfig, kappa, theta) -> float:
    """Exact sign flip of forward coefficients under theta -> theta + pi.

    theta must be representable so that theta + pi rounds exactly (e.g. 0.25,
    0.5, 1.0); then the flipped kernel is bitwise the negated kernel.  theta
    must also keep any bound state shallow enough for the kernels
    (|E_b| * b**2 within ZETA_BOUND).
    """
    psi = _suite_bump(config)
    p1 = ExtensionParams(kappa, theta)
    p2 = ExtensionParams(kappa, theta + math.pi)
    quad = discretize(spectral_measure(p1), config.e_cap, _NODE_BUDGET)
    return float(np.max(np.abs(forward(p1, psi, quad).values + forward(p2, psi, quad).values)))


def _check_measure_continuity(theta: float) -> float:
    """Integrals against a fixed bump converge monotonically as kappa -> 0.

    measured = max ratio of successive distances to the kappa = 0 value;
    passing (<= 1) certifies monotone decrease.
    """
    profile = GaussianBump(-2.0, 5.0, center=1.0, width=1.2)

    def integral(kappa: float) -> float:
        params = ExtensionParams(kappa, theta)
        quad = discretize(spectral_measure(params), 40.0, _NODE_BUDGET)
        return float(np.sum(quad.weights * profile(quad.nodes)))

    reference = integral(0.0)
    distances = [abs(integral(k) - reference) for k in (1e-2, 5e-3, 2.5e-3)]
    return max(b / a for a, b in zip(distances, distances[1:]))


def _3d_setup(config: SuiteConfig, phi: float):
    psi = GaussianBump(*config.support)
    chi = GaussianProfile(center=0.3, width=0.7)
    fld = ab3d.SeparableField(
        psi,
        chi,
        0,
        config.support,
        chi.support,
        psi_d2=psi.derivative2,
        chi_d2=chi.derivative2,
    )
    spec = ab3d.ThetaSpec.constant(phi, 1.0)
    grid = ab3d.ModeGrid.build(_M_MAX, _P_MAX, _N_P)
    red = ab3d.ReductionGrid.build(chi.support)
    r_rule = gauss_legendre(config.support[0], config.support[1], _R_NODES)
    return spec, fld, grid, red, r_rule


def _3d_defects(config: SuiteConfig, phi: float):
    """Selectivity, Parseval, apply_H and symmetry defects of one field, all
    against one forward transform of it.  The H image and the moved fields
    are streamed against it block by block (hamiltonian_defect,
    symmetry_defect).  The maxima are taken by np.max, which keeps a NaN
    where Python's max would drop it.  A library field hands its exact mode,
    so its forward stores no block of another mode, each such mode's norm
    is exactly 0.0 and the selectivity reads 0.0: a regression check of
    that exactness."""
    spec, fld, grid, red, r_rule = _3d_setup(config, phi)
    e_max = config.e_cap
    base = ab3d.full_forward(spec, fld, grid, r_rule, red, e_max)
    nsq = ab3d.field_norm_sq(fld, r_rule, red)
    active = base.channel_norm_sq(fld.m)
    cross = np.max([base.channel_norm_sq(m) for m in grid.modes if m != fld.m])
    parseval = abs(nsq - base.norm_sq()) / nsq
    apply_h = ab3d.hamiltonian_defect(
        spec, fld, grid, r_rule, red, e_max, base=base
    ) / math.sqrt(nsq)
    symmetry = np.max([
        ab3d.symmetry_defect(
            spec, fld, alpha, beta, grid, r_rule, red, e_max, base=base
        )
        for alpha, beta in ((0.7, 0.0), (0.0, 1.3), (0.7, 1.3))
    ])
    return [(cross / active, {}), (parseval, {}), (apply_h, {}), (symmetry, {})]


def _negative_control_job(config: SuiteConfig) -> Job:
    """Drop the bound-state atom and demand the Parseval deficit it predicts."""
    kappa, theta = 0.3, math.pi / 2

    def measure():
        psi = _suite_bump(config)
        params = ExtensionParams(kappa, theta)
        quad = discretize(spectral_measure(params), config.e_cap, _NODE_BUDGET)
        with_atom = forward(params, psi, quad, include_atoms=True)
        without = forward(params, psi, quad, include_atoms=False)
        deficit = parseval_defect(psi, without)
        energy, weight = quad.atoms[0]
        oracle = weight * abs(with_atom.atom_values[0]) ** 2 / psi.norm_sq()
        return [
            (deficit, {"deficit": deficit, "required_minimum": 1e-3}),
            (abs(deficit - oracle) / oracle, {}),
        ]

    params = {"kappa": kappa, "theta": theta}
    return Job(
        [
            ("negative_control_atom_dropped", {**params, "control": True}, 1e-6),
            ("negative_control_deficit_matches_atom", params, 1e-6),
        ],
        measure,
    )


def _negative_control_results(config: SuiteConfig) -> list[CheckResult]:
    """The negative-control checks alone, run as in the suite."""
    return _run_job(_negative_control_job(config))


# --------------------------------------------------------------------------
# Suite assembly


def _build_jobs(config: SuiteConfig) -> list[Job]:
    """Every enabled check, grouped into jobs.

    Each check measured on its own is one row (check_id, tolerance, check,
    params) whose params are both its report params and its check's keyword
    arguments.  A job measures several checks when they share one
    computation: the three Wronskian radii of one kappa (one u_eigen and one
    w_eigen call over r: 14 E = 0 kernel assemblies where one call per radius
    made 42, each paying its fixed cost; on a 2-vCPU Xeon the 21 rows took
    6.5 ms that way and take 1.6 ms), the three collapse energies of one
    kappa (one ac_density call over them: 3 calls, where there were 9), the
    four 3D checks of one phi, the unitarity triple of one extension, the
    negative controls.  If that computation raises, each of its checks
    fails.
    """
    periodic = _check_theta_periodicity_measure
    sine = functools.partial(_check_sine_transform, config)
    flip = functools.partial(_check_theta_periodicity_coefficients, config)
    rows = [
        ("bessel_half_order", 1e-10, _check_bessel_half_order, dict(kappa=kappa))
        for kappa in (0.5, -0.5)
    ]
    rows += [
        ("ode_residual_ratio", 0.4, _check_ode_ratio, dict(kappa=kappa, theta=theta, E=E))
        for kappa, theta, E in (
            (0.0, 0.0, 1.0),
            (0.0, 1.0, -1.0),
            (0.0, math.pi / 2, 10.0),
            (0.3, 0.0, 1.0),
            (0.3, 1.0, 10.0),
            (0.3, math.pi / 2, -1.0),
            (-0.7, 0.0, 10.0),
            (-0.7, 1.0, 1.0),
            (-0.7, math.pi / 2, -1.0),
            (0.5, 0.7, 5.0),
            (1.5, 0.0, 1.0),
            (3.0, 0.0, 5.0),
        )
    ]
    rows += [
        ("bound_state_reference", tol, _check_bound_state_reference, dict(kind=kind))
        for kind, tol in (
            ("half_pi_energy", 1e-12),
            ("quarter_pi_energy", 1e-12),
            ("half_pi_weight", 1e-12),
            ("kappa_zero_limit", 1e-6),
        )
    ]
    rows.append(("sine_transform", 1e-8, sine, dict(kappa=0.5)))
    rows += [
        ("theta_periodicity_measure", 1e-12, periodic, dict(kappa=kappa, theta=theta))
        for kappa in (0.0, 0.3, -0.7)
        for theta in (0.5, 1.0)
    ]
    rows += [
        ("theta_periodicity_coefficients", 0.0, flip, dict(kappa=kappa, theta=1.0))
        for kappa in (0.0, 0.3, -0.7)
    ]
    rows += [
        ("measure_continuity_kappa_to_zero", 1.0, _check_measure_continuity, dict(theta=theta))
        for theta in (0.0, 1.0, math.pi / 2)
    ]
    jobs = [
        _job(check_id, params, tol, functools.partial(check, **params))
        for check_id, tol, check, params in rows
    ]

    radii = (0.1, 1.0, 10.0)
    for kappa in (0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9):
        checks = [("wronskian", {"kappa": kappa, "r": r}, 1e-9) for r in radii]
        jobs.append(Job(checks, functools.partial(_wronskian_defects, kappa, radii)))

    energies = (0.1, 1.0, 10.0)
    for kappa in (0.2, 0.5, 0.8):
        checks = [("measure_collapse", {"kappa": kappa, "E": E}, 1e-12) for E in energies]
        jobs.append(Job(checks, functools.partial(_collapse_defects, kappa, energies)))

    threed = (("selectivity", 1e-10), ("parseval", 1e-5), ("apply_h", 1e-4), ("symmetry", 1e-6))
    for phi in config.phis:
        checks = [(f"threed_{which}", {"phi": phi}, tol) for which, tol in threed]
        jobs.append(Job(checks, functools.partial(_3d_defects, config, phi)))

    unitarity = (("parseval", 1e-6), ("roundtrip", 1e-6), ("diagonalization", 1e-5))
    for kappa, theta in config.extension_pairs():
        params = {"kappa": kappa, "theta": theta, "atoms": True}  # the atom is always kept
        checks = [(f"unitarity_{which}", params, tol) for which, tol in unitarity]
        jobs.append(Job(checks, functools.partial(_unitarity_defects, config, kappa, theta)))

    jobs.append(_negative_control_job(config))
    return jobs


def _run_job(job: Job) -> list[CheckResult]:
    """Measure a job's checks; if the measurement raises, each check records
    the error with measured = inf."""
    try:
        outcomes = job.measure()
    except Exception as exc:  # noqa: BLE001 - recorded, never raised
        return [
            CheckResult(check_id, params, math.inf, tolerance, False, repr(exc))
            for check_id, params, tolerance in job.checks
        ]
    return [
        CheckResult.from_measurement(check_id, {**params, **extra}, measured, tolerance)
        for (check_id, params, tolerance), (measured, extra) in zip(
            job.checks, outcomes, strict=True
        )
    ]


def run_suite(config: SuiteConfig | None = None) -> list[CheckResult]:
    """Run every job; failures never abort, errors are recorded in place.

    A job may measure several checks from one computation (the four 3D
    checks of one phi share its forward transform); an error in it fails
    each of its checks.
    """
    config = config or SuiteConfig()
    results = [result for job in _build_jobs(config) for result in _run_job(job)]
    results.sort(key=lambda r: (r.check_id, json.dumps(r.params, sort_keys=True)))
    return results


def suite_exit_status(results: list[CheckResult]) -> int:
    """0 iff every non-control check passed."""
    return 0 if all(r.passed or r.is_control for r in results) else 1


def _atomic_write(path: str, text: str) -> None:
    """Write text to path with '\\n' line endings through a temp file and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(results: list[CheckResult], path: str) -> None:
    """Deterministic JSON array, written atomically (temp file + rename); a
    non-finite float is written as a string (CheckResult.to_json_dict), so
    the report is strict JSON."""
    payload = json.dumps(
        [r.to_json_dict() for r in results], indent=2, sort_keys=True, allow_nan=False
    )
    _atomic_write(path, payload + "\n")
