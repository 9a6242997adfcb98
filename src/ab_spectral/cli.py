"""Command-line surface: evaluate, tabulate, transform, verify, export.

Commands
--------
eigenfunction   sample a radial eigenfunction on an r-grid -> CSV
measure         tabulate a spectral measure density (plus atoms) -> CSV
bound-states    bound-state table for a flux/theta configuration -> CSV
transform       forward transform of a profile; Parseval/roundtrip summary
verify          run the property suite -> JSON report

Grids use the range syntax ``start:stop:count``.  Configuration files are
flat INI text: a ``[run]`` section (phi, grids, paths) and a ``[theta]``
section mapping each critical channel m to either a constant angle or a
piecewise table ``b1,b2:v1,v2,v3`` (breakpoints : values).  Every output CSV
is written by _write_csv, atomically with '\\n' line endings.

Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys

import numpy as np

from . import ab3d
from .bumps import GaussianBump, GaussianProfile
from .errors import ConfigurationError, DomainError
from .measures import (
    ExtensionParams,
    discretize,
    gauss_legendre,
    spectral_measure,
)
from .special import energy_cap, u_eigen, u_theta_eigen
from .transform import RadialFunction, forward, parseval_defect, roundtrip_defect
from .verify import SuiteConfig, _atomic_write, run_suite, suite_exit_status, write_report

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Invalid flags, config, or input files; maps to exit code 2."""


def parse_range(text: str) -> np.ndarray:
    """start:stop:count -> linspace; locale-independent '.' decimals."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"range ends must be finite, got {text!r}")
    if count < 1:
        raise UsageError("range count must be >= 1")
    return np.linspace(start, stop, count)


def _parse_theta_entry(text: str):
    """Constant angle, or 'b1,b2:v1,v2,v3' piecewise table."""
    if ":" in text:
        breaks_text, values_text = text.split(":", 1)
        breaks = tuple(float(t) for t in breaks_text.split(",") if t.strip())
        values = tuple(float(t) for t in values_text.split(","))
        return ab3d.PiecewiseTheta(breaks, values)
    return float(text)


def _parse_float_list(key: str, text: str) -> tuple[float, ...]:
    """A comma-separated [run] list of finite numbers; an empty one has no entries."""
    if not text.strip():
        return ()
    values = []
    for entry in text.split(","):
        try:
            values.append(float(entry))
        except ValueError:
            raise UsageError(f"bad [run] {key} entry {entry.strip()!r}: not a number") from None
        if not math.isfinite(values[-1]):
            raise UsageError(f"bad [run] {key} entry {entry.strip()!r}: must be finite")
    return tuple(values)


def _run_value(run: dict, key: str, default, above=-math.inf, below=math.inf):
    """[run] key read as the type of its default (the default when absent); a
    value that does not parse or lies outside the open range (above, below) is
    a UsageError naming the key."""
    value = run.get(key, default)
    try:
        value = type(default)(value)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise UsageError(f"bad [run] {key} {value!r}: not {kind}") from None
    if not (math.isfinite(value) and above < value < below):
        raise UsageError(f"bad [run] {key} {value!r}: must be finite, in ({above!r}, {below!r})")
    return value


def load_config(path: str) -> dict:
    """Read the INI config into {'phi': float, 'spec': ThetaSpec, 'run': dict}."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    if "run" not in parser or "phi" not in parser["run"]:
        raise UsageError("config needs a [run] section with a phi entry")
    try:
        phi = float(parser["run"]["phi"])
        entries = {
            int(m): _parse_theta_entry(v) for m, v in parser["theta"].items()
        } if "theta" in parser else {}
        spec = ab3d.ThetaSpec(phi, entries)
    except (ValueError, ConfigurationError) as exc:
        raise UsageError(f"bad config: {exc}") from exc
    return {"phi": phi, "spec": spec, "run": dict(parser["run"])}


def _cell(x) -> str:
    return str(x) if isinstance(x, (str, int)) else repr(float(x))


def _write_csv(path: str, header: str, rows, atoms=()) -> None:
    """The one output CSV format: a '# atom' line per atom tuple, the header,
    then one line per row.  A str or int cell is written as it is, any other
    number as repr(float(x))."""
    lines = [" ".join(["# atom", *map(_cell, atom)]) for atom in atoms]
    lines += [header, *(",".join(map(_cell, row)) for row in rows)]
    _atomic_write(path, "".join(line + "\n" for line in lines))


# --------------------------------------------------------------------------
# Commands


def _extension_params(args) -> ExtensionParams:
    """The extension of --kappa and --theta; UsageError if --theta is missing
    while |kappa| < 1."""
    if abs(args.kappa) < 1.0 and args.theta is None:
        raise UsageError("--theta is required when |kappa| < 1")
    return ExtensionParams(args.kappa, args.theta or 0.0)


def cmd_eigenfunction(args) -> int:
    r = parse_range(args.r)
    if np.any(r <= 0.0):
        raise UsageError("r grid must be strictly positive (off the axis)")
    params = _extension_params(args)
    if params.needs_theta:
        result = u_theta_eigen(params.kappa, params.theta, args.energy, r)
    else:
        result = u_eigen(abs(params.kappa), args.energy, r)
    _write_csv(args.output, "r,u,du_dr", zip(r, result.value, result.d_dr))
    return EXIT_OK


def cmd_measure(args) -> int:
    measure = spectral_measure(_extension_params(args))
    energies = parse_range(args.energies)
    _write_csv(args.output, "E,density", zip(energies, measure.density(energies)), measure.atoms)
    return EXIT_OK


def cmd_bound_states(args) -> int:
    config = load_config(args.config)
    rows = ab3d.bound_state_table(config["spec"])
    _write_csv(args.output, "m,kappa,E_b,weight,theta", rows)
    return EXIT_OK


def _read_profile_csv(path: str) -> RadialFunction:
    """CSV 'r,re,im' -> RadialFunction with trapezoid weights on the r grid."""
    rows = []
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc
    with fh:
        header = fh.readline()
        if header.strip() != "r,re,im":
            raise UsageError(f"{path}:1: expected header 'r,re,im'")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.strip().split(",")
            if len(parts) != 3:
                raise UsageError(f"{path}:{lineno}: expected 3 fields")
            try:
                r_i, re_i, im_i = (float(p) for p in parts)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
            if rows and not r_i > rows[-1][0]:
                raise UsageError(
                    f"{path}:{lineno}: r={r_i!r} does not exceed the previous "
                    f"r={rows[-1][0]!r}; the r grid must be strictly increasing"
                )
            rows.append((r_i, complex(re_i, im_i)))
    if len(rows) < 8:
        raise UsageError(f"{path}: need at least 8 samples")
    r = np.array([row[0] for row in rows])
    values = np.array([row[1] for row in rows])
    half_steps = 0.5 * np.diff(r)
    weights = np.zeros_like(r)
    weights[:-1] += half_steps
    weights[1:] += half_steps
    return RadialFunction(r, weights, values)


def _named_family(text: str) -> RadialFunction:
    """'gauss:a:b' -> the standard Gaussian bump on [a, b], Gauss-sampled."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] != "gauss":
        raise UsageError(f"unknown test family {text!r} (expected gauss:a:b)")
    try:
        a, b = float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad family bounds in {text!r}") from exc
    if not 0.0 < a < b:
        raise UsageError("family bounds must satisfy 0 < a < b")
    bump = GaussianBump(a, b)
    return RadialFunction.from_callable(
        bump, a, b, 64, second_derivative=bump.derivative2
    )


def cmd_transform(args) -> int:
    if args.mode == "3d":
        return _cmd_transform_3d(args)
    params = _extension_params(args)
    if args.family:
        psi = _named_family(args.family)
    elif args.input:
        psi = _read_profile_csv(args.input)
    else:
        raise UsageError("transform needs --family or --input")
    quad = discretize(spectral_measure(params), energy_cap(psi.r_nodes[-1]), args.node_budget)
    coeffs = forward(params, psi, quad)
    pv = parseval_defect(psi, coeffs)
    rt = roundtrip_defect(params, psi, quad)
    c = coeffs.continuum_values
    atoms = [(e, w, v.real, v.imag) for (e, w), v in zip(quad.atoms, coeffs.atom_values)]
    _write_csv(args.output, "E,re,im", zip(quad.e_nodes, c.real, c.imag), atoms)
    print(f"parseval_defect={pv:.6e} roundtrip_defect={rt:.6e}")
    return EXIT_OK


def _cmd_transform_3d(args) -> int:
    if not args.config:
        raise UsageError("--mode 3d requires --config")
    config = load_config(args.config)
    spec = config["spec"]
    run = config["run"]
    a = _run_value(run, "support_a", 0.5, above=0.0)
    b = _run_value(run, "support_b", 3.0, above=a)
    m_max = _run_value(run, "m_max", 3, above=-1)
    m0 = _run_value(run, "field_m", 0, above=-m_max - 1, below=m_max + 1)
    psi = GaussianBump(a, b)
    chi = GaussianProfile(center=0.0, width=0.7)
    fld = ab3d.SeparableField(
        psi, chi, m0, (a, b), chi.support,
        psi_d2=psi.derivative2, chi_d2=chi.derivative2,
    )
    grid = ab3d.ModeGrid.build(
        m_max,
        _run_value(run, "p_max", 8.0, above=0.0),
        _run_value(run, "n_p", 64, above=0),
    )
    red = ab3d.ReductionGrid.build(chi.support)
    r_rule = gauss_legendre(a, b, _run_value(run, "r_nodes", 64, above=0))
    coeffs = ab3d.full_forward(
        spec, fld, grid, r_rule, red, energy_cap(b), args.node_budget
    )
    total = coeffs.norm_sq()
    atoms, rows = [], []
    for blk in coeffs.blocks:
        for p, atom_values, continuum in zip(
            grid.p_nodes[blk.p_indices], blk.atom_values, blk.continuum
        ):
            atoms += [
                (f"m={blk.m}", f"p={float(p)!r}", e, w, v.real, v.imag)
                for (e, w), v in zip(blk.quad.atoms, atom_values)
            ]
            rows += [(blk.m, p, e, v.real, v.imag) for e, v in zip(blk.quad.e_nodes, continuum)]
    _write_csv(args.output, "m,p,E,re,im", rows, atoms)
    nsq = ab3d.field_norm_sq(fld, r_rule, red)
    print(f"parseval_defect={abs(nsq - total) / nsq:.6e}")
    return EXIT_OK


def cmd_verify(args) -> int:
    kwargs = {}
    if args.config:
        run = load_config(args.config)["run"]
        for key in ("kappas", "thetas", "phis"):
            if key in run:
                kwargs[key] = _parse_float_list(key, run[key])
    try:
        suite = SuiteConfig(**kwargs)
    except ConfigurationError as exc:
        raise UsageError(f"bad suite config: {exc}") from exc
    results = run_suite(suite)
    if args.report:
        write_report(results, args.report)
    failed = [r for r in results if not r.passed and not r.is_control]
    controls = [r for r in results if r.is_control]
    print(
        f"{len(results)} checks, {len(failed)} failed, "
        f"{len(controls)} expected-failure controls"
    )
    for r in failed:
        print(f"FAIL {r.check_id} {r.params}: {r.measured:.3e} > {r.tolerance:g}")
    return suite_exit_status(results)


# --------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ab-spectral",
        description=(
            "Self-adjoint extensions and eigenfunction expansions of the 3D "
            "Aharonov-Bohm Hamiltonian: radial eigenfunctions, spectral "
            "measures, transforms, and the property suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "eigenfunction",
        help="sample u (|kappa| >= 1) or u_theta (|kappa| < 1) on an r-grid",
    )
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--theta", type=float, help="extension angle; required for |kappa| < 1")
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--r", required=True, help="r grid as start:stop:count")
    p.add_argument("--output", default="eigenfunction.csv")
    p.set_defaults(func=cmd_eigenfunction)

    p = sub.add_parser("measure", help="tabulate the spectral measure density")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--energies", required=True, help="E grid as start:stop:count")
    p.add_argument("--output", default="measure.csv")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("bound-states", help="bound-state table for a configuration")
    p.add_argument("--config", required=True, help="INI config with [run] phi and [theta]")
    p.add_argument("--output", default="bound_states.csv")
    p.set_defaults(func=cmd_bound_states)

    p = sub.add_parser(
        "transform", help="forward transform a profile; print Parseval summary"
    )
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--theta", type=float)
    p.add_argument("--family", help="named test family, e.g. gauss:0.5:3")
    p.add_argument("--input", help="profile CSV with header r,re,im")
    p.add_argument("--mode", choices=["1d", "3d"], default="1d")
    p.add_argument("--config", help="INI config (required for --mode 3d)")
    p.add_argument("--node-budget", type=int, default=32, dest="node_budget")
    p.add_argument("--output", default="coefficients.csv")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--config", help="INI config overriding suite grids")
    p.add_argument("--report", default="report.json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
