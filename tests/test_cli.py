"""End-to-end tests of the command-line interface via main(argv)."""

import json
import math

import numpy as np
import pytest
from scipy import special as sc

from ab_spectral.cli import (
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _read_profile_csv,
    _write_csv,
    load_config,
    main,
    parse_range,
)
from ab_spectral.measures import ExtensionParams, bound_state_energy
from ab_spectral.special import radial_kernel, theta_kappa, u_theta_eigen


class TestParseRange:
    def test_linspace_semantics(self):
        assert np.array_equal(parse_range("0:1:3"), [0.0, 0.5, 1.0])
        assert parse_range("2.5:2.5:1") == [2.5]

    @pytest.mark.parametrize("bad", ["0:1", "0:1:2:3", "a:1:3", "0:1:0", "0:1:x"])
    def test_malformed_ranges(self, bad):
        with pytest.raises(UsageError):
            parse_range(bad)

    @pytest.mark.parametrize("bad", ["0:nan:3", "nan:1:3", "inf:1:3", "0:-inf:2"])
    def test_non_finite_ends(self, bad):
        with pytest.raises(UsageError, match="finite"):
            parse_range(bad)


class TestWriteCsv:
    def test_cell_rules(self, tmp_path):
        # an int or str cell as it is; any other number as repr(float(x)),
        # never numpy's repr (np.float64(0.1), not 0.1)
        value = np.complex128(1.5 - 0.25j)
        out = tmp_path / "out.csv"
        rows = [(7, np.float64(0.1), value.real, value.imag), ("x", 2.0, np.float64(1e-300), -0.0)]
        _write_csv(str(out), "a,b,c,d", rows, atoms=[("m=1", 3, np.float64(-21.5))])
        assert out.read_bytes() == (
            b"# atom m=1 3 -21.5\na,b,c,d\n7,0.1,1.5,-0.25\nx,2.0,1e-300,-0.0\n"
        )


class TestConfig:
    def test_full_config_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nphi = 0.5\n\n[theta]\n-1 = 1.0\n0 = 0.0,2.0:0.1,0.2,0.3\n")
        loaded = load_config(str(cfg))
        assert loaded["phi"] == 0.5
        assert loaded["spec"].theta_for(-1, 3.0) == 1.0
        assert loaded["spec"].theta_for(0, 1.0) == 0.2

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            load_config(str(tmp_path / "absent.ini"))

    def test_missing_phi(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nm_max = 3\n")
        with pytest.raises(UsageError):
            load_config(str(cfg))

    def test_wrong_critical_set_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nphi = 0.5\n\n[theta]\n0 = 1.0\n")
        with pytest.raises(UsageError):
            load_config(str(cfg))


class TestEigenfunctionCommand:
    def test_writes_csv_matching_library(self, tmp_path):
        out = tmp_path / "eig.csv"
        code = main(
            [
                "eigenfunction",
                "--kappa", "0.3",
                "--theta", "1.0",
                "--energy", "2.0",
                "--r", "0.5:2.0:16",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().split("\n")
        assert lines[0] == "r,u,du_dr"
        r, u, du = (float(f) for f in lines[5].split(","))
        ref = u_theta_eigen(0.3, 1.0, 2.0, r)
        assert u == pytest.approx(float(ref.value), rel=1e-15)
        assert du == pytest.approx(float(ref.d_dr), rel=1e-15)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eigenfunction", "--energy", "2.0", "--r", "0.5:2.0:8"],
            ["measure", "--energies", "0:1:3"],
            ["transform", "--family", "gauss:0.5:3"],
        ],
        ids=["eigenfunction", "measure", "transform"],
    )
    def test_theta_required_on_extension_family(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert main([*argv, "--kappa", "0.3", "--output", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --theta is required when |kappa| < 1\n"
        assert not out.exists()

    def test_bound_state_energy_decays(self, tmp_path):
        """At its own E_b (kappa = 0.3, theta = 0.7) the profile is the
        decaying K form out to r = 3, not the growing I terms' residue."""
        energy = bound_state_energy(ExtensionParams(0.3, 0.7))
        out = tmp_path / "bound.csv"
        code = main(
            [
                "eigenfunction",
                "--kappa", "0.3",
                "--theta", "0.7",
                "--energy", repr(energy),
                "--r", "1.5:3.0:4",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = [[float(f) for f in ln.split(",")] for ln in out.read_text().split("\n")[1:] if ln]
        k = math.sqrt(-energy)
        amplitude = -2.0 / math.pi * math.sin(0.7 - theta_kappa(0.3)) * k**0.3
        for r, u, _ in rows:
            assert u == pytest.approx(amplitude * math.sqrt(r) * sc.kv(0.3, k * r), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.001, math.pi - 0.001])
    def test_finite_past_the_double_range(self, tmp_path, theta):
        """kappa = 0 with an E_b out of the double range: there is no bound-state
        energy to meet, so E = 1 writes radial_kernel's values (measure exits 2)."""
        out = tmp_path / "eig.csv"
        argv = ["eigenfunction", "--kappa", "0", "--theta", repr(theta), "--energy", "1",
                "--r", "0.5:3:4", "--output", str(out)]
        assert main(argv) == EXIT_OK
        rows = np.array([ln.split(",") for ln in out.read_text().split("\n")[1:] if ln], float)
        assert np.array_equal(rows[:, 1], radial_kernel(0.0, theta, 1.0, rows[:, 0]))
        assert np.all(np.isfinite(rows))

    def test_axis_rejected(self, tmp_path):
        code = main(
            [
                "eigenfunction",
                "--kappa", "1.5",
                "--energy", "2.0",
                "--r", "0:1:8",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value", [("--energy", "nan"), ("--kappa", "nan"), ("--r", "0.5:nan:5")]
    )
    def test_non_finite_input_exits_2(self, tmp_path, capsys, flag, value):
        args = {"--kappa": "0.3", "--theta": "1.0", "--energy": "2.0", "--r": "0.5:2.0:5"}
        out = tmp_path / "x.csv"
        argv = ["eigenfunction", *(a for k, v in {**args, flag: value}.items() for a in (k, v))]
        assert main([*argv, "--output", str(out)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestMeasureCommand:
    def test_density_with_atom_comment(self, tmp_path):
        out = tmp_path / "measure.csv"
        code = main(
            [
                "measure",
                "--kappa", "0.3",
                "--theta", repr(math.pi / 2),
                "--energies", "0.5:10:20",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().split("\n")
        assert lines[0].startswith("# atom ")
        atom_energy = float(lines[0].split()[2])
        assert atom_energy == pytest.approx(-1.0, abs=1e-12)
        assert lines[1] == "E,density"

    def test_measure_csv_shape(self, tmp_path):
        out = tmp_path / "measure.csv"
        argv = ["measure", "--kappa", "0.3", "--theta", repr(math.pi / 2),
                "--energies", "0.5:1.0:2", "--output", str(out)]
        assert main(argv) == EXIT_OK
        lines = out.read_text().split("\n")
        assert lines[0].startswith("# atom ") and len(lines[0].split()) == 4
        assert lines[1:] == ["E,density", lines[2], lines[3], ""]
        assert [float(ln.split(",")[0]) for ln in lines[2:4]] == [0.5, 1.0]

    def test_non_finite_energy_range_exits_2(self, tmp_path):
        out = tmp_path / "measure.csv"
        argv = ["measure", "--kappa", "1.5", "--energies", "0:nan:3", "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("theta", [0.001, math.pi - 0.001])
    def test_bound_state_past_double_range_exits_2(self, tmp_path, capsys, theta):
        # at kappa = 0, E_b = -exp(pi cot theta) overflows near theta = 0
        # and underflows to -0.0 near pi
        out = tmp_path / "measure.csv"
        argv = ["measure", "--kappa", "0", "--theta", repr(theta), "--energies", "0:5:4",
                "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "double range" in capsys.readouterr().err
        assert not out.exists()


class TestBoundStatesCommand:
    def test_zero_flux_quarter_pi(self, tmp_path):
        # phi = 0: single critical channel m = 0 with kappa = 0; at theta =
        # pi/4 the bound state sits at E = -e^pi
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nphi = 0\n\n[theta]\n0 = {math.pi / 4!r}\n")
        out = tmp_path / "bound.csv"
        assert main(["bound-states", "--config", str(cfg), "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "m,kappa,E_b,weight,theta"
        m, kappa, energy, weight, theta = lines[1].split(",")
        assert (int(m), float(kappa)) == (0, 0.0)
        assert float(energy) == pytest.approx(-math.exp(math.pi), rel=1e-13)

    def test_reference_angles_empty(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nphi = 0.5\n\n[theta]\n"
            f"-1 = {theta_kappa(-0.5)!r}\n0 = {theta_kappa(0.5)!r}\n"
        )
        out = tmp_path / "bound.csv"
        assert main(["bound-states", "--config", str(cfg), "--output", str(out)]) == 0
        assert out.read_text().strip() == "m,kappa,E_b,weight,theta"

    def test_csv_format(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nphi = 0.5\n\n[theta]\n-1 = {math.pi / 2!r}\n0 = {math.pi / 2!r}\n")
        out = tmp_path / "bound.csv"
        assert main(["bound-states", "--config", str(cfg), "--output", str(out)]) == EXIT_OK
        lines = out.read_text().split("\n")
        assert lines[0] == "m,kappa,E_b,weight,theta"
        assert len(lines) == 4  # header + 2 rows + trailing newline
        assert [ln.split(",")[:2] for ln in lines[1:3]] == [["-1", "-0.5"], ["0", "0.5"]]


class TestTransformCommand:
    def test_named_family_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "coeffs.csv"
        code = main(
            [
                "transform",
                "--kappa", "0.3",
                "--theta", "1.0",
                "--family", "gauss:0.5:3",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "parseval_defect=" in printed and "roundtrip_defect=" in printed
        rt = float(printed.split("roundtrip_defect=")[1].split()[0])
        assert rt < 2e-6
        # theta = 1.0 sits on the bound-state branch, so the atom leads the CSV
        lines = out.read_text().split("\n")
        assert lines[0].startswith("# atom ")
        assert lines[1] == "E,re,im"

    def test_profile_csv_input(self, tmp_path):
        profile = tmp_path / "psi.csv"
        r = np.linspace(0.5, 3.0, 200)
        bump = ((r - 0.5) * (3.0 - r)) ** 3 * np.exp(-(((r - 1.75) / 0.5) ** 2))
        rows = ["r,re,im"] + [
            f"{float(ri)!r},{float(vi)!r},0.0" for ri, vi in zip(r, bump)
        ]
        profile.write_text("\n".join(rows) + "\n")
        out = tmp_path / "coeffs.csv"
        code = main(
            [
                "transform",
                "--kappa", "1.5",
                "--input", str(profile),
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        profile = tmp_path / "psi.csv"
        profile.write_text("r,re,im\n0.5,1.0,0.0\n0.6,oops,0.0\n")
        code = main(
            ["transform", "--kappa", "1.5", "--input", str(profile)]
        )
        assert code == EXIT_USAGE
        assert f"{profile}:3:" in capsys.readouterr().err

    def test_profile_csv_trapezoid_weights(self, tmp_path):
        # psi(r) = r on [1, 2]: ||psi||^2 = int r^2 dr = 7/3, and the trapezoid
        # rule with h = 0.01 overestimates it by exactly (b - a) h^2 (r^2)'' / 12
        profile = tmp_path / "psi.csv"
        r = np.linspace(1.0, 2.0, 101)
        rows = ["r,re,im"] + [f"{float(ri)!r},{float(ri)!r},0.0" for ri in r]
        profile.write_text("\n".join(rows) + "\n")
        psi = _read_profile_csv(str(profile))
        assert np.sum(psi.quad_weights) == pytest.approx(1.0, rel=1e-14)
        assert psi.quad_weights[0] == pytest.approx(0.005, rel=1e-12)
        assert psi.quad_weights[-1] == pytest.approx(0.005, rel=1e-12)
        assert psi.norm_sq() == pytest.approx(7.0 / 3.0 + 1.0 / 60000.0, rel=1e-13)

    def test_unsorted_csv_reports_line(self, tmp_path, capsys):
        profile = tmp_path / "psi.csv"
        r = [0.5, 0.6, 0.7, 0.65, 0.8, 0.9, 1.0, 1.1, 1.2]
        rows = ["r,re,im"] + [f"{ri!r},1.0,0.0" for ri in r]
        profile.write_text("\n".join(rows) + "\n")
        code = main(["transform", "--kappa", "1.5", "--input", str(profile)])
        assert code == EXIT_USAGE
        assert f"{profile}:5:" in capsys.readouterr().err
        with pytest.raises(UsageError, match="strictly increasing"):
            _read_profile_csv(str(profile))

    def test_coefficient_csv_lists_atom_first(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        argv = ["transform", "--kappa", "0.3", "--theta", repr(math.pi / 2),
                "--family", "gauss:0.5:3", "--output", str(out)]
        assert main(argv) == EXIT_OK
        lines = out.read_text().split("\n")
        atom = lines[0].split()
        assert atom[:2] == ["#", "atom"] and len(atom) == 6  # E_b, weight, re, im
        assert float(atom[2]) == pytest.approx(-1.0, abs=1e-12)
        assert lines[1] == "E,re,im"
        assert not any(ln.startswith("#") for ln in lines[1:])

    def test_nan_profile_sample_exits_2(self, tmp_path, capsys):
        profile = tmp_path / "psi.csv"
        rows = ["r,re,im"] + [f"{0.5 + 0.1 * i!r},{'nan' if i == 4 else '1.0'},0.0" for i in range(12)]
        profile.write_text("\n".join(rows) + "\n")
        out = tmp_path / "coeffs.csv"
        argv = ["transform", "--kappa", "1.5", "--input", str(profile), "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "parseval_defect" not in captured.out and "finite" in captured.err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path):
        code = main(
            ["transform", "--kappa", "1.5", "--input", str(tmp_path / "nope.csv")]
        )
        assert code == EXIT_USAGE

    def test_needs_family_or_input(self):
        assert main(["transform", "--kappa", "1.5"]) == EXIT_USAGE

    @pytest.mark.parametrize("family", ["blob:1:2", "gauss:2:1", "gauss:1"])
    def test_bad_family(self, family):
        assert main(["transform", "--kappa", "1.5", "--family", family]) == EXIT_USAGE

    def test_3d_requires_config(self):
        assert main(["transform", "--mode", "3d"]) == EXIT_USAGE

    @staticmethod
    def _transform_3d(tmp_path, run_lines):
        config = tmp_path / "field.ini"
        config.write_text(f"[run]\nphi = 0.5\n{run_lines}\n\n[theta]\n-1 = 1.0\n0 = 1.0\n")
        out = tmp_path / "field.csv"
        code = main(["transform", "--mode", "3d", "--config", str(config), "--output", str(out)])
        return code, out

    @pytest.mark.parametrize(
        "run_lines, key",
        [
            ("m_max = x", "m_max"),
            ("m_max = -1", "m_max"),
            ("n_p = 0", "n_p"),
            ("r_nodes = 2.5", "r_nodes"),
            ("field_m = 1.5", "field_m"),
            ("field_m = 4", "field_m"),  # outside the default m_max = 3: no channel holds it
            ("m_max = 1\nfield_m = -2", "field_m"),
            ("p_max = nan", "p_max"),
            ("p_max = 0", "p_max"),
            ("support_a = 0", "support_a"),
            ("support_a = 3.0\nsupport_b = 1.0", "support_b"),
            ("support_a = 3.0", "support_b"),  # the default support_b = 3.0 is not above it
        ],
    )
    def test_3d_bad_run_value_is_a_usage_error(self, tmp_path, capsys, run_lines, key):
        code, out = self._transform_3d(tmp_path, run_lines)
        assert code == EXIT_USAGE
        assert not out.exists()
        assert f"bad [run] {key} " in capsys.readouterr().err

    def test_3d_modes_past_64_are_transformed(self, tmp_path, capsys):
        # the reduction samples no angle, so no angle grid bounds the modes
        code, out = self._transform_3d(tmp_path, "m_max = 64\nfield_m = -64\nn_p = 2")
        assert code == EXIT_OK
        assert {line.split(",")[0] for line in out.read_text().split("\n")[1:] if line} == {"-64"}
        assert "parseval_defect=" in capsys.readouterr().out

    def test_3d_csv_header(self, tmp_path, capsys):
        # at theta = pi/2 each critical mode has one atom per p node; the
        # channel the field does not occupy is left out of the dump
        atom_lines = []
        for m in (-1, 0):
            run_lines = f"m_max = 1\nn_p = 16\nfield_m = {m}"
            config = tmp_path / "field.ini"
            config.write_text(
                f"[run]\nphi = 0.5\n{run_lines}\n\n[theta]\n"
                f"-1 = {math.pi / 2!r}\n0 = {math.pi / 2!r}\n"
            )
            out = tmp_path / f"field{m}.csv"
            argv = ["transform", "--mode", "3d", "--config", str(config), "--output", str(out)]
            assert main(argv) == EXIT_OK
            lines = out.read_text().split("\n")
            atoms = [ln for ln in lines if ln.startswith("# atom ")]
            assert lines[len(atoms)] == "m,p,E,re,im"
            assert all(ln.split()[2] == f"m={m}" and ln.split()[3][:2] == "p=" for ln in atoms)
            assert len({ln.split()[3] for ln in atoms}) == 16  # one per p node
            assert {ln.split(",")[0] for ln in lines[len(atoms) + 1 : -1]} == {str(m)}
            atom_lines += atoms
        assert len(atom_lines) == 2 * 16  # two critical modes x 16 p nodes

    def test_3d_run_values_override_the_grid(self, tmp_path, capsys):
        run_lines = "support_a = 0.6\nsupport_b = 2.5\nfield_m = 1\nm_max = 1\np_max = 4\nn_p = 8"
        code, out = self._transform_3d(tmp_path, run_lines + "\nr_nodes = 16")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines() if line[:1].isdigit()]
        assert rows and {row[0] for row in rows} == {"1"}


class TestVerifyCommand:
    CONTROLS = {"negative_control_atom_dropped", "negative_control_deficit_matches_atom"}

    def _control_ids(self, tmp_path, *flags):
        config = tmp_path / "suite.ini"
        config.write_text(
            "[run]\nphi = 0.5\nkappas = 1.5\nphis = 0.5\n\n[theta]\n-1 = 1.0\n0 = 1.0\n"
        )
        report = tmp_path / "report.json"
        argv = ["verify", "--config", str(config), "--report", str(report), *flags]
        assert main(argv) == EXIT_OK
        return {r["check_id"] for r in json.loads(report.read_text())} & self.CONTROLS

    def test_negative_controls_default_on(self, tmp_path, capsys):
        assert self._control_ids(tmp_path) == self.CONTROLS
        assert main(["verify", "--no-negative-controls"]) == EXIT_USAGE  # the controls always run
        assert main(["verify", "--negative-controls"]) == EXIT_USAGE  # no such flag
        assert main(["verify", "--no-atoms"]) == EXIT_USAGE  # the control job is the one atom switch


    def _run(self, tmp_path, run_lines):
        config = tmp_path / "suite.ini"
        config.write_text(f"[run]\nphi = 0.5\n{run_lines}\n\n[theta]\n-1 = 1.0\n0 = 1.0\n")
        report = tmp_path / "report.json"
        code = main(["verify", "--config", str(config), "--report", str(report)])
        return code, report

    @pytest.mark.parametrize(
        "run_lines, key, entry",
        [
            ("kappas = 1.5,x", "kappas", "x"),
            ("kappas = 1.5\nthetas = 1.0,,2.0", "thetas", ""),
            ("kappas = 1.5\nphis = 0.5;0.3", "phis", "0.5;0.3"),
            ("kappas = nan\nphis = inf", "kappas", "nan"),
            ("kappas = 1.5\nthetas = 1.0, -inf", "thetas", "-inf"),
            ("kappas = 1.5\nphis = 0.5,inf", "phis", "inf"),
        ],
    )
    def test_malformed_list_entry_is_a_usage_error(self, tmp_path, capsys, run_lines, key, entry):
        code, report = self._run(tmp_path, run_lines)
        assert code == EXIT_USAGE
        assert not report.exists()
        err = capsys.readouterr().err
        assert key in err and repr(entry) in err

    def test_empty_phis_asks_for_no_3d_checks(self, tmp_path, capsys):
        code, report = self._run(tmp_path, "kappas = 1.5\nphis =")
        assert code == EXIT_OK
        ids = {r["check_id"] for r in json.loads(report.read_text())}
        assert "unitarity_parseval" in ids
        assert not {i for i in ids if i.startswith("threed_")}


class TestArgparseBehavior:
    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
