"""Command-line surface: outputs, formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import phasebound
from phasebound.cli import _fmt, _fmt_join, build_parser, main, parse_dk_list
from conftest import TWO_PI

PI_TEXT = "3.141592653589793"
TWO_PI_TEXT = "6.283185307179586"


def schema(name):
    return json.loads((files("phasebound") / "schemas" / name).read_text())


def kv_output(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [r.split(",") for r in rows]


class TestBound:
    def test_two_by_two_anchor(self, capsys):
        assert main(["bound", "--dalpha", PI_TEXT, "--dk", "1"]) == 0
        out = kv_output(capsys)
        assert float(out["lambda0"]) == pytest.approx(0.81830988618379067, abs=1e-14)
        assert float(out["xi"]) == pytest.approx(1.0, abs=1e-15)
        assert float(out["cauchy_bound"]) == 1.0
        re = [float(v) for v in out["optimal_state_re"].split(",")]
        assert np.allclose(re, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12)

    def test_identity_kernel(self, capsys):
        assert main(["bound", "--dalpha", TWO_PI_TEXT, "--dk", "5"]) == 0
        assert float(kv_output(capsys)["lambda0"]) == 1.0

    def test_domain_error_exit_code(self, capsys):
        assert main(["bound", "--dalpha", "-1", "--dk", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_verify_runs_oracles(self, capsys):
        assert main(["bound", "--dalpha", "2.0", "--dk", "3", "--verify"]) == 0
        out = kv_output(capsys)
        assert float(out["verify_attainment_residual"]) < 1e-10
        assert out["verify_power_converged"] == "true"
        assert float(out["verify_power_delta"]) <= 1e-9

    def test_verify_identity_skips_power_comparison(self, capsys):
        assert main(["bound", "--dalpha", TWO_PI_TEXT, "--dk", "2", "--verify"]) == 0
        assert "verify_power_note" in kv_output(capsys)

    def test_verify_small_gap_runs_comparison(self, capsys):
        # xi = 8: the top gap is about 1e-8, yet the Lanczos oracle converges
        # within its product budget and agrees with the eigensolve
        argv = ["bound", "--dalpha", "0.2500770271514263", "--dk", "200", "--verify"]
        assert main(argv) == 0
        out = kv_output(capsys)
        assert out["verify_power_converged"] == "true"
        assert float(out["verify_power_delta"]) <= 1e-9
        assert "verify_power_note" not in out

    def test_verify_product_budget(self, capsys):
        # xi = 256: the oracle runs out of its 64 products and the comparison
        # is skipped on its own flag
        argv = ["bound", "--dalpha", repr(TWO_PI * 256 / 1001), "--dk", "1000", "--verify"]
        assert main(argv) == 0
        out = kv_output(capsys)
        assert out["verify_power_iterations"] == "64"
        assert out["verify_power_converged"] == "false"
        assert out["verify_power_note"] == "comparison skipped: gap-degenerate or slow"
        assert "verify_power_delta" not in out

    @pytest.mark.parametrize("dk", [20000, 100000])
    def test_verify_large_dk(self, capsys, dk):
        dalpha = repr(TWO_PI * 2.5 / (dk + 1))
        assert main(["bound", "--dalpha", dalpha, "--dk", str(dk), "--verify"]) == 0
        out = kv_output(capsys)
        assert out["verify_power_converged"] == "true"
        assert float(out["verify_power_delta"]) <= 1e-9
        assert float(out["verify_attainment_residual"]) <= 1e-10

    def test_verify_builds_no_square_matrix(self, capsys):
        dk = 4000  # a dense kernel would need 128 MB
        argv = ["bound", "--dalpha", repr(TWO_PI * 2.5 / (dk + 1)), "--dk", str(dk), "--verify"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kv_output(capsys)["verify_power_converged"] == "true"
        assert peak < 8 * 2**20

    def test_verify_solves_top_pair_once(self, capsys, monkeypatch):
        # one eigensolve per operation: the oracle alone decides a skip
        import phasebound.kernel as kernel

        calls = []
        solve = kernel.leading_eigenpair

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(kernel, "leading_eigenpair", counted)
        rng = np.random.default_rng(41)
        for count in range(1, 11):
            dk, xi = int(rng.integers(800, 1200)), rng.uniform(0.5, 2.5)
            argv = ["bound", "--dalpha", repr(TWO_PI * xi / (dk + 1)), "--dk", str(dk), "--verify"]
            assert main(argv) == 0
            assert float(kv_output(capsys)["verify_power_delta"]) <= 1e-9
            assert len(calls) == count

    def test_degrees(self, capsys):
        assert main(["bound", "--dalpha", "180", "--dk", "1", "--degrees"]) == 0
        out = kv_output(capsys)
        assert float(out["lambda0"]) == pytest.approx(0.5 + 1.0 / np.pi, abs=1e-12)

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        import phasebound.cli as cli
        from phasebound import ConvergenceFailureError

        def boom(dalpha, dk):
            raise ConvergenceFailureError("synthetic")

        monkeypatch.setattr(cli, "least_upper_bound", boom)
        assert main(["bound", "--dalpha", "1.0", "--dk", "1"]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCurve:
    def run(self, tmp_path, *extra, name="c.csv"):
        out = tmp_path / name
        argv = [
            "curve", "--dk", "0,1,3,inf",
            "--xi-start", "0", "--xi-stop", "1", "--xi-step", "0.25",
            "--output", str(out), *extra,
        ]
        assert main(argv) == 0
        return out

    def test_header_and_dk0_line(self, tmp_path, capsys):
        out = self.run(tmp_path)
        header, rows = read_csv(out)
        assert header == ["xi", "dk", "dalpha", "lambda0", "cauchy_bound", "asym_error", "note"]
        for cells in rows:
            if cells[1] == "0":
                assert float(cells[3]) == float(cells[0])  # lambda0 == xi on dk=0

    def test_ordering_between_curves(self, tmp_path, capsys):
        out = self.run(tmp_path)
        _, rows = read_csv(out)
        lam = {(c[1], c[0]): float(c[3]) for c in rows if c[3]}
        assert lam[("1", "1")] > lam[("3", "1")] > lam[("inf", "1")]

    def test_rows_in_dk_xi_order(self, tmp_path, capsys):
        out = self.run(tmp_path)
        _, rows = read_csv(out)
        keys = [(c[1], float(c[0])) for c in rows]
        order = {"0": 0, "1": 1, "3": 3, "inf": math.inf}
        assert keys == sorted(keys, key=lambda t: (order[t[0]], t[1]))

    def test_float_cells_round_trip(self, tmp_path, capsys):
        out = self.run(tmp_path)
        _, rows = read_csv(out)
        for cells in rows:
            for cell in cells[:-1]:
                if cell:
                    assert format(float(cell), ".17g") == cell

    def test_byte_determinism(self, tmp_path, capsys):
        a = self.run(tmp_path, name="a.csv").read_bytes()
        b = self.run(tmp_path, name="b.csv").read_bytes()
        assert a == b

    def test_determinism_across_thread_caps(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PHASEBOUND_THREADS", "1")
        serial = self.run(tmp_path, name="serial.csv").read_bytes()
        monkeypatch.setenv("PHASEBOUND_THREADS", "4")
        parallel = self.run(tmp_path, name="parallel.csv").read_bytes()
        assert serial == parallel

    def test_skipped_rows_flagged(self, tmp_path, capsys):
        out = tmp_path / "skip.csv"
        argv = [
            "curve", "--dk", "0", "--xi-start", "0", "--xi-stop", "2",
            "--xi-step", "1", "--output", str(out),
        ]
        assert main(argv) == 0
        assert "skipped" in capsys.readouterr().err
        _, rows = read_csv(out)
        flagged = [c for c in rows if c[-1]]
        assert len(flagged) == 1 and flagged[0][0] == "2" and flagged[0][3] == ""

    def test_json_format_validates(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        argv = [
            "curve", "--dk", "0,inf", "--xi-start", "0", "--xi-stop", "1",
            "--xi-step", "0.5", "--format", "json", "--output", str(out),
        ]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, schema("curve.schema.json"))
        inf_rows = [r for r in doc["rows"] if r["dk"] == "inf"]
        assert all(r["asym_error"] is not None for r in inf_rows)

    def test_x_axis_dalpha(self, tmp_path, capsys):
        out = self.run(tmp_path, "--x-axis", "dalpha", name="d.csv")
        header, _ = read_csv(out)
        assert header[:3] == ["dalpha", "dk", "xi"]

    def test_gnuplot_script(self, tmp_path, capsys):
        out = self.run(tmp_path, "--gnuplot", str(tmp_path / "c.gp"))
        script = (tmp_path / "c.gp").read_text()
        assert out.name in script
        assert "dk=inf" in script

    def test_config_file_presets(self, tmp_path, capsys):
        cfg = tmp_path / "curve.cfg"
        out = tmp_path / "from_config.csv"
        cfg.write_text(
            "# preset grid\n"
            "dk = 0,1\n"
            "xi_start = 0\n"
            "xi_stop = 0.5\n"
            "xi_step = 0.25\n"
            f"output = {out}\n"
        )
        assert main(["curve", "--config", str(cfg)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 6  # two dk values x three xi points

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "curve.cfg"
        cfg.write_text("dk = 0,1,2,3\nxi_stop = 4\n")
        out = tmp_path / "o.csv"
        argv = [
            "curve", "--config", str(cfg), "--dk", "0",
            "--xi-start", "0", "--xi-stop", "0.5", "--xi-step", "0.5",
            "--output", str(out),
        ]
        assert main(argv) == 0
        _, rows = read_csv(out)
        assert {c[1] for c in rows} == {"0"}

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a setting\n")
        assert main(["curve", "--config", str(cfg), "--output", "x.csv"]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        # a misspelt key is refused, not silently replaced by its default
        cfg = tmp_path / "typo.cfg"
        out = tmp_path / "o.csv"
        cfg.write_text(f"dk = 0\nxi_stpo = 1\noutput = {out}\n")
        assert main(["curve", "--config", str(cfg)]) == 2
        assert f"{cfg}:2: unknown key 'xi_stpo'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output(self, capsys):
        assert main(["curve", "--dk", "0"]) == 2

    def test_parse_dk_list(self):
        assert parse_dk_list("3,0,inf,1") == (0.0, 1.0, 3.0, math.inf)
        with pytest.raises(Exception):
            parse_dk_list("2.5")


class TestDistribution:
    def write_state(self, tmp_path, re, im, offset=0):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"offset": offset, "re": re, "im": im}))
        return path

    def test_vacuum_constant_density(self, tmp_path, capsys):
        st = self.write_state(tmp_path, [1.0], [0.0])
        out = tmp_path / "d.csv"
        argv = [
            "distribution", "--state", str(st), "--dalpha", "1.0",
            "--points", "16", "--output", str(out),
        ]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert header == ["phi", "density"]
        assert len(rows) == 16
        assert all(float(c[1]) == pytest.approx(1.0 / TWO_PI, abs=1e-14) for c in rows)

    def test_equal_pair_density_profile(self, tmp_path, capsys):
        st = self.write_state(tmp_path, [1.0, 1.0], [0.0, 0.0])
        out = tmp_path / "d.csv"
        argv = [
            "distribution", "--state", str(st), "--dalpha", PI_TEXT,
            "--points", "8", "--output", str(out),
        ]
        assert main(argv) == 0
        _, rows = read_csv(out)
        for cells in rows:
            phi, dens = float(cells[0]), float(cells[1])
            assert dens == pytest.approx((1.0 + np.cos(phi)) / TWO_PI, abs=1e-12)
        at_zero = [float(c[1]) for c in rows if float(c[0]) == 0.0]
        assert at_zero == [pytest.approx(1.0 / np.pi, abs=1e-14)]

    def test_sidecar_probability(self, tmp_path, capsys):
        st = self.write_state(tmp_path, [1.0, 1.0], [0.0, 0.0])
        out = tmp_path / "d.csv"
        argv = [
            "distribution", "--state", str(st), "--dalpha", PI_TEXT,
            "--points", "4", "--output", str(out),
        ]
        assert main(argv) == 0
        sidecar = json.loads((tmp_path / "d.csv.json").read_text())
        jsonschema.validate(sidecar, schema("distribution_sidecar.schema.json"))
        assert sidecar["probability"] == pytest.approx(
            (np.pi + 2.0) / TWO_PI, abs=1e-12
        )

    def test_zero_state_exit_code(self, tmp_path, capsys):
        st = self.write_state(tmp_path, [0.0, 0.0], [0.0, 0.0])
        argv = [
            "distribution", "--state", str(st), "--dalpha", "1.0",
            "--output", str(tmp_path / "d.csv"),
        ]
        assert main(argv) == 2

    def test_malformed_state_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = [
            "distribution", "--state", str(bad), "--dalpha", "1.0",
            "--output", str(tmp_path / "d.csv"),
        ]
        assert main(argv) == 2

    def test_boolean_offset_exit_code(self, tmp_path, capsys):
        # the state schema counts no boolean as an integer
        st = self.write_state(tmp_path, [1.0, 1.0], [0.0, 0.0], offset=True)
        argv = [
            "distribution", "--state", str(st), "--dalpha", "1.0",
            "--output", str(tmp_path / "d.csv"),
        ]
        assert main(argv) == 2
        assert not (tmp_path / "d.csv").exists()

    def test_oversized_integer_amplitude_exit_code(self, tmp_path, capsys):
        # a valid JSON number, but beyond the float range
        st = self.write_state(tmp_path, [10**400], [0])
        argv = [
            "distribution", "--state", str(st), "--dalpha", "1.0",
            "--output", str(tmp_path / "d.csv"),
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: amplitudes must be finite\n"

    def test_missing_state_file(self, tmp_path, capsys):
        argv = [
            "distribution", "--state", str(tmp_path / "absent.json"),
            "--dalpha", "1.0", "--output", str(tmp_path / "d.csv"),
        ]
        assert main(argv) == 2

    def test_state_schema_accepts_package_output(self):
        from phasebound import FockState

        doc = FockState([1.0, 2.0j], offset=1).to_json()
        jsonschema.validate(doc, schema("state.schema.json"))


class TestSpectrum:
    def test_discrete_rows(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--dalpha", PI_TEXT, "--dk", "1", "--output", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert header == ["index", "eigenvalue"]
        assert float(rows[0][1]) == pytest.approx(0.81830988618379067, abs=1e-14)
        assert float(rows[1][1]) == pytest.approx(0.18169011381620933, abs=1e-14)

    def test_identity_rows(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--dalpha", TWO_PI_TEXT, "--dk", "2", "--output", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out)
        assert [float(c[1]) for c in rows] == [1.0, 1.0, 1.0]

    def test_continuum_trace(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--xi", "1", "--nodes", "64", "--output", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert header == ["index", "eigenvalue", "nodes"]
        assert all(c[2] == "64" for c in rows)
        assert sum(float(c[1]) for c in rows) == pytest.approx(1.0, abs=1e-10)

    def test_continuum_odd_node_count(self, tmp_path, capsys):
        # an odd count puts the middle node z = 0 in the even parity block
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--xi", "1", "--nodes", "65", "--output", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out)
        assert [int(c[0]) for c in rows] == list(range(65))
        assert all(c[2] == "65" for c in rows)
        vals = np.array([float(c[1]) for c in rows])
        assert np.all(np.diff(vals) <= 0.0)
        assert vals.sum() == pytest.approx(1.0, abs=1e-10)
        assert vals[0] == pytest.approx(0.7833687892100014, abs=1e-12)

    def test_continuum_matches_library_spectrum(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--xi", "1.7", "--nodes", "1024", "--output", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out)
        vals = np.array([float(c[1]) for c in rows])
        library = phasebound.nystrom_eigenvalues(1.7, 1024)
        assert np.max(np.abs(vals - library)) <= 4e-15
        assert np.all(np.diff(vals) <= 0.0)

    def test_discrete_matches_dense_eigvalsh(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["spectrum", "--dalpha", "2.0", "--dk", "65", "--output", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out)
        vals = np.array([float(c[1]) for c in rows])
        dense = np.sort(np.linalg.eigvalsh(phasebound.build_kernel(2.0, 65).entries))[::-1]
        assert np.max(np.abs(vals - dense)) <= 1e-14

    def test_both_forms_rejected(self, tmp_path, capsys):
        argv = [
            "spectrum", "--dalpha", "1", "--dk", "1", "--xi", "1",
            "--output", str(tmp_path / "s.csv"),
        ]
        assert main(argv) == 2

    def test_neither_form_rejected(self, tmp_path, capsys):
        assert main(["spectrum", "--output", str(tmp_path / "s.csv")]) == 2

    def test_half_specified_discrete_rejected(self, tmp_path, capsys):
        argv = ["spectrum", "--dalpha", "1", "--output", str(tmp_path / "s.csv")]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--xi", "-1"], "xi -1.0 must be finite and >= 0"),
            (["--xi", "nan"], "xi nan must be finite and >= 0"),
            (["--xi", "1", "--nodes", "1"], "nodes 1 must be an integer >= 2"),
            (["--nodes", "64"], "the continuum form needs --xi"),
        ],
        ids=["negative-xi", "nan-xi", "one-node", "no-xi"],
    )
    def test_continuum_input_rejected(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s.csv"
        assert main(["spectrum", *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_repeated_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is shared between calls and carries nothing from one to the next
    src = str(Path(phasebound.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from phasebound.cli import main; sys.exit(main(sys.argv[1:]))"

    def runs(tag):
        bound = ["bound", "--dalpha", "1.5", "--dk", "40", "--verify"]
        spectrum = ["spectrum", "--dalpha", "1.0", "--dk", "30", "--output", str(tmp_path / tag)]
        return [bound, spectrum, bound]

    for argv, fresh_argv in zip(runs("in_process.csv"), runs("fresh.csv")):
        assert main(argv) == 0
        fresh = subprocess.run(
            [sys.executable, "-c", code, *fresh_argv], env=env, capture_output=True, text=True, check=True
        )
        assert capsys.readouterr().out == fresh.stdout
    assert (tmp_path / "in_process.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_cli_import_loads_no_scipy():
    src = str(Path(phasebound.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import phasebound.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_joined_format_matches_fmt():
    # bound, spectrum and distribution format whole lists with one % call
    special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, 1 / 3]
    rng = np.random.default_rng(11)
    drawn = rng.normal(size=2000) * 10.0 ** rng.integers(-300, 300, size=2000)
    values = special + drawn.tolist()
    assert _fmt_join(values) == ",".join(_fmt(v) for v in values)
    # the printf form gives the bytes of Python's own format
    assert [_fmt(v) for v in values] == [format(v, ".17g") for v in values]
