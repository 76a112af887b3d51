"""Tests for the command-line front end."""

import ast
import contextlib
import importlib
import io
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qtelarray import cli
from qtelarray.imaging import qft_image_diagonal
from qtelarray.source import (
    ArrayGeometry,
    IntensityDistribution,
    visibility_from_intensity,
)


def run_to_file(tmp_path, argv, name="out.txt"):
    path = tmp_path / name
    code = cli.main(argv + ["--output", str(path)])
    return code, path.read_bytes()


class TestConfigHandling:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        code = cli.main(["encode", "--set", "bogus=1"])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_value_exits_2(self, capsys):
        assert cli.main(["encode", "--set", "M=0"]) == 2
        assert cli.main(["encode", "--set", "M=2.5"]) == 2
        assert cli.main(["imaging", "--set", "shots=0"]) == 2

    def test_missing_config_file_exits_2(self, capsys):
        assert cli.main(["encode", "--config", "/nonexistent.cfg"]) == 2

    @pytest.mark.parametrize("command, setting", [
        ("encode", "M=inf"),
        ("encode", "M=1e400"),
        ("imaging", "N=inf"),
        ("formulas", "trials=inf"),
    ])
    def test_overflowing_integer_exits_2(self, command, setting, capsys):
        assert cli.main([command, "--set", setting]) == 2
        assert "config key" in capsys.readouterr().err

    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run\nM = 16\nR=4\nN = 2\neps = 0.01\nlayout = parallel\n"
            "seed = 7\n"
        )
        code, body = run_to_file(tmp_path, ["encode", "--config", str(cfg)])
        assert code == 0
        assert (b"# config: M=16 N=2 R=4 eps=0.01 layout=parallel seed=7\n"
                in body)

    @pytest.mark.parametrize(
        "text",
        [
            "M = 5\nQ = 3\n",            # unknown key
            "M = 5\nM = 6\n",            # duplicate
            "M five\n",                  # no equals sign
            "eps = small\n",             # uncoercible value
        ],
    )
    def test_bad_config_file_exits_2(self, tmp_path, text, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert cli.main(["encode", "--config", str(cfg)]) == 2
        assert "qtelarray encode:" in capsys.readouterr().err

    def test_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("M = 3\nR = 1\n# comment\n")
        code, body = run_to_file(
            tmp_path, ["encode", "--config", str(cfg), "--set", "M=4"]
        )
        assert code == 0
        text = body.decode()
        assert "M=4" in text and "R=1" in text
        # 4 codewords -> 4 data rows after the header block
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 1 + 4

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestEncodeCommand:
    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    def test_roundtrips_all_pass(self, tmp_path, layout):
        code, body = run_to_file(
            tmp_path,
            ["encode", "--set", f"layout={layout}", "--set", "M=3",
             "--set", "R=2"],
        )
        assert code == 0
        rows = [
            l.split(",") for l in body.decode().splitlines()
            if l and not l.startswith("#") and not l.startswith("m,")
        ]
        assert len(rows) == 6
        for m, r, dm, dr, checks, ok in rows:
            assert (m, r) == (dm, dr)
            assert ok == "1"

    def test_header_reports_footprint(self, tmp_path):
        code, body = run_to_file(
            tmp_path,
            ["encode", "--set", "M=16", "--set", "R=4",
             "--set", "layout=parallel"],
        )
        assert code == 0
        assert b"memory_qubits_per_site: 27" in body

    @pytest.mark.parametrize("settings, message", [
        (["N=1e300"], "N = 10"),
        (["N=1e20"], "N = 100000000000000000000: "),
        (["M=1e300"], "ENCODE_ROUNDTRIPS_MAX = 1048576"),
        (["R=1e18"], "M * R = 5 * 1000000000000000000 round trips exceeds "),
        (["M=100000", "R=100000"], "M * R = 100000 * 100000 round trips"),
    ])
    def test_oversized_settings_exit_2(self, settings, message, capsys):
        argv = ["encode"]
        for setting in settings:
            argv += ["--set", setting]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qtelarray encode: ") and message in err

    def test_roundtrip_limit_is_checked_before_the_loop(self, monkeypatch,
                                                         capsys):
        monkeypatch.setattr(cli, "ENCODE_ROUNDTRIPS_MAX", 6)
        assert cli.main(["encode", "--set", "M=3", "--set", "R=2"]) == 0
        assert cli.main(["encode", "--set", "M=7", "--set", "R=1"]) == 2
        assert "M * R = 7 * 1 round trips exceeds" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["encode", "--set", "M=4", "--set", "seed=7"]
        _, first = run_to_file(tmp_path, argv, "a.txt")
        _, second = run_to_file(tmp_path, argv, "b.txt")
        assert first == second


class TestImagingCommand:
    def test_point_source_exact_rows(self, tmp_path):
        code, body = run_to_file(
            tmp_path,
            ["imaging", "--set", "N=4", "--set", "source=point:2",
             "--set", "shots=3000"],
        )
        assert code == 0
        lines = body.decode().splitlines()
        header = [l for l in lines if l.startswith("j,")][0]
        assert header == ("j,y_j,I_true,I_hat_qft,var_qft,"
                          "I_hat_classical,var_classical")
        rows = [l.split(",") for l in lines
                if l and not l.startswith(("#", "j,"))]
        assert len(rows) == 4
        # a grid point source is sampled without any variance
        assert float(rows[2][2]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[2][3]) == pytest.approx(1.0, abs=1e-12)
        assert all(float(r[4]) == 0.0 for r in rows)

    def test_true_column_matches_library(self, tmp_path):
        weights = "0.6,0.2,0.1,0.1"
        code, body = run_to_file(
            tmp_path,
            ["imaging", "--set", f"source={weights}", "--set", "shots=500",
             "--set", "seed=3"],
        )
        assert code == 0
        vis = visibility_from_intensity(
            IntensityDistribution.on_grid(4, 1.0, [0.6, 0.2, 0.1, 0.1]),
            ArrayGeometry(4, 1.0),
        )
        want = qft_image_diagonal(vis)
        rows = [l.split(",") for l in body.decode().splitlines()
                if l and not l.startswith(("#", "j,"))]
        got = np.array([float(r[2]) for r in rows])
        assert np.allclose(got, want, atol=1e-10)

    def test_bad_sources_exit_2(self):
        assert cli.main(["imaging", "--set", "source=point:9"]) == 2
        assert cli.main(["imaging", "--set", "source=0.5,0.5,0.5"]) == 2
        assert cli.main(["imaging", "--set", "source=widefield"]) == 2
        for bad in ("-1,1,1,1", "0,0,0,0", "nan,1,1,1", "inf,1,1,1",
                    "1e308,1e308,0,0"):
            assert cli.main(["imaging", "--set", f"source={bad}"]) == 2, bad

    @pytest.mark.parametrize("bad", [
        "d=0", "d=-1", "d=nan", "d=inf", "quadratures=bogus",
        "sampler=bogus", "seed=-1", "d=1e-320", "d=1e308", "d=5e307",
        "shots=1e300",
    ])
    def test_bad_settings_exit_2(self, bad, capsys):
        assert cli.main(["imaging", "--set", bad]) == 2
        assert "qtelarray imaging:" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["imaging", "--set", "shots=2000", "--set", "seed=11",
                "--set", "source=0.5,0.3,0.1,0.1"]
        _, first = run_to_file(tmp_path, argv, "a.txt")
        _, second = run_to_file(tmp_path, argv, "b.txt")
        assert first == second

    def test_failing_route_check_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "qft_image_diagonal", lambda vis: np.zeros(4)
        )
        code = cli.main(["imaging", "--set", "shots=100",
                         "--output", str(tmp_path / "x.txt")])
        assert code == 3
        assert "consistency check failed" in capsys.readouterr().err


class TestTransferCommand:
    def test_sweep_rows(self, tmp_path):
        code, body = run_to_file(
            tmp_path,
            ["transfer", "--set", "alpha_max=1.0", "--set", "alpha_step=0.25"],
        )
        assert code == 0
        rows = [l.split(",") for l in body.decode().splitlines()
                if l and not l.startswith(("#", "alpha,"))]
        assert len(rows) == 5
        alphas = [float(r[0]) for r in rows]
        assert alphas == [0.0, 0.25, 0.5, 0.75, 1.0]
        # deterministic fidelity grows along the sweep, acceptance too
        f = [float(r[1]) for r in rows]
        assert f[0] == pytest.approx(0.5, abs=1e-12)
        assert all(b > a for a, b in zip(f, f[1:]))
        assert float(rows[0][3]) == 0.0 and float(rows[-1][3]) == 1.0

    def test_lossy_rows(self, tmp_path):
        code, body = run_to_file(
            tmp_path, ["transfer", "--set", "mode=lossy"]
        )
        assert code == 0
        rows = [l.split(",") for l in body.decode().splitlines()
                if l and not l.startswith(("#", "eta,"))]
        assert len(rows) == 10
        last = rows[-1]
        assert float(last[0]) == 1.0
        assert float(last[1]) == pytest.approx(1.0, abs=1e-10)
        assert float(last[2]) == pytest.approx(0.5, abs=1e-10)

    def test_bad_mode_and_grid_exit_2(self):
        assert cli.main(["transfer", "--set", "mode=warp"]) == 2
        assert cli.main(["transfer", "--set", "alpha_step=0"]) == 2
        assert cli.main(["transfer", "--set", "mode=lossy",
                         "--set", "eta_max=1.5"]) == 2
        for bad in ("alpha_step=nan", "alpha_max=inf", "alpha_min=-3",
                    "alpha_min=-0.5"):
            assert cli.main(["transfer", "--set", bad]) == 2, bad
        for bad in ("eta_step=nan", "eta_min=-0.5"):
            assert cli.main(["transfer", "--set", "mode=lossy",
                             "--set", bad]) == 2, bad

    def test_alpha_past_closed_form_limit_exits_2(self, capsys):
        code = cli.main(["transfer", "--set", "alpha_min=1e6",
                         "--set", "alpha_max=1e6"])
        assert code == 2
        err = capsys.readouterr().err
        assert "past the range of the closed forms" in err
        assert "1000000.0" in err

    @pytest.mark.parametrize("sets, message", [
        # the point counts overflow before numpy is asked for the array
        (["alpha_max=1e308"],
         "alpha grid [0.0, 1e+308] with alpha_step = 0.05 has inf points, "
         "more than GRID_POINTS_MAX = 1048576"),
        (["mode=lossy", "eta_max=1e308", "eta_step=1e-300"],
         "eta grid [0.1, 1e+308] with eta_step = 1e-300 has inf points, "
         "more than GRID_POINTS_MAX = 1048576"),
        # rounding to 10 decimals overflows every point but 0
        (["alpha_max=1e300", "alpha_step=1e299"],
         "alpha grid [0.0, 1e+300] with alpha_step = 1e+299 is empty, not "
         "finite or not strictly increasing"),
        # rounding merges all eleven points into 0
        (["alpha_max=1e-320", "alpha_step=1e-321"],
         "alpha grid [0.0, 1e-320] with alpha_step = 1e-321 is empty, not "
         "finite or not strictly increasing"),
        # distinct points that print alike at 12 digits
        (["alpha_min=100", "alpha_max=100.000000001", "alpha_step=1e-10"],
         "alpha grid [100.0, 100.000000001] with alpha_step = 1e-10 is "
         "empty, not finite or not strictly increasing"),
        # alpha ** 2 past the float range
        (["alpha_max=1e298", "alpha_step=1e297"],
         "ancilla amplitude 1e+297 must be >= 0 and at most ALPHA_MAX = "
         "1.34078e+154"),
    ], ids=["alpha-count", "eta-count", "overflow", "merged", "printed",
            "alpha-squared"])
    def test_malformed_grid_exits_2(self, sets, message, capsys):
        argv = ["transfer"] + [a for s in sets for a in ("--set", s)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qtelarray transfer: {message}")
        assert err.count("\n") == 1

    def test_grid_cap_counts_points(self, monkeypatch):
        monkeypatch.setattr(cli, "GRID_POINTS_MAX", 10)
        assert cli._grid(0.0, 9.0, 1.0, "alpha").size == 10
        with pytest.raises(cli.ConfigError, match="GRID_POINTS_MAX = 10"):
            cli._grid(0.0, 10.0, 1.0, "alpha")

    def test_grid_stays_inside_its_bounds(self):
        # rounding to 10 decimals would put the first point below lo
        lo = 0.12345678901234
        pts = cli._grid(lo, 0.2, 0.05, "alpha")
        assert pts[0] == lo and pts.tolist() == sorted(set(pts.tolist()))

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["transfer", "--set", "alpha_max=0.5"]
        _, first = run_to_file(tmp_path, argv, "a.txt")
        _, second = run_to_file(tmp_path, argv, "b.txt")
        assert first == second


class TestFormulasCommand:
    def test_report_values(self, tmp_path):
        code, body = run_to_file(
            tmp_path,
            ["formulas", "--set", "N=4", "--set", "p1=0.5",
             "--set", "f2=0.75"],
        )
        assert code == 0
        text = body.decode()
        got = {
            line.split(" = ")[0]: float(line.split(" = ")[1])
            for line in text.splitlines() if " = " in line
        }
        # hand values at p1 = 1/2: q (1 + p q^2) = 9/16
        assert got["p_fail"] == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert got["fidelity"] == pytest.approx(0.625, abs=1e-12)
        total = sum(v for k, v in got.items() if k.startswith("p_pair_"))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_check_passes(self, tmp_path):
        code, body = run_to_file(
            tmp_path,
            ["formulas", "--set", "trials=20000", "--set", "seed=5"],
        )
        assert code == 0
        assert b"mc_z = " in body

    def test_degenerate_p1_exits_2(self):
        assert cli.main(["formulas", "--set", "p1=0"]) == 2
        assert cli.main(["formulas", "--set", "N=1"]) == 2

    @pytest.mark.parametrize("bad", ["f2=nan", "f2=1.5", "f2=-0.1",
                                     "seed=-1", "trials=-5"])
    def test_bad_fidelity_and_seed_exit_2(self, bad):
        assert cli.main(["formulas", "--set", bad]) == 2

    @pytest.mark.parametrize("trials", ["1e19", "1e300",
                                        "9223372036854775808"])
    def test_trials_past_numpy_size_exit_2(self, trials, capsys):
        assert cli.main(["formulas", "--set", f"trials={trials}"]) == 2
        assert capsys.readouterr().err == (
            f"qtelarray formulas: trials = {int(float(trials))} exceeds "
            f"numpy's largest array size, {np.iinfo(np.intp).max}\n")

    def test_too_many_sites_exits_2(self, capsys):
        assert cli.main(["formulas", "--set", "N=1030"]) == 2
        assert "N = 1030" in capsys.readouterr().err
        assert cli.main(["formulas", "--set", "N=1029"]) == 0

    @pytest.mark.parametrize("argv, message", [
        # the photon sites of 1e12 trials need 8e12 bytes
        ("formulas --set N=64 --set trials=1e12",
         "qtelarray formulas: trials = 1000000000000 needs 8000000000000 bytes"),
        # 1e12 complex site amplitudes; a 2e12-point alpha grid is refused
        # before it is allocated
        ("encode --set N=1e12", "qtelarray encode: Unable to allocate "),
        ("transfer --set alpha_step=1e-12",
         "qtelarray transfer: alpha grid [0.0, 2.0] with alpha_step = 1e-12 "
         "has 2e+12 points, more than GRID_POINTS_MAX = 1048576"),
        # 4e10 baseline differences
        ("imaging --set N=200000", "qtelarray imaging: Unable to allocate "),
    ], ids=["formulas", "encode", "transfer", "imaging"])
    def test_unallocatable_trials_exit_2(self, argv, message):
        # the address space limit keeps the test from asking the machine
        # for the memory
        proc = subprocess.run(
            [sys.executable, "-c", UNALLOCATABLE_SCRIPT, *argv.split()],
            cwd=ROOT, env=_env_with_src(), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(message)
        assert proc.stderr.count("\n") == 1


ROOT = Path(__file__).resolve().parents[1]
UNALLOCATABLE_SCRIPT = textwrap.dedent("""
    import resource, sys
    from qtelarray import cli
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 4 << 30
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    sys.exit(cli.main(sys.argv[1:]))
""")


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


NO_SCIPY_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys
    from qtelarray import cli
    # numpy.random loads on the first generator a command makes
    assert "numpy.random" not in sys.modules
    runs = (["encode"], ["imaging"], ["formulas"],
            ["transfer", "--set", "mode=lossy"])
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in runs]
    assert codes == [0, 0, 0, 0], codes
    loaded = sorted(k for k in sys.modules if k.startswith("scipy"))
    assert not loaded, loaded
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["transfer"]) == 0
    assert "scipy.special" in sys.modules
""")


def test_cli_paths_load_no_scipy():
    """Only the transfer closed forms load scipy, and only when they run;
    importing the CLI loads no numpy.random."""
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT], cwd=ROOT, env=_env_with_src(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


IMPORT_PATH_SCRIPT = textwrap.dedent("""
    import sys
    import qtelarray.qcore
    loaded = sorted(k for k in sys.modules if k.startswith("qtelarray.qcore."))
    assert not loaded, loaded
    from qtelarray import cli
    # only transfer imports the engine, and only the optics module
    engine = ["qtelarray.qcore." + m
              for m in ("registry", "states", "gates", "support")]
    loaded = [m for m in engine if m in sys.modules]
    assert not loaded, loaded
""")


def test_cli_path_loads_no_reference_engine():
    """Importing the CLI loads no dense engine module, and importing
    ``qtelarray.qcore`` loads none of its modules."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_SCRIPT], cwd=ROOT,
        env=_env_with_src(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_only_transfer_imports_the_reference_engine():
    found = []
    for path in sorted((ROOT / "src" / "qtelarray").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                where = getattr(node, "module", None) or ""
                if "qcore" in where or any("qcore" in n for n in names):
                    found.append((path.stem, where, names))
    assert found == [("transfer", "qcore.optics", ["linear_optics_matrix"])]


# every name qtelarray.qcore exported before it resolved them lazily, less
# log2_ceil, which moved to codec
QCORE_NAMES = """
    Mode ModeRegistry RegistryError fock qubit qubit_registry DENSE_LIMIT
    QuantumState StateError build_state CNOT CZ H MeasurementError Z
    apply_matrix cnot cz enumerate_measure hadamard pauli_z qft_matrix
    TruncationLeakageError apply_linear_optics beam_splitter
    coherent_amplitudes linear_optics_matrix loss_mixer lossy_detector
    SupportState
""".split()


def test_lazy_qcore_names_are_the_module_objects():
    from qtelarray import qcore

    assert sorted(qcore.__all__) == sorted(QCORE_NAMES)
    modules = [importlib.import_module(f"qtelarray.qcore.{m}")
               for m in ("registry", "states", "gates", "optics", "support")]
    for name in QCORE_NAMES:
        homes = [vars(m)[name] for m in modules if name in vars(m)]
        assert homes, name
        assert all(obj is getattr(qcore, name) for obj in homes), name
    for name in ("log2_ceil", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(qcore, name)


def test_transfer_uses_the_optics_module_function():
    """The benchmark tracer wraps ``linear_optics_matrix`` under every alias
    it finds; transfer's alias must be the optics function itself."""
    from qtelarray import transfer
    from qtelarray.qcore import optics

    assert transfer.linear_optics_matrix is optics.linear_optics_matrix


# ---- fuzz: every input exits 0, 2 or 3 with at most one line of stderr ----------

EDGES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308 / 3, 1e308,
         2 ** 63]
# trials at most 1e4, or past what numpy allocates at all
TRIALS = st.one_of(st.integers(0, 10_000),
                   st.sampled_from(EDGES + [1e19, 1e300, -1]))


def _edgy(ordinary):
    return st.one_of(ordinary, st.sampled_from(EDGES))


def _run_cli(command, config):
    """Exit code, stdout and stderr lines (warnings count as stderr)."""
    argv = [command]
    for key, value in config.items():
        argv += ["--set", f"{key}={value!r}" if isinstance(value, float)
                 else f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    return code, out.getvalue(), lines


def _grid_points(lo, hi, step):
    with np.errstate(all="ignore"):
        return np.float64(hi - lo) / np.float64(step)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mode=st.sampled_from(["sweep", "lossy", "warp"]),
           lo=_edgy(st.floats(-0.5, 5.0)), hi=_edgy(st.floats(-0.5, 6.0)),
           step=_edgy(st.floats(0.05, 2.0)), seed=_edgy(st.integers(0, 9)))
    def test_transfer(self, mode, lo, hi, step, seed):
        name = "eta" if mode == "lossy" else "alpha"
        count = _grid_points(lo, hi, step)
        # the cap refuses larger grids; keep the accepted ones cheap
        assume(not 100 < count < cli.GRID_POINTS_MAX)
        config = {"mode": mode, f"{name}_min": lo, f"{name}_max": hi,
                  f"{name}_step": step, "seed": seed}
        code, out, err = _run_cli("transfer", config)
        assert code in (0, 2, 3), (code, err)
        if code:
            assert len(err) == 1 and err[0].startswith("qtelarray transfer:")
            return
        assert err == []
        rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith(("#", name))]
        grid = [float(r[0]) for r in rows]
        assert grid and all(b > a for a, b in zip(grid, grid[1:]))
        # as the report prints them: 12 significant digits
        shown = [float(cli._format_value(x)) for x in (lo, hi + 1e-10)]
        assert shown[0] <= grid[0] and grid[-1] <= shown[1]

    @settings(max_examples=150, deadline=None)
    @given(N=_edgy(st.integers(0, 64)), p1=_edgy(st.floats(0.0, 1.0)),
           f2=_edgy(st.floats(0.0, 1.0)), trials=TRIALS,
           seed=_edgy(st.integers(0, 9)))
    def test_formulas(self, N, p1, f2, trials, seed):
        config = {"N": N, "p1": p1, "f2": f2, "trials": trials, "seed": seed}
        code, out, err = _run_cli("formulas", config)
        assert code in (0, 2, 3), (code, err)
        if code:
            assert len(err) == 1 and err[0].startswith("qtelarray formulas:")
            return
        assert err == []
        values = [float(line.split(" = ")[1]) for line in out.splitlines()
                  if " = " in line]
        assert values and all(math.isfinite(v) for v in values)
