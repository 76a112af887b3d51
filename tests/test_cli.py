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
from importlib.util import resolve_name
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qtelarray import cli, transfer
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

    @pytest.mark.parametrize("where", ["no_such_dir/x.csv", "a_dir"])
    def test_unwritable_output_exits_2(self, tmp_path, where, capsys):
        (tmp_path / "a_dir").mkdir()
        path = str(tmp_path / where)
        assert cli.main(["formulas", "--output", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qtelarray formulas: cannot write {path!r}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, setting", [
        ("encode", "M=inf"),
        ("encode", "M=1e400"),
        ("imaging", "N=inf"),
        ("formulas", "trials=inf"),
    ])
    def test_overflowing_integer_exits_2(self, command, setting, capsys):
        assert cli.main([command, "--set", setting]) == 2
        assert "config key" in capsys.readouterr().err

    def test_integer_key_keeps_every_digit(self, tmp_path):
        # 2**53 + 1 has no float: read through float() it became 2**53
        code, body = run_to_file(
            tmp_path, ["encode", "--set", "M=2", "--set",
                       "seed=9007199254740993"])
        assert code == 0
        assert b" seed=9007199254740993\n" in body
        assert b"# seed: 9007199254740993\n" in body

    @pytest.mark.parametrize("raw, want", [
        ("9007199254740993", 9007199254740993), ("1e6", 10 ** 6),
        ("2.0", 2), (" -7 ", -7), ("1e20", 10 ** 20),
    ])
    def test_integer_key_forms(self, raw, want):
        got = cli._coerce("trials", raw, 1)
        assert got == want and type(got) is int

    @pytest.mark.parametrize("raw", ["2.5", "inf", "-inf", "nan", "1e400",
                                     "x"])
    def test_integer_key_refuses(self, raw):
        with pytest.raises(cli.ConfigError, match="config key 'trials'"):
            cli._coerce("trials", raw, 1)
        assert cli.main(["formulas", "--set", f"trials={raw}"]) == 2

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
         "ancilla amplitude alpha = 1e+297 must lie in [0, ALPHA_MAX = "
         "1.34078e+154]"),
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
        monkeypatch.setattr(transfer, "GRID_POINTS_MAX", 10)
        assert transfer.value_grid(0.0, 9.0, 1.0, "alpha").size == 10
        with pytest.raises(cli.ConfigError, match="GRID_POINTS_MAX = 10"):
            transfer.value_grid(0.0, 10.0, 1.0, "alpha")

    def test_grid_stays_inside_its_bounds(self):
        # rounding to 10 decimals would put the first point below lo
        lo = 0.12345678901234
        pts = transfer.value_grid(lo, 0.2, 0.05, "alpha")
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
        # the photon sites of 1e12 trials need 1e12 bytes, one per trial
        ("formulas --set N=64 --set trials=1e12",
         "qtelarray formulas: trials = 1000000000000 needs 1000000000000 bytes"),
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

    @pytest.mark.parametrize("call, limit_mib", [
        # 1e7 shots at N = 4 held 115 MiB of per-shot uniforms and indices
        ("cli.main(['imaging', '--set', 'N=4', '--set', 'shots=1e7', "
         "'--output', os.devnull])", 8),
        # 4e6 photon sites at N = 2, one byte each, beside 4 MiB blocks of
        # success uniforms
        ("transfer.network_monte_carlo(2, 0.469, 4_000_000)", 16),
        # the 2^20-point flat scene, two float arrays of 8 MiB; as (y, I)
        # pairs it peaked at 232 MiB
        ("cli.IntensityDistribution.flat_on_grid(2 ** 20, 1.0)", 48),
    ], ids=["imaging", "network", "scene"])
    def test_memory_stays_bounded_by_the_budget(self, call, limit_mib):
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_SCRIPT, call], cwd=ROOT,
            env=_env_with_src(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < limit_mib << 20


class TestLibraryRejects:
    """The runners hold no checks the library makes: each of these inputs
    is refused by the library's ConfigError, which main turns into exit 2."""

    @pytest.mark.parametrize("argv, message", [
        ("imaging --set N=1", "N = 1 outside 2..MAX_SITES = "),
        ("imaging --set N=0", "N = 0 outside 1..MAX_SITES = "),
        ("imaging --set shots=0", "shots = 0 outside 1..SHOTS_MAX = "
                                  "9223372036854775807"),
        ("imaging --set N=1e200", f"N = {int(1e200)} outside 1..MAX_SITES"),
        ("imaging --set N=1e200 --set source=point:0",
         f"N = {int(1e200)} outside 1..MAX_SITES"),
        ("imaging --set source=0.5,0.5,0.5",
         "need 4 intensities, got 3"),
        ("transfer --set mode=lossy --set eta_max=1.5",
         "transmission eta = 1.1 must lie in [0, 1]"),
    ])
    def test_library_check_exits_2(self, argv, message, capsys):
        command = argv.split()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qtelarray {command}: ")
        assert message in err and err.count("\n") == 1

    def test_undecodable_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"M = \xff\xfe\n")
        assert cli.main(["encode", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "qtelarray encode: cannot read config file: ")

    def test_one_input_error_type(self):
        from qtelarray import codec, transfer, util

        assert cli.ConfigError is codec.ConfigError is util.ConfigError
        assert issubclass(util.ConfigError, ValueError)
        assert not hasattr(transfer, "TransferError")

    def test_runners_convert_no_errors(self):
        tree = ast.parse((ROOT / "src" / "qtelarray" / "cli.py").read_text())
        runners = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name.startswith("run_")]
        assert len(runners) == 4
        for runner in runners:
            handlers = [node for node in ast.walk(runner)
                        if isinstance(node, ast.ExceptHandler)]
            assert handlers == [], runner.name


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

# the tracemalloc peak, in bytes, of one call made after the imports
PEAK_SCRIPT = textwrap.dedent("""
    import os, sys, tracemalloc
    from qtelarray import cli, transfer
    tracemalloc.start()
    eval(sys.argv[1])
    print(tracemalloc.get_traced_memory()[1])
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
    # nor transfer and its optics module, until a runner needs them
    loaded = [m for m in ("qtelarray.transfer", "qtelarray.qcore.optics")
              if m in sys.modules]
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


# qtelarray module -> the qtelarray modules it imports, at module level or
# inside a function; "__init__" is the package itself. A new edge is a
# change to this table. imaging draws its pairs by netdecode's readout law,
# and only transfer reaches the reference engine, through its optics.
IMPORT_GRAPH = {
    "__init__": set(),
    "cli": {"__init__", "codec", "imaging", "netdecode", "source",
            "transfer", "util"},
    "codec": {"source", "util"},
    "imaging": {"netdecode", "source", "util"},
    "netdecode": {"codec", "util"},
    "source": {"util"},
    "transfer": {"qcore.optics", "util"},
    "util": set(),
    "qcore": set(),
    "qcore.gates": {"qcore.registry", "qcore.states", "util"},
    "qcore.optics": {"qcore.gates", "qcore.registry", "qcore.states",
                     "util"},
    "qcore.registry": set(),
    "qcore.states": {"qcore.gates", "qcore.registry"},
    "qcore.support": {"qcore.states"},
}


def _package_import_graph() -> dict:
    """The IMPORT_GRAPH that the package's source files declare."""
    pkg = ROOT / "src" / "qtelarray"
    files = {}
    for path in pkg.rglob("*.py"):
        parts = ("qtelarray",) + path.relative_to(pkg).with_suffix("").parts
        files[".".join(parts).removesuffix(".__init__")] = path

    def label(module):
        return ("__init__" if module == "qtelarray"
                else module.removeprefix("qtelarray."))

    graph = {}
    for module, path in files.items():
        package = (module if path.name == "__init__.py"
                   else module.rpartition(".")[0])
        edges = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                where = resolve_name("." * node.level + (node.module or ""),
                                     package)
                # ``from . import transfer`` imports a module, not a name
                found = [f"{where}.{a.name}" if f"{where}.{a.name}" in files
                         else where for a in node.names]
            else:
                continue
            edges.update(label(m) for m in found if m in files)
        graph[label(module)] = edges
    return graph


def test_package_import_graph():
    assert _package_import_graph() == IMPORT_GRAPH


IMAGING_PATH_SCRIPT = textwrap.dedent("""
    import sys
    import qtelarray.imaging
    loaded = sorted(k for k in sys.modules if k.startswith(
        ("qtelarray.transfer", "qtelarray.qcore", "scipy")))
    assert not loaded, loaded
""")


def test_imaging_path_loads_no_transfer_engine_or_scipy():
    """imaging's import of netdecode brings codec along, but neither
    transfer, nor any qcore module, nor scipy."""
    proc = subprocess.run(
        [sys.executable, "-c", IMAGING_PATH_SCRIPT], cwd=ROOT,
        env=_env_with_src(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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


def _seldom_edgy(ordinary):
    """Edge values one draw in eight, so that commands with many keys still
    see accepted configs."""
    return st.tuples(st.integers(0, 7), ordinary, st.sampled_from(EDGES)).map(
        lambda t: t[2] if t[0] == 7 else t[1])


def _normalized(weights):
    """Weights over their total, scaled by the largest first so that the
    total cannot overflow."""
    w = np.asarray(weights, dtype=float)
    w = w / w.max()
    return w / w.sum()


@st.composite
def _scenes(draw):
    """(N, source text, N -> the I_true an accepted scene must report)."""
    N = draw(_seldom_edgy(st.integers(2, 64)))
    kind = draw(st.sampled_from(["flat", "point", "weights", "malformed"]))
    if kind == "flat":
        return N, "flat", lambda n: np.full(n, 1.0 / n)
    if kind == "point":
        j = draw(st.integers(-2, 66))
        return N, f"point:{j}", lambda n: np.eye(n)[j]
    if kind == "weights":
        fits = isinstance(N, int) and 0 <= N <= 64 and draw(st.booleans())
        size = N if fits else draw(st.integers(0, 8))
        weights = draw(st.lists(_seldom_edgy(st.floats(0.0, 10.0)),
                                min_size=size, max_size=size))
        return (N, ",".join(repr(w) for w in weights),
                lambda n: _normalized(weights))
    text = draw(st.sampled_from(["", "widefield", "point:", "point:x",
                                 "1,,2", "1;2"]))
    return N, text, None


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
        assume(not 100 < count < transfer.GRID_POINTS_MAX)
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

    @settings(max_examples=150, deadline=None)
    @given(M=_seldom_edgy(st.integers(1, 8)),
           R=_seldom_edgy(st.integers(1, 8)),
           N=_seldom_edgy(st.integers(2, 64)),
           eps=_seldom_edgy(st.floats(0.0, 1.0)),
           layout=st.sampled_from(["sequential", "parallel", "bogus"]),
           seed=_seldom_edgy(st.integers(0, 9)))
    def test_encode(self, M, R, N, eps, layout, seed):
        # ordinary draws keep M * R <= 64; the edge values are refused
        # before anything large is allocated
        config = {"M": M, "R": R, "N": N, "eps": eps, "layout": layout,
                  "seed": seed}
        code, out, err = _run_cli("encode", config)
        assert code in (0, 2, 3), (code, err)
        if code:
            assert len(err) == 1 and err[0].startswith("qtelarray encode:")
            return
        assert err == []
        rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith(("#", "m,"))]
        assert len(rows) == M * R
        assert all(r[0:2] == r[2:4] and r[5] == "1" for r in rows)

    @settings(max_examples=150, deadline=None)
    @given(scene=_scenes(), d=_seldom_edgy(st.floats(1e-3, 1e3)),
           shots=_seldom_edgy(st.integers(1, 10_000)),
           sampler=st.sampled_from(["w_state", "direct_pair", "bogus"]),
           quadratures=st.sampled_from(["auto", "real", "both", "bogus"]),
           seed=_seldom_edgy(st.integers(0, 9)))
    def test_imaging(self, scene, d, shots, sampler, quadratures, seed):
        N, source, want = scene
        config = {"N": N, "d": d, "source": source, "shots": shots,
                  "sampler": sampler, "quadratures": quadratures,
                  "seed": seed}
        code, out, err = _run_cli("imaging", config)
        assert code in (0, 2, 3), (code, err)
        if code:
            assert len(err) == 1 and err[0].startswith("qtelarray imaging:")
            return
        assert err == []
        rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith(("#", "j,"))]
        # on-grid scenes are recovered exactly: I_true is the scene itself
        got = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(got, want(N), rtol=0, atol=1e-9)
