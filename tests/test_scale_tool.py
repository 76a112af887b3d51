"""The scaling tool: every stage writes rows of one schema."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "scale.py"
# stage -> (case key, steps, checks)
SCHEMA = {
    "imaging": (None, {"visibility", "closed", "conjugation", "sample_qft",
                       "classical"}, {"digest"}),
    "photon": ("layout", {"write", "decode", "readout"}, {"density_gap"}),
    "mixture": ("layout", {"prepare", "first_decode", "replay_decode"},
                {"components"}),
    "transfer": (None, {"enumerate"}, {"records", "kept", "digest"}),
    "network": ("workers", {"monte_carlo"}, {"trials", "digest"}),
}
SMALLEST = {"imaging": "2", "photon": "2", "mixture": "2", "transfer": "2:1",
            "network": "2"}


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture(scope="module")
def scale():
    spec = importlib.util.spec_from_file_location("scale", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_row(stage, row):
    key, steps, checks = SCHEMA[stage]
    assert set(row) == {"size", "steps", "peak_mib", "checks"} | (
        {key} if key else set())
    # only a parallel photon has its compression timed on its own
    parallel = stage == "photon" and row["layout"] == "parallel"
    assert set(row["steps"]) == steps | ({"compress"} if parallel else set())
    for stats in row["steps"].values():
        assert set(stats) == {"first", "best", "median", "max"}
        assert 0 <= stats["best"] <= stats["median"] <= stats["max"]
        assert stats["best"] <= stats["first"] <= stats["max"]
    assert set(row["checks"]) == checks
    assert row["peak_mib"] >= 0


def test_fresh_interpreter_per_size():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "imaging", "8", "16"], cwd=ROOT,
        env=_env_with_src(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert set(doc) == {"stage", "commit", "src_sha256", "host", "protocol",
                        "sweep"}
    assert doc["stage"] == "imaging"
    assert doc["commit"] is None or re.fullmatch("[0-9a-f]{40}", doc["commit"])
    assert re.fullmatch("[0-9a-f]{64}", doc["src_sha256"])
    assert set(doc["host"]) == {"python", "numpy", "cpus"}
    assert doc["host"]["cpus"] >= 1
    assert doc["protocol"] == {"repeats": 3, "replays": 50}
    assert [row["size"] for row in doc["sweep"]] == [8, 16]
    for row in doc["sweep"]:
        check_row("imaging", row)
        assert re.fullmatch("[0-9a-f]{16}", row["checks"]["digest"])


@pytest.mark.parametrize("stage", list(SCHEMA))
def test_every_stage_in_process(scale, stage, monkeypatch):
    # 64e6 uniforms take seconds; the schema does not depend on them
    monkeypatch.setattr(scale, "UNIFORMS", 4096)
    rows = scale.measure(stage, SMALLEST[stage])
    key = SCHEMA[stage][0]
    cases = {"layout": ["sequential", "parallel"], "workers": ["one", "all"],
             None: [None]}[key]
    assert [row.get(key) for row in rows] == cases
    for row in rows:
        check_row(stage, row)
    if stage == "network":
        assert rows[0]["checks"] == rows[1]["checks"] == {
            "trials": 2048, "digest": rows[0]["checks"]["digest"]}
    if stage == "transfer":
        assert rows[0]["checks"]["records"] >= rows[0]["checks"]["kept"] > 0


def test_network_restores_the_worker_count(scale, monkeypatch):
    """The ``one`` case forces a single worker and puts the module's own
    count back, so the ``all`` case runs on the default."""
    monkeypatch.setattr(scale, "UNIFORMS", 4096)
    asked = []

    def workers(draws):
        asked.append(draws)
        return 1

    monkeypatch.setattr(scale.transfer, "_mc_workers", workers)
    scale.measure("network", "2")
    assert scale.transfer._mc_workers is workers
    # the timed runs and the tracemalloc run of the ``all`` case only
    assert asked == [4096] * (scale.REPEATS + 1)


@pytest.mark.parametrize("tool", ["scale.py", "reach.py"])
def test_tools_name_pythonpath_when_the_package_is_missing(tool, tmp_path):
    probe = subprocess.run(
        [sys.executable, "-I", "-c", "import importlib.util, sys; "
         "sys.exit(importlib.util.find_spec('qtelarray') is not None)"],
        cwd=tmp_path,
    )
    if probe.returncode:
        pytest.skip("qtelarray is installed, so it is always importable")
    proc = subprocess.run(
        [sys.executable, "-I", str(ROOT / "tools" / tool)], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == (f"{tool}: cannot import qtelarray; run it with "
                           "PYTHONPATH=src\n")
