"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _subset(monkeypatch, keep):
    """Make run_pass use only the items ``keep`` selects from each build."""
    original = workloads.build

    def build(workload, seed, **kwargs):
        return [it for it in original(workload, seed, **kwargs) if keep(it)]

    monkeypatch.setattr(workloads, "build", build)


def _fail_share(passes):
    attempted = sum(len(p["items"]) for p in passes)
    return len(run.failures(passes)) / attempted


def _few_roundtrips_and_cli(item):
    return item.kind == "cli" or item.id in ("parallel/m1r1", "sequential/m2r3")


def test_benchmark_json_lists_the_defined_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]


def test_clean_pass_has_no_failures(monkeypatch):
    _subset(monkeypatch, _few_roundtrips_and_cli)
    passes = [workloads.run_pass("codebook", 4, trace=False)]
    assert len(passes[0]["items"]) == 3
    assert _fail_share(passes) == 0


def test_corrupted_golden_digest_raises_fail_share(monkeypatch):
    golden = workloads.load_golden()
    corrupted = {key: "0" * 64 for key in golden}
    monkeypatch.setattr(workloads, "load_golden", lambda: corrupted)
    _subset(monkeypatch, _few_roundtrips_and_cli)
    passes = [workloads.run_pass("codebook", 4, trace=False)]
    assert _fail_share(passes) > 0
    assert any("digest" in f for f in run.failures(passes))


def test_wrong_expected_codeword_raises_fail_share(monkeypatch):
    original = workloads.build

    def build(workload, seed, **kwargs):
        items = [it for it in original(workload, seed, **kwargs)
                 if _few_roundtrips_and_cli(it)]
        m, r = items[0].expect
        items[0].expect = (m, r + 1)
        return items

    monkeypatch.setattr(workloads, "build", build)
    passes = [workloads.run_pass("codebook", 4, trace=False)]
    assert _fail_share(passes) > 0
    assert any("parallel/m1r1" in f for f in run.failures(passes))


def test_tracing_leaves_every_cli_report_byte_identical():
    for workload in workloads.WORKLOADS:
        plain = [it for it in workloads.build(workload, 6) if it.kind == "cli"]
        untraced = [it.run()[1] for it in plain]
        tr = tracing.Tracer()
        traced_items = [it for it in workloads.build(workload, 6, span=tr.span,
                                                     counters=tr.add)
                        if it.kind == "cli"]
        undo = tracing.install(tr)
        try:
            traced = [it.run()[1] for it in traced_items]
        finally:
            undo()
        assert traced == untraced
        assert {s[0] for s in tr.spans} >= {f"cli.{it.group}" for it in plain}
        for it, text in zip(plain, untraced):
            assert workloads.report_digest(text) == it.expect


def test_traced_pass_reports_every_layer_metric(monkeypatch):
    _subset(monkeypatch, lambda it: it.id in ("frame/N32/0", "arrival/N8"))
    record = workloads.run_pass("wide_array", 2, trace=True)
    layers = record["layers"]
    expected = {name for name, *_ in metrics.PER_LAYER} - {"trace.overhead_s"}
    assert set(layers) == expected
    assert sum(layers[n] for n in metrics.SELF_TIMES) <= record["wall_s"]
    assert layers["imaging.frame_s.N32"] > 0
    assert layers["netdecode.decode_s.N8"] > 0
    assert layers["source.visibility.exp_evals"] == 32 ** 2 * 32
    assert run.failures([record]) == []


def test_install_undo_restores_the_package():
    from qtelarray import cli, codec
    from qtelarray.qcore import SupportState

    before = (codec.encode_bin, cli.encode_single_photon,
              SupportState.__dict__["apply_cnot"], SupportState.__dict__["zeros"])
    undo = tracing.install(tracing.Tracer())
    assert codec.encode_bin is not before[0]
    assert cli.encode_single_photon is not before[1]
    undo()
    after = (codec.encode_bin, cli.encode_single_photon,
             SupportState.__dict__["apply_cnot"], SupportState.__dict__["zeros"])
    assert after == before


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_refuses_a_tree_without_the_package(tmp_path, trace):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codebook",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_uses_each_items_median_scaled_time():
    def fake_pass(times, setup, slowdown):
        return {"traced": False, "setup_s": setup, "setup_slowdown": slowdown,
                "wall_s": sum(times), "peak_rss_mib": 100.0,
                "items": [[f"i{k}", t, True, None, None, slowdown]
                          for k, t in enumerate(times)]}

    passes = [fake_pass([0.010, 0.020, 0.300], 1.0, 1.0),
              fake_pass([0.024, 0.044, 0.200], 8.0, 2.0),
              fake_pass([0.013, 0.025, 0.200], 5.0, 1.0)]
    values, _counts = run.end_to_end(passes)
    assert values["wall_s"] == pytest.approx(0.012 + 0.022 + 0.200)
    assert values["setup_s"] == 4.0
    assert values["item_ms_p50"] == pytest.approx(22.0)
    assert set(values) == {name for name, *_ in metrics.END_TO_END}
    raw, _counts = run.end_to_end(passes, scaled=False)
    assert raw["wall_s"] == pytest.approx(0.013 + 0.025 + 0.200)
    assert raw["setup_s"] == 5.0
    assert raw["item_ms_p50"] == pytest.approx(25.0)


def test_slowdowns_average_the_probes_around_each_item():
    ref = workloads.PROBE_REF_S
    probes = [(0.0, 1.0, ref), (3.0, 4.0, 3 * ref), (9.0, 10.0, 2 * ref)]
    spans = [(1.0, 2.0), (2.0, 3.0), (4.0, 9.0)]
    assert workloads.slowdowns(spans, probes) == pytest.approx([2.0, 2.0, 2.5])
