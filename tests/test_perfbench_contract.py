"""What the benchmark harness in perfbench/ reads from the package.

perfbench/ is kept fixed between changes and sits outside the default test
paths, so this module checks, from inside them, every name and field its
tracer and workloads rely on, and that every CLI report still matches the
digest pinned in perfbench/golden.json.
"""

import hashlib
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from qtelarray import cli, codec, imaging, netdecode, source, transfer
from qtelarray.qcore import SupportState, gates, optics
from qtelarray.source import ArrayGeometry, IntensityDistribution, visibility_from_intensity

TRACER_MODULES = (
    "qtelarray.qcore.registry",
    "qtelarray.qcore.states",
    "qtelarray.qcore.gates",
    "qtelarray.qcore.optics",
    "qtelarray.qcore.support",
    "qtelarray.source",
    "qtelarray.codec",
    "qtelarray.netdecode",
    "qtelarray.imaging",
    "qtelarray.transfer",
    "qtelarray.cli",
)
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
# every function SPAN_GROUPS in perfbench/tracer.py sums into a per-layer
# metric; a missing one would read as zero time, not as an error
TRACED_FUNCTIONS = (
    (optics, "linear_optics_matrix"),
    (optics, "apply_linear_optics"),
    (gates, "enumerate_measure"),
    (source, "visibility_from_intensity"),
    (codec, "encode_bin"),
    (codec, "parallel_frequency_compress"),
    (netdecode, "decode_arrival"),
    (netdecode, "w_state_readout"),
    (imaging, "qft_image_diagonal"),
    (imaging, "qft_process"),
    (imaging, "sample_qft"),
    (imaging, "classical_pipeline"),
    (transfer, "coherent_amplitude_table"),
    (transfer, "multiport_amplitude_table"),
    (transfer, "transfer_branches"),
    (transfer, "heralded_rate_closed"),
    (transfer, "deterministic_fidelity_closed"),
    (transfer, "lossy_transfer"),
    (transfer, "network_monte_carlo"),
)


def test_tracer_modules_import():
    for name in TRACER_MODULES:
        importlib.import_module(name)


def test_traced_functions_exist():
    for module, name in TRACED_FUNCTIONS:
        fn = getattr(module, name)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_support_state_methods_the_tracer_wraps():
    assert inspect.isfunction(SupportState.__dict__["apply_cnot"])
    assert inspect.isfunction(SupportState.__dict__["to_vector"])
    assert isinstance(SupportState.__dict__["zeros"], classmethod)


def test_encode_decode_readout_fields():
    for layout in ("sequential", "parallel"):
        cfg = codec.RunConfig(M=4, R=2, N=3, layout=layout)
        run = codec.encode_single_photon(cfg, 3, 2)
        if layout == "parallel":
            run = codec.parallel_frequency_compress(run)
        for w, state, meta in run.components:
            assert len(state.amps) == cfg.N
            assert isinstance(w, float) and isinstance(meta, dict)
        res = netdecode.decode_arrival(run)
        assert isinstance(res.checks, int) and res.checks > 0
        readout = netdecode.w_state_readout(res.state, rng=0)
        assert isinstance(readout.attempts, int) and readout.attempts >= 1


def test_enumeration_counts_and_cli_alias():
    # _count_enum reads the table and amps by position or by name, then
    # len(table.outcomes()) ** sites and len(out[0]); test_bench.py reads
    # cli.encode_single_photon as a module attribute
    assert list(inspect.signature(transfer.transfer_branches).parameters)[:2] == [
        "table", "amps"]
    assert cli.encode_single_photon is codec.encode_single_photon
    for table, outcomes, kept in (
            (transfer.coherent_amplitude_table(0.88, 4), 19, (336, 6048)),
            (transfer.multiport_amplitude_table(2), 14, (179, 2199))):
        assert isinstance(table.outcomes(), tuple)
        assert len(table.outcomes()) == outcomes
        for amps, want in zip(((0.6, 0.8j), (1.0, 1.0, 1.0)), kept):
            out = transfer.transfer_branches(table, amps)
            assert len(out[0]) == want == len(list(out[0]))


def test_classical_estimate_reports_successes():
    dist = IntensityDistribution.flat_on_grid(4, 1.0)
    vis = visibility_from_intensity(dist, ArrayGeometry(N=4, d=1.0))
    est = imaging.classical_pipeline(vis, shots=200, rng=np.random.default_rng(0))
    assert 0 < est.extra["successes"] <= 200


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_matches_golden_digest(key, capsys):
    assert cli.main(key.split()) == 0
    report = capsys.readouterr().out
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == GOLDEN[key]
