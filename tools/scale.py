"""Time one pipeline stage over sizes; every stage writes the same schema.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/scale.py STAGE [SIZE ...]

* ``imaging N``: one flat on-grid frame of SHOTS shots, stage by stage.
* ``photon N``: one seeded photon through an M=64, R=8 codebook, per layout.
* ``mixture N``: the exact M=64, R=8 mixture with g = I, per layout.
* ``transfer SITES:CUTOFF``: heralded_transfer with seeded amplitudes.
* ``network N``: network_monte_carlo on ``one`` worker and on ``all``.

Each (size, case) runs REPEATS times; each step gives the first, best,
median and max of its samples in seconds, one more run the tracemalloc
peak. One size runs in this process, several (or none: the defaults) each
in a fresh interpreter, with cold caches. The output is one JSON document:
stage, commit, src_sha256, host, protocol and sweep rows.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

if importlib.util.find_spec("qtelarray") is None:
    sys.exit("scale.py: cannot import qtelarray; run it with PYTHONPATH=src")

import numpy as np

import qtelarray
from qtelarray import imaging, source, transfer
from qtelarray.codec import (RunConfig, encode_run_full, encode_single_photon,
                             parallel_frequency_compress)
from qtelarray.netdecode import decode_arrival, w_state_readout

REPEATS, REPLAYS, SHOTS = 3, 50, 200_000
WORDS = {"sequential": (63, 8), "parallel": (63, 7)}
ALPHA, AMPS_SEED = 1.2, 3
UNIFORMS, P1, MC_SEED = 64_000_000, 0.469041575982343, 7
_samples = {}


def timed(step, fn, *args, **kwargs):
    """Return ``fn(*args, **kwargs)``, adding its wall time to ``step``."""
    t = perf_counter()
    out = fn(*args, **kwargs)
    _samples.setdefault(step, []).append(perf_counter() - t)
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def imaging_frame(N, _case):
    dist = source.IntensityDistribution.flat_on_grid(N, 1.0)
    vis = timed("visibility", source.visibility_from_intensity, dist,
                source.ArrayGeometry(N, 1.0))
    timed("closed", imaging.qft_image_diagonal, vis)
    timed("conjugation", imaging.qft_process, vis)
    timed("sample_qft", imaging.sample_qft, vis, SHOTS, rng=N)
    est = timed("classical", imaging.classical_pipeline, vis, SHOTS, rng=N + 1)
    return {"digest": digest(est.i_hat.tobytes())}


def photon(N, layout):
    rng = np.random.default_rng(N)
    amps = rng.normal(size=N) + 1j * rng.normal(size=N)
    amps /= np.linalg.norm(amps)
    m, r = WORDS[layout]
    cfg = RunConfig(M=64, R=8, N=N, layout=layout, seed=N)
    run = timed("write", encode_single_photon, cfg, m, r, amps=amps)
    if layout == "parallel":
        run = timed("compress", parallel_frequency_compress, run)
    res = timed("decode", decode_arrival, run)
    timed("readout", w_state_readout, res.state, rng=N)
    assert (res.m, res.r) == (m, r)
    gap = np.abs(res.state - np.outer(amps, amps.conj())).max()
    return {"density_gap": float(gap)}


def mixture(N, layout):
    cfg = RunConfig(M=64, R=8, N=N, eps=0.05, layout=layout, seed=N)
    def prepare():
        run = encode_run_full(cfg, band_g=0.0)
        if layout == "parallel":
            run = parallel_frequency_compress(run)
        return run
    run = timed("prepare", prepare)
    rng = np.random.default_rng(N)
    timed("first_decode", decode_arrival, run.replay(), rng=rng)
    for _ in range(REPLAYS):
        timed("replay_decode", decode_arrival, run.replay(), rng=rng)
    return {"components": len(run.components)}


def enumeration(spec, _case):
    sites, cutoff = (int(x) for x in spec.split(":"))
    rng = np.random.default_rng(AMPS_SEED + sites)
    amps = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    out = timed("enumerate", transfer.heralded_transfer, ALPHA, amps=amps,
                cutoff=cutoff)
    h = hashlib.sha256()  # branch by branch: the peak stays the stage's
    for b in out.branches:
        h.update(repr((b.record, b.probability.hex(), b.fidelity.hex(),
                       b.accepted)).encode())
    figures = (out.mass, out.probability, out.fidelity)
    h.update(repr([float(x).hex() for x in figures]).encode())
    outcomes = len(transfer.coherent_amplitude_table(ALPHA, cutoff).outcomes())
    return {"records": outcomes ** sites, "kept": len(out.branches),
            "digest": h.hexdigest()[:16]}


def monte_carlo(N, workers):
    rng, default = np.random.default_rng(MC_SEED), transfer._mc_workers
    if workers == "one":
        transfer._mc_workers = lambda draws: 1
    try:
        out = timed("monte_carlo", transfer.network_monte_carlo, N, P1,
                    UNIFORMS // N, rng=rng)
    finally:
        transfer._mc_workers = default
    text = json.dumps([out, rng.bit_generator.state], sort_keys=True)
    return {"trials": UNIFORMS // N, "digest": digest(text.encode())}


# stage -> (function of (size, case), (case key, cases), default sizes)
STAGES = {
    "imaging": (imaging_frame, (None, [None]), "32 128 512 1024"),
    "photon": (photon, ("layout", list(WORDS)), "16 64 256 1024"),
    "mixture": (mixture, ("layout", list(WORDS)), "16 64 128"),
    "transfer": (enumeration, (None, [None]), "2:10 2:16 2:30 3:5 3:8 4:4"),
    "network": (monte_carlo, ("workers", ["one", "all"]), "2 8 64 1024 4096"),
}


def measure(stage, spec):
    """The sweep rows of ``stage`` at size ``spec``, in this process."""
    size = int(spec) if spec.isdigit() else spec
    fn, (key, cases), _ = STAGES[stage]
    rows = []
    for case in cases:
        _samples.clear()
        checks = [fn(size, case) for _ in range(REPEATS)]
        assert all(c == checks[0] for c in checks), checks
        steps = {step: {"first": ts[0], "best": min(ts),
                        "median": float(np.median(ts)), "max": max(ts)}
                 for step, ts in _samples.items()}
        tracemalloc.start()
        fn(size, case)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rows.append({"size": size, **({key: case} if key else {}),
                     "steps": steps, "peak_mib": round(peak / 2 ** 20, 2),
                     "checks": checks[0]})
    return rows


def document(stage, rows):
    """The sweep with its provenance: which code ran, where, and how."""
    package = Path(qtelarray.__file__).resolve().parent
    src = b"".join(bytes(path.relative_to(package)) + b"\0" + path.read_bytes()
                   for path in sorted(package.rglob("*.py")))
    # through the shell, so a missing git is a failed command, not an error
    commit = subprocess.run("git rev-parse HEAD", shell=True, cwd=package,
                            capture_output=True, text=True).stdout.strip()
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"stage": stage, "commit": commit or None,
            "src_sha256": hashlib.sha256(src).hexdigest(),
            "host": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "cpus": cpus},
            "protocol": {"repeats": REPEATS, "replays": REPLAYS},
            "sweep": rows}


def main(argv):
    if not argv or argv[0] not in STAGES:
        sys.exit(f"usage: scale.py {{{','.join(STAGES)}}} [SIZE ...]")
    stage, specs = argv[0], argv[1:] or STAGES[argv[0]][2].split()
    if len(specs) == 1:
        rows = measure(stage, specs[0])
    else:
        rows = []
        for spec in specs:
            child = subprocess.run([sys.executable, __file__, stage, spec],
                                   stdout=subprocess.PIPE, check=True)
            rows += json.loads(child.stdout)["sweep"]
    print(json.dumps(document(stage, rows), indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
