"""Time one pipeline stage over sizes; every stage writes the same schema.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/scale.py STAGE [SIZE ...]

* ``imaging N``: one flat on-grid frame of SHOTS shots, stage by stage.
* ``photon N``: one seeded photon through an M=64, R=8 codebook, per layout.
* ``mixture N``: the exact M=64, R=8 mixture with g = I, per layout.
* ``codebook M``: every codeword of an M x 8 book at N=2, per layout,
  decoded with the default generator.
* ``transfer SITES:CUTOFF``: the coherent table, then heralded_transfer on
  it with seeded amplitudes.
* ``network N``: network_monte_carlo on ``one`` worker and on ``all``.
* ``optics DEVICE:N``: one linear_optics_matrix build, of the Hadamard
  splitter at cutoff N (``hadamard:N``) or of the (N+1)-port Fourier
  interferometer that multiport_amplitude_table(N) builds (``multiport:N``);
  the row gives the matrix shape and digests the matrix and its leakage.

The photon, mixture and codebook rows digest every decode's draws (for
photon and mixture also the decode generator's end state, for codebook
each decode's density bytes), so two sweeps that made the same draws
(and densities) show the same digest.

A SIZE is an int, ``SITES:CUTOFF`` for ``transfer`` or ``DEVICE:N`` for
``optics``; a malformed one exits with the usage line. Each (size, case)
runs REPEATS times; each step gives the first, best, median and max of its
samples in seconds, one more run the tracemalloc peak. One size runs in
this process, several (or none: the defaults) each in a fresh interpreter,
with cold caches. The output is one JSON document: stage, commit,
src_sha256, host, protocol and sweep rows.
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
from qtelarray.qcore import H, linear_optics_matrix
from qtelarray.util import ConfigError, qft_matrix

REPEATS, REPLAYS, SHOTS = 3, 50, 200_000
WORDS = {"sequential": (63, 8), "parallel": (63, 7)}
ALPHA, AMPS_SEED = 1.2, 3
UNIFORMS, P1, MC_SEED = 64_000_000, 0.469041575982343, 7
# optics device -> N -> (S, cutoffs, out_cutoffs)
DEVICES = {
    "hadamard": lambda c: (H, (c, c), None),
    "multiport": lambda p: (qft_matrix(p + 1), (1,) * (p + 1),
                            (p + 1,) * (p + 1)),
}
_samples = {}


def timed(step, fn, *args, **kwargs):
    """Return ``fn(*args, **kwargs)``, adding its wall time to ``step``."""
    t = perf_counter()
    out = fn(*args, **kwargs)
    _samples.setdefault(step, []).append(perf_counter() - t)
    return out


def digest(*chunks) -> str:
    """The sha256 of the chunks (bytes or contiguous arrays), in order."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def drawn(res) -> bytes:
    """What a decode drew: (m, r), the bits of its probability, the lead
    pattern, the GHZ outcomes and the folded rows with their signs."""
    rec = res.record
    return repr((res.m, res.r, res.probability.hex(), rec["lead_pattern"],
                 rec["ghz_outcomes"], rec.get("fold_signs"))).encode()


def imaging_frame(N, _case):
    dist = timed("scene", source.IntensityDistribution.flat_on_grid, N, 1.0)
    vis = timed("visibility", source.visibility_from_intensity, dist,
                source.ArrayGeometry(N, 1.0))
    closed = timed("closed", imaging.qft_image_diagonal, vis)
    timed("conjugation", imaging.qft_process, vis)
    timed("sample_qft", imaging.sample_qft, vis, SHOTS, rng=N)
    est = timed("classical", imaging.classical_pipeline, vis, SHOTS, rng=N + 1)
    # the bits of g and of the closed-form image, as well as the sample's
    return {"digest": digest(vis.g, closed, est.i_hat)}


def photon(N, layout):
    rng = np.random.default_rng(N)
    amps = rng.normal(size=N) + 1j * rng.normal(size=N)
    amps /= np.linalg.norm(amps)
    m, r = WORDS[layout]
    cfg = RunConfig(M=64, R=8, N=N, layout=layout, seed=N)
    run = timed("write", encode_single_photon, cfg, m, r, amps=amps)
    if layout == "parallel":
        run = timed("compress", parallel_frequency_compress, run)
    rng = np.random.default_rng(cfg.seed + 2)  # decode_arrival's default
    res = timed("decode", decode_arrival, run, rng=rng)
    timed("readout", w_state_readout, res.state, rng=N)
    assert (res.m, res.r) == (m, r)
    gap = np.abs(res.state - np.outer(amps, amps.conj())).max()
    state = repr(rng.bit_generator.state).encode()
    return {"density_gap": float(gap), "digest": digest(drawn(res), state)}


def mixture(N, layout):
    cfg = RunConfig(M=64, R=8, N=N, eps=0.05, layout=layout, seed=N)
    def prepare():
        run = encode_run_full(cfg, band_g=0.0)
        if layout == "parallel":
            run = parallel_frequency_compress(run)
        return run
    run = timed("prepare", prepare)
    rng = np.random.default_rng(N)
    # each decode's draws as bytes: the densities are not kept
    draws = [drawn(timed("first_decode", decode_arrival, run.replay(),
                         rng=rng))]
    for _ in range(REPLAYS):
        draws.append(drawn(timed("replay_decode", decode_arrival,
                                 run.replay(), rng=rng)))
    return {"components": len(run.components),
            "digest": digest(*draws, repr(rng.bit_generator.state).encode())}


def codebook(M, layout):
    cfg = RunConfig(M=M, R=8, N=2, layout=layout, seed=M)
    rng = np.random.default_rng(M)
    draws = []
    for m in range(1, cfg.M + 1):
        for r in range(1, cfg.R + 1):
            amps = np.exp(1j * rng.uniform(0, 2 * np.pi, 2)) / np.sqrt(2)
            run = timed("write", encode_single_photon, cfg, m, r, amps=amps)
            if layout == "parallel":
                run = timed("compress", parallel_frequency_compress, run)
            res = timed("decode", decode_arrival, run)  # default generator
            assert (res.m, res.r) == (m, r)
            draws += drawn(res), res.state.tobytes()
    return {"words": cfg.M * cfg.R, "digest": digest(*draws)}


def enumeration(size, _case):
    sites, cutoff = size
    rng = np.random.default_rng(AMPS_SEED + sites)
    amps = rng.normal(size=sites) + 1j * rng.normal(size=sites)
    table = timed("table", transfer.coherent_amplitude_table, ALPHA, cutoff)
    out = timed("enumerate", transfer.heralded_transfer, amps=amps,
                table=table)
    h = hashlib.sha256()  # branch by branch: the peak stays the stage's
    for b in out.branches:
        h.update(repr((b.record, b.probability.hex(), b.fidelity.hex(),
                       b.accepted)).encode())
    figures = (out.mass, out.probability, out.fidelity)
    h.update(repr([float(x).hex() for x in figures]).encode())
    return {"records": len(table.outcomes()) ** sites,
            "kept": len(out.branches), "digest": h.hexdigest()[:16]}


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


def optics(size, _case):
    device, n = size
    matrix, leakage = timed("build", linear_optics_matrix, *DEVICES[device](n))
    return {"shape": list(matrix.shape), "digest": digest(matrix, leakage)}


# stage -> (function of (size, case), (case key, cases), default sizes)
STAGES = {
    "imaging": (imaging_frame, (None, [None]), "32 128 512 1024"),
    "photon": (photon, ("layout", list(WORDS)), "16 64 256 1024"),
    "mixture": (mixture, ("layout", list(WORDS)), "16 64 128"),
    "codebook": (codebook, ("layout", list(WORDS)), "64 256 1024"),
    "transfer": (enumeration, (None, [None]), "2:10 2:16 2:30 3:5 3:8 4:4"),
    "network": (monte_carlo, ("workers", ["one", "all"]), "2 8 64 1024 4096"),
    "optics": (optics, (None, [None]), "hadamard:6 hadamard:12 hadamard:18 "
               "hadamard:31 multiport:1 multiport:2 multiport:3 multiport:4"),
}


USAGE = (f"usage: scale.py {{{','.join(STAGES)}}} [SIZE ...], "
         f"SIZE an int or, for transfer, SITES:CUTOFF or, for optics, "
         f"{{{','.join(DEVICES)}}}:N")


def parse_size(stage, spec):
    """The size ``spec`` names: an int, for ``transfer`` the pair (sites,
    cutoff) and for ``optics`` the pair (device, N); ValueError when it is
    malformed."""
    parts = spec.split(":")
    if len(parts) != (2 if stage in ("transfer", "optics") else 1):
        raise ValueError(f"malformed {stage} size {spec!r}")
    if stage == "optics":
        if parts[0] not in DEVICES:
            raise ValueError(f"unknown optics device {parts[0]!r}")
        return parts[0], int(parts[1])
    sizes = tuple(int(part) for part in parts)
    return sizes if stage == "transfer" else sizes[0]


def measure(stage, spec):
    """The sweep rows of ``stage`` at size ``spec``, in this process."""
    size = parse_size(stage, spec)
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
        sys.exit(USAGE)
    stage, specs = argv[0], argv[1:] or STAGES[argv[0]][2].split()
    try:
        for spec in specs:
            parse_size(stage, spec)
    except ValueError:
        sys.exit(USAGE)
    if len(specs) == 1:
        try:
            rows = measure(stage, specs[0])
        except ConfigError as exc:
            sys.exit(f"scale.py {stage} {specs[0]}: {exc}")
    else:
        rows = []
        for spec in specs:
            child = subprocess.run([sys.executable, __file__, stage, spec],
                                   stdout=subprocess.PIPE)
            if child.returncode:
                sys.exit(child.returncode)
            rows += json.loads(child.stdout)["sweep"]
    print(json.dumps(document(stage, rows), indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
