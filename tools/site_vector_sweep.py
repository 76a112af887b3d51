"""Time a photon, or a full-rank mixture, through codec and decoder per array size.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/site_vector_sweep.py 16 32 64 128 256 512 1024
    PYTHONPATH=src python3 tools/site_vector_sweep.py --mixture 16 64 128

For each size N given and both memory layouts, it writes one photon with
random complex site amplitudes into an M=64, R=8 codebook (codeword (63, 8)
sequential, (63, 7) parallel, the widest of each), compresses the parallel
flags, decodes the arrival and runs one W readout. It prints one JSON line
per (layout, N): the fastest of three runs of each stage in seconds, and the
largest gap between the decoded density and outer(amps, amps*).

With ``--mixture`` it prepares instead the exact M=64, R=8 mixture with
g = I in every band (eps = 0.05, so 1 + M*R*N components), compresses the
parallel flags, and decodes it once (``first_decode_s``, which builds the
decoder's pattern-class index) and then through ``REPLAYS`` replays of the
same preparation on one generator (median and largest time; in the parallel
layout the largest includes the first decode of a band, which builds that
band's time-row classes). It prints one JSON line per (layout, N).
"""

import json
import sys
from time import perf_counter

import numpy as np

from qtelarray.codec import (
    RunConfig,
    encode_run_full,
    encode_single_photon,
    parallel_frequency_compress,
)
from qtelarray.netdecode import decode_arrival, w_state_readout

REPEATS = 3
REPLAYS = 50
MIXTURE_EPS = 0.05
WORDS = {"sequential": (63, 8), "parallel": (63, 7)}


def one_photon(layout, N, amps):
    m, r = WORDS[layout]
    cfg = RunConfig(M=64, R=8, N=N, layout=layout, seed=N)
    times = {}
    t = perf_counter()
    run = encode_single_photon(cfg, m, r, amps=amps)
    times["write_s"] = perf_counter() - t
    if layout == "parallel":
        t = perf_counter()
        run = parallel_frequency_compress(run)
        times["compress_s"] = perf_counter() - t
    t = perf_counter()
    res = decode_arrival(run)
    times["decode_s"] = perf_counter() - t
    t = perf_counter()
    w_state_readout(res.state, rng=N)
    times["readout_s"] = perf_counter() - t
    assert (res.m, res.r) == (m, r)
    gap = float(np.abs(res.state - np.outer(amps, amps.conj())).max())
    return times, gap


def mixture(layout, N):
    cfg = RunConfig(M=64, R=8, N=N, eps=MIXTURE_EPS, layout=layout, seed=N)
    t = perf_counter()
    run = encode_run_full(cfg, band_g=0.0)
    if layout == "parallel":
        run = parallel_frequency_compress(run)
    row = {"layout": layout, "N": N, "components": len(run.components),
           "prepare_s": perf_counter() - t}
    rng = np.random.default_rng(N)
    t = perf_counter()
    decode_arrival(run.replay(), rng=rng)
    row["first_decode_s"] = perf_counter() - t
    times = []
    for _ in range(REPLAYS):
        t = perf_counter()
        decode_arrival(run.replay(), rng=rng)
        times.append(perf_counter() - t)
    row["replay_decode_s_median"] = float(np.median(times))
    row["replay_decode_s_max"] = max(times)
    return row


def main(sizes, mixtures=False):
    for layout in WORDS:
        for N in sizes:
            if mixtures:
                print(json.dumps(mixture(layout, N)), flush=True)
                continue
            rng = np.random.default_rng(N)
            amps = rng.normal(size=N) + 1j * rng.normal(size=N)
            amps /= np.linalg.norm(amps)
            runs = [one_photon(layout, N, amps) for _ in range(REPEATS)]
            best = {k: min(t[k] for t, _ in runs) for k in runs[0][0]}
            best["total_s"] = sum(best.values())
            row = {"layout": layout, "N": N, **best,
                   "density_gap": max(g for _, g in runs)}
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    args = sys.argv[1:]
    mixtures = "--mixture" in args
    main([int(a) for a in args if a != "--mixture"], mixtures)
