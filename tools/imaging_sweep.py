"""Time one imaging frame per array size, stage by stage.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/imaging_sweep.py 32 128 512 1024

For each size N given, it images a flat on-grid source with a budget of
200k shots, as one frame of the benchmark's wide_array workload does:
visibilities from the intensity, the QFT closed form, the QFT conjugation
route, a sampled QFT image and the classical pair-correlation pipeline. It
prints one JSON line per N: the fastest of three runs of each stage in
seconds and their sum as frame_s; the first run of each stage as
<stage>_first_s and their sum as first_frame_s, which is where the DFT
tables cached per N are built, so the cold cost shows beside the warm one;
and a digest of the classical image, which is the same from any version
that draws the same pairs.
"""

import hashlib
import json
import sys
from time import perf_counter

import numpy as np

from qtelarray import imaging, source

REPEATS = 3
SHOTS = 200_000


def one_frame(N):
    times = {}
    t = perf_counter()
    dist = source.IntensityDistribution.flat_on_grid(N, 1.0)
    vis = source.visibility_from_intensity(dist, source.ArrayGeometry(N, 1.0))
    times["visibility_s"] = perf_counter() - t
    t = perf_counter()
    imaging.qft_image_diagonal(vis)
    times["closed_s"] = perf_counter() - t
    t = perf_counter()
    np.diag(imaging.qft_process(vis)).real
    times["conjugation_s"] = perf_counter() - t
    t = perf_counter()
    imaging.sample_qft(vis, SHOTS, rng=N)
    times["sample_qft_s"] = perf_counter() - t
    t = perf_counter()
    est = imaging.classical_pipeline(vis, SHOTS, rng=N + 1)
    times["classical_s"] = perf_counter() - t
    return times, hashlib.sha256(est.i_hat.tobytes()).hexdigest()[:16]


def main(sizes):
    for N in sizes:
        runs = [one_frame(N) for _ in range(REPEATS)]
        best = {k: min(t[k] for t, _ in runs) for k in runs[0][0]}
        best["frame_s"] = sum(best.values())
        first = {k[:-2] + "_first_s": v for k, v in runs[0][0].items()}
        first["first_frame_s"] = sum(first.values())
        row = {"N": N, **best, **first, "classical_digest": runs[0][1]}
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]])
