"""Time the network Monte Carlo over array sizes, on one thread and on all.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/network_mc_sweep.py 2 8 64 1024 4096

For each size N given (these five by default) it runs
``transfer.network_monte_carlo(N, P1, UNIFORMS // N, rng=SEED)``, so every
size draws about 64e6 success uniforms, once with the worker count forced
to one and once with the default (one thread per CPU the process may run
on). It prints one JSON line per (N, workers): the fastest of REPEATS runs
in seconds, the tracemalloc peak of one more run in MiB, and a digest of
the returned dict together with the generator's final state, which must
not depend on the worker count. On a tree without ``_mc_workers`` only the
default row is printed.
"""

import hashlib
import json
import sys
import tracemalloc
from time import perf_counter

import numpy as np

from qtelarray import transfer

UNIFORMS = 64_000_000
P1 = 0.469041575982343
SEED = 7
REPEATS = 3
SIZES = (2, 8, 64, 1024, 4096)


def one_run(N):
    rng = np.random.default_rng(SEED)
    out = transfer.network_monte_carlo(N, P1, UNIFORMS // N, rng=rng)
    text = json.dumps([out, rng.bit_generator.state], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measure(N):
    times = []
    for _ in range(REPEATS):
        t = perf_counter()
        digest = one_run(N)
        times.append(perf_counter() - t)
    tracemalloc.start()
    one_run(N)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return min(times), peak / 2 ** 20, digest


def main(sizes):
    default = getattr(transfer, "_mc_workers", None)
    modes = [("all", default)]
    if default is not None:
        modes.insert(0, ("one", lambda draws: 1))
    for N in sizes:
        for name, workers in modes:
            if workers is not None:
                transfer._mc_workers = workers
            seconds, peak_mib, digest = measure(N)
            row = {"N": N, "trials": UNIFORMS // N, "workers": name,
                   "seconds": round(seconds, 4),
                   "tracemalloc_peak_mib": round(peak_mib, 2),
                   "digest": digest}
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or SIZES)
