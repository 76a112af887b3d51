"""Time heralded-transfer enumeration over site counts and cutoffs.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/transfer_enum_sweep.py 2:10 2:16 2:30 3:5 3:8 4:4

For each ``sites:cutoff`` given (these six by default) it runs
``transfer.heralded_transfer(ALPHA, amps=..., cutoff=cutoff)`` with fixed
complex which-site amplitudes (seeded, one vector per site count), and
prints one JSON line: the number of records K^n and of kept branches, the
fastest of REPEATS runs in seconds, the tracemalloc peak of one more run in
MiB, and a digest of every branch (record, probability, fidelity, herald
flag) together with the mass and both figures, all as exact float hex, so
two trees that agree bit for bit print the same digest.
"""

import hashlib
import json
import sys
import tracemalloc
from time import perf_counter

import numpy as np

from qtelarray import transfer

ALPHA = 1.2
SEED = 3
REPEATS = 3
CASES = ("2:10", "2:16", "2:30", "3:5", "3:8", "4:4")


def amplitudes(sites):
    rng = np.random.default_rng(SEED + sites)
    return rng.normal(size=sites) + 1j * rng.normal(size=sites)


def run(sites, cutoff):
    return transfer.heralded_transfer(ALPHA, amps=amplitudes(sites),
                                      cutoff=cutoff)


def digest(out):
    h = hashlib.sha256()
    for b in out.branches:
        h.update(repr((b.record, b.probability.hex(), b.fidelity.hex(),
                       b.accepted)).encode())
    figures = (out.mass, out.probability, out.fidelity)
    h.update(repr([float(x).hex() for x in figures]).encode())
    return h.hexdigest()[:16]


def time_case(spec):
    sites, cutoff = (int(x) for x in spec.split(":"))
    times = []
    for _ in range(REPEATS):
        t = perf_counter()
        out = run(sites, cutoff)
        times.append(perf_counter() - t)
    tracemalloc.start()
    run(sites, cutoff)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    outcomes = len(transfer.coherent_amplitude_table(ALPHA, cutoff).outcomes())
    return {
        "sites": sites, "cutoff": cutoff, "records": outcomes ** sites,
        "kept": len(out.branches), "best_s": round(min(times), 5),
        "tracemalloc_peak_mib": round(peak / 2 ** 20, 1),
        "digest": digest(out),
    }


def main(specs):
    for spec in specs:
        print(json.dumps(time_case(spec)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or CASES)
