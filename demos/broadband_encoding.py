"""Walk through writing and reading one broadband time-bin arrival.

A photon arriving in time bin m and frequency band r is logged into each
site's memory as the binary codeword (m, r). The demo writes a single
arrival, inspects the stored register, compresses the parallel layout's
flag qubits, and reads the record back with parity checks only.
"""

import numpy as np

from qtelarray.codec import (
    Codebook,
    RunConfig,
    encode_single_photon,
    parallel_frequency_compress,
)
from qtelarray.netdecode import decode_arrival

config = RunConfig(M=5, R=2, N=2, layout="sequential", seed=7)
book = Codebook(config.M, config.R)

print("codebook for M=5 time bins, R=2 bands")
print(f"  register width: {book.length} qubits "
      f"({book.t_bits} time + {book.f_bits} band)")
for m, r in [(1, 1), (3, 2), (5, 1), (5, 2)]:
    print(f"  (m={m}, r={r}) -> {book.codeword(m, r)}")
print(f"  vacuum        -> {book.vacuum}")

# write an arrival in bin 3, band 2, with unequal site amplitudes
amps = np.array([0.8, 0.6])
run = encode_single_photon(config, m=3, r=2, amps=amps)
print("\nafter the write (sequential layout):")
print(f"  memory qubits per site: "
      f"{run.ledger.as_dict()['memory_qubits_per_site']}")
print(f"  stored components: {len(run.components)}")

result = decode_arrival(run)
print("\nafter the parity-check read:")
print(f"  decoded (m, r) = ({result.m}, {result.r})")
print(f"  parity checks spent: {result.checks}")
print(f"  entangled pairs consumed: {run.ledger.as_dict()['bell_pairs']}")

rho = result.state
print("  carrier density over sites (should be amps x amps^T):")
print(np.round(rho, 6))

# the parallel layout holds R time registers plus flags, then compresses
parallel = RunConfig(M=16, R=4, N=2, layout="parallel", seed=7)
run2 = encode_single_photon(parallel, m=11, r=3)
before = run2.layout.qubits_per_site
run2 = parallel_frequency_compress(run2)
result2 = decode_arrival(run2)
print("\nparallel layout at M=16, R=4:")
print(f"  qubits per site before any pruning: {before}")
print(f"  decoded (m, r) = ({result2.m}, {result2.r}) "
      f"with {result2.checks} checks")
