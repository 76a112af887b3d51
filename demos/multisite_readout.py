"""Decode a stored mixture and read pair correlations out of the W register.

The stored state is a broadband mixture over time bins and bands; each
replayed arrival is decoded into a single carrier qubit per site, then a
W-state readout collapses the carrier onto one random site pair whose
2x2 density still holds the sky coherence g.
"""

import numpy as np

from qtelarray.codec import RunConfig, encode_run_full
from qtelarray.netdecode import (
    decode_arrival,
    pair_correlators,
    sample_pair_products,
    w_state_readout,
)
from qtelarray.util import make_rng

g_true = 0.55 - 0.25j
config = RunConfig(M=3, R=2, N=2, eps=0.05, layout="sequential", seed=42)
run = encode_run_full(config, band_g=[g_true, g_true])
print(f"stored mixture: {len(run.components)} components, "
      f"total weight {run.weights_total():.12f}")

rng = make_rng(1234)
kept = []
for _ in range(400):
    result = decode_arrival(run.replay(), rng=rng)
    if result.is_vacuum:
        continue
    kept.append(result.state)
print(f"photon arrivals decoded: {len(kept)} of 400 "
      f"(vacuum rate tracks (1-eps)^M)")

rho = np.mean(kept, axis=0)
print("mean carrier density over sites:")
print(np.round(rho, 4))
print(f"stored coherence 2*rho[0,1] = {2 * rho[0, 1]:.4f}"
      f"  (band visibility was {g_true:.4f})")

# one W readout: the surviving pair keeps the coherence exactly
out = w_state_readout(rho / np.trace(rho).real, rng=make_rng(5))
print(f"\nW readout picked pair {out.pair} after {out.attempts} attempt(s)")
corr = pair_correlators(out.density)
print(f"pair correlators: XX={corr['XX']:+.4f} XY={corr['XY']:+.4f} "
      f"-> g_hat = {corr['g_hat']:.4f}")

# finite statistics: sample quadrature products from the collapsed pair
shots = 20000
mx = sample_pair_products(out.density, "XX", shots, make_rng(6)).mean()
my = sample_pair_products(out.density, "XY", shots, make_rng(7)).mean()
print(f"\nsampled with {shots} shots per setting:")
print(f"  <XX> = {mx:+.4f} (exact {corr['XX']:+.4f})")
print(f"  <XY> = {my:+.4f} (exact {corr['XY']:+.4f})")
