"""Memory-assisted quantum telescope array simulator.

Subpackages and modules:

- ``qcore``: the tests' reference engine (state vectors and ensembles,
  gates, Fock modes, measurement) and the linear-optics matrices of the
  transfer step; loaded lazily
- ``source``: array geometry, intensities, visibilities
- ``codec``: time/frequency codebook and the memory encoding pipeline
- ``netdecode``: entanglement-assisted decoding and pairwise readout
- ``imaging``: QFT versus classical intensity reconstruction
- ``transfer``: photon-detection-based state transfer and network formulas
- ``cli``: reproducible experiment runner with CSV output
- ``util``: seeded RNG plumbing, config parsing, the DFT unitary
"""

__version__ = "0.1.0"
