"""Dense reference routes for the source states, GHZ decoding and W readout.

The package keeps each photon as site amplitudes and reads it with parity
bits and pair picks, never forming a 2^N state. This module builds the same
objects as dense ``QuantumState`` ensembles: the single-photon and broadband
source states, the GHZ and W resources, one GHZ row-parity check and one
W-readout attempt, each with every outcome branch enumerated. Tests compare
the production routes against these.
"""

import warnings

import numpy as np

from qtelarray.netdecode import DecodeError
from qtelarray.qcore import (
    ModeRegistry,
    QuantumState,
    StateError,
    cnot,
    cz,
    enumerate_measure,
    fock,
    qubit,
    qubit_registry,
)
from qtelarray.source import EPS_WARN


# ---- source states -----------------------------------------------------------


def site_labels(N: int):
    return tuple(f"s{i}" for i in range(N))


def single_photon_rho(vis) -> QuantumState:
    """Single-photon state over N site qubits: rho^(1) = g/N on {|1_i>}.

    Built as the eigen-ensemble of g/N embedded in the single-excitation
    subspace, so it scales past the dense-density limit in N.
    """
    N = vis.geometry.N
    vals, vecs = np.linalg.eigh(vis.g / N)
    if vals.min() < -1e-10:
        raise StateError(
            f"visibility matrix is not positive semidefinite "
            f"(min eigenvalue {vals.min():.2e}); unphysical g"
        )
    reg = ModeRegistry([qubit(lab) for lab in site_labels(N)])
    comps = []
    for e in range(N):
        w = float(vals[e])
        if w <= 1e-12:
            continue
        v = np.zeros(reg.dim, dtype=complex)
        for i in range(N):
            occ = [0] * N
            occ[i] = 1
            v[reg.basis_index(occ)] = vecs[i, e]
        comps.append((w, v))
    return QuantumState(reg, comps)


def broadband_labels():
    return ("band1_a", "band1_b", "band2_a", "band2_b")


def broadband_two_site_rho(eps: float, g1, g2) -> QuantumState:
    """Two-site, two-band weak-source state over 4 single-photon Fock modes.

    rho = (1 - eps) |vac><vac| + (eps/2) rho_1 + (eps/2) rho_2 with no
    cross-band coherence; band r's single-photon block is (1/2)[[1, g_r],
    [conj(g_r), 1]] over (site a, site b).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if eps > EPS_WARN:
        warnings.warn(
            f"eps={eps} strains the weak-source approximation", stacklevel=2
        )
    for g in (g1, g2):
        if abs(g) > 1 + 1e-12:
            raise ValueError("|g| must not exceed 1")
    reg = ModeRegistry([fock(lab, 1) for lab in broadband_labels()])
    comps = [(1.0 - eps, _basis_vec(reg, (0, 0, 0, 0)))]
    for r, g in ((1, g1), (2, g2)):
        block = np.array([[1.0, g], [np.conj(g), 1.0]]) / 2
        vals, vecs = np.linalg.eigh(block)
        offset = 0 if r == 1 else 2
        for e in range(2):
            w = float(vals[e])
            if w <= 1e-12:
                continue
            v = np.zeros(reg.dim, dtype=complex)
            for i in range(2):
                occ = [0, 0, 0, 0]
                occ[offset + i] = 1
                v[reg.basis_index(occ)] = vecs[i, e]
            comps.append((eps / 2 * w, v))
    return QuantumState(reg, comps)


def _basis_vec(reg, occ):
    v = np.zeros(reg.dim, dtype=complex)
    v[reg.basis_index(occ)] = 1.0
    return v


# ---- entangled resources -------------------------------------------------------


def ghz_state(n: int, labels=None) -> QuantumState:
    """(|0..0> + |1..1>)/sqrt(2) over n qubits."""
    if n < 2:
        raise ValueError("GHZ resource needs at least 2 qubits")
    labels = tuple(labels) if labels else tuple(f"ghz{i}" for i in range(n))
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = vec[-1] = 2 ** -0.5
    return QuantumState.from_vector(qubit_registry(labels), vec)


def w_state(n: int, labels=None) -> QuantumState:
    """Uniform single-excitation state over n qubits."""
    if n < 2:
        raise ValueError("W resource needs at least 2 qubits")
    labels = tuple(labels) if labels else tuple(f"w{i}" for i in range(n))
    vec = np.zeros(2 ** n, dtype=complex)
    for i in range(n):
        vec[1 << (n - 1 - i)] = n ** -0.5
    return QuantumState.from_vector(qubit_registry(labels), vec)


def tensor_states(a: QuantumState, b: QuantumState) -> QuantumState:
    """Product of two qubit-register states (a's modes become the slow axes)."""
    reg = qubit_registry(a.registry.labels + b.registry.labels)
    comps = [
        (wa * wb, np.kron(va, vb))
        for wa, va in a.components
        for wb, vb in b.components
    ]
    return QuantumState(reg, comps)


# ---- GHZ parity check ------------------------------------------------------------


def ghz_parity_branches(state: QuantumState, row_labels):
    """All outcome branches of one GHZ row-parity check.

    Returns [(outcomes, parity, probability, post_memory)] with outcomes the
    X results (+1/-1) on the GHZ qubits and parity 0 for an even number of
    minus signs (even row occupation), 1 for odd. The GHZ qubits are
    consumed; the memory register keeps every label.
    """
    row_labels = tuple(row_labels)
    n = len(row_labels)
    ghz_labels = tuple(f"ghz{i}" for i in range(n))
    joint = tensor_states(state, ghz_state(n, ghz_labels))
    for mem, anc in zip(row_labels, ghz_labels):
        joint = cz(joint, mem, anc)
    out = []
    for outcomes, p, post in enumerate_measure(
        joint, ghz_labels, basis="X", remove=True
    ):
        parity = sum(1 for s in outcomes if s < 0) % 2
        out.append((outcomes, parity, p, post))
    return out


# ---- W-state readout -------------------------------------------------------------


def excitation_density(state: QuantumState) -> np.ndarray:
    """N x N density in the which-site basis of a single-excitation state."""
    n = len(state.registry.labels)
    idx = [1 << (n - 1 - i) for i in range(n)]
    rho = np.zeros((n, n), dtype=complex)
    mass = 0.0
    for w, vec in state.components:
        sub = vec[idx]
        rho += w * np.outer(sub, np.conj(sub))
        mass += w * float(np.vdot(sub, sub).real)
    if abs(mass - 1.0) > 1e-10:
        raise DecodeError(
            f"state is not confined to single excitations (mass {mass})"
        )
    return rho


def w_readout_branches(state: QuantumState):
    """All W-readout branches on a carrier state.

    Returns [(w_bits, p, post_carrier)]; the all-zeros branch keeps the
    carrier for a retry, a two-ones branch collapses it onto that site pair.
    """
    labels = state.registry.labels
    n = len(labels)
    w_labels = tuple(f"w{i}" for i in range(n))
    joint = tensor_states(state, w_state(n, w_labels))
    for mem, anc in zip(labels, w_labels):
        joint = cnot(joint, mem, anc)
    return enumerate_measure(joint, w_labels, basis="Z", remove=True)
