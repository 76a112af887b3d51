"""Dense reference route for the single-site plus-ancilla teleport.

``qtelarray.transfer`` writes the teleport's five detection records in closed
form. This module replays the protocol on a dense ``QuantumState``: the input
mode, the ancilla mode and the memory qubit, a balanced splitter, lossy or
ideal number detection on both ports, and the Z correction on the (0, 1)
record. Tests compare the two routes record by record.
"""

import numpy as np

from qtelarray.qcore import (
    QuantumState,
    beam_splitter,
    build_state,
    enumerate_measure,
    fock,
    lossy_detector,
    pauli_z,
    qubit,
    ModeRegistry,
)
from qtelarray.transfer import BRANCH_PRUNE, Branch, TransferOutcome
from qtelarray.util import ConfigError


def _teleport_registry() -> ModeRegistry:
    return ModeRegistry([fock("a", 2), fock("b", 2), qubit("m")])


def _teleport_input(theta: float) -> QuantumState:
    """(|0>_a + e^{i theta} |1>_a)/sqrt2 with the memory-ancilla pair."""
    reg = _teleport_registry()
    z = np.exp(1j * theta)
    return build_state(
        reg,
        {
            "0,1,0": 0.5,
            "0,0,1": 0.5,
            "1,1,0": 0.5 * z,
            "1,0,1": 0.5 * z,
        },
    )


def plus_ancilla_transfer(theta: float = 0.0) -> TransferOutcome:
    """Teleport one vacuum/photon qubit onto a memory via a plus ancilla.

    The memory starts entangled with the ancilla mode, the input interferes
    with the ancilla on a balanced splitter, and both ports are counted.
    Single counts are accepted, with a Z on the (0, 1) record; the accepted
    fidelity is exactly 1 at exactly half the total probability, for every
    input phase theta.
    """
    state = beam_splitter(_teleport_input(theta), "a", "b")
    target = np.array([1.0, np.exp(1j * theta)]) / np.sqrt(2.0)
    branches = []
    p_acc = 0.0
    f_acc = 0.0
    for counts, p, post in enumerate_measure(state, ("a", "b"), basis="number",
                                             remove=True):
        i, j = counts
        if (i, j) == (0, 1):
            post = pauli_z(post, "m")
        accepted = i + j == 1
        fid = float(post.fidelity(target))
        if accepted:
            p_acc += p
            f_acc += p * fid
        branches.append(Branch((i, j), float(p), fid, accepted))
    return TransferOutcome(
        kind="plus_teleport", fidelity=f_acc / p_acc, probability=p_acc,
        branches=branches, mass=float(sum(b.probability for b in branches)),
        extra={"theta": theta},
    )


def lossy_transfer(eta: float, theta: float = 0.0) -> TransferOutcome:
    """Plus-ancilla teleport with lossy detectors of amplitude transmission eta.

    Both output ports pass through a beam-splitter loss channel before
    counting; records with exactly one observed photon are accepted (Z on
    the (0, 1) record). Loss admits two-photon events disguised as single
    counts, trading acceptance for fidelity.
    """
    if not 0.0 <= eta <= 1.0:
        raise ConfigError("transmission must lie in [0, 1]")
    state = beam_splitter(_teleport_input(theta), "a", "b")
    target = np.array([1.0, np.exp(1j * theta)]) / np.sqrt(2.0)
    branches = []
    p_acc = 0.0
    f_acc = 0.0
    for i, p_i, post_i in lossy_detector(state, "a", eta):
        for j, p_j, post in lossy_detector(post_i, "b", eta):
            p = p_i * p_j
            if p <= BRANCH_PRUNE:
                continue
            if (i, j) == (0, 1):
                post = pauli_z(post, "m")
            accepted = i + j == 1
            fid = float(post.fidelity(target))
            if accepted:
                p_acc += p
                f_acc += p * fid
            branches.append(Branch((i, j), float(p), fid, accepted))
    return TransferOutcome(
        kind="lossy_teleport",
        fidelity=f_acc / p_acc if p_acc > 0 else 0.0,
        probability=p_acc,
        branches=branches,
        mass=float(sum(b.probability for b in branches)),
        extra={"eta": eta, "theta": theta},
    )
