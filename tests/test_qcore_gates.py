"""Gate application, QFT matrix, and measurement semantics."""

import numpy as np
import pytest

from qtelarray.qcore import (
    MeasurementError,
    QuantumState,
    StateError,
    apply_matrix,
    build_state,
    cnot,
    cz,
    enumerate_measure,
    hadamard,
    pauli_z,
    qft_matrix,
    qubit_registry,
)


def test_gate_definition_examples():
    reg = qubit_registry(["c", "t"])
    assert cnot(build_state(reg, {"10": 1}), "c", "t").overlap_probability("11") == 1
    st = cz(build_state(reg, {"11": 1}), "c", "t")
    assert st.vector[3] == pytest.approx(-1.0)

    bell = build_state(reg, {"00": 1, "11": 1})
    zz = pauli_z(pauli_z(bell, "c"), "t")
    assert zz.fidelity(bell) == pytest.approx(1.0, abs=1e-12)
    assert pauli_z(bell, "c").fidelity(bell) == pytest.approx(0.0, abs=1e-12)


def test_apply_preserves_trace_and_checks_dims():
    reg = qubit_registry(["q0", "q1"])
    st = build_state(reg, {"00": 1, "01": 1, "10": 1})
    out = cnot(st, "q0", "q1")
    assert np.trace(out.density_matrix()).real == pytest.approx(1.0, abs=1e-12)
    assert out.overlap_probability("11") == pytest.approx(1 / 3, abs=1e-12)
    with pytest.raises(StateError, match="operator dimension 2 does not match"):
        apply_matrix(st.vector, reg, np.eye(2), ("q0", "q1"))


def test_qft_matrix_values():
    np.testing.assert_allclose(qft_matrix(1), [[1.0]], atol=1e-15)
    np.testing.assert_allclose(
        qft_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
    )
    # omega^{jk}/sqrt(N) at N=4, j=2, k=3: exp(2*pi*i*6/4)/2 = -1/2
    assert qft_matrix(4)[2, 3] == pytest.approx(-0.5, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 9))
def test_qft_unitary_and_parity(n):
    U = qft_matrix(n)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(n), atol=1e-12)
    # applying the QFT twice reverses the index (0 stays put)
    P = np.zeros((n, n))
    P[0, 0] = 1
    for j in range(1, n):
        P[j, n - j] = 1
    np.testing.assert_allclose(U @ U, P, atol=1e-12)


def test_measure_basic_distributions():
    reg = qubit_registry(["q"])
    plus = build_state(reg, {"0": 1, "1": 1})
    branches = enumerate_measure(plus, ["q"], basis="Z")
    zprobs = {o: p for o, p, _ in branches}
    assert zprobs[(0,)] == pytest.approx(0.5)
    assert zprobs[(1,)] == pytest.approx(0.5)
    zero = build_state(reg, {"0": 1})
    xbranches = enumerate_measure(zero, ["q"], basis="X")
    probs = {o[0]: p for o, p, _ in xbranches}
    assert probs[1] == pytest.approx(0.5)
    assert probs[-1] == pytest.approx(0.5)


def test_enumerate_branches_reconstruct_decohered_state():
    rng = np.random.default_rng(7)
    reg = qubit_registry(["q0", "q1"])
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    st = QuantumState.from_vector(reg, v)
    branches = enumerate_measure(st, ["q0"], basis="Z")
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-10)
    recombined = sum(
        p * b.density_matrix() for _, p, b in branches
    )
    rho = st.density_matrix()
    decohered = rho.copy().reshape(2, 2, 2, 2)
    decohered[0, :, 1, :] = 0
    decohered[1, :, 0, :] = 0
    np.testing.assert_allclose(
        recombined, decohered.reshape(4, 4), atol=1e-10
    )


def test_measure_posterior_conditions_every_component():
    reg = qubit_registry(["q0", "q1"])
    # mixture of |00> and |++>; observing q0=1 must leave only the |++> part
    plusplus = build_state(reg, {"00": 1, "01": 1, "10": 1, "11": 1})
    mix = QuantumState(
        reg, [(0.5, build_state(reg, {"00": 1}).vector), (0.5, plusplus.vector)]
    )
    branches = {o: (p, b) for o, p, b in enumerate_measure(mix, ["q0"])}
    p1, post1 = branches[(1,)]
    assert p1 == pytest.approx(0.25)
    assert post1.is_pure
    assert post1.overlap_probability("10") == pytest.approx(0.5)
    p0, post0 = branches[(0,)]
    assert p0 == pytest.approx(0.75)
    assert len(post0.components) == 2


def test_measure_remove_drops_modes():
    reg = qubit_registry(["q0", "q1"])
    st = build_state(reg, {"01": 1, "11": 1})
    branches = enumerate_measure(st, ["q1"], basis="Z", remove=True)
    (outcome, p, post), = branches
    assert outcome == (1,)
    assert p == pytest.approx(1.0)
    assert post.registry.labels == ("q0",)
    np.testing.assert_allclose(
        np.abs(post.vector), [1 / np.sqrt(2)] * 2, atol=1e-12
    )


def test_measure_rejects_invalid_basis():
    reg = qubit_registry(["q"])
    st = build_state(reg, {"0": 1})
    with pytest.raises(MeasurementError, match="number basis is fock-only"):
        enumerate_measure(st, ["q"], basis="number")
    with pytest.raises(MeasurementError, match="unknown basis 'Y'"):
        enumerate_measure(st, ["q"], basis="Y")


def test_x_measure_without_removal_restores_basis():
    reg = qubit_registry(["q0", "q1"])
    st = build_state(reg, {"00": 1, "10": 1})  # |+>|0>
    branches = enumerate_measure(st, ["q0"], basis="X")
    (outcome, p, post), = branches
    assert outcome == (1,)
    assert p == pytest.approx(1.0)
    # post state in the original basis is still |+>|0>
    assert post.overlap_probability("00") == pytest.approx(0.5)
    assert post.overlap_probability("10") == pytest.approx(0.5)


def test_hadamard_roundtrip():
    reg = qubit_registry(["q"])
    st = build_state(reg, {"0": 1})
    assert hadamard(hadamard(st, "q"), "q").fidelity(st) == pytest.approx(1.0)
