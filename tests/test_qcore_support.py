"""Compact support-state representation against the dense engine."""

import numpy as np
import pytest

from qtelarray.qcore import (
    QuantumState,
    StateError,
    SupportState,
    build_state,
    cnot,
    enumerate_measure,
    hadamard,
    pauli_z,
    qubit_registry,
)


def dense_of(sup: SupportState) -> QuantumState:
    reg = qubit_registry(sup.labels)
    return QuantumState.from_vector(reg, sup.to_vector())


def test_basis_and_zero_constructors():
    z = SupportState.zeros(["a", "b", "c"])
    assert z.amps == {0: 1.0}
    b = SupportState.basis(["a", "b", "c"], {"b": 1})
    assert b.amps == {2: 1.0}
    s = SupportState.basis(["a", "b", "c"], [1, 0, 1])
    assert s.amps == {5: 1.0}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_circuit_matches_dense(seed):
    """Drive the same random Z and CNOT circuit through both engines."""
    rng = np.random.default_rng(seed)
    labels = ["q0", "q1", "q2", "q3"]
    sup = SupportState.basis(labels, [1, 0, 0, 1])
    st = build_state(qubit_registry(labels), {"1001": 1})
    for _ in range(25):
        kind = rng.integers(0, 2)
        picks = rng.choice(4, size=2, replace=False)
        a, b = labels[picks[0]], labels[picks[1]]
        if kind == 0:
            sup, st = sup.apply_z(a), pauli_z(st, a)
        else:
            sup, st = sup.apply_cnot(a, b), cnot(st, a, b)
    np.testing.assert_allclose(sup.to_vector(), st.vector, atol=1e-12)


def test_hadamard_matches_dense():
    labels = ["q0", "q1"]
    sup = SupportState.basis(labels, [1, 0]).apply_h("q0").apply_cnot("q0", "q1")
    st = cnot(hadamard(build_state(qubit_registry(labels), {"10": 1}), "q0"), "q0", "q1")
    np.testing.assert_allclose(sup.to_vector(), st.vector, atol=1e-12)


def test_phase_if_match_is_projector_phase():
    labels = ["q0", "q1", "q2"]
    sup = SupportState(
        labels,
        {0b000: 0.5, 0b011: 0.5, 0b101: 0.5, 0b110: 0.5},
    )
    flipped = sup.phase_if_match(["q0", "q1"], [1, 1])
    # only strings with q0=1 and q1=1 flip: mask 0b011 (q0 and q1 set)
    assert flipped.amps[0b011] == pytest.approx(-0.5)
    assert flipped.amps[0b000] == pytest.approx(0.5)
    assert flipped.amps[0b101] == pytest.approx(0.5)
    dense_op = np.eye(8, dtype=complex)
    # q0, q1 both one: dense indices with first two registry axes = 1,1
    reg = qubit_registry(labels)
    for idx in range(8):
        occ = reg.basis_assignment(idx)
        if occ[0] == 1 and occ[1] == 1:
            dense_op[idx, idx] = -1
    expect = dense_op @ dense_of(sup).vector
    np.testing.assert_allclose(dense_of(flipped).vector, expect, atol=1e-12)


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_measurement_branches_match_dense(basis):
    labels = ["q0", "q1", "q2"]
    sup = SupportState(
        labels, {0b001: 1.0, 0b010: 1.0j, 0b100: -1.0}, normalize=True
    )
    st = dense_of(sup)
    got = sup.measure_branches("q1", basis=basis)
    want = enumerate_measure(st, ["q1"], basis=basis, remove=True)
    got_map = {o: (p, b) for o, p, b in got}
    for outcome, p, post in want:
        o = outcome[0]
        gp, gpost = got_map[o]
        assert gp == pytest.approx(p, abs=1e-12)
        overlap = abs(np.vdot(gpost.to_vector(), post.vector))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_measure_branch_probabilities_sum():
    sup = SupportState(["a", "b"], {0b00: 1, 0b01: 1, 0b11: 1}, normalize=True)
    for basis in ("Z", "X"):
        total = sum(p for _, p, _ in sup.measure_branches("a", basis))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_tensor_and_inner():
    a = SupportState(["x"], {0: 1, 1: 1}, normalize=True)
    b = SupportState.basis(["y"], [1])
    ab = a.tensor(b)
    assert ab.labels == ("x", "y")
    assert set(ab.amps) == {0b10, 0b11}
    assert ab.norm2() == pytest.approx(1.0)
    c = SupportState(["x", "y"], {0b10: 1.0})
    assert ab.inner(c) == pytest.approx(1 / np.sqrt(2))


def test_large_register_stays_compact():
    labels = [f"m{i}" for i in range(60)]
    sup = SupportState.basis(labels, [1 - i % 2 for i in range(60)])
    assert len(sup.amps) == 1
    assert sup.norm2() == pytest.approx(1.0)
    # an entangled pair of strings over 60 qubits is still two entries
    sup = sup.apply_h(labels[1])
    for i in range(3, 60, 2):
        sup = sup.apply_cnot(labels[1], labels[i])
    assert len(sup.amps) == 2
    assert sup.norm2() == pytest.approx(1.0)


def test_to_vector_limit_names_itself_and_the_qubit_count():
    assert SupportState.zeros([f"m{i}" for i in range(20)]).to_vector().size == 2**20
    with pytest.raises(
        StateError, match="to_vector: 21 qubits exceed the 20-qubit .*TO_VECTOR_LIMIT"
    ):
        SupportState.zeros([f"m{i}" for i in range(21)]).to_vector()


def test_normalize_comes_before_the_amplitude_floor():
    # 1.4e-130 is below AMP_FLOOR, but the state it spans is a unit vector
    sup = SupportState(["a", "b"], {0b01: 0.0, 0b10: 1.37476369e-130j},
                       normalize=True)
    assert sup.amps == {0b10: 1j}
    with pytest.raises(StateError, match="empty support"):
        SupportState(["a"], {0: 1e-20})
    with pytest.raises(StateError, match="empty support"):
        SupportState(["a"], {0: 0.0, 1: 0.0}, normalize=True)
