"""State construction, invariants, partial trace, fidelity."""

import numpy as np
import pytest

from qtelarray.qcore import (
    ModeRegistry,
    QuantumState,
    RegistryError,
    StateError,
    build_state,
    fock,
    qubit,
    qubit_registry,
)


def test_registry_basics():
    reg = ModeRegistry([qubit("q0"), fock("a", 3), qubit("q1")])
    assert reg.dims == (2, 4, 2)
    assert reg.dim == 16
    assert reg.index("a") == 1
    assert reg.labels == ("q0", "a", "q1")
    assert reg.basis_index((1, 2, 0)) == 1 * 8 + 2 * 2
    assert reg.basis_assignment(12) == (1, 2, 0)


def test_registry_rejects_duplicates_and_unknown():
    with pytest.raises(RegistryError):
        ModeRegistry([qubit("q"), qubit("q")])
    reg = qubit_registry(["q0", "q1"])
    with pytest.raises(RegistryError):
        reg.index("nope")
    with pytest.raises(RegistryError):
        reg.basis_index((0, 5))


def test_label_parsing_compact_and_comma():
    reg = ModeRegistry([qubit("q"), fock("a", 2)])
    assert reg.parse_label("12") == (1, 2)
    assert reg.parse_label("1,2") == (1, 2)
    big = ModeRegistry([fock("a", 30)])
    assert big.parse_label("17") == (17,)  # comma form implied by field count
    with pytest.raises(RegistryError):
        ModeRegistry([fock("a", 30), qubit("q")]).parse_label("170")


def test_build_state_examples():
    reg = qubit_registry(["q"])
    st = build_state(reg, {"0": 1})
    assert st.overlap_probability("0") == pytest.approx(1.0)

    reg2 = qubit_registry(["q0", "q1"])
    bell = build_state(reg2, {"00": 1, "11": 1})
    rho = bell.density_matrix()
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert rho[0, 3] == pytest.approx(0.5)

    reg3 = ModeRegistry([fock("a", 4)])
    plus = build_state(reg3, {"0": 1, "1": 1})
    n_op = np.diag(np.arange(5)).astype(complex)
    assert plus.expectation(n_op, ["a"]).real == pytest.approx(0.5)


def test_build_state_errors():
    reg = qubit_registry(["q"])
    with pytest.raises(RegistryError):
        build_state(reg, {"2": 1})
    with pytest.raises(StateError):
        build_state(reg, {"0": 0})


def test_from_density_checks_and_roundtrip():
    rng = np.random.default_rng(11)
    reg = qubit_registry(["q0", "q1"])
    # random valid density matrix
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    st = QuantumState.from_density(reg, rho)
    np.testing.assert_allclose(st.density_matrix(), rho, atol=1e-12)

    with pytest.raises(StateError):
        QuantumState.from_density(reg, rho + 1e-6 * 1j * np.eye(4))
    with pytest.raises(StateError):
        QuantumState.from_density(reg, 2 * rho)
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(StateError):
        QuantumState.from_density(reg, neg)


def test_state_invariants_hold_for_mixtures():
    reg = qubit_registry(["q"])
    st = QuantumState(
        reg, [(0.25, [1, 0]), (0.75, [0, 1])]
    )
    rho = st.density_matrix()
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert np.trace(rho @ rho).real == pytest.approx(0.25**2 + 0.75**2)


def test_partial_trace_examples():
    reg = qubit_registry(["q0", "q1"])
    bell = build_state(reg, {"00": 1, "11": 1})
    red = bell.partial_trace(["q0"])
    np.testing.assert_allclose(
        np.linalg.eigvalsh(red.density_matrix()), [0.5, 0.5], atol=1e-12
    )

    prod = build_state(reg, {"01": 1})
    first = prod.partial_trace(["q0"])
    np.testing.assert_allclose(
        first.density_matrix(), np.diag([1.0, 0.0]), atol=1e-12
    )

    reg3 = qubit_registry(["q0", "q1", "q2"])
    w = build_state(reg3, {"100": 1, "010": 1, "001": 1})
    two = w.partial_trace(["q0", "q1"])
    rho2 = two.density_matrix()
    assert rho2[3, 3] == pytest.approx(0.0, abs=1e-12)  # never two excitations
    assert np.trace(rho2).real == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_keep_order_permutes():
    reg = qubit_registry(["q0", "q1"])
    st = build_state(reg, {"01": 1})
    fwd = st.partial_trace(["q0", "q1"]).density_matrix()
    rev = st.partial_trace(["q1", "q0"]).density_matrix()
    # |01> keeps q0=0, q1=1; reversed order shows |10>
    assert fwd[1, 1] == pytest.approx(1.0)
    assert rev[2, 2] == pytest.approx(1.0)


def test_fidelity_examples():
    reg = qubit_registry(["q0", "q1"])
    psi = build_state(reg, {"01": 1, "10": 1})
    assert psi.fidelity(psi) == pytest.approx(1.0, abs=1e-12)

    mixed = QuantumState(
        reg,
        [(0.5, build_state(reg, {"01": 1}).vector),
         (0.5, build_state(reg, {"10": 1}).vector)],
    )
    assert mixed.fidelity(psi) == pytest.approx(0.5, abs=1e-12)

    one_qubit = qubit_registry(["q"])
    maximally_mixed = QuantumState(
        one_qubit, [(0.5, [1, 0]), (0.5, [0, 1])]
    )
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert maximally_mixed.fidelity(v) == pytest.approx(0.5, abs=1e-12)


def test_probabilities_marginals_and_order():
    reg = qubit_registry(["q0", "q1"])
    st = build_state(reg, {"01": 1, "10": 1, "11": np.sqrt(2)})
    p = st.probabilities()
    np.testing.assert_allclose(p, [[0, 0.25], [0.25, 0.5]], atol=1e-12)
    p0 = st.probabilities(["q0"])
    np.testing.assert_allclose(p0, [0.25, 0.75], atol=1e-12)
    p_rev = st.probabilities(["q1", "q0"])
    np.testing.assert_allclose(p_rev, p.T, atol=1e-12)


def test_product_state_factors():
    # (|0> + |1>)/sqrt2 on the qubit, one photon in the fock mode
    reg = ModeRegistry([qubit("q"), fock("a", 2)])
    plus = np.array([1, 1]) / np.sqrt(2)
    st = QuantumState.from_vector(reg, np.kron(plus, [0, 1, 0]))
    assert st.overlap_probability("01") == pytest.approx(0.5)
    assert st.overlap_probability("11") == pytest.approx(0.5)
    with pytest.raises(StateError, match="does not match registry"):
        QuantumState.from_vector(reg, np.kron(plus, [0, 1]))
    with pytest.raises(StateError, match="does not match registry"):
        QuantumState.from_vector(ModeRegistry([fock("a", 2)]), plus)


def test_density_matrix_guard():
    reg = qubit_registry([f"q{i}" for i in range(13)])  # dim 8192
    st = build_state(reg, {"0" * 13: 1})
    with pytest.raises(StateError, match="8192-dimensional.*DENSE_LIMIT is 4096"):
        st.density_matrix()


def test_partial_trace_guard_names_limit_and_input():
    labels = [f"q{i}" for i in range(13)]
    st = build_state(qubit_registry(labels), {"0" * 13: 1})
    with pytest.raises(
        StateError, match=r"kept modes \('q0', .*'q12'\) span dimension 8192, "
                          r"over DENSE_LIMIT 4096",
    ):
        st.partial_trace(labels)
