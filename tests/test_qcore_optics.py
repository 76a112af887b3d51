"""Beam splitters, coherent states, linear optics, lossy detectors."""

import numpy as np
import pytest

from qtelarray.qcore import (
    ModeRegistry,
    StateError,
    TruncationLeakageError,
    apply_linear_optics,
    beam_splitter,
    build_state,
    coherent_amplitudes,
    coherent_state,
    enumerate_measure,
    fock,
    fock_registry,
    linear_optics_matrix,
    loss_mixer,
    lossy_detector,
    min_coherent_cutoff,
    product_state,
    qft_matrix,
    qubit,
)
from qtelarray.qcore.optics import HADAMARD_MATRIX


def two_mode(cutoff=4):
    return fock_registry(["a", "b"], cutoff)


def test_single_photon_splits_evenly():
    st = beam_splitter(build_state(two_mode(), {"10": 1}), "a", "b")
    p = st.probabilities()
    assert p[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert p[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_hong_ou_mandel_bunching():
    st = beam_splitter(build_state(two_mode(), {"11": 1}), "a", "b")
    v = st.vector.reshape(5, 5)
    assert v[2, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert v[0, 2] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)
    assert abs(v[1, 1]) < 1e-12  # no coincidences


def test_vacuum_plus_superposition_probabilities():
    plus = np.zeros(5)
    plus[0] = plus[1] = 1 / np.sqrt(2)
    st = product_state(two_mode(), [0, plus])
    out = beam_splitter(st, "a", "b")
    p = out.probabilities()
    assert p[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert p[1, 0] + p[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_beam_splitter_conserves_photon_number():
    rng = np.random.default_rng(5)
    reg = two_mode(6)
    n_op = np.kron(np.diag(np.arange(7)), np.eye(7)) + np.kron(
        np.eye(7), np.diag(np.arange(7))
    )
    for _ in range(10):
        na, nb = rng.integers(0, 4, size=2)
        st = build_state(reg, {f"{na}{nb}": 1})
        out = beam_splitter(st, "a", "b")
        before = na + nb
        after = out.expectation(n_op.astype(complex), ["a", "b"]).real
        assert after == pytest.approx(before, abs=1e-10)


def test_beam_splitter_requirements():
    reg = ModeRegistry([fock("a", 3), fock("b", 2)])
    st = build_state(reg, {"00": 1})
    with pytest.raises(StateError):
        beam_splitter(st, "a", "b")
    qreg = ModeRegistry([qubit("q"), fock("a", 2)])
    with pytest.raises(StateError):
        beam_splitter(build_state(qreg, {"00": 1}), "q", "a")


def test_truncation_leakage_raises():
    reg = two_mode(2)
    st = build_state(reg, {"22": 1})  # 4 photons cannot fit one output port
    with pytest.raises(
        TruncationLeakageError,
        match=r"exceeds max_leakage = 1\.0e-09 \(default LEAKAGE_DEFAULT = "
              r"1e-09\) on modes 'a' \(cutoff 2\), 'b' \(cutoff 2\)",
    ):
        beam_splitter(st, "a", "b")
    reg = ModeRegistry([fock("x", 1), fock("y", 3)])
    st = build_state(reg, {"03": 1})
    with pytest.raises(
        TruncationLeakageError,
        match=r"max_leakage = 1\.0e-03 .* on modes 'y' \(cutoff 3\), "
              r"'x' \(cutoff 1\)",
    ):
        apply_linear_optics(st, loss_mixer(0.6), ("y", "x"), max_leakage=1e-3)


def test_coherent_state_examples():
    vac = coherent_state(0.0)
    assert vac.overlap_probability([0]) == pytest.approx(1.0)

    one = coherent_state(1.0, cutoff=31)
    n_op = np.diag(np.arange(32)).astype(complex)
    assert one.expectation(n_op, ["a"]).real == pytest.approx(1.0, abs=1e-10)

    two = coherent_state(2.0)
    assert two.overlap_probability([0]) == pytest.approx(np.exp(-4), abs=1e-12)


def test_coherent_cutoff_policy():
    assert min_coherent_cutoff(0) == 20
    assert min_coherent_cutoff(1) == 31
    assert min_coherent_cutoff(3.0) == 59
    with pytest.raises(ValueError):
        coherent_state(1.0, cutoff=10)
    # escape hatch for small-cutoff oracle comparisons
    small = coherent_state(1.0, cutoff=6, enforce_cutoff=False)
    assert small.registry.modes[0].cutoff == 6

    amps, tail = coherent_amplitudes(1.0, min_coherent_cutoff(1.0))
    assert tail < 1e-12
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_coherent_phase_convention():
    amps, _ = coherent_amplitudes(1j, 5)
    # a^n phases: n=1 -> i, n=2 -> -1
    assert np.angle(amps[1]) == pytest.approx(np.pi / 2)
    assert np.angle(amps[2]) == pytest.approx(np.pi)


def random_unitary(k, rng):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("k", [2, 3])
def test_linear_optics_matrix_against_coherent_transport(k):
    """A linear-optics device maps coherent products to coherent products.

    Input amplitudes beta map to S^T beta in the creation-operator
    convention; this is an independent check of the whole matrix builder.
    """
    rng = np.random.default_rng(42 + k)
    S = random_unitary(k, rng)
    cutoff = 18 if k == 2 else 10
    scale = 0.5 if k == 2 else 0.2
    betas = scale * (rng.normal(size=k) + 1j * rng.normal(size=k))
    vec = np.ones(1, dtype=complex)
    for b in betas:
        amps, _ = coherent_amplitudes(b, cutoff)
        vec = np.kron(vec, amps)
    mat, _ = linear_optics_matrix(S, [cutoff] * k)
    got = mat @ vec
    out_betas = S.T @ betas
    expect = np.ones(1, dtype=complex)
    for b in out_betas:
        amps, _ = coherent_amplitudes(b, cutoff)
        expect = np.kron(expect, amps)
    # both sides renormalized over the truncated space; tails are tiny here
    got = got / np.linalg.norm(got)
    np.testing.assert_allclose(got, expect, atol=1e-9)


def test_linear_optics_columns_orthonormal_below_cutoff():
    rng = np.random.default_rng(9)
    S = random_unitary(2, rng)
    cutoff = 8
    mat, leakage = linear_optics_matrix(S, [cutoff, cutoff])
    dense = mat.toarray()
    for na in range(cutoff + 1):
        for nb in range(cutoff + 1):
            col = na * (cutoff + 1) + nb
            if na + nb <= cutoff:
                assert leakage[col] == pytest.approx(0.0, abs=1e-12)
                assert np.linalg.norm(dense[:, col]) == pytest.approx(
                    1.0, abs=1e-10
                )
            else:
                assert leakage[col] > 0


def test_two_mode_and_general_paths_agree():
    from qtelarray.qcore.optics import (
        _lo_columns_general,
        _lo_columns_two_mode,
        _log_factorials,
    )

    rng = np.random.default_rng(77)
    S = random_unitary(2, rng)
    dims = (5, 5)
    log_fact = _log_factorials(11)
    fast = _lo_columns_two_mode(S, dims, dims, log_fact)
    slow = _lo_columns_general(S, dims, dims, log_fact)

    def as_dense(rows, cols, vals):
        m = np.zeros((25, 25), dtype=complex)
        for r, c, v in zip(rows, cols, vals):
            m[r, c] += v
        return m

    np.testing.assert_allclose(
        as_dense(*fast[:3]), as_dense(*slow[:3]), atol=1e-12
    )
    np.testing.assert_allclose(fast[3], slow[3], atol=1e-12)


def test_log_factorials_match_gammaln():
    from scipy.special import gammaln

    from qtelarray.qcore.optics import _log_factorials

    np.testing.assert_allclose(
        _log_factorials(200), gammaln(np.arange(201) + 1.0), rtol=1e-15, atol=0
    )


def _fock_devices():
    rng = np.random.default_rng(2024)
    for c in range(1, 19):
        yield pytest.param(HADAMARD_MATRIX, (c, c), None, id=f"hadamard-c{c}")
    for eta in (0.0, 0.25, 0.6, 0.9, 1.0):
        yield pytest.param(loss_mixer(eta), (6, 6), None, id=f"loss-{eta}")
    for k in (2, 3, 4):
        yield pytest.param(qft_matrix(k), (1,) * k, (k,) * k, id=f"qft-{k}")
    for cutoffs in ((4, 7), (9, 9), (2, 3, 2), (4, 4, 4)):
        S = random_unitary(len(cutoffs), rng)
        yield pytest.param(S, cutoffs, None, id=f"random-{cutoffs}")


@pytest.mark.parametrize("S, cutoffs, out_cutoffs", list(_fock_devices()))
def test_fock_matrix_apply_matches_csr(S, cutoffs, out_cutoffs):
    """The numpy row-sum apply equals scipy's CSR product on the same triples."""
    from scipy.sparse import csr_matrix

    mat, _ = linear_optics_matrix(S, cutoffs, out_cutoffs)
    oracle = csr_matrix((mat.vals, (mat.rows, mat.cols)), shape=mat.shape)
    np.testing.assert_array_equal(mat.toarray(), oracle.toarray())
    rng = np.random.default_rng(sum(mat.shape))
    for shape in ((mat.shape[1],), (mat.shape[1], 1), (mat.shape[1], 7)):
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = mat @ x
        assert got.shape == (mat.shape[0],) + shape[1:]
        np.testing.assert_allclose(got, oracle @ x, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="cannot act on shape"):
        mat @ np.ones(mat.shape[1] + 1)


def test_multiport_qft_single_photon_distribution():
    # one photon into port 0 of a QFT multiport spreads uniformly
    k = 4
    reg = fock_registry([f"m{i}" for i in range(k)], 2)
    st = build_state(reg, {"1000": 1})
    out = apply_linear_optics(st, qft_matrix(k), reg.labels)
    p = out.probabilities()
    for i in range(k):
        idx = tuple(1 if j == i else 0 for j in range(k))
        assert p[idx] == pytest.approx(1 / k, abs=1e-12)


def test_loss_mixer_is_unitary():
    for eta in np.linspace(0, 1, 6):
        S = loss_mixer(eta)
        np.testing.assert_allclose(S @ S.conj().T, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        loss_mixer(1.5)


def test_lossy_detector_examples():
    reg = ModeRegistry([fock("d", 3)])
    one = build_state(reg, {"1": 1})
    branches = {k: p for k, p, _ in lossy_detector(one, "d", 0.8)}
    assert branches[1] == pytest.approx(0.64, abs=1e-12)
    assert branches[0] == pytest.approx(0.36, abs=1e-12)

    dark = {k: p for k, p, _ in lossy_detector(one, "d", 0.0)}
    assert dark == {0: pytest.approx(1.0)}

    # eta=1 equals a perfect number measurement on any state
    mixed_in = build_state(reg, {"0": 1, "2": 1})
    perfect = {o[0]: p for o, p, _ in enumerate_measure(mixed_in, ["d"], "number")}
    lossless = {k: p for k, p, _ in lossy_detector(mixed_in, "d", 1.0)}
    for k, p in perfect.items():
        assert lossless[k] == pytest.approx(p, abs=1e-12)


def test_lossy_detector_posterior_on_remaining_modes():
    reg = ModeRegistry([qubit("q"), fock("d", 2)])
    # photon present iff qubit is 1
    st = build_state(reg, {"00": 1, "11": 1})
    branches = {k: (p, post) for k, p, post in lossy_detector(st, "d", 0.6)}
    p1, post1 = branches[1]
    assert p1 == pytest.approx(0.5 * 0.36, abs=1e-12)
    assert post1.overlap_probability("1") == pytest.approx(1.0, abs=1e-12)
    p0, post0 = branches[0]
    # count 0 mixes qubit 0 (vacuum) with qubit 1 (lost photon)
    assert p0 == pytest.approx(0.5 + 0.5 * 0.64, abs=1e-12)
    assert post0.overlap_probability("1") == pytest.approx(
        0.32 / 0.82, abs=1e-12
    )


def test_lossy_detector_branch_probabilities_sum_to_one():
    reg = ModeRegistry([fock("d", 4)])
    st = build_state(reg, {"0": 1, "1": 1, "3": 0.5})
    for eta in (0.3, 0.7, 1.0):
        total = sum(p for _, p, _ in lossy_detector(st, "d", eta))
        assert total == pytest.approx(1.0, abs=1e-10)
