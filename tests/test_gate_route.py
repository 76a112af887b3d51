"""Site-vector codec and decoder against the gate-by-gate SupportState route."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gate_route
from qtelarray.codec import (
    Codebook,
    EncodeError,
    MemoryLayout,
    RunConfig,
    encode_run_full,
    encode_single_photon,
    new_run,
    parallel_frequency_compress,
)
from qtelarray.netdecode import decode_arrival, w_state_readout
from qtelarray.qcore import SupportState
from qtelarray.util import ConfigError

# codebooks whose codewords occupy up to 9 rows: sequential (127, 2) has
# 8-bit words, parallel (64, 8) has 7 time bits plus 4 compressed bits
CODEBOOKS = [(5, 2), (127, 2), (64, 8)]
BIT_GENERATORS = [
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
    np.random.Philox, np.random.SFC64,
]


def _amps(draw, N):
    parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    amps = np.array([complex(draw(parts), draw(parts)) for _ in range(N)])
    # keep a site well away from zero so normalization is tame: pushing its
    # real part away from zero gives it a modulus of at least 1
    i = draw(st.integers(0, N - 1))
    amps[i] += np.copysign(1.0, amps[i].real)
    return amps


@st.composite
def photons(draw):
    layout = draw(st.sampled_from(["sequential", "parallel"]))
    M, R = draw(st.sampled_from(CODEBOOKS))
    N = draw(st.integers(2, 8))
    m = draw(st.integers(1, M))
    r = draw(st.integers(1, R))
    seed = draw(st.integers(0, 2**32 - 1))
    bit_gen = draw(st.sampled_from(BIT_GENERATORS))
    cfg = RunConfig(M=M, R=R, N=N, layout=layout)
    return cfg, m, r, _amps(draw, N), seed, bit_gen


def _both_routes(cfg, m, r, amps, rng=None, verify=False):
    """Production run and gate-route components for one photon."""
    run = encode_single_photon(cfg, m, r, amps=amps)
    gate = gate_route.encode_single_photon(run.layout, m, r, amps, rng, verify)
    gate_route.assert_components_match(run.layout, run.components, gate)
    if cfg.layout == "parallel":
        run = parallel_frequency_compress(run)
        gate = gate_route.compress(run.layout, gate, rng, verify)
        gate_route.assert_components_match(run.layout, run.components, gate)
    return run, gate


@settings(max_examples=60, deadline=None)
@given(photons())
def test_single_photon_matches_gate_route(case):
    cfg, m, r, amps, seed, bit_gen = case
    run, gate = _both_routes(
        cfg, m, r, amps, rng=np.random.default_rng(seed), verify=True
    )
    rng_a = np.random.Generator(bit_gen(seed))
    rng_b = np.random.Generator(bit_gen(seed))
    res = decode_arrival(run, rng=rng_a)
    ref = gate_route.decode(run.layout, gate, rng_b)
    gate_route.assert_decodes_agree(res, ref, run.layout)
    assert rng_a.random() == rng_b.random()
    amps = amps / np.linalg.norm(amps)
    np.testing.assert_allclose(
        res.state, np.outer(amps, amps.conj()), rtol=0, atol=1e-12
    )
    # the readout's pair draw against rng.choice on the same stream
    got = w_state_readout(res.state, rng_a)
    want = gate_route.w_readout(res.state, rng_b)
    assert (got.pair, got.attempts) == want
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("layout", ["sequential", "parallel"])
def test_all_zero_photon_raises(layout):
    cfg = RunConfig(M=5, R=2, N=2, layout=layout)
    with pytest.raises(ConfigError, match="all zero"):
        encode_single_photon(cfg, 3, 2, amps=[0, 0])


@pytest.mark.parametrize("layout", ["sequential", "parallel"])
def test_tiny_photon_is_normalized_on_both_routes(layout):
    # below the oracle's amplitude floor until it is normalized
    amps = np.array([0, 1.37476369e-130j])
    cfg = RunConfig(M=5, R=2, N=2, layout=layout)
    run, gate = _both_routes(cfg, 3, 2, amps, verify=True)
    np.testing.assert_array_equal(run.components[0][1].amps, [0, 1j])
    res = decode_arrival(run, rng=np.random.default_rng(3))
    ref = gate_route.decode(run.layout, gate, np.random.default_rng(3))
    gate_route.assert_decodes_agree(res, ref, run.layout)
    np.testing.assert_array_equal(res.state, [[0, 0], [0, 1]])


@settings(max_examples=60, deadline=None)
@given(photons())
def test_strategy_keeps_a_site_of_modulus_one(case):
    _, _, _, amps, _, _ = case
    assert np.abs(amps).max() >= 1.0


def _coherence_matrix(rng, N):
    vecs = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    g = vecs @ vecs.conj().T
    d = np.sqrt(np.diag(g).real)
    g = g / np.outer(d, d)
    g[np.diag_indices(N)] = 1.0
    return (g + g.conj().T) / 2


@pytest.mark.parametrize("layout", ["sequential", "parallel"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_mixture_matches_gate_route(layout, N):
    rng = np.random.default_rng(50 + N)
    cfg = RunConfig(M=3, R=2, N=N, eps=0.3, layout=layout, seed=N)
    band_g = [_coherence_matrix(rng, N), 0.4 - 0.3j]
    run = encode_run_full(cfg, band_g=band_g)
    gate = gate_route.encode_run_full(run.layout, band_g)
    gate_route.assert_components_match(run.layout, run.components, gate)
    if layout == "parallel":
        run = parallel_frequency_compress(run)
        gate = gate_route.compress(run.layout, gate)
        gate_route.assert_components_match(run.layout, run.components, gate)
    rng_a, rng_b = np.random.default_rng(N), np.random.default_rng(N)
    seen = set()
    for _ in range(30):
        res = decode_arrival(run.replay(), rng=rng_a)
        ref = gate_route.decode(run.layout, gate, rng_b)
        gate_route.assert_decodes_agree(res, ref, run.layout)
        seen.add((res.m, len(ref.get("survivors", ()))))
    assert any(m == 0 for m, _ in seen)
    assert any(survivors > 1 for _, survivors in seen)


@pytest.mark.parametrize("layout, M, R, words", [
    # sequential (127, 2): codeword binary(m) ++ binary(r - 1)
    ("sequential", 127, 2,
     [(1, 1), (3, 1), (7, 1), (15, 1), (31, 1), (63, 1), (127, 1), (127, 2)]),
    # parallel (64, 8): binary(m) on the time rows, binary(r) compressed
    ("parallel", 64, 8,
     [(1, 1), (3, 1), (7, 1), (15, 1), (31, 1), (63, 1), (63, 3), (63, 7)]),
])
def test_occupied_rows_one_to_eight(layout, M, R, words):
    N = 3
    cfg = RunConfig(M=M, R=R, N=N, layout=layout, seed=4)
    book = Codebook(M, R)
    rows_seen = set()
    rng = np.random.default_rng(9)
    for k, (m, r) in enumerate(words):
        amps = rng.normal(size=N) + 1j * rng.normal(size=N)
        run, gate = _both_routes(
            cfg, m, r, amps, rng=np.random.default_rng(k), verify=True
        )
        res = decode_arrival(run, rng=np.random.default_rng(k))
        ref = gate_route.decode(run.layout, gate, np.random.default_rng(k))
        gate_route.assert_decodes_agree(res, ref, run.layout)
        if layout == "sequential":
            rows = book.codeword(m, r).count("1")
        else:
            rows = bin(m).count("1") + bin(r).count("1")
        assert [len(signs) for _, signs in res.record["fold_signs"]] == (
            [N] * (rows - 1))
        rows_seen.add(rows)
    assert rows_seen >= set(range(2, 9))
    if layout == "sequential":
        assert 1 in rows_seen


@pytest.mark.parametrize("layout", ["sequential", "parallel"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vacuum_matches_gate_route(layout, seed):
    cfg = RunConfig(M=5, R=3, N=3, layout=layout)
    run = new_run(cfg)
    layout_ = run.layout
    gate = [(1.0, SupportState.zeros(gate_route.gate_labels(layout_)),
             {"m": 0})]
    gate_route.assert_components_match(layout_, run.components, gate)
    if layout == "parallel":
        run = parallel_frequency_compress(run)
        gate = gate_route.compress(layout_, gate)
    res = decode_arrival(run, rng=np.random.default_rng(seed))
    ref = gate_route.decode(layout_, gate, np.random.default_rng(seed))
    gate_route.assert_decodes_agree(res, ref, layout_)
    assert res.is_vacuum


def test_expand_places_the_pattern_at_every_site():
    layout = MemoryLayout(RunConfig(M=5, R=2, N=3))
    run = encode_single_photon(layout.config, 5, 2, amps=[0.6, 0.0, 0.8j])
    labels = gate_route.gate_labels(layout)
    sup = gate_route.expand(layout, run.components[0][1], labels)
    word = "1011"
    want = {}
    for i, a in ((0, 0.6), (2, 0.8j)):
        bits = {f"s{i}_c{p}": int(b) for p, b in enumerate(word)}
        want[next(iter(SupportState.basis(labels, bits).amps))] = a
    gate_route.assert_support_close(sup, SupportState(labels, want))
