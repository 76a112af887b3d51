"""Parity-check decoding and W-state readout tests."""

import pickle
import re
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gate_route
from dense_route import (
    excitation_density,
    ghz_parity_branches,
    ghz_state,
    tensor_states,
    w_readout_branches,
    w_state,
)
from qtelarray.codec import (
    Codebook,
    EncodeError,
    RunConfig,
    SiteState,
    encode_run_full,
    encode_single_photon,
    new_run,
    parallel_frequency_compress,
)
from qtelarray.netdecode import (
    RETRY_CAP,
    STREAM_CACHE,
    DecodeError,
    _cdf,
    _Classes,
    _group,
    _Live,
    _pick,
    _stream,
    decode_arrival,
    pair_correlators,
    plus_probability,
    sample_pair_products,
    w_state_readout,
)
from qtelarray.qcore import QuantumState, cz, qubit_registry
from qtelarray.util import ConfigError


def single_excitation_state(amps, labels=None):
    amps = np.asarray(amps, dtype=complex)
    amps = amps / np.linalg.norm(amps)
    n = len(amps)
    labels = labels or tuple(f"q{i}" for i in range(n))
    vec = np.zeros(2 ** n, dtype=complex)
    for i in range(n):
        vec[1 << (n - 1 - i)] = amps[i]
    return QuantumState.from_vector(qubit_registry(labels), vec)


class TestResources:
    def test_ghz_and_bell(self):
        vec = ghz_state(3).vector
        assert vec[0] == pytest.approx(2 ** -0.5)
        assert vec[7] == pytest.approx(2 ** -0.5)
        assert np.count_nonzero(vec) == 2
        bell = ghz_state(2).vector
        assert bell[0] == bell[3] == pytest.approx(2 ** -0.5)

    def test_w_state(self):
        vec = w_state(4).vector
        hot = [1 << (4 - 1 - i) for i in range(4)]
        assert all(vec[h] == pytest.approx(0.5) for h in hot)
        assert np.count_nonzero(vec) == 4

    def test_tensor_states_ordering(self):
        a = single_excitation_state([1.0], labels=("a",))  # |1>
        b = QuantumState.from_vector(qubit_registry(("b",)), np.array([1.0, 0]))
        joint = tensor_states(a, b)
        assert joint.registry.labels == ("a", "b")
        assert joint.vector[2] == pytest.approx(1.0)  # |10>


class TestGhzParityCheck:
    def test_single_excitation_row_reads_odd_without_leaking(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = single_excitation_state(amps)
        branches = ghz_parity_branches(state, state.registry.labels)
        # 2^(n-1) equally likely outcome patterns, all of odd parity
        assert len(branches) == 4
        for outcomes, parity, p, post in branches:
            assert parity == 1
            assert p == pytest.approx(0.25, abs=1e-12)
            assert post.fidelity(state.vector) == pytest.approx(1.0, abs=1e-12)

    def test_empty_row_reads_even_without_leaking(self):
        reg = qubit_registry(("q0", "q1", "q2"))
        state = QuantumState.from_vector(reg, np.eye(8)[0])
        branches = ghz_parity_branches(state, reg.labels)
        assert len(branches) == 4
        for outcomes, parity, p, post in branches:
            assert parity == 0
            assert p == pytest.approx(0.25, abs=1e-12)
            assert np.allclose(post.vector, state.vector, atol=1e-12)

    def test_two_excitations_read_even(self):
        reg = qubit_registry(("q0", "q1", "q2"))
        state = QuantumState.from_vector(reg, np.eye(8)[6])  # |110>
        for _, parity, _, _ in ghz_parity_branches(state, reg.labels):
            assert parity == 0

    def test_odd_row_flips_ghz_plus_to_minus(self):
        # before the X measurements the GHZ register holds exactly GHZ-
        amps = np.array([0.6, 0.8j])
        state = single_excitation_state(amps, labels=("m0", "m1"))
        joint = tensor_states(state, ghz_state(2, ("g0", "g1")))
        joint = cz(joint, "m0", "g0")
        joint = cz(joint, "m1", "g1")
        ghz_red = joint.partial_trace(("g0", "g1"))
        minus = np.zeros(4, dtype=complex)
        minus[0], minus[3] = 2 ** -0.5, -(2 ** -0.5)
        assert np.allclose(
            ghz_red.density_matrix(), np.outer(minus, minus.conj()), atol=1e-12
        )
        mem_red = joint.partial_trace(("m0", "m1"))
        assert np.allclose(
            mem_red.density_matrix(), state.density_matrix(), atol=1e-12
        )

    def test_mixture_gives_same_uniform_outcome_statistics(self):
        # outcome patterns stay uniform in the parity class for mixed rows
        comps = [
            (0.5, single_excitation_state([1, 0, 0]).vector),
            (0.5, single_excitation_state([0, 1, 1]).vector),
        ]
        reg = qubit_registry(("q0", "q1", "q2"))
        state = QuantumState(reg, comps)
        for outcomes, parity, p, _ in ghz_parity_branches(state, reg.labels):
            assert parity == 1
            assert p == pytest.approx(0.25, abs=1e-12)


class TestDecodeSequential:
    def test_roundtrip_every_codeword(self):
        cfg = RunConfig(M=5, R=2, N=2, layout="sequential", seed=3)
        rng = np.random.default_rng(10)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        for m in range(1, 6):
            for r in (1, 2):
                run = encode_single_photon(cfg, m, r, amps=amps)
                res = decode_arrival(run, rng=np.random.default_rng(m * 10 + r))
                assert (res.m, res.r) == (m, r)
                assert res.probability == pytest.approx(1.0, abs=1e-12)
                assert res.checks == 4
                assert run.ledger.bell_pairs == 4
                assert run.ledger.ghz_states == 0
                rho = res.state
                assert np.allclose(
                    rho, np.outer(amps, amps.conj()), atol=1e-10
                )

    def test_vacuum_run_decodes_to_bin_zero(self):
        run = new_run(RunConfig(M=5, R=2, N=3, seed=0))
        res = decode_arrival(run)
        assert res.is_vacuum
        assert res.state is None
        assert res.checks == 4
        assert run.ledger.ghz_states == 4  # N = 3 consumes GHZ, not Bell

    def test_fold_signs_leave_no_trace(self):
        # codeword 1011 has three occupied rows: two X-folds with corrections
        cfg = RunConfig(M=5, R=2, N=2, seed=1)
        amps = np.array([0.6, 0.8j])
        densities = []
        for seed in range(5):
            run = encode_single_photon(cfg, 5, 2, amps=amps)
            res = decode_arrival(run, rng=np.random.default_rng(seed))
            assert res.carrier_row == 0
            densities.append(res.state)
        for rho in densities[1:]:
            assert np.allclose(rho, densities[0], atol=1e-12)
        assert np.allclose(densities[0], np.outer(amps, amps.conj()), atol=1e-12)

    def test_mixture_decode_recovers_conditional_band_state(self):
        g1, g2 = 0.8, 0.3j
        cfg = RunConfig(M=3, R=2, N=2, eps=0.3, seed=7)
        template = encode_run_full(cfg, band_g=[g1, g2])
        mats = {
            1: np.array([[1, g1], [np.conj(g1), 1]]),
            2: np.array([[1, g2], [np.conj(g2), 1]]),
        }
        counts = {}
        rng = np.random.default_rng(42)
        draws = 2000
        for _ in range(draws):
            res = decode_arrival(template.replay(), rng=rng)
            counts[(res.m, res.r)] = counts.get((res.m, res.r), 0) + 1
            if res.m:
                rho = res.state
                assert np.allclose(rho, mats[res.r] / 2, atol=1e-10)
        p_vac = 0.7 ** 3
        seen_vac = counts.get((0, None), 0)
        sigma = np.sqrt(draws * p_vac * (1 - p_vac))
        assert abs(seen_vac - draws * p_vac) < 3 * sigma
        for m in (1, 2, 3):
            p_bin = 0.3 * 0.7 ** (m - 1)
            seen = sum(counts.get((m, r), 0) for r in (1, 2))
            sigma = np.sqrt(draws * p_bin * (1 - p_bin))
            assert abs(seen - draws * p_bin) < 3 * sigma

    def test_double_decode_rejected(self):
        run = new_run(RunConfig(M=2, R=1, N=2))
        decode_arrival(run)
        with pytest.raises(EncodeError):
            decode_arrival(run)


class TestDecodeParallel:
    def test_roundtrip_every_codeword_full_scale(self):
        cfg = RunConfig(M=16, R=4, N=2, layout="parallel", seed=2)
        amps = np.array([0.48, 0.6 - 0.64j])
        amps = amps / np.linalg.norm(amps)
        for m in range(1, 17):
            for r in range(1, 5):
                run = encode_single_photon(cfg, m, r, amps=amps)
                packed = parallel_frequency_compress(run)
                res = decode_arrival(packed, rng=np.random.default_rng(m * 4 + r))
                assert (res.m, res.r) == (m, r)
                # 3 compressed rows + 5 time rows
                assert res.checks == 8
                assert packed.ledger.bell_pairs == 8
                assert packed.ledger.memory_qubits_per_site == 27
                rho = res.state
                assert np.allclose(rho, np.outer(amps, amps.conj()), atol=1e-10)

    def test_uncompressed_parallel_run_rejected(self):
        run = new_run(RunConfig(M=2, R=2, N=2, layout="parallel"))
        with pytest.raises(EncodeError):
            decode_arrival(run)

    def test_parallel_vacuum_consumes_only_band_checks(self):
        run = parallel_frequency_compress(
            new_run(RunConfig(M=16, R=4, N=2, layout="parallel"))
        )
        res = decode_arrival(run)
        assert res.is_vacuum
        assert res.checks == 3

    def test_parallel_mixture_decode(self):
        cfg = RunConfig(M=4, R=2, N=2, eps=0.25, layout="parallel", seed=11)
        template = parallel_frequency_compress(
            encode_run_full(cfg, band_g=[0.5, -0.2])
        )
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(400):
            res = decode_arrival(template.replay(), rng=rng)
            seen.add((res.m, res.r))
            if res.m:
                g = 0.5 if res.r == 1 else -0.2
                rho = res.state
                assert np.allclose(
                    rho, np.array([[1, g], [np.conj(g), 1]]) / 2, atol=1e-10
                )
        assert (0, None) in seen
        assert len(seen) > 5


@pytest.fixture
def dense_checked():
    """Decode production and gate-route runs side by side with equal seeds.

    Every decode is checked with ``gate_route.assert_decodes_agree``, whose
    density reference is the dense carrier of the gate route's folded
    survivors. Returns ``(check, seen)``: ``check(run, gate, rng_a, rng_b)``
    decodes both and ``seen`` lists (carrier sites, survivors, minus signs).
    """
    seen = []

    def check(run, gate, rng_a, rng_b):
        res = decode_arrival(run, rng=rng_a)
        ref = gate_route.decode(run.layout, gate, rng_b)
        gate_route.assert_decodes_agree(res, ref, run.layout)
        if res.m:
            seen.append((len(ref["carrier"]), len(ref["survivors"]),
                         ref["signs"].count(-1)))
        return res

    return check, seen


def _random_amps(rng, n):
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amps / np.linalg.norm(amps)


class TestCarrierDensity:
    # sequential M=7 R=2 codewords occupy 1..4 rows; parallel M=7 R=3 runs
    # occupy popcount(m) + popcount(r) rows, 2..5
    CODEBOOKS = {"sequential": (7, 2), "parallel": (7, 3)}

    @staticmethod
    def _decode(cfg, m, r, amps, seed):
        run = encode_single_photon(cfg, m, r, amps=amps)
        if cfg.layout == "parallel":
            run = parallel_frequency_compress(run)
        return decode_arrival(run, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_single_photon_matches_dense_route(self, dense_checked, layout, N):
        check, seen = dense_checked
        M, R = self.CODEBOOKS[layout]
        cfg = RunConfig(M=M, R=R, N=N, layout=layout, seed=N)
        rng = np.random.default_rng(100 + N)
        words = [(m, r) for m in (1, 3, 5, 7) for r in range(1, R + 1)]
        if layout == "sequential":
            rows = {Codebook(M, R).codeword(m, r).count("1") for m, r in words}
            assert rows == {1, 2, 3, 4}
        for k, (m, r) in enumerate(words):
            amps = _random_amps(rng, N)
            run = encode_single_photon(cfg, m, r, amps=amps)
            gate = gate_route.encode_single_photon(run.layout, m, r, amps)
            if layout == "parallel":
                run = parallel_frequency_compress(run)
                gate = gate_route.compress(run.layout, gate)
            res = check(run, gate, np.random.default_rng(k),
                        np.random.default_rng(k))
            assert (res.m, res.r) == (m, r)
            np.testing.assert_allclose(
                res.state, np.outer(amps, amps.conj()), rtol=0, atol=1e-12
            )
        assert all(sites == N for sites, _, _ in seen)
        assert any(minus for _, _, minus in seen)

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_mixture_matches_dense_route(self, dense_checked, layout, N):
        check, seen = dense_checked
        band_g = [0.6 + 0.2j, -0.3j]
        cfg = RunConfig(M=3, R=2, N=N, eps=0.3, layout=layout, seed=N)
        template = encode_run_full(cfg, band_g=band_g)
        gate = gate_route.encode_run_full(template.layout, band_g)
        if layout == "parallel":
            template = parallel_frequency_compress(template)
            gate = gate_route.compress(template.layout, gate)
        rng_a, rng_b = np.random.default_rng(7 * N), np.random.default_rng(7 * N)
        for _ in range(40):
            check(template.replay(), gate, rng_a, rng_b)
        assert any(survivors > 1 for _, survivors, _ in seen)
        assert any(minus for _, _, minus in seen)

    def test_unread_register_bits_raise(self):
        # a band-1 time bit left in a band-2 parallel record is never read
        cfg = RunConfig(M=3, R=2, N=2, layout="parallel")
        run = parallel_frequency_compress(encode_single_photon(cfg, 3, 2))
        w, state, meta = run.components[0]
        stray = SiteState(state.amps, state.pattern | 1 << run.layout.time_rows(1)[0])
        bad = replace(run, components=[(w, stray, meta)])
        with pytest.raises(DecodeError, match="not one photon on carrier row"):
            decode_arrival(bad)

    @pytest.mark.parametrize("weights", [
        (np.nan, 0.5), (0.5, np.inf), (-0.2, 1.2), (0.0, 0.0),
    ])
    def test_bad_component_weights_raise(self, weights):
        # two components with distinct codewords, so both weights enter the
        # pattern draw
        cfg = RunConfig(M=3, R=2, N=2)
        comps = [
            (w, encode_single_photon(cfg, m, 1).components[0][1], {"m": m})
            for w, m in zip(weights, (1, 2))
        ]
        run = new_run(cfg)
        bad = replace(run, components=comps)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with np.errstate(invalid="ignore"):
            with pytest.raises(DecodeError, match="finite, nonnegative"):
                decode_arrival(bad, rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("N", [21, 24, 32])
    def test_past_dense_limit(self, layout, N):
        M, R = self.CODEBOOKS[layout]
        cfg = RunConfig(M=M, R=R, N=N, layout=layout, seed=N)
        rng = np.random.default_rng(N)
        phases = rng.uniform(0.0, 2 * np.pi, size=N)
        amps = np.exp(1j * phases) / np.sqrt(N)
        res = self._decode(cfg, M, R, amps, seed=N + 1)
        assert (res.m, res.r) == (M, R)
        assert res.state.shape == (N, N)
        np.testing.assert_allclose(
            res.state, np.outer(amps, amps.conj()), rtol=0, atol=1e-12
        )
        for seed in range(5):
            w = w_state_readout(res.state, rng=np.random.default_rng(seed))
            a, b = w.pair
            g_hat = pair_correlators(w.density)["g_hat"]
            assert abs(g_hat - np.exp(1j * (phases[a] - phases[b]))) <= 1e-9


    @pytest.mark.parametrize("layout, m, r", [
        ("sequential", 63, 8), ("parallel", 63, 7),
    ])
    def test_array_scale(self, layout, m, r):
        # M=64, R=8 widest codewords at N=1024: 8 or 9 occupied rows
        N = 1024
        cfg = RunConfig(M=64, R=8, N=N, layout=layout, seed=1)
        rng = np.random.default_rng(N)
        amps = _random_amps(rng, N)
        res = self._decode(cfg, m, r, amps, seed=3)
        assert (res.m, res.r) == (m, r)
        assert [len(signs) for _, signs in res.record["fold_signs"]] == [N] * 8
        np.testing.assert_allclose(
            res.state, np.outer(amps, amps.conj()), rtol=0, atol=1e-12
        )
        w = w_state_readout(res.state, rng=np.random.default_rng(0))
        a, b = w.pair
        pair = amps[[a, b]] / np.linalg.norm(amps[[a, b]])
        assert abs(pair_correlators(w.density)["g_hat"]
                   - 2 * pair[0] * np.conj(pair[1])) <= 1e-12


class TestWReadout:
    def test_branches_match_fast_route(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = single_excitation_state(amps)
        amps = amps / np.linalg.norm(amps)
        branches = w_readout_branches(state)
        assert len(branches) == 1 + 6
        total = 0.0
        for bits, p, post in branches:
            total += p
            ones = [i for i, b in enumerate(bits) if b]
            if not ones:
                assert p == pytest.approx(0.25, abs=1e-12)
                assert post.fidelity(state.vector) == pytest.approx(
                    1.0, abs=1e-12
                )
            else:
                a, b = ones
                assert p == pytest.approx(
                    (abs(amps[a]) ** 2 + abs(amps[b]) ** 2) / 4, abs=1e-12
                )
                rho_post = excitation_density(post)
                pair = np.array([amps[a], amps[b]])
                pair = pair / np.linalg.norm(pair)
                expect = np.outer(pair, pair.conj())
                hot = np.ix_([a, b], [a, b])
                assert np.allclose(rho_post[hot], expect, atol=1e-12)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_fast_route_matches_enumeration(self):
        rng = np.random.default_rng(9)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = excitation_density(single_excitation_state(amps))
        readout = w_state_readout(rho, rng=np.random.default_rng(1))
        a, b = readout.pair
        block = rho[np.ix_([a, b], [a, b])]
        assert np.allclose(readout.density, block / block.trace(), atol=1e-12)
        assert readout.p_pair == pytest.approx(
            (rho[a, a] + rho[b, b]).real / 3, abs=1e-12
        )

    def test_retry_probability_is_exactly_one_over_n(self):
        # the all-zeros branch of the dense route carries p = 1/N for any
        # normalized carrier, pure or mixed
        for n in (2, 3, 4, 5):
            rng = np.random.default_rng(n)
            comps = []
            for w in (0.3, 0.7):
                amps = rng.normal(size=n) + 1j * rng.normal(size=n)
                comps.append((w, single_excitation_state(amps).vector))
            reg = qubit_registry(tuple(f"q{i}" for i in range(n)))
            state = QuantumState(reg, comps)
            zero_branch = [
                (bits, p, post)
                for bits, p, post in w_readout_branches(state)
                if not any(bits)
            ]
            assert len(zero_branch) == 1
            assert zero_branch[0][1] == pytest.approx(1.0 / n, abs=1e-12)

    def test_attempts_follow_geometric_law(self):
        rho = excitation_density(single_excitation_state(np.ones(3)))
        rng = np.random.default_rng(12)
        attempts = np.array(
            [w_state_readout(rho, rng=rng).attempts for _ in range(3000)]
        )
        mean = attempts.mean()
        # E = 1/(1 - 1/3) = 1.5, Var = (1/3)/(2/3)^2 = 0.75
        assert abs(mean - 1.5) < 3 * np.sqrt(0.75 / 3000)

    def test_retry_cap(self):
        rho = np.eye(3) / 3
        # the first uniform of seed 3 is 0.086 < 1/3: an all-zeros retry
        assert np.random.default_rng(3).random() < 1 / 3
        with pytest.raises(
            DecodeError,
            match=rf"max_attempts=1 attempts \(default RETRY_CAP={RETRY_CAP}\) on N=3",
        ):
            w_state_readout(rho, rng=np.random.default_rng(3), max_attempts=1)
        # a cap below one is refused before any draw
        for cap in (0, -1):
            rng = np.random.default_rng(3)
            state = rng.bit_generator.state
            with pytest.raises(ConfigError,
                               match=rf"max_attempts = {cap} must be >= 1"):
                w_state_readout(rho, rng=rng, max_attempts=cap)
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 32, 64])
    def test_pair_draws_match_list_route(self, n):
        # the pair list a < b in row-major order, as the readout once built it
        def list_route(rho, rng):
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            p = np.array([(rho[a, a] + rho[b, b]).real / n for a, b in pairs])
            for attempt in range(1, RETRY_CAP + 1):
                if rng.random() < 1.0 / n:
                    continue
                return pairs[rng.choice(len(pairs), p=p / p.sum())], attempt

        rng = np.random.default_rng(n)
        for seed in range(6):
            amps = _random_amps(rng, n)
            rho = np.outer(amps, amps.conj())
            got = w_state_readout(rho, rng=np.random.default_rng(seed))
            want = list_route(rho, np.random.default_rng(seed))
            assert (got.pair, got.attempts) == want

    @pytest.mark.parametrize("entries, match", [
        ({(1, 1): np.nan}, "finite"),
        ({(0, 2): np.nan, (2, 0): np.nan}, "finite"),
        ({(0, 0): -0.1, (1, 1): 0.6, (2, 2): 0.5}, "negative diagonal"),
    ], ids=["nan_diagonal", "nan_coherence", "negative_diagonal"])
    def test_rejects_nan_and_negative_densities(self, entries, match):
        rho = np.eye(3, dtype=complex) / 3
        for idx, value in entries.items():
            rho[idx] = value
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=match):
            w_state_readout(rho, rng=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("layout, N, want", [
        ("sequential", 2, dict(bell_pairs=5, ghz_states=0, w_states=7)),
        ("sequential", 3, dict(bell_pairs=0, ghz_states=5, w_states=4)),
        ("parallel", 2, dict(bell_pairs=5, ghz_states=0, w_states=4)),
        ("parallel", 3, dict(bell_pairs=0, ghz_states=5, w_states=5)),
    ])
    def test_ledger_counts_are_python_ints(self, layout, N, want):
        cfg = RunConfig(M=5, R=3, N=N, eps=0.5, layout=layout, seed=4)
        run = encode_run_full(cfg)
        if layout == "parallel":
            run = parallel_frequency_compress(run)
        handle = run.replay()
        rng = np.random.default_rng(9)
        result = decode_arrival(handle, rng)
        for _ in range(4):
            w_state_readout(result.state, rng, ledger=handle.ledger)
        memory = dict(memory_qubits_per_site=5 if layout == "sequential"
                      else 14, ancilla_qubits=3 * N)
        assert handle.ledger.as_dict() == dict(memory, **want)
        assert run.ledger.as_dict() == dict(
            memory, bell_pairs=0, ghz_states=0, w_states=0)
        for value in handle.ledger.as_dict().values():
            assert type(value) is int

    def test_ledger_counts_attempts(self):
        from qtelarray.codec import ResourceLedger

        led = ResourceLedger()
        rho = excitation_density(single_excitation_state(np.ones(4)))
        w_state_readout(rho, rng=np.random.default_rng(2), ledger=led)
        assert led.w_states >= 1


class TestPick:
    @pytest.mark.parametrize("bit_gen", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
        np.random.Philox, np.random.SFC64,
    ])
    def test_matches_choice(self, bit_gen):
        src = np.random.default_rng(31)
        for k in range(300):
            n = int(src.integers(1, 40))
            weights = src.pareto(0.7, n) if k % 2 else np.full(n, 1.0 / n)
            weights[src.random(n) < 0.3] = 0.0
            weights[src.integers(n)] = 1.0
            got_rng = np.random.Generator(bit_gen(k))
            want_rng = np.random.Generator(bit_gen(k))
            want = want_rng.choice(n, p=weights / weights.sum())
            assert _pick(weights, got_rng) == want
            # MT19937's state holds an array, so compare pickles
            assert (pickle.dumps(got_rng.bit_generator.state)
                    == pickle.dumps(want_rng.bit_generator.state))

    def test_uses_the_normalized_cdf(self):
        # the first uniform of seed 5 falls between the raw cumulative sum
        # of p and the same sum divided by its last entry
        weights = np.array([1.2384846058320969, 0.1, 0.2])
        want = np.random.default_rng(5).choice(3, p=weights / weights.sum())
        assert _pick(weights, np.random.default_rng(5)) == want == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=64)
        | st.lists(st.sampled_from([0.0, 1e-300, 0.1, 1.0, 3.0]),
                   min_size=1, max_size=64),
        st.integers(0, 2**32 - 1),
    )
    def test_python_floats_match_numpy(self, weights, seed):
        # the class index keeps its weights as a list of Python floats
        w = np.array(weights)
        total = w.sum()
        assume(total > 0)
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = want_rng.choice(w.size, p=w / total)
        assert _pick(weights, got_rng) == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        cdf, got_total = _cdf(weights)
        assert got_total == total
        assert weights[want] / got_total == w[want] / total
        want_cdf = (w / total).cumsum()
        want_cdf /= want_cdf[-1]
        assert list(cdf) == want_cdf.tolist()

    def test_one_weight_draws_one_uniform(self):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        assert _pick([0.25], rng) == 0
        ref.random()
        assert rng.bit_generator.state == ref.bit_generator.state
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DecodeError, match="finite, nonnegative"):
                _pick([bad], rng)
        assert rng.bit_generator.state == ref.bit_generator.state


def _full_rank_mixture(layout, N):
    """Full mixture over a random, a uniform and an identity coherence band."""
    rng = np.random.default_rng(90 + N)
    vecs = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    g = vecs @ vecs.conj().T
    d = np.sqrt(np.diag(g).real)
    g = g / np.outer(d, d)
    g[np.diag_indices(N)] = 1.0
    cfg = RunConfig(M=4, R=3, N=N, eps=0.35, layout=layout, seed=N)
    run = encode_run_full(cfg, band_g=[(g + g.conj().T) / 2, 0.4, 0.0])
    return parallel_frequency_compress(run) if layout == "parallel" else run


def _assert_same_decode(got, want, got_run, want_run):
    """Bit-for-bit equal decodes, ledgers included."""
    assert (got.m, got.r, got.checks, got.carrier_row) == (
        want.m, want.r, want.checks, want.carrier_row)
    assert got.probability == want.probability
    assert got.record == want.record
    if want.state is None:
        assert got.state is None
    else:
        assert got.state.tobytes() == want.state.tobytes()
    assert got_run.ledger.as_dict() == want_run.ledger.as_dict()


class TestClassIndex:
    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_replays_match_fresh_preparations(self, layout, N):
        run = _full_rank_mixture(layout, N)
        rng_a, rng_b = np.random.default_rng(N), np.random.default_rng(N)
        survivors = set()
        for _ in range(40):
            replay = run.replay()
            fresh = _full_rank_mixture(layout, N)
            got = decode_arrival(replay, rng=rng_a)
            want = decode_arrival(fresh, rng=rng_b)
            _assert_same_decode(got, want, replay, fresh)
            assert (pickle.dumps(rng_a.bit_generator.state)
                    == pickle.dumps(rng_b.bit_generator.state))
            if got.state is not None:
                survivors.add(np.linalg.matrix_rank(got.state))
        assert max(survivors) > 1

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    def test_replays_share_one_index(self, layout):
        run = _full_rank_mixture(layout, 3)
        assert run._index == {}
        rng = np.random.default_rng(8)
        first = run.replay()
        decode_arrival(first, rng=rng)
        assert first._index is run._index
        tables = dict(run._index)
        assert len(tables) == 1
        for _ in range(30):
            decode_arrival(run.replay(), rng=rng)
        assert run._index.keys() == tables.keys()
        assert all(run._index[rows] is t for rows, t in tables.items())
        (lead,) = tables.values()
        assert sum(map(len, lead.members)) == len(run.components)
        if layout == "parallel":
            # time-row classes of each band seen so far, built once
            assert 0 < len(lead.sub) <= run.config.R

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    def test_hand_built_run_decodes_as_prepared(self, layout):
        run = _full_rank_mixture(layout, 3)
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        for _ in range(20):
            hand = replace(run, ledger=run.ledger.copy(),
                           components=list(run.components))
            replay = run.replay()
            _assert_same_decode(decode_arrival(hand, rng=rng_a),
                                decode_arrival(replay, rng=rng_b), hand, replay)
            assert hand._index is not run._index


def _photon_run(cfg, m, r, rng):
    amps = rng.normal(size=cfg.N) + 1j * rng.normal(size=cfg.N)
    run = encode_single_photon(cfg, m, r, amps=amps)
    if cfg.layout == "parallel":
        return parallel_frequency_compress(run)
    return run


def _assert_default_is_seed_plus_two(run):
    """A decode with no rng against one on ``default_rng(seed + 2)``."""
    a, b = run.replay(), run.replay()
    got = decode_arrival(a)
    _assert_same_decode(got, decode_arrival(
        b, rng=np.random.default_rng(run.config.seed + 2)), a, b)
    return got


class TestDefaultStream:
    """A decode with no rng reads its config's stream, drawn once: the same
    draws as ``default_rng(seed + 2)`` drawn live."""

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_every_codeword_at_two_sites(self, layout, seed):
        cfg = RunConfig(M=64, R=8, N=2, layout=layout, seed=seed)
        rng = np.random.default_rng(seed)
        for m in range(1, cfg.M + 1):
            for r in range(1, cfg.R + 1):
                got = _assert_default_is_seed_plus_two(
                    _photon_run(cfg, m, r, rng))
                assert (got.m, got.r) == (m, r)

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    @pytest.mark.parametrize("N", [3, 8, 20])
    def test_sampled_codewords_on_more_sites(self, layout, seed, N):
        cfg = RunConfig(M=64, R=8, N=N, layout=layout, seed=seed)
        rng = np.random.default_rng(N)
        words = [(1, 1), (64, 8), (63, 7), (32, 4)] + [
            (int(m), int(r)) for m, r in zip(rng.integers(1, 65, 8),
                                             rng.integers(1, 9, 8))]
        for m, r in words:
            got = _assert_default_is_seed_plus_two(_photon_run(cfg, m, r, rng))
            assert (got.m, got.r) == (m, r)

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    def test_mixtures_with_vacuum_draws(self, layout, seed):
        run = _full_rank_mixture(layout, 3)
        run = replace(run, config=replace(run.config, seed=seed))
        vacuum = 0
        for _ in range(40):
            vacuum += _assert_default_is_seed_plus_two(run).is_vacuum
            # the next replays draw the same config stream: vary the run
            run = replace(run, config=replace(run.config,
                                              seed=run.config.seed + 1))
        assert 0 < vacuum < 40

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    def test_an_explicit_generator_is_drawn_live(self, layout):
        """Its end state is that of the blocks drawn one after another."""
        run = _full_rank_mixture(layout, 3)
        N, rng = run.config.N, np.random.default_rng(17)
        lead = len(run.layout.code_rows() if layout == "sequential"
                   else run.layout.comp_rows())
        want = np.random.default_rng(17)
        for _ in range(30):
            res = decode_arrival(run.replay(), rng=rng)
            want.random()
            want.integers(0, 2, size=(lead, N))
            if layout == "parallel" and not res.is_vacuum:
                want.random()
                want.integers(0, 2, size=(run.book.t_bits, N))
            if not res.is_vacuum:
                want.random((len(res.record["fold_signs"]), N))
            assert rng.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("N", [2, 3, 20])
    def test_stream_rows_are_the_live_draws(self, layout, N):
        """Plain, flipped and fold rows built once are what a live generator
        yields, as tuples of +-1 ints; a drawn row sits at its parity."""
        for seed in (0, 9, 2**40):
            run = _photon_run(RunConfig(M=64, R=8, N=N, layout=layout,
                                        seed=seed), 63, 7,
                              np.random.default_rng(seed))
            lead = len(_lead_rows(run))
            time = run.book.t_bits if layout == "parallel" else 0
            entropy = seed + 2
            entry = _stream(entropy, N, lead, time)
            live = _Live(np.random.default_rng(entropy), N)
            ref = np.random.default_rng(entropy)
            groups = (lead, time) if time else (lead,)
            assert isinstance(entry.blocks, tuple)
            assert len(entry.blocks) == len(groups)
            for group, rows in enumerate(groups):
                assert entry.pick(group) == live.pick(group) == ref.random()
                block = entry.ghz(group, rows)
                assert block == live.ghz(group, rows)
                bits = ref.integers(0, 2, size=(rows, N)).tolist()
                assert isinstance(block, tuple) and len(block) == rows
                for pair, row in zip(block, bits):
                    drawn = tuple(1 - 2 * b for b in row)
                    flipped = drawn[:-1] + (-drawn[-1],)
                    want = (drawn, flipped) if sum(row) % 2 == 0 else (
                        flipped, drawn)
                    assert isinstance(pair, tuple) and pair == want
                    assert all(type(x) is int for x in pair[0] + pair[1])
            folds = lead + time - 1
            assert entry.fold(folds) == live.fold(folds)
            signs = [tuple(-1 if u >= 0.5 else 1 for u in row)
                     for row in ref.random((folds, N)).tolist()]
            assert entry.signs == tuple(signs)
            assert all(isinstance(row, tuple) and type(row[0]) is int
                       for row in entry.signs)
            assert entry.fold(2) == entry.signs[:2]

    def test_records_do_not_share_the_stream(self):
        cfg = RunConfig(M=64, R=8, N=3, layout="sequential", seed=4)
        run = _photon_run(cfg, 63, 8, np.random.default_rng(0))
        first = decode_arrival(run.replay())
        first.record["ghz_outcomes"].clear()
        second = decode_arrival(run.replay())
        rows = len(run.layout.code_rows())
        assert len(second.record["ghz_outcomes"]) == rows
        assert second.record == decode_arrival(run.replay()).record
        entry = _stream(cfg.seed + 2, cfg.N, rows, 0)
        with pytest.raises(AttributeError):
            entry.signs = b""

    def test_two_threads_get_identical_records(self):
        cfg = RunConfig(M=64, R=8, N=3, layout="parallel", seed=123)
        runs = [_photon_run(cfg, m, r, np.random.default_rng(m * 8 + r))
                for m in range(1, 65, 3) for r in range(1, 9)]
        _stream.cache_clear()
        start, out = threading.Barrier(2), [[], []]

        def work(i):
            start.wait()
            for run in runs:
                res = decode_arrival(run.replay())
                out[i].append((res.m, res.r, res.probability, res.carrier_row,
                               res.record, res.state.tobytes()))

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(out[0]) == len(runs) and out[0] == out[1]

    def test_the_cache_stays_within_its_bound(self):
        assert _stream.cache_info().maxsize == STREAM_CACHE
        for seed in range(STREAM_CACHE + 8):
            for layout in ("sequential", "parallel"):
                cfg = RunConfig(M=5, R=3, N=4, layout=layout, seed=seed)
                rng = np.random.default_rng(seed)
                decode_arrival(_photon_run(cfg, 5, 3, rng))
                assert _stream.cache_info().currsize <= STREAM_CACHE
        assert _stream.cache_info().currsize == STREAM_CACHE  # full, evicting
        # each entry: an (even, odd) pair of N-sign rows per GHZ row, and
        # one N-sign row per fold row of the largest fold
        lead, time, N = 3, 3, 4
        entry = _stream(7, N, lead, time)
        assert [len(rows) for rows in entry.blocks] == [lead, time]
        assert {len(row) for rows in entry.blocks for pair in rows
                for row in pair} == {N}
        assert len(entry.signs) == lead + time - 1
        assert {len(row) for row in entry.signs} == {N}
        assert len(entry.uniforms) == 2


def _lead_rows(run):
    if run.config.layout == "sequential":
        return run.layout.code_rows()
    return run.layout.comp_rows()


def _hex(xs):
    return [float(x).hex() for x in xs]


class TestOneInputClass:
    """A single photon's one class equals the grouping of its one input."""

    @staticmethod
    def _assert_grouped(classes, pats, ws, rows):
        values, patterns, members, weights = _group(pats, ws, rows)
        cdf, total = _cdf(weights)
        assert classes.values == values and classes.patterns == patterns
        assert classes.members == members
        assert _hex(classes.weights) == _hex(weights)
        assert _hex(classes.cdf) == _hex(cdf)
        assert float(classes.total).hex() == float(total).hex()

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("N", [2, 3])
    def test_every_codeword(self, layout, N):
        cfg = RunConfig(M=64, R=8, N=N, layout=layout, seed=N)
        rng = np.random.default_rng(N)
        for m in range(1, cfg.M + 1):
            for r in range(1, cfg.R + 1):
                run = _photon_run(cfg, m, r, rng)
                (w, st, _), = run.components
                lead = _lead_rows(run)
                classes = _Classes(range(1), [st.pattern], [w], lead)
                self._assert_grouped(classes, [st.pattern], [w], lead)
                if layout == "parallel":
                    time = run.layout.time_rows(r)
                    sub = classes.subclasses(0, time)
                    self._assert_grouped(sub, [st.pattern], [w / w], time)
                    assert sub.values == [m] and classes.values == [r]
                else:
                    assert classes.values == [int(run.book.codeword(m, r), 2)]

    @pytest.mark.parametrize("w", [float("nan"), 0.0, -0.0, float("inf"),
                                   -0.5])
    def test_a_bad_single_weight_raises(self, w):
        with pytest.raises(DecodeError, match="outcome weights"):
            _Classes(range(1), [0b101], [w], (0, 1, 2))
        cfg = RunConfig(M=4, R=2, N=2, layout="sequential", seed=1)
        run = _photon_run(cfg, 3, 2, np.random.default_rng(0))
        (_, st, meta), = run.components
        bad = replace(run, components=[(w, st, meta)])
        with pytest.raises(DecodeError, match="outcome weights"):
            decode_arrival(bad)


class TestPairCorrelators:
    def test_imaginary_coherence_example(self):
        g = 0.5j
        rho = np.array([[0.5, g / 2], [np.conj(g) / 2, 0.5]])
        corr = pair_correlators(rho)
        assert corr["XX"] == pytest.approx(0.0, abs=1e-12)
        assert corr["XY"] == pytest.approx(-0.5, abs=1e-12)
        assert corr["YX"] == pytest.approx(0.5, abs=1e-12)
        assert corr["g_hat"] == pytest.approx(0.5j, abs=1e-12)

    def test_real_coherence(self):
        g = 0.8
        rho = np.array([[0.5, g / 2], [g / 2, 0.5]])
        corr = pair_correlators(rho)
        assert corr["XX"] == pytest.approx(0.8, abs=1e-12)
        assert corr["YY"] == pytest.approx(0.8, abs=1e-12)
        assert corr["XY"] == pytest.approx(0.0, abs=1e-12)

    def test_correlators_match_qubit_level_expectations(self):
        rng = np.random.default_rng(4)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = single_excitation_state(amps, labels=("a", "b"))
        rho2 = excitation_density(state)
        corr = pair_correlators(rho2)
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        assert corr["XX"] == pytest.approx(
            state.expectation(np.kron(X, X), ("a", "b")).real, abs=1e-12
        )
        assert corr["XY"] == pytest.approx(
            state.expectation(np.kron(X, Y), ("a", "b")).real, abs=1e-12
        )
        assert corr["YX"] == pytest.approx(
            state.expectation(np.kron(Y, X), ("a", "b")).real, abs=1e-12
        )

    def test_sampled_products_converge(self):
        g = 0.6
        rho = np.array([[0.5, g / 2], [g / 2, 0.5]])
        vals = sample_pair_products(rho, "XX", 20000, np.random.default_rng(6))
        se = np.sqrt((1 - g ** 2) / 20000)
        assert abs(vals.mean() - g) < 3 * se
        again = sample_pair_products(rho, "XX", 20000, np.random.default_rng(6))
        assert np.array_equal(vals, again)
        with pytest.raises(ConfigError, match="unknown setting 'ZZ'"):
            sample_pair_products(rho, "ZZ", 10, np.random.default_rng(6))
        assert sample_pair_products(rho, "XX", 0, 6).shape == (0,)
        assert np.array_equal(
            sample_pair_products(rho, "XX", np.int64(5), 6),
            sample_pair_products(rho, "XX", 5, 6))
        shape = "pair density must have shape (2, 2), got ("
        allocate = "must be at most the draws numpy can allocate"
        for density, shots, message in [
            (np.ones((1, 1)), 10, shape),
            (np.eye(3) / 3, 10, shape),
            (np.full(4, 0.5), 10, shape),
            (rho, 1.5, "shots = 1.5 must be an integer"),
            (rho, 1e20, "shots = 1e+20 must be an integer"),
            (rho, -1, "shots = -1 must be >= 0"),
            (rho, 10 ** 20, f"shots = {10 ** 20} {allocate}"),
            (rho, 2 ** 62, f"shots = {2 ** 62} {allocate}"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message)):
                sample_pair_products(density, "XX", shots, 6)


class TestPlusProbability:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1 - 2e-12, 1 + 2e-12))
    def test_clipping_after_scaling_gives_the_bits_of_clipping_before(
            self, corr):
        want = 0.5 * (1.0 + min(max(corr, -1.0), 1.0))
        assert plus_probability(corr) == want
        assert plus_probability(np.array([corr]))[0] == want

    def test_law(self):
        corr = np.array([-1 - 2e-12, -1.0, -0.3, 0.0, 0.6, 1.0, 1 + 2e-12])
        assert plus_probability(corr).tolist() == [0, 0, 0.35, 0.5, 0.8, 1, 1]

    @pytest.mark.parametrize("corr", [
        1 + 3e-12, -1 - 3e-12, -1.5, np.nan, np.inf, np.array([0.2, 1.5])])
    def test_refuses_a_correlator_outside_the_unit_interval(self, corr):
        with pytest.raises(ConfigError, match=re.escape(
                "pair correlator outside [-1, 1]")):
            plus_probability(corr)

    def test_pair_products_draw_by_it(self):
        collapsed = np.array([[0.5, 0.75], [0.75, 0.5]])  # g01 = 1.5
        with pytest.raises(ConfigError, match=re.escape(
                "pair correlator outside [-1, 1]")):
            sample_pair_products(collapsed, "XX", 10, 6)
        rho = np.array([[0.5, 0.3], [0.3, 0.5]])
        draws = sample_pair_products(rho, "XX", 1000, 6)
        want = 2 * np.random.default_rng(6).binomial(
            1, plus_probability(0.6), size=1000) - 1
        assert np.array_equal(draws, want)
