"""Parity-check decoding and W-state readout tests."""

import pickle

import numpy as np
import pytest

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
    EncodeRun,
    RunConfig,
    SiteState,
    encode_run_full,
    encode_single_photon,
    new_run,
    parallel_frequency_compress,
)
from qtelarray.netdecode import (
    RETRY_CAP,
    DecodeError,
    _pick,
    decode_arrival,
    pair_correlators,
    sample_pair_products,
    w_state_readout,
)
from qtelarray.qcore import QuantumState, cz, qubit_registry


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
            assert res.carrier_labels == ("s0_c0", "s1_c0")
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
        gate_route.assert_decodes_agree(res, ref)
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
        bad = EncodeRun(
            config=cfg, layout=run.layout, ledger=run.ledger,
            components=[(w, stray, meta)], compressed=True,
        )
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
        bad = EncodeRun(config=cfg, layout=run.layout, ledger=run.ledger,
                        components=comps)
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
        assert len(res.record["fold_signs"]) == 8 * N
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
        with pytest.raises(
            DecodeError,
            match=rf"max_attempts=0 attempts \(default RETRY_CAP={RETRY_CAP}\) on N=3",
        ):
            w_state_readout(rho, rng=np.random.default_rng(0), max_attempts=0)

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
        with pytest.raises(DecodeError, match=match):
            w_state_readout(rho, rng=rng)
        assert rng.bit_generator.state == before

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
