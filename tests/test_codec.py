"""Codebook, run configuration, and encode-pipeline tests."""

from dataclasses import replace

import numpy as np
import pytest

import gate_route
from qtelarray import codec, util
from qtelarray.codec import (
    Codebook,
    EncodeError,
    MemoryLayout,
    ResourceLedger,
    RunConfig,
    _layout,
    _photon_amps,
    encode_bin,
    encode_run_full,
    encode_single_photon,
    new_run,
    parallel_frequency_compress,
)
from qtelarray.netdecode import decode_arrival
from qtelarray.qcore import SupportState
from qtelarray.util import ConfigError


def basis_mask(labels, bits_by_label):
    """Bitmask of a basis string given as {label: bit}."""
    state = SupportState.basis(labels, bits_by_label)
    return next(iter(state.amps))


def gate_view(run):
    """Components of a production run expanded to SupportStates."""
    labels = gate_route.gate_labels(run.layout)
    if run.compressed:
        flags = {
            gate_route.site_labels(run.layout, i)[run.layout.flag_row(r)]
            for i in range(run.config.N) for r in range(1, run.config.R + 1)
        }
        labels = tuple(lab for lab in labels if lab not in flags)
    return [gate_route.expand(run.layout, st, labels) for _, st, _ in run.components]


def pattern_of(rows, bits):
    return sum(1 << q for q, b in zip(rows, bits) if int(b))


class TestCodebook:
    def test_worked_example_codewords(self):
        book = Codebook(M=5, R=2)
        assert (book.t_bits, book.f_bits, book.length) == (3, 1, 4)
        assert book.codeword(5, 1) == "1010"
        assert book.codeword(5, 2) == "1011"
        assert book.codeword(1, 1) == "0010"
        assert book.vacuum == "0000"

    def test_injective_and_decodable(self):
        book = Codebook(M=16, R=4)
        assert (book.t_bits, book.f_bits) == (5, 2)
        seen = {}
        for m in range(1, 17):
            for r in range(1, 5):
                word = book.codeword(m, r)
                assert word not in seen
                seen[word] = (m, r)
                assert book.decode(word) == (m, r)
        assert len(seen) == 64
        assert book.decode(book.vacuum) == (0, None)

    def test_single_band_drops_frequency_field(self):
        book = Codebook(M=5, R=1)
        assert book.f_bits == 0
        assert book.codeword(3, 1) == "011"
        assert book.decode("011") == (3, 1)

    def test_range_and_format_checks(self):
        book = Codebook(M=5, R=2)
        with pytest.raises(ConfigError):
            book.codeword(0, 1)
        with pytest.raises(ConfigError):
            book.codeword(6, 1)
        with pytest.raises(ConfigError):
            book.codeword(5, 3)
        with pytest.raises(ConfigError):
            book.decode("101")
        with pytest.raises(ConfigError):
            book.decode("1x01")
        # m = 6 field value lies outside the codebook
        with pytest.raises(ConfigError):
            book.decode("1100")

    @pytest.mark.parametrize("M, R", [(5, 2), (5, 1), (16, 4), (7, 5)])
    def test_decode_value_matches_decode(self, M, R):
        book = Codebook(M=M, R=R)
        for value in range(2 ** book.length):
            word = format(value, f"0{book.length}b")
            try:
                want = book.decode(word)
            except ConfigError as exc:
                with pytest.raises(ConfigError) as got:
                    book.decode_value(value)
                assert str(got.value) == str(exc)
            else:
                assert book.decode_value(value) == want


class TestRunConfig:
    def test_defaults_and_validation(self):
        cfg = RunConfig()
        assert (cfg.M, cfg.R, cfg.N, cfg.layout) == (5, 2, 2, "sequential")
        RunConfig(eps=0.0)  # vacuum-only runs are allowed
        for bad in (
            dict(M=0),
            dict(R=0),
            dict(N=1),
            dict(eps=1.0),
            dict(eps=-0.1),
            dict(layout="ring"),
        ):
            with pytest.raises(ConfigError):
                RunConfig(**bad)


class TestResourceLedger:
    def test_counters(self):
        led = ResourceLedger()
        assert led.as_dict() == dict.fromkeys(
            ["memory_qubits_per_site", "bell_pairs", "ghz_states", "w_states",
             "ancilla_qubits"], 0)
        led.bell_pairs += 4
        before = led.copy()
        led.w_states += 2
        assert (before.bell_pairs, before.w_states) == (4, 0)
        assert led.as_dict()["w_states"] == 2


class TestMemoryLayout:
    def test_sequential_footprint(self):
        layout = MemoryLayout(RunConfig(M=5, R=2, layout="sequential"))
        assert layout.qubits_per_site == 4
        rows, bits = gate_route.write_pattern(layout, 5, 2)
        labels = tuple(gate_route.site_labels(layout, 0)[q] for q in rows)
        assert labels == ("s0_c0", "s0_c1", "s0_c2", "s0_c3")
        assert bits == (1, 0, 1, 1)
        assert gate_route.row_labels(layout, 2) == ("s0_c2", "s1_c2")

    def test_parallel_footprint(self):
        layout = MemoryLayout(RunConfig(M=16, R=4, layout="parallel"))
        # 4 time registers of 5, 4 flags, 3 compressed
        assert layout.qubits_per_site == 27
        site = gate_route.site_labels(layout, 1)
        assert len(site) == 27
        rows, bits = gate_route.write_pattern(layout, 3, 2)
        labels = tuple(site[q] for q in rows)
        assert labels == ("s1_r2_t0", "s1_r2_t1", "s1_r2_t2", "s1_r2_t3",
                          "s1_r2_t4", "s1_f2")
        assert bits == (0, 0, 0, 1, 1, 1)
        comp = tuple(site[q] for q in layout.comp_rows())
        assert comp == ("s1_k0", "s1_k1", "s1_k2")

    @pytest.mark.parametrize(
        "R, r, code",
        [(2, 1, "01"), (2, 2, "10"), (3, 3, "11"), (4, 4, "100"), (7, 5, "101")],
    )
    def test_band_codes(self, R, r, code):
        layout = MemoryLayout(RunConfig(M=2, R=R, layout="parallel"))
        assert layout.band_code(r) == code

    @pytest.mark.parametrize("R", range(1, 40))
    def test_compress_folds_write_the_band_code(self, R):
        layout = MemoryLayout(RunConfig(M=2, R=R, layout="parallel"))
        for r, (flag, flip) in enumerate(layout.compress_folds, start=1):
            assert flag == 1 << layout.flag_row(r)
            assert flip == flag | pattern_of(layout.comp_rows(),
                                              layout.band_code(r))

    def test_new_run_shares_one_layout_per_config(self):
        cfg = RunConfig(M=16, R=4, N=3, layout="parallel", seed=5)
        layout = new_run(cfg).layout
        equal = RunConfig(M=16, R=4, N=3, layout="parallel", seed=5)
        assert new_run(equal).layout is layout
        for other in (replace(cfg, seed=6), replace(cfg, eps=0.2)):
            run = new_run(other)
            assert run.layout.config == run.config == other
            assert run.layout is not layout
        assert 0 < _layout.cache_info().maxsize < 1000

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    def test_cached_tables_survive_a_roundtrip(self, layout):
        cfg = RunConfig(M=16, R=4, N=3, layout=layout, seed=8)
        shared = new_run(cfg).layout
        folds = shared.compress_folds if layout == "parallel" else None
        for m, r in ((7, 3), (16, 4), (1, 1)):
            run = encode_single_photon(cfg, m, r, amps=[1, 1j, -1])
            if layout == "parallel":
                run = parallel_frequency_compress(run)
            decode_arrival(run)
            assert run.layout is shared
        fresh = MemoryLayout(cfg)
        assert shared.names == fresh.names
        if layout == "parallel":
            assert shared.compress_folds is folds
            assert folds == fresh.compress_folds

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("M, R", [(5, 2), (3, 1), (16, 4), (127, 2), (64, 8)])
    def test_write_mask_sets_the_written_bits(self, layout, M, R):
        lay = MemoryLayout(RunConfig(M=M, R=R, layout=layout))
        for m in range(1, M + 1):
            for r in range(1, R + 1):
                want = pattern_of(*gate_route.write_pattern(lay, m, r))
                assert lay.write_mask(m, r) == want

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    @pytest.mark.parametrize("m, r", [(0, 1), (6, 1), (-1, 1), (1, 0), (1, 3)])
    def test_write_mask_range_checks(self, layout, m, r):
        lay = MemoryLayout(RunConfig(M=5, R=2, layout=layout))
        with pytest.raises(ConfigError, match="outside 1.."):
            lay.write_mask(m, r)
        with pytest.raises(ConfigError, match="outside 1.."):
            encode_bin(new_run(lay.config), m, (r, [1, 1]))

    def test_new_run_ledger(self):
        run = new_run(RunConfig(M=5, R=2, N=3))
        assert run.ledger.memory_qubits_per_site == 4
        assert run.ledger.ancilla_qubits == 6
        assert run.weights_total() == pytest.approx(1.0)


class TestEncodeBin:
    def test_photon_norm_is_numpys(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 8, 64, 1000):
            for scale in (1e-150, 1.0, 1e150):
                a = (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale
                want = a / np.linalg.norm(a)
                assert _photon_amps(a, n).tobytes() == want.tobytes()

    def test_photon_amps_checks_its_input_once(self, monkeypatch):
        names, rule = [], util.array

        def spy(value, name, *args):
            names.append(name)
            return rule(value, name, *args)

        monkeypatch.setattr(codec, "array", spy)
        monkeypatch.setattr(util, "array", spy)
        _photon_amps([1, 1j], 2)
        assert names == ["photon amplitudes"]
        with pytest.raises(ConfigError, match="photon amplitudes are all zero"):
            _photon_amps([0, 0], 2)

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    def test_each_step_returns_a_fresh_class_index(self, layout):
        cfg = RunConfig(M=5, R=2, N=2, layout=layout)
        blank = new_run(cfg)
        run = encode_bin(blank, 3, (2, [1, 1j]))
        assert run._index == {} and run._index is not blank._index
        if layout == "parallel":
            packed = parallel_frequency_compress(run)
            assert packed._index == {} and packed._index is not run._index
            run = packed
        replay = run.replay()
        assert replay._index is run._index
        decode_arrival(replay)
        assert run._index
        # a run with other components never inherits an index
        assert replace(run, components=list(run.components))._index == {}
        # private: out of the repr and of equality
        assert "_index" not in repr(run)
        same = replace(run)
        assert same._index == {} and same == run

    def test_single_photon_writes_codeword_superposition(self):
        cfg = RunConfig(M=5, R=2, N=2, layout="sequential", seed=3)
        run = encode_single_photon(cfg, m=5, r=2)
        assert len(run.components) == 1
        _, state, meta = run.components[0]
        assert meta == {"m": 5, "r": 2}
        assert state.pattern == 0b1101  # row p holds codeword bit p
        np.testing.assert_allclose(state.amps, [2 ** -0.5] * 2, rtol=0, atol=1e-15)
        labels = gate_route.gate_labels(run.layout)
        word = run.book.codeword(5, 2)
        m0 = basis_mask(labels, {f"s0_c{p}": int(b) for p, b in enumerate(word)})
        m1 = basis_mask(labels, {f"s1_c{p}": int(b) for p, b in enumerate(word)})
        expected = SupportState(labels, {m0: 2 ** -0.5, m1: 2 ** -0.5})
        gate_route.assert_support_close(gate_view(run)[0], expected)

    def test_measurement_outcomes_leave_no_trace(self):
        # gate route: every sampled X outcome leaves the same corrected state,
        # the one the site-vector write produces
        cfg = RunConfig(M=5, R=2, N=3, layout="sequential")
        amps = np.array([0.6, -0.64j, 0.48])
        run = encode_single_photon(cfg, 4, 1, amps=amps)
        for seed in range(4):
            sup = gate_route.write_photon(
                run.layout, 4, 1, amps, rng=np.random.default_rng(seed)
            )
            gate_route.assert_support_close(gate_view(run)[0], sup)

    @pytest.mark.parametrize("layout", ["sequential", "parallel"])
    def test_verify_mode_checks_every_branch(self, layout):
        cfg = RunConfig(M=4, R=2, N=3, layout=layout)
        rng = np.random.default_rng(11)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        run = encode_single_photon(cfg, 2, 2, amps=amps)
        sup = gate_route.write_photon(run.layout, 2, 2, amps, verify=True)
        assert sup.norm2() == pytest.approx(1.0)
        gate_route.assert_support_close(gate_view(run)[0], sup)

    @pytest.mark.parametrize("amps", [
        np.ones(2), np.ones(4), [1.0, np.nan, 0.0], [1.0, np.inf, 0.0],
        np.zeros(3),
    ])
    def test_bad_amplitudes_rejected(self, amps):
        with pytest.raises(ConfigError, match="amplitudes"):
            encode_single_photon(RunConfig(M=3, R=1, N=3), 1, 1, amps=amps)

    def test_superposed_photon_keeps_coherence(self):
        # one time bin, one band: each site holds a single memory qubit
        cfg = RunConfig(M=1, R=1, N=2, layout="sequential")
        phi = 0.7
        amps = np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2)
        run = encode_single_photon(cfg, 1, 1, amps=amps)
        gate = gate_route.encode_single_photon(run.layout, 1, 1, amps)
        gate_route.assert_components_match(run.layout, run.components, gate)
        rho = gate_route.dense_state(gate).density_matrix()
        # registry order (s0_c0, s1_c0): |10> -> index 2, |01> -> index 1
        assert rho[2, 1] == pytest.approx(np.exp(-1j * phi) / 2, abs=1e-12)
        assert rho[2, 2] == pytest.approx(0.5, abs=1e-12)
        assert rho[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_bin_is_identity(self):
        run = new_run(RunConfig(M=3, R=1, N=2))
        assert encode_bin(run, 2, None) is run

    def test_second_photon_rejected(self):
        cfg = RunConfig(M=3, R=1, N=2)
        run = encode_single_photon(cfg, 1, 1)
        with pytest.raises(EncodeError):
            encode_bin(run, 2, (1, np.array([1.0, 0.0])))


class TestEncodeRunFull:
    def test_two_band_mixture_matches_hand_built_density(self):
        eps = 0.05
        cfg = RunConfig(M=3, R=2, N=2, eps=eps, layout="sequential", seed=1)
        run = encode_run_full(cfg, band_g=[1.0, 0.0])
        # vacuum + 3 bins x (rank-1 band + rank-2 band)
        assert len(run.components) == 1 + 3 * (1 + 2)
        assert run.weights_total() == pytest.approx(1.0, abs=1e-12)
        gate = gate_route.encode_run_full(run.layout, band_g=[1.0, 0.0])
        gate_route.assert_components_match(run.layout, run.components, gate)
        rho = gate_route.dense_state(gate).density_matrix()
        labels = gate_route.gate_labels(run.layout)
        vac = basis_mask(labels, {})

        def dense_index(mask, n=len(labels)):
            return int(
                sum(1 << (n - 1 - q) for q in range(n) if mask & (1 << q))
            )

        assert rho[dense_index(vac), dense_index(vac)] == pytest.approx(
            (1 - eps) ** 3, abs=1e-12
        )
        word = run.book.codeword(1, 1)
        a = dense_index(
            basis_mask(labels, {f"s0_c{p}": int(b) for p, b in enumerate(word)})
        )
        b = dense_index(
            basis_mask(labels, {f"s1_c{p}": int(b) for p, b in enumerate(word)})
        )
        # band 1 carries g = 1: coherence eps/2 * 1/2 between the two sites
        assert rho[a, b] == pytest.approx(eps / 4, abs=1e-12)
        assert rho[a, a] == pytest.approx(eps / 4, abs=1e-12)
        word2 = run.book.codeword(1, 2)
        a2 = dense_index(
            basis_mask(labels, {f"s0_c{p}": int(b) for p, b in enumerate(word2)})
        )
        b2 = dense_index(
            basis_mask(labels, {f"s1_c{p}": int(b) for p, b in enumerate(word2)})
        )
        # band 2 carries g = 0: populations but no coherence
        assert rho[a2, b2] == pytest.approx(0.0, abs=1e-12)
        assert rho[a2, a2] == pytest.approx(eps / 4, abs=1e-12)

    def test_bin_weights_follow_geometric_law(self):
        eps = 0.2
        cfg = RunConfig(M=4, R=2, N=2, eps=eps, seed=5)
        run = encode_run_full(cfg, band_g=0.3)
        by_bin = {}
        for w, _, meta in run.components:
            by_bin[meta["m"]] = by_bin.get(meta["m"], 0.0) + w
        assert by_bin[0] == pytest.approx((1 - eps) ** 4, abs=1e-12)
        for m in range(1, 5):
            assert by_bin[m] == pytest.approx(
                eps * (1 - eps) ** (m - 1), abs=1e-12
            )

    def test_eps_zero_is_pure_vacuum(self):
        run = encode_run_full(RunConfig(M=4, R=2, N=2, eps=0.0))
        assert len(run.components) == 1
        assert run.components[0][2] == {"m": 0}

    def test_full_scale_parallel_run(self):
        cfg = RunConfig(M=16, R=4, N=2, eps=0.01, layout="parallel", seed=9)
        run = encode_run_full(cfg, band_g=0.3)
        assert len(run.components) == 1 + 16 * 4 * 2
        assert run.weights_total() == pytest.approx(1.0, abs=1e-12)
        assert run.ledger.memory_qubits_per_site == 27

    def test_bad_band_g_rejected(self):
        cfg = RunConfig(M=2, R=2, N=2, eps=0.1)
        with pytest.raises(ConfigError):
            encode_run_full(cfg, band_g=[0.3])  # one band short
        with pytest.raises(ConfigError):
            encode_run_full(cfg, band_g=[np.ones((3, 3)), 0.1])
        skew = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ConfigError):
            encode_run_full(cfg, band_g=[skew, 0.1])
        # np.allclose passes a 1e-7 asymmetry, and eigh reads one triangle
        for bad, match in ((np.inf, "finite"), (np.nan, "finite"),
                           (0.5 + 1e-7, "conjugate-symmetric")):
            g = np.array([[1.0, bad], [0.5, 1.0]])
            with pytest.raises(ConfigError, match=match):
                encode_run_full(cfg, band_g=[0.1, g])


class TestParallelCompress:
    def test_compress_folds_flags_into_band_code(self):
        cfg = RunConfig(M=2, R=2, N=2, layout="parallel", seed=2)
        run = encode_single_photon(cfg, m=2, r=2)
        packed = parallel_frequency_compress(run)
        assert packed.compressed
        written = gate_route.encode_single_photon(
            run.layout, 2, 2, [1, 1], verify=True
        )
        gate = gate_route.compress(run.layout, written, verify=True)
        gate_route.assert_components_match(packed.layout, packed.components, gate)
        sup = gate_view(packed)[0]
        # flags are measured away: 2 time registers of 2 + 2 compressed per site
        assert sup.n == 12
        bits0 = {"s0_r2_t0": 1, "s0_r2_t1": 0, "s0_k0": 1, "s0_k1": 0}
        bits1 = {"s1_r2_t0": 1, "s1_r2_t1": 0, "s1_k0": 1, "s1_k1": 0}
        expected = SupportState(
            sup.labels,
            {
                basis_mask(sup.labels, bits0): 2 ** -0.5,
                basis_mask(sup.labels, bits1): 2 ** -0.5,
            },
        )
        gate_route.assert_support_close(sup, expected)

    def test_compress_preserves_mixture_weights_and_states(self):
        cfg = RunConfig(M=2, R=2, N=2, eps=0.1, layout="parallel", seed=4)
        run = encode_run_full(cfg, band_g=[0.6, 0.2])
        packed = parallel_frequency_compress(run)
        layout = packed.layout
        assert [w for w, _, _ in packed.components] == [
            w for w, _, _ in run.components
        ]
        for (_, state, meta), (_, orig, _) in zip(
            packed.components, run.components
        ):
            assert state.amps is orig.amps
            if meta["m"] == 0:
                assert state.pattern == 0
                continue
            m, r = meta["m"], meta["r"]
            rows, bits = gate_route.write_pattern(layout, m, r)
            want = pattern_of(rows[:-1], bits[:-1])
            want |= pattern_of(layout.comp_rows(), layout.band_code(r))
            assert state.pattern == want  # flag cleared, band code set

    def test_compress_requires_parallel_layout(self):
        run = new_run(RunConfig(M=2, R=2, N=2, layout="sequential"))
        with pytest.raises(EncodeError):
            parallel_frequency_compress(run)

    def test_double_compress_rejected(self):
        run = new_run(RunConfig(M=2, R=2, N=2, layout="parallel"))
        packed = parallel_frequency_compress(run)
        with pytest.raises(EncodeError):
            parallel_frequency_compress(packed)
