"""QFT imaging and classical-pipeline tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtelarray import imaging
from qtelarray.imaging import (
    ImagingEstimate,
    _draw_pairs,
    _guide,
    _phase_table,
    _qft_pair,
    classical_pipeline,
    image_from_visibilities,
    natural_weights,
    qft_image_diagonal,
    qft_process,
    resolve_quadratures,
    sample_qft,
    snr_report,
)
from qtelarray.util import qft_matrix
from qtelarray.source import (
    ArrayGeometry,
    IntensityDistribution,
    VisibilityModel,
    native_grid,
    visibility_from_intensity,
)


def on_grid_model(N, weights, d=1.0):
    intensity = IntensityDistribution.on_grid(N, d, weights, normalize=True)
    geo = ArrayGeometry(N=N, d=d)
    return visibility_from_intensity(intensity, geo), intensity


class TestNaturalWeighting:
    @pytest.mark.parametrize("N", range(2, 9))
    def test_weights_complete_the_unit_sum(self, N):
        w = natural_weights(N)
        assert len(w) == N - 1
        assert 1.0 / N + w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_four_site_values(self):
        assert np.allclose(natural_weights(4), [0.375, 0.25, 0.125])

    def test_hand_computed_image(self):
        # independent arithmetic for a fixed visibility vector
        N = 4
        gk = np.array([0.5j, 0.0, 0.2 - 0.1j])
        img = image_from_visibilities(gk, N)
        for m in range(N):
            acc = 1.0 / N
            for k in range(1, N):
                w = 2.0 * (N - k) / N ** 2
                acc += w * (gk[k - 1] * np.exp(2j * np.pi * m * k / N)).real
            assert img[m] == pytest.approx(acc, abs=1e-12)
        # a unit image requires g = 0: flat distribution
        assert image_from_visibilities(np.zeros(3), 4) == pytest.approx(
            [0.25] * 4
        )


class TestQftRoutes:
    @pytest.mark.parametrize("N", range(2, 9))
    def test_closed_form_matches_conjugation_and_recovers_sources(self, N):
        rng = np.random.default_rng(100 + N)
        for _ in range(5):
            weights = rng.random(N) + 0.05
            vis, intensity = on_grid_model(N, weights)
            diag_closed = qft_image_diagonal(vis)
            diag_conj = np.diag(qft_process(vis)).real
            assert np.allclose(diag_closed, diag_conj, atol=1e-12)
            # on-grid sources come back exactly through the triangular kernel
            assert np.allclose(diag_closed, intensity.weights, atol=1e-10)

    @pytest.mark.parametrize("j_star", [0, 1, 3])
    def test_point_source_collapses_to_one_site(self, j_star):
        N = 4
        weights = np.zeros(N)
        weights[j_star] = 1.0
        vis, _ = on_grid_model(N, weights)
        diag = qft_image_diagonal(vis)
        expected = np.zeros(N)
        expected[j_star] = 1.0
        assert np.allclose(diag, expected, atol=1e-10)

    def test_off_grid_source_still_a_distribution(self):
        geo = ArrayGeometry(N=5, d=2.0)
        grid = native_grid(5, 2.0)
        y0 = 0.5 * (grid[1] + grid[2])
        intensity = IntensityDistribution.point(y0)
        vis = visibility_from_intensity(intensity, geo)
        diag = qft_image_diagonal(vis)
        assert diag.min() > -1e-12
        assert diag.sum() == pytest.approx(1.0, abs=1e-12)
        assert diag.max() < 1.0  # grid mismatch spreads the peak

    def test_qft_process_accepts_density(self):
        vis, _ = on_grid_model(3, [0.2, 0.5, 0.3])
        out = qft_process(vis.g / 3)
        assert np.allclose(out, qft_process(vis), atol=1e-14)
        with pytest.raises(ValueError):
            qft_process(np.ones(3))


class TestCachedTables:
    N = 12

    def _routes(self):
        vis, _ = on_grid_model(self.N, np.random.default_rng(3).random(self.N))
        gk = vis.baseline_visibilities()[1:]
        return {
            "image": lambda: image_from_visibilities(gk, self.N),
            "closed": lambda: qft_image_diagonal(vis),
            "conjugation": lambda: qft_process(vis),
        }

    @pytest.mark.parametrize("route", ["image", "closed", "conjugation"])
    def test_results_are_fresh_and_writable(self, route):
        call = self._routes()[route]
        first = call()
        tables = (_phase_table(self.N), *_qft_pair(self.N))
        assert first.flags.writeable
        assert not any(np.shares_memory(first, t) for t in tables)
        want = first.copy()
        first[...] = 7.0
        again = call()
        assert not np.shares_memory(first, again)
        assert np.array_equal(again, want)

    def test_tables_are_read_only(self):
        phases = _phase_table(self.N)
        F, F_dag = _qft_pair(self.N)
        for table in (phases, F, F_dag, F_dag.base):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0

    @pytest.mark.parametrize("N", [1, 2, 5, 64])
    def test_qft_pair_is_the_matrix_and_its_adjoint(self, N):
        F, F_dag = _qft_pair(N)
        assert np.array_equal(F, qft_matrix(N))
        assert np.array_equal(F_dag, qft_matrix(N).conj().T)
        assert F_dag.flags.f_contiguous

    @staticmethod
    def _held():
        return sum(size for _, size in imaging._tables.values())

    def test_cache_holds_every_wide_array_size(self):
        sizes = (32, 64, 128, 256)
        first = {N: (_phase_table(N), _qft_pair(N)) for N in sizes}
        assert self._held() <= imaging.TABLE_CACHE_BYTES
        for N in sizes:
            phases, (F, F_dag) = first[N]
            assert _phase_table(N) is phases
            again = _qft_pair(N)
            assert again[0] is F and again[1] is F_dag

    def test_cache_is_bounded_by_bytes(self, monkeypatch):
        cap = 1 << 20
        monkeypatch.setattr(imaging, "TABLE_CACHE_BYTES", cap)
        for N in range(40, 400, 30):
            for table in (_phase_table, _qft_pair):
                got, fresh = table(N), table.__wrapped__(N)
                assert self._held() <= cap
                # the results stay those of a fresh, read-only build
                if table is _phase_table:
                    got, fresh = (got,), (fresh,)
                for a, b in zip(got, fresh):
                    assert np.array_equal(a, b) and not a.flags.writeable
        # tables larger than the cap are returned but never kept
        assert all(size <= cap for _, size in imaging._tables.values())
        assert (_qft_pair.__wrapped__, 370) not in imaging._tables
        # the most recently used table survives a later insertion
        _phase_table(40)
        _phase_table(70)
        assert _phase_table(40) is _phase_table(40)
        assert (_phase_table.__wrapped__, 40) in imaging._tables


class TestSampleQft:
    def test_point_source_sampling_is_noiseless(self):
        vis, _ = on_grid_model(4, [0, 0, 1, 0])
        est = sample_qft(vis, 5000, rng=np.random.default_rng(0))
        assert est.i_hat[2] == pytest.approx(1.0)
        assert np.all(est.var == 0.0)
        assert est.extra["counts"][2] == 5000

    def test_exact_image_keeps_rounding_negatives(self):
        # only the sampling distribution is clipped at zero
        vis, _ = on_grid_model(8, np.eye(8)[0])
        exact = qft_image_diagonal(vis)
        assert exact.min() < 0
        est = sample_qft(vis, 1000, rng=np.random.default_rng(0))
        assert np.array_equal(est.i_exact, exact)

    def test_flat_source_statistics(self):
        N, shots = 4, 40000
        vis, _ = on_grid_model(N, np.ones(N))
        est = sample_qft(vis, shots, rng=np.random.default_rng(1))
        assert est.i_hat.sum() == pytest.approx(1.0, abs=1e-12)
        se = np.sqrt(0.25 * 0.75 / shots)
        assert np.all(np.abs(est.i_hat - 0.25) < 4 * se)
        assert np.allclose(est.var, 0.25 * 0.75 / shots, rtol=0.05)

    def test_reproducible_given_seed(self):
        vis, _ = on_grid_model(3, [0.5, 0.3, 0.2])
        a = sample_qft(vis, 1000, rng=np.random.default_rng(7))
        b = sample_qft(vis, 1000, rng=np.random.default_rng(7))
        assert np.array_equal(a.extra["counts"], b.extra["counts"])


class TestQuadraturePolicy:
    def test_auto_resolution(self):
        flat, _ = on_grid_model(4, np.ones(4))
        assert resolve_quadratures(flat) == "real"
        skew, _ = on_grid_model(4, [0.6, 0.2, 0.1, 0.1])
        assert resolve_quadratures(skew) == "both"
        assert resolve_quadratures(skew, "real") == "real"
        with pytest.raises(ValueError):
            resolve_quadratures(flat, "imag")


class TestClassicalPipeline:
    def test_flat_source_reported_variance_and_counts(self):
        N, shots = 4, 20000
        vis, _ = on_grid_model(N, np.ones(N))
        est = classical_pipeline(vis, shots, rng=np.random.default_rng(3))
        assert est.extra["quadratures"] == "real"
        # attempt budget loses the 1/N retries
        p_succ = 1 - 1 / N
        succ = est.extra["successes"]
        assert abs(succ - shots * p_succ) < 3 * np.sqrt(
            shots * p_succ / N
        )
        for k in range(1, N):
            expect = 2 * shots * (N - k) / N ** 2
            assert abs(est.extra["n_k"][k - 1] - expect) < 4 * np.sqrt(expect)
        target = (N - 1) / (N * shots)
        assert np.allclose(est.var, target, rtol=0.1)
        se = np.sqrt(target)
        assert np.all(np.abs(est.i_hat - 0.25) < 4 * se)

    def test_variance_ratio_approaches_site_count(self):
        N, shots = 4, 100000
        vis, _ = on_grid_model(N, np.ones(N))
        rng = np.random.default_rng(17)
        report = snr_report(vis, shots, rng=rng)
        assert np.all(np.abs(report["variance_ratio"] - N) < 0.5)

    def test_complex_source_needs_both_quadratures(self):
        N, shots = 4, 60000
        vis, _ = on_grid_model(N, [0.6, 0.2, 0.1, 0.1])
        est = classical_pipeline(vis, shots, rng=np.random.default_rng(5))
        assert est.extra["quadratures"] == "both"
        g_true = vis.baseline_visibilities()[1:]
        for k in range(N - 1):
            se = np.sqrt(2.0 * est.extra["sigma2"][k])
            assert abs(est.extra["g_hat"][k] - g_true[k]) < 4 * max(se, 1e-3)
        assert np.all(np.abs(est.i_hat - est.i_exact) < 5 * np.sqrt(est.var))

    def test_forced_real_mode_biases_complex_sources(self):
        vis, _ = on_grid_model(4, [0.6, 0.2, 0.1, 0.1])
        est = classical_pipeline(
            vis, 200000, rng=np.random.default_rng(6), quadratures="real"
        )
        # dropping the XY quadrature discards Im g: the image is biased
        assert np.max(np.abs(est.i_hat - est.i_exact)) > 10 * np.sqrt(
            est.var[0]
        )

    def test_reported_variance_bounds_empirical_variance(self):
        # the isotropic report is an upper bound up to quadrature noise
        N, shots, runs = 3, 4000, 50
        vis, _ = on_grid_model(N, [0.6, 0.25, 0.15])
        rng = np.random.default_rng(8)
        images = []
        reported = []
        for _ in range(runs):
            est = classical_pipeline(vis, shots, rng=rng, quadratures="both")
            images.append(est.i_hat)
            reported.append(est.var[0])
        empirical = np.var(np.asarray(images), axis=0, ddof=1)
        bound = np.mean(reported)
        assert np.all(empirical <= 1.3 * bound)

    def test_direct_pair_sampler_skips_retries(self):
        N, shots = 4, 20000
        vis, _ = on_grid_model(N, np.ones(N))
        direct = classical_pipeline(
            vis, shots, rng=np.random.default_rng(9), sampler="direct_pair"
        )
        chained = classical_pipeline(
            vis, shots, rng=np.random.default_rng(9), sampler="w_state"
        )
        assert direct.extra["successes"] == shots
        assert chained.extra["successes"] < shots
        assert direct.var[0] < chained.var[0]

    def test_bad_arguments(self):
        vis, _ = on_grid_model(3, np.ones(3))
        with pytest.raises(ValueError):
            classical_pipeline(vis, 0)
        with pytest.raises(ValueError):
            classical_pipeline(vis, 10, sampler="median")

    def test_reproducible_given_seed(self):
        vis, _ = on_grid_model(4, [0.4, 0.3, 0.2, 0.1])
        a = classical_pipeline(vis, 5000, rng=np.random.default_rng(11))
        b = classical_pipeline(vis, 5000, rng=np.random.default_rng(11))
        assert np.array_equal(a.i_hat, b.i_hat)
        assert np.array_equal(a.extra["g_hat"], b.extra["g_hat"])


def _classical_by_loop(vis, shots, rng, sampler, quadratures):
    """Reference route: pairs as a list and pooling by a per-baseline scan.

    Draws from ``rng`` in the same order as ``classical_pipeline`` (one
    ``random``, one ``choice``, one ``binomial`` per setting) and returns
    (i_hat, var, g_hat, sigma2, n_k, successes).
    """
    N = vis.geometry.N
    mode = resolve_quadratures(vis, quadratures)
    settings = ("XX",) if mode == "real" else ("XX", "XY")
    rho = vis.g / N
    pairs = [(a, b) for a in range(N) for b in range(a + 1, N)]
    weight = np.array([(rho[a, a] + rho[b, b]).real for a, b in pairs])
    cond = np.array([rho[a, b] / w for (a, b), w in zip(pairs, weight)])
    corr_by_setting = {"XX": 2.0 * cond.real, "XY": -2.0 * cond.imag}
    n_pairs = len(pairs)
    if sampler == "w_state":
        successes = int((rng.random(shots) >= 1.0 / N).sum())
    else:
        successes = shots
    pair_idx = rng.choice(n_pairs, size=successes, p=weight / weight.sum())
    sums = np.zeros((len(settings), n_pairs))
    counts = np.zeros((len(settings), n_pairs), dtype=int)
    for s_i, setting in enumerate(settings):
        sel = pair_idx[s_i::len(settings)]
        n_sel = np.bincount(sel, minlength=n_pairs)
        corr = np.clip(corr_by_setting[setting], -1.0, 1.0)
        plus = rng.binomial(n_sel, 0.5 * (1.0 + corr))
        sums[s_i] = 2.0 * plus - n_sel
        counts[s_i] = n_sel
    g_hat = np.zeros(N - 1, dtype=complex)
    sigma2 = np.zeros(N - 1)
    n_k = np.zeros(N - 1, dtype=int)
    for ki, k in enumerate(range(1, N)):
        sel = [i for i, (a, b) in enumerate(pairs) if b - a == k]
        quad_means = []
        quad_se2 = []
        for s_i in range(len(settings)):
            n = int(counts[s_i, sel].sum())
            total = float(sums[s_i, sel].sum())
            if n == 0:
                quad_means.append(0.0)
                quad_se2.append(1.0)
                continue
            mean = total / n
            quad_means.append(mean)
            quad_se2.append(max(1.0 - mean ** 2, 0.0) / n)
        n_k[ki] = int(counts[:, sel].sum())
        if mode == "real":
            g_hat[ki] = quad_means[0]
        else:
            g_hat[ki] = quad_means[0] + 1j * quad_means[1]
        sigma2[ki] = float(np.mean(quad_se2))
    i_hat = image_from_visibilities(g_hat, N)
    var = np.full(N, float((natural_weights(N) ** 2 * sigma2).sum()))
    return i_hat, var, g_hat, sigma2, n_k, successes


class TestBaselinePooling:
    @pytest.mark.parametrize("N, shots", [
        (2, 500), (3, 2000), (5, 4000), (16, 3), (16, 20000), (33, 50000),
        (64, 100000),
    ])
    @pytest.mark.parametrize("sampler", ["w_state", "direct_pair"])
    @pytest.mark.parametrize("quadratures", ["real", "both"])
    @pytest.mark.parametrize("scene", ["flat", "random"])
    def test_matches_loop_oracle_exactly(self, N, shots, sampler,
                                         quadratures, scene):
        rng = np.random.default_rng(1000 + N)
        weights = np.ones(N) if scene == "flat" else rng.random(N) + 0.01
        vis, _ = on_grid_model(N, weights)
        seed = 7 * N + shots
        est = classical_pipeline(vis, shots, rng=np.random.default_rng(seed),
                                 sampler=sampler, quadratures=quadratures)
        i_hat, var, g_hat, sigma2, n_k, successes = _classical_by_loop(
            vis, shots, np.random.default_rng(seed), sampler, quadratures
        )
        if shots < N:
            # some baselines get no shots: they report mean 0 and se^2 1
            assert np.any(sigma2 == 1.0)
        assert np.array_equal(est.i_hat, i_hat)
        assert np.array_equal(est.var, var)
        assert np.array_equal(est.extra["g_hat"], g_hat)
        assert np.array_equal(est.extra["sigma2"], sigma2)
        assert np.array_equal(est.extra["n_k"], n_k)
        assert est.extra["n_k"].dtype.kind == "i"
        assert est.extra["successes"] == successes

    def test_squared_means_round_like_python_pow(self):
        # at this seed some baseline mean m has m ** 2 != m * m in the last
        # bit, and the difference reaches sigma2
        N, shots, seed = 64, 100000, 28
        vis, _ = on_grid_model(N, np.eye(N)[N // 3])
        est = classical_pipeline(vis, shots, rng=np.random.default_rng(seed),
                                 quadratures="both")
        means = np.concatenate([est.extra["g_hat"].real,
                                est.extra["g_hat"].imag]).tolist()
        assert any(m ** 2 != m * m for m in means)
        ref = _classical_by_loop(vis, shots, np.random.default_rng(seed),
                                 "w_state", "both")
        assert np.array_equal(est.extra["sigma2"], ref[3])
        assert np.array_equal(est.var, ref[1])


def _assert_draws_like_choice(weight, size, seed):
    """``_draw_pairs`` equals ``rng.choice`` in indices and final rng state."""
    weight = np.asarray(weight, dtype=float)
    want_rng = np.random.default_rng(seed)
    want = want_rng.choice(weight.size, size=size, p=weight / weight.sum())
    got_rng = np.random.default_rng(seed)
    got = _draw_pairs(got_rng, weight, size)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


_zero_run = st.integers(0, 40).map(lambda n: [0.0] * n)
# mantissa times a power of ten: flat, mildly and very heavy-tailed bodies
_heavy = st.builds(lambda m, e: m * 10.0 ** e,
                   st.floats(0.5, 1.0), st.integers(-30, 30))
_body = st.lists(st.one_of(_heavy, st.just(0.0), st.just(1.0)),
                 min_size=1, max_size=300)


class _FixedUniforms:
    """Stands in for a generator whose next uniforms are ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u


class TestDrawPairs:
    @settings(max_examples=300, deadline=None)
    @given(lead=_zero_run, body=_body, tail=_zero_run, last=_heavy,
           size=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_choice(self, lead, body, tail, last, size, seed):
        # ``last`` keeps the total positive; zero runs lead, sit inside and
        # trail the body
        _assert_draws_like_choice(lead + body + [last] + tail, size, seed)

    @given(size=st.integers(0, 50), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_pair(self, size, seed):
        # N = 2: every draw lands on the single pair
        _assert_draws_like_choice([1.0], size, seed)

    @pytest.mark.parametrize("N", [2, 3, 32, 256, 1024])
    @pytest.mark.parametrize("scene", ["w_state", "pareto"])
    def test_matches_choice_at_array_sizes(self, N, scene):
        n_pairs = N * (N - 1) // 2
        if scene == "w_state":
            weight = np.full(n_pairs, 2.0 / N)
        else:
            weight = np.random.default_rng(N).pareto(0.7, n_pairs)
        _assert_draws_like_choice(weight, 200000, 3 * N)

    @pytest.mark.parametrize("n_pairs", [1, 3, 5, 8, 45, 64, 496, 1000])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_uniforms_on_cdf_entries_and_cell_edges(self, n_pairs, zeros):
        # uniforms equal to, and one ulp either side of, every CDF entry and
        # every dyadic cell edge: ties must resolve as searchsorted "right"
        weight = np.full(n_pairs, 1.0)
        if zeros:
            weight[::3] = 0.0
            weight[-1] = 1.0
        cdf = (weight / weight.sum()).cumsum()
        cdf /= cdf[-1]
        # dyadic edges at a quarter of the guide cell width and finer
        H = 1 << (n_pairs.bit_length() + 2)
        edges = np.arange(H) / H
        pts = np.concatenate([cdf, edges])
        u = np.concatenate([pts, np.nextafter(pts, 0.0), np.nextafter(pts, 1.0)])
        u = u[u < 1.0]
        got = _draw_pairs(_FixedUniforms(u), weight, u.size)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    @settings(max_examples=300, deadline=None)
    @given(lead=_zero_run, body=_body, tail=_zero_run, last=_heavy)
    def test_guide_matches_searchsorted(self, lead, body, tail, last):
        # zero weights give tied CDF entries, in runs at the start, inside
        # and at the end
        weight = np.array(lead + body + [last] + tail)
        cdf = (weight / weight.sum()).cumsum()
        cdf /= cdf[-1]
        G = 1 << (cdf.size - 1).bit_length()
        want = cdf.searchsorted(np.arange(G) / G, side="right")
        got = _guide(cdf)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 64, 496, 1024])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_guide_on_cell_edges(self, n, zeros):
        # flat weights put CDF entries on the cell edges when n is a power
        # of two; zeros every third entry tie neighbouring entries
        weight = np.ones(n)
        if zeros:
            weight[::3] = 0.0
            weight[-1] = 1.0
        cdf = (weight / weight.sum()).cumsum()
        cdf /= cdf[-1]
        G = 1 << (n - 1).bit_length()
        want = cdf.searchsorted(np.arange(G) / G, side="right")
        assert np.array_equal(_guide(cdf), want)

    def test_crowded_cell(self):
        # a thousand near-zero weights share one guide cell, so some draws
        # step a thousand times from their start
        weight = np.r_[np.full(1000, 1e-300), 1.0, np.full(1000, 1e-300)]
        _assert_draws_like_choice(weight, 100000, 17)

    def test_uses_the_normalized_cdf(self):
        # the first uniform of seed 5 falls between the raw cumulative sum
        # of p and the same sum divided by its last entry
        weight = np.array([1.2384846058320969, 0.1, 0.2])
        raw = (weight / weight.sum()).cumsum()
        u0 = np.random.default_rng(5).random()
        assert raw.searchsorted(u0, side="right") == 1
        _assert_draws_like_choice(weight, 1, 5)
        assert _draw_pairs(np.random.default_rng(5), weight, 1)[0] == 0

    @pytest.mark.parametrize("weight", [
        [0.5, np.nan, 0.5],
        [np.nan, np.nan],
        [0.5, -0.1, 0.6],
        [0.0, 0.0, 0.0],
        [1.0, np.inf],
        [1e308, 1e308],
    ])
    def test_rejects_bad_weights_before_drawing(self, weight):
        weight = np.array(weight)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError):
                rng.choice(weight.size, size=4, p=weight / weight.sum())
            with pytest.raises(ValueError, match="finite, nonnegative"):
                _draw_pairs(rng, weight, 4)
        assert rng.bit_generator.state == before
