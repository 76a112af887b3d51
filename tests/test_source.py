"""Geometry, visibilities, and photonic source states."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_route import broadband_two_site_rho, single_photon_rho, site_labels
from qtelarray import source
from qtelarray.qcore import StateError
from qtelarray.source import (
    ArrayGeometry,
    IntensityDistribution,
    VisibilityModel,
    native_grid,
    visibility_from_intensity,
    visibility_function,
)


def test_geometry_uniform_positions():
    geom = ArrayGeometry(N=4, d=3.0)
    np.testing.assert_allclose(geom.positions, [0, 1, 2, 3])
    assert geom.is_uniform
    assert geom.baseline(2) == pytest.approx(2.0)
    # rounding grows with the span; a wide uniform array stays uniform
    assert ArrayGeometry(N=4, d=1e5).is_uniform


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(N=1, d=1.0)
    with pytest.raises(ValueError):
        ArrayGeometry(positions=[0.0, 1.0, 1.0])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ArrayGeometry(positions=[0.0, 1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        ArrayGeometry(N=4, d=float("nan"))
    geom = ArrayGeometry(positions=[0.0, 0.5, 2.0])
    assert not geom.is_uniform
    with pytest.raises(ValueError):
        geom.baseline(1)


def test_intensity_normalization_rules():
    with pytest.raises(ValueError):
        IntensityDistribution([(0.0, 0.4), (1.0, 0.4)])
    dist = IntensityDistribution([(0.0, 0.4), (1.0, 0.4)], normalize=True)
    np.testing.assert_allclose(dist.weights, [0.5, 0.5])
    with pytest.raises(ValueError):
        IntensityDistribution([(0.0, -0.1), (1.0, 1.1)])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            IntensityDistribution([(0.0, bad), (1.0, 1.0)], normalize=True)
        with pytest.raises(ValueError, match="positions must be finite"):
            IntensityDistribution([(bad, 1.0)])
    # finite weights whose total overflows are rejected, never rescaled
    with pytest.raises(ValueError, match="float range"):
        IntensityDistribution([(0.0, 1e308), (1.0, 1e308), (2.0, 0.0)],
                              normalize=True)


@pytest.mark.parametrize("N, d", [(4, 1e-320), (4, 5e307), (4, 0.0)])
def test_native_grid_rejects_a_grid_outside_the_float_range(N, d):
    with pytest.raises(ValueError, match="native grid"):
        native_grid(N, d)


def test_point_source_visibility_all_ones():
    geom = ArrayGeometry(N=4, d=2.0)
    vis = visibility_from_intensity(IntensityDistribution.point(0.0), geom)
    np.testing.assert_allclose(vis.g, np.ones((4, 4)), atol=1e-14)


@pytest.mark.parametrize("N", [2, 3, 4, 6])
def test_flat_on_grid_kills_nonzero_baselines(N):
    d = 1.5
    geom = ArrayGeometry(N=N, d=d)
    vis = visibility_from_intensity(
        IntensityDistribution.flat_on_grid(N, d), geom
    )
    gk = vis.baseline_visibilities()
    assert gk[0] == pytest.approx(1.0)
    np.testing.assert_allclose(gk[1:], 0, atol=1e-12)


def test_off_center_point_has_unit_modulus_and_linear_phase():
    N, d = 4, 2.0
    y1 = native_grid(N, d)[1]
    geom = ArrayGeometry(N=N, d=d)
    vis = visibility_from_intensity(IntensityDistribution.point(y1), geom)
    gk = vis.baseline_visibilities()
    np.testing.assert_allclose(np.abs(gk), 1.0, atol=1e-12)
    for k in range(N):
        xk = geom.baseline(k)
        assert gk[k] * np.exp(2j * np.pi * xk * y1) == pytest.approx(1.0)


def test_visibility_toeplitz_for_uniform_arrays():
    rng = np.random.default_rng(21)
    N, d = 5, 2.0
    dist = IntensityDistribution(
        [(float(y), float(w)) for y, w in zip(rng.uniform(0, 2, 4), rng.uniform(0.1, 1, 4))],
        normalize=True,
    )
    vis = visibility_from_intensity(dist, ArrayGeometry(N=N, d=d))
    for k in range(1, N):
        col = np.array([vis.g[i + k, i] for i in range(N - k)])
        np.testing.assert_allclose(col, col[0], atol=1e-12)


def test_visibility_model_validation():
    geom = ArrayGeometry(N=2, d=1.0)
    with pytest.raises(ValueError):
        VisibilityModel(geom, np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        VisibilityModel(geom, np.array([[0.9, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        VisibilityModel.two_site(0.5, epsilon=1.2)
    with pytest.warns(UserWarning):
        VisibilityModel.two_site(0.5, epsilon=0.25)


def _scene_g(N):
    geom = ArrayGeometry(N=N, d=1.0)
    weights = np.random.default_rng(N).random(N)
    intensity = IntensityDistribution.on_grid(N, 1.0, weights, normalize=True)
    return geom, visibility_from_intensity(intensity, geom).g


@pytest.mark.parametrize("where", [(599, 3), (3, 599), (520, 598),
                                   (0, 255), (256, 0)])
def test_symmetry_check_reaches_every_block(where):
    # N = 600 spans three SYMMETRY_ROWS blocks; the last one is partial
    geom, g = _scene_g(600)
    VisibilityModel(geom, g)
    g = g.copy()
    g[where] += 2e-12
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        VisibilityModel(geom, g)
    g[where] -= 1.5e-12  # 5e-13 of asymmetry is within the tolerance
    VisibilityModel(geom, g)


@settings(max_examples=30, deadline=None)
@given(N=st.integers(2, 40), rows=st.integers(1, 50), seed=st.integers(0, 99),
       scale=st.sampled_from([0.0, 5e-13, 2e-12, 1e-6]))
def test_blocked_symmetry_check_matches_whole_matrix(N, rows, seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    g = (a + a.conj().T) / 2 + scale * rng.normal(size=(N, N))
    np.fill_diagonal(g, 1.0)
    whole = np.max(np.abs(g - g.conj().T)) > 1e-12
    old_rows = source.SYMMETRY_ROWS
    source.SYMMETRY_ROWS = rows
    try:
        try:
            VisibilityModel(ArrayGeometry(N=N, d=1.0), g)
            blocked = False
        except ValueError as exc:
            assert "conjugate-symmetric" in str(exc)
            blocked = True
    finally:
        source.SYMMETRY_ROWS = old_rows
    assert blocked == whole


@pytest.mark.parametrize("where", [(1, 1), (0, 2)])
def test_visibility_model_rejects_nan(where):
    # NaN slips through the unit-diagonal and symmetry tolerances, and a
    # NaN diagonal would reach the classical route's pair weights
    g = np.eye(3, dtype=complex)
    g[where] = g[where[::-1]] = np.nan
    with pytest.raises(ValueError, match="finite"):
        VisibilityModel(ArrayGeometry(N=3, d=1.0), g)


def test_single_photon_rho_two_site_matrix():
    g = 0.6
    rho = single_photon_rho(VisibilityModel.two_site(g)).density_matrix()
    reg_labels = site_labels(2)
    assert reg_labels == ("s0", "s1")
    # basis index 2 = |10>, 1 = |01>
    assert rho[2, 2] == pytest.approx(0.5)
    assert rho[1, 1] == pytest.approx(0.5)
    assert rho[2, 1] == pytest.approx(g / 2)
    assert rho[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_single_photon_rho_point_source_is_w_state():
    N, d = 3, 1.0
    vis = visibility_from_intensity(
        IntensityDistribution.point(0.0), ArrayGeometry(N=N, d=d)
    )
    st = single_photon_rho(vis)
    assert st.is_pure
    w = np.zeros(8)
    w[[4, 2, 1]] = 1 / np.sqrt(3)
    assert st.fidelity(w) == pytest.approx(1.0, abs=1e-12)


def test_single_photon_rho_flat_source_is_diagonal():
    N, d = 4, 2.0
    vis = visibility_from_intensity(
        IntensityDistribution.flat_on_grid(N, d), ArrayGeometry(N=N, d=d)
    )
    rho = single_photon_rho(vis).density_matrix()
    off = rho - np.diag(np.diagonal(rho))
    assert np.max(np.abs(off)) < 1e-12
    pops = [rho[1 << i, 1 << i].real for i in range(N)]
    np.testing.assert_allclose(pops, 1 / N, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_single_photon_rho_invariants_random_sources(seed):
    rng = np.random.default_rng(100 + seed)
    N = int(rng.integers(2, 7))
    d = float(rng.uniform(0.5, 3.0))
    weights = rng.uniform(0, 1, N)
    dist = IntensityDistribution.on_grid(N, d, weights, normalize=True)
    vis = visibility_from_intensity(dist, ArrayGeometry(N=N, d=d))
    st = single_photon_rho(vis)
    rho = st.density_matrix()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_single_photon_rho_rejects_unphysical_g():
    geom = ArrayGeometry(N=3, d=1.0)
    g = np.array(
        [[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]], dtype=complex
    )
    vis = VisibilityModel(geom, g)
    with pytest.raises(StateError):
        single_photon_rho(vis)


def test_broadband_two_site_weights_and_no_cross_band_coherence():
    eps = 0.04
    st = broadband_two_site_rho(eps, g1=1.0, g2=0.3)
    rho = st.density_matrix()
    reg = st.registry
    vac = reg.basis_index((0, 0, 0, 0))
    assert rho[vac, vac].real == pytest.approx(1 - eps, abs=1e-12)
    band1 = [reg.basis_index((1, 0, 0, 0)), reg.basis_index((0, 1, 0, 0))]
    band2 = [reg.basis_index((0, 0, 1, 0)), reg.basis_index((0, 0, 0, 1))]
    block1 = rho[np.ix_(band1, band1)]
    assert np.trace(block1).real == pytest.approx(eps / 2, abs=1e-12)
    # band-1 fully coherent at g=1
    assert block1[0, 1] == pytest.approx(eps / 4, abs=1e-12)
    block2 = rho[np.ix_(band2, band2)]
    assert block2[0, 1] == pytest.approx(0.3 * eps / 4, abs=1e-12)
    for i in band1:
        for j in band2:
            assert abs(rho[i, j]) < 1e-14


def test_broadband_domain_checks():
    with pytest.raises(ValueError):
        broadband_two_site_rho(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        broadband_two_site_rho(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        broadband_two_site_rho(0.05, 1.5, 1.0)
    with pytest.warns(UserWarning):
        broadband_two_site_rho(0.2, 1.0, 1.0)


def test_visibility_function_matches_direct_sum():
    dist = IntensityDistribution([(0.1, 0.3), (0.9, 0.7)])
    x = 1.7
    expect = 0.3 * np.exp(-2j * np.pi * x * 0.1) + 0.7 * np.exp(
        -2j * np.pi * x * 0.9
    )
    assert visibility_function(dist, x)[0] == pytest.approx(expect)


def _visibility_by_full_grid(intensity, geometry):
    """Reference route: g evaluated at every one of the N^2 differences."""
    pos = geometry.positions
    diffs = pos[:, None] - pos[None, :]
    g = visibility_function(intensity, diffs.reshape(-1)).reshape(diffs.shape)
    np.fill_diagonal(g, 1.0)
    return (g + g.conj().T) / 2


class TestUniqueBaselineRoute:
    @pytest.mark.parametrize("N", [2, 3, 5, 16, 64, 128])
    @pytest.mark.parametrize("scene", ["flat", "random", "point"])
    def test_uniform_arrays_match_full_grid(self, N, scene):
        rng = np.random.default_rng(N)
        weights = {"flat": np.ones(N), "random": rng.random(N),
                   "point": np.eye(N)[N // 3]}[scene]
        d = 1.7
        dist = IntensityDistribution.on_grid(N, d, weights, normalize=True)
        geom = ArrayGeometry(N=N, d=d)
        got = visibility_from_intensity(dist, geom).g
        want = _visibility_by_full_grid(dist, geom)
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=24),
        start=st.floats(-10.0, 10.0),
        sources=st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 1.0)),
            min_size=1, max_size=8,
        ),
    )
    def test_nonuniform_positions_match_full_grid(self, gaps, start, sources):
        pos = start + np.concatenate([[0.0], np.cumsum(gaps)])
        geom = ArrayGeometry(positions=pos)
        dist = IntensityDistribution(sources, normalize=True)
        got = visibility_from_intensity(dist, geom).g
        want = _visibility_by_full_grid(dist, geom)
        assert np.abs(got - want).max() <= 1e-12
        # exactly Hermitian, with an exact unit diagonal
        assert np.array_equal(got, got.conj().T)
        assert np.all(np.diagonal(got) == 1.0)


def _visibility_full_plane(intensity, geometry):
    """Reference route: g at each distinct difference of either sign,
    gathered over the N x N plane and symmetrized."""
    pos = geometry.positions
    diffs = pos[:, None] - pos[None, :]
    x, inv = np.unique(diffs.reshape(-1), return_inverse=True)
    g = visibility_function(intensity, x)[inv].reshape(diffs.shape)
    np.fill_diagonal(g, 1.0)
    return (g + g.conj().T) / 2


def _assert_same_bits(got, want):
    # array_equal, and the zero imaginary parts carry the same sign
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


class TestHalfPlaneRoute:
    @pytest.mark.parametrize("N", [2, 3, 17, 128, 300])
    @pytest.mark.parametrize("d", [1.0, 3.7, 0.013])
    @pytest.mark.parametrize("scene", ["flat", "point", "dense"])
    def test_uniform_arrays_match_full_plane(self, N, d, scene):
        rng = np.random.default_rng(N)
        weights = {"flat": np.ones(N), "point": np.eye(N)[N // 3],
                   "dense": rng.uniform(0.05, 1.0, N)}[scene]
        dist = IntensityDistribution.on_grid(N, d, weights, normalize=True)
        geom = ArrayGeometry(N=N, d=d)
        _assert_same_bits(visibility_from_intensity(dist, geom).g,
                          _visibility_full_plane(dist, geom))

    def test_irregular_array_over_several_blocks(self):
        rng = np.random.default_rng(5)
        N = 200
        geom = ArrayGeometry(positions=np.cumsum(rng.uniform(0.1, 2.0, N)))
        dist = IntensityDistribution.on_grid(N, 1.0, rng.uniform(0.05, 1.0, N),
                                             normalize=True)
        # the half plane alone spans several blocks
        assert N * (N - 1) // 2 * len(dist) > 3 * source.VIS_BLOCK
        _assert_same_bits(visibility_from_intensity(dist, geom).g,
                          _visibility_full_plane(dist, geom))


def _visibility_one_piece(intensity, x):
    """Reference route: the whole (baselines x samples) phase matrix at once."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.exp(-2j * np.pi * np.outer(x, intensity.y)) @ intensity.weights


class TestVisibilityBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        gaps=st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=24),
        sources=st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 1.0)),
            min_size=1, max_size=8,
        ),
        block=st.integers(1, 64),
    )
    def test_row_blocks_match_one_piece(self, gaps, sources, block):
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
        dist = IntensityDistribution(sources, normalize=True)
        x = np.unique((pos[:, None] - pos[None, :]).reshape(-1))
        want = _visibility_one_piece(dist, x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(source, "VIS_BLOCK", block)
            got = visibility_function(dist, x)
            vis = visibility_from_intensity(dist, ArrayGeometry(positions=pos))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12
        want_g = _visibility_by_full_grid(dist, ArrayGeometry(positions=pos))
        assert np.abs(vis.g - want_g).max() <= 1e-12

    @pytest.mark.parametrize("N", [32, 64, 128, 256])
    def test_uniform_frames_stay_in_one_block(self, N):
        # the imaging frames evaluate every distinct baseline in one piece,
        # exactly as before blocking, so their reports do not move
        pos = ArrayGeometry(N=N, d=1.0).positions
        x = np.unique((pos[:, None] - pos[None, :]).reshape(-1))
        assert x.size * N <= source.VIS_BLOCK
        dist = IntensityDistribution.flat_on_grid(N, 1.0)
        assert np.array_equal(visibility_function(dist, x),
                              _visibility_one_piece(dist, x))
