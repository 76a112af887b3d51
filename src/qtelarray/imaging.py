"""Intensity imaging from stored single-photon states.

The quantum route applies the discrete Fourier transform to the which-site
degree of freedom of the stored photon and measures the site index. Its
outcome distribution has the closed form

    p_m = 1/N + (2/N^2) sum_k (N - k) Re{ g_k exp(2 pi i m k / N) }

over baselines k = 1..N-1, the natural weighting of the measured
visibilities g_k. On the native grid y_j = (N-1) j / (N d) the triangular
kernel sums to a discrete delta (the Fejer identity), so on-grid sources
are recovered exactly, and a full detection budget of l photons yields
per-point variance p(1-p)/l.

The classical route estimates each g_k from pair correlations: a W-state
readout collapses the photon onto a site pair (uniformly at random for a
flat source), local X/Y measurements give +-1 products whose means are the
quadratures of g_k, and the same natural weighting assembles the image.
Splitting the budget over baselines and quadratures costs a factor of N in
per-point variance on flat sources.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .netdecode import _cdf, pair_weights, plus_probability
from .source import MAX_SITES, VisibilityModel
from .util import ConfigError, array, count, make_rng, qft_matrix

QUADRATURE_MODES = ("auto", "real", "both")
SAMPLERS = ("w_state", "direct_pair")
IMAG_TOL = 1e-12
# int64 maximum: multinomial and binomial counts are C longs
SHOTS_MAX = np.iinfo(np.int64).max
# Uniforms drawn per block of the classical route (128 KiB); a block of
# pair draws holds at least one per pair.
DRAW_BLOCK = 1 << 14
# Bytes of DFT tables kept between calls; one N=256 frame's take 3 MiB.
TABLE_CACHE_BYTES = 64 << 20


@dataclass
class ImagingEstimate:
    """Per-grid-point image estimate with its reported variance."""

    i_hat: np.ndarray
    var: np.ndarray
    shots: int
    extra: dict = field(default_factory=dict)


def natural_weights(N: int) -> np.ndarray:
    """Triangular baseline weights w_k = 2 (N - k) / N^2 for k = 1..N-1."""
    N = count(N, "N", 1, MAX_SITES, "MAX_SITES")
    k = np.arange(1, N)
    return 2.0 * (N - k) / N ** 2


_tables = OrderedDict()


def _byte_cached(build):
    """Memoize ``build(n)``, a read-only array or a tuple of them, in one
    store shared by every table so decorated. The least recently used
    results leave first, so the kept arrays never total more than
    TABLE_CACHE_BYTES; a larger result is returned but not kept."""

    @wraps(build)
    def table(n):
        key = (build, n)
        if key in _tables:
            _tables.move_to_end(key)
            return _tables[key][0]
        value = build(n)
        arrays = value if isinstance(value, tuple) else (value,)
        size = sum(a.nbytes for a in arrays)
        if size <= TABLE_CACHE_BYTES:
            _tables[key] = value, size
            while sum(kept for _, kept in _tables.values()) > TABLE_CACHE_BYTES:
                _tables.popitem(last=False)
        return value

    return table


@_byte_cached
def _phase_table(N: int) -> np.ndarray:
    """Read-only exp(2 pi i m k / N) over m = 0..N-1 and k = 1..N-1."""
    phases = np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(1, N)) / N)
    phases.flags.writeable = False
    return phases


def image_from_visibilities(gk, N: int) -> np.ndarray:
    """Natural-weighting image from baseline visibilities g_1..g_{N-1}."""
    N = count(N, "N", 1, MAX_SITES, "MAX_SITES")
    gk = array(gk, "baseline visibilities", complex, (N - 1,))
    phases = _phase_table(N)
    return 1.0 / N + (phases * (natural_weights(N) * gk)).real.sum(axis=1)


def qft_image_diagonal(vis: VisibilityModel) -> np.ndarray:
    """Closed-form outcome distribution of the QFT route."""
    g = vis.baseline_visibilities()
    return image_from_visibilities(g[1:], vis.geometry.N)


@_byte_cached
def _qft_pair(n: int) -> tuple:
    """Read-only ``qft_matrix(n)`` and its adjoint, a transposed view."""
    F = qft_matrix(n)
    F.flags.writeable = False
    F_conj = F.conj()
    F_conj.flags.writeable = False
    return F, F_conj.T


def qft_process(vis_or_rho) -> np.ndarray:
    """Conjugation route: F rho F^dagger on the which-site density."""
    if isinstance(vis_or_rho, VisibilityModel):
        rho = vis_or_rho.g / vis_or_rho.geometry.N
    else:
        rho = array(vis_or_rho, "which-site density", complex, (None, None))
        if rho.shape[0] != rho.shape[1]:
            raise ConfigError("which-site density must be square")
    F, F_dag = _qft_pair(rho.shape[0])
    return F @ rho @ F_dag


def sample_qft(vis: VisibilityModel, shots: int, rng=None) -> ImagingEstimate:
    """Sample the QFT site-index distribution with a budget of stored photons."""
    shots = count(shots, "shots", 1, SHOTS_MAX, "SHOTS_MAX")
    rng = make_rng(rng)
    p = np.clip(qft_image_diagonal(vis), 0.0, None)
    counts = rng.multinomial(shots, p / p.sum())
    i_hat = counts / float(shots)
    return ImagingEstimate(
        i_hat=i_hat,
        var=i_hat * (1.0 - i_hat) / float(shots),
        shots=shots,
        extra={"counts": counts},
    )


def resolve_quadratures(vis: VisibilityModel, quadratures: str = "auto") -> str:
    """Pick the measurement settings: XX only for real g, else XX and XY."""
    if quadratures not in QUADRATURE_MODES:
        raise ConfigError(f"quadratures must be one of {QUADRATURE_MODES}")
    if quadratures != "auto":
        return quadratures
    g = vis.baseline_visibilities()
    return "real" if float(np.abs(g.imag).max()) < IMAG_TOL else "both"


def _guide(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a normalized CDF for :func:`_search`.

    Entry j counts the CDF entries at or below j / G, over G = 2^ceil(log2 n)
    equal cells, as ``cdf.searchsorted(arange(G) / G, side="right")`` does:
    an entry lies at or below j / G exactly when ceil(cdf * G) <= j, and
    ``cdf * G`` is exact as G is a power of two, so one bincount of
    ceil(cdf * G), summed up to j, gives the table in one pass.
    """
    G = 1 << (cdf.size - 1).bit_length()
    return np.bincount(
        np.ceil(cdf * G).astype(np.intp), minlength=G + 1
    ).cumsum()[:G]


def _blocks(size: int, block: int):
    """Sizes of the consecutive runs of at most ``block`` that make ``size``."""
    return (min(block, size - lo) for lo in range(0, size, block))


def _max_steps(guide: np.ndarray, n: int) -> int:
    """The most forward steps :func:`_search` can take on a draw, from the
    guide table of an n-entry CDF.

    A draw in cell j starts at guide[j] and ends at or before guide[j + 1];
    in the last cell it ends at or before n - 1, as cdf[n - 1] = 1 exceeds
    every uniform.
    """
    return int(max((guide[1:] - guide[:-1]).max(initial=0), n - 1 - guide[-1]))


def _search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray,
            steps: int) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` answered from ``_guide(cdf)``.

    A draw starts at the first CDF entry above its cell's left edge and
    steps forward while ``cdf[idx] <= u``. The CDF is nondecreasing in
    floating point and the start never passes the answer, so the result is
    exact; ``steps`` is ``_max_steps(guide, cdf.size)``.
    Every draw takes its first step in one vectorized pass; only when
    a cell holds more than one CDF entry do the draws still short of their
    answer step on, in an active set. The pipeline's pair weights are all
    2/N, so each cell holds at most one entry and one pass resolves a block.
    """
    idx = guide[(u * guide.size).astype(np.intp)]
    idx += cdf[idx] <= u
    if steps > 1:
        active = np.flatnonzero(cdf[idx] <= u)
        while active.size:
            idx[active] += 1
            active = active[cdf[idx[active]] <= u[active]]
    return idx


def _pair_counts(rng, weight: np.ndarray, size: int,
                 settings: int) -> np.ndarray:
    """Draws per setting and pair: row s bincounts draws s, s + settings, ...
    of ``rng.choice(weight.size, size, p=weight / weight.sum())``.

    The CDF is netdecode's pick rule, choice's own, so the same uniforms
    give the same indices and leave ``rng`` in the same state; weights that
    are not a distribution raise DecodeError before any draw.
    :func:`_search` stands in for choice's searchsorted.
    The uniforms are drawn and counted in blocks of max(DRAW_BLOCK, n)
    draws, so memory is set by n, not by ``size``, and each block's
    bincounts cost O(block). A block's length is a multiple of
    ``settings``, so a draw's place within its block has the same residue
    as its place among all draws.
    """
    # below eight weights the CDF comes as a list
    cdf = np.asarray(_cdf(weight)[0])
    # the guide's temporaries are freed before the uniforms are drawn,
    # which keeps the peak resident set down
    guide = _guide(cdf)
    n = weight.size
    steps = _max_steps(guide, n)
    block = -(-max(DRAW_BLOCK, n) // settings) * settings
    counts = np.zeros((settings, n), dtype=np.intp)
    for m in _blocks(size, block):
        idx = _search(cdf, guide, rng.random(m), steps)
        for s in range(settings):
            counts[s] += np.bincount(idx[s::settings], minlength=n)
    return counts


def classical_pipeline(vis: VisibilityModel, shots: int, rng=None,
                       sampler: str = "w_state",
                       quadratures: str = "auto") -> ImagingEstimate:
    """Image the source from sampled pair correlations.

    ``shots`` is the attempt budget. The ``w_state`` sampler spends one
    readout attempt per shot, losing the 1/N all-zeros retries; the
    ``direct_pair`` sampler idealizes away the retries so every shot lands
    on a pair. With ``quadratures="both"`` each baseline's budget is split
    evenly between the XX and XY settings. The readout and pair uniforms
    are drawn and counted in blocks, so memory grows with the number of
    pairs, not with ``shots``; the draws are those of one
    ``rng.random(shots)`` and one ``rng.choice`` over the pairs.

    The reported per-point variance propagates each baseline's standard
    error isotropically through the natural weighting,

        Var(I_m) = sum_k w_k^2 sigma_k^2,

    with sigma_k^2 the mean squared standard error of the measured
    quadratures of g_k. It is independent of m and, for the real-g case,
    bounds the true propagated variance from above.
    """
    if sampler not in SAMPLERS:
        raise ConfigError(f"unknown sampler {sampler!r}")
    shots = count(shots, "shots", 1, SHOTS_MAX, "SHOTS_MAX")
    rng = make_rng(rng)
    N = vis.geometry.N
    if not vis.geometry.is_uniform:  # pairs pool by site index difference
        raise ConfigError(f"classical imaging needs a uniform array, got "
                          f"positions {vis.geometry.positions}")
    mode = resolve_quadratures(vis, quadratures)
    settings = ("XX",) if mode == "real" else ("XX", "XY")

    # the W-state readout law of netdecode, on rho = g / N: index g's
    # diagonal first, then scale, to skip the N x N quotient; the complex
    # quotient gives the bits of rho's diagonal
    a, b, weight = pair_weights((np.diagonal(vis.g) / N).real)
    cond = vis.g[a, b] / N / weight
    corr = {"XX": 2.0 * cond.real, "XY": -2.0 * cond.imag}
    p_plus = [plus_probability(corr[s]) for s in settings]
    del cond, corr  # the draws below hold no N^2 / 2 complex array
    if sampler == "w_state":
        # one readout attempt per shot; an all-zeros retry is lost
        successes = sum(int(np.count_nonzero(rng.random(m) >= 1.0 / N))
                        for m in _blocks(shots, DRAW_BLOCK))
    else:
        successes = shots
    # alternate settings shot by shot so every baseline splits its budget
    pair_counts = _pair_counts(rng, weight, successes, len(settings))

    # pool each setting's shots and +-1 sums by baseline k = b - a (the
    # sums are integer valued, so pooling in any order is exact)
    k_of_pair = b - a - 1
    n = np.zeros((len(settings), N - 1))
    total = np.zeros((len(settings), N - 1))
    for s_i, (n_sel, p) in enumerate(zip(pair_counts, p_plus)):
        plus = rng.binomial(n_sel, p)
        n[s_i] = np.bincount(k_of_pair, weights=n_sel, minlength=N - 1)
        total[s_i] = np.bincount(k_of_pair, weights=2.0 * plus - n_sel,
                                 minlength=N - 1)

    shot = n > 0
    # a baseline without shots reports mean 0 and squared error 1
    quad_means = np.divide(total, n, out=np.zeros_like(total), where=shot)
    # float_power squares through C pow, as the scalar formula
    # max(1 - m ** 2, 0) / n does; m * m can differ in the last bit
    quad_se2 = np.divide(
        np.maximum(1.0 - np.float_power(quad_means, 2.0), 0.0), n,
        out=np.ones_like(n), where=shot,
    )
    n_k = n.sum(axis=0).astype(int)
    if mode == "real":
        g_hat = quad_means[0].astype(complex)
    else:
        # the stored pair coherence rho[a, a+k] is conj(g_k), so the XY
        # mean estimates +Im g_k
        g_hat = quad_means[0] + 1j * quad_means[1]
    sigma2 = quad_se2.mean(axis=0)

    i_hat = image_from_visibilities(g_hat, N)
    var = float((natural_weights(N) ** 2 * sigma2).sum())
    return ImagingEstimate(
        i_hat=i_hat,
        var=np.full(N, var),
        shots=shots,
        extra={
            "sampler": sampler,
            "quadratures": mode,
            "successes": successes,
            "g_hat": g_hat,
            "sigma2": sigma2,
            "n_k": n_k,
        },
    )


def snr_report(vis: VisibilityModel, shots: int, rng=None,
               sampler: str = "w_state", quadratures: str = "auto") -> dict:
    """Side-by-side reported variances of the two routes at equal budget."""
    rng = make_rng(rng)
    qft = sample_qft(vis, shots, rng=rng)
    cls = classical_pipeline(vis, shots, rng=rng, sampler=sampler,
                             quadratures=quadratures)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(qft.var > 0, cls.var / qft.var, np.inf)
    return {
        "qft": qft,
        "classical": cls,
        "variance_ratio": ratio,
    }
