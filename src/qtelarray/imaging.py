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

from .source import VisibilityModel, native_grid
from .util import make_rng, qft_matrix

QUADRATURE_MODES = ("auto", "real", "both")
SAMPLERS = ("w_state", "direct_pair")
IMAG_TOL = 1e-12
# Pair draws resolved per block of _draw_pairs (128 KiB of indices).
DRAW_BLOCK = 1 << 14
# Bytes of DFT tables kept between calls; one N=256 frame's take 3 MiB.
TABLE_CACHE_BYTES = 64 << 20


@dataclass
class ImagingEstimate:
    """Per-grid-point image estimate with its reported variance."""

    y: np.ndarray
    i_hat: np.ndarray
    var: np.ndarray
    i_exact: np.ndarray
    method: str
    shots: int
    extra: dict = field(default_factory=dict)


def natural_weights(N: int) -> np.ndarray:
    """Triangular baseline weights w_k = 2 (N - k) / N^2 for k = 1..N-1."""
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
    gk = np.asarray(gk, dtype=complex)
    if gk.shape != (N - 1,):
        raise ValueError(f"need {N - 1} baseline visibilities, got {gk.shape}")
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
        rho = np.asarray(vis_or_rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("which-site density must be square")
    F, F_dag = _qft_pair(rho.shape[0])
    return F @ rho @ F_dag


def _grid(vis: VisibilityModel) -> np.ndarray:
    geo = vis.geometry
    return native_grid(geo.N, geo.d)


def sample_qft(vis: VisibilityModel, shots: int, rng=None) -> ImagingEstimate:
    """Sample the QFT site-index distribution with a budget of stored photons."""
    if shots < 1:
        raise ValueError("need a positive detection budget")
    rng = make_rng(rng)
    i_exact = qft_image_diagonal(vis)
    p = np.clip(i_exact, 0.0, None)
    counts = rng.multinomial(int(shots), p / p.sum())
    i_hat = counts / float(shots)
    return ImagingEstimate(
        y=_grid(vis),
        i_hat=i_hat,
        var=i_hat * (1.0 - i_hat) / float(shots),
        i_exact=i_exact,
        method="qft",
        shots=int(shots),
        extra={"counts": counts},
    )


def resolve_quadratures(vis: VisibilityModel, quadratures: str = "auto") -> str:
    """Pick the measurement settings: XX only for real g, else XX and XY."""
    if quadratures not in QUADRATURE_MODES:
        raise ValueError(f"quadratures must be one of {QUADRATURE_MODES}")
    if quadratures != "auto":
        return quadratures
    g = vis.baseline_visibilities()
    return "real" if float(np.abs(g.imag).max()) < IMAG_TOL else "both"


def _pair_correlations(vis: VisibilityModel):
    """Per-pair conditional collapse probabilities and X/Y correlators.

    Pairs (a, b), a < b, come in row-major order: a ascending, then b.
    """
    N = vis.geometry.N
    a, b = np.triu_indices(N, 1)
    # index g first, then scale: the same rho = g / N entries without the
    # N x N quotient
    rho_diag = np.diagonal(vis.g) / N
    weight = (rho_diag[a] + rho_diag[b]).real
    cond = vis.g[a, b] / N / weight
    corr_xx = 2.0 * cond.real
    corr_xy = -2.0 * cond.imag
    return a, b, weight, corr_xx, corr_xy


def _guide(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a normalized CDF for :func:`_draw_pairs`.

    Entry j counts the CDF entries at or below j / G, over G = 2^ceil(log2 n)
    equal cells, as ``cdf.searchsorted(arange(G) / G, side="right")`` does.
    """
    G = 1 << (cdf.size - 1).bit_length()
    return np.bincount(
        np.ceil(cdf * G).astype(np.intp), minlength=G + 1
    ).cumsum()[:G]


def _draw_pairs(rng, weight: np.ndarray, size: int) -> np.ndarray:
    """Pair indices as ``rng.choice(weight.size, size, p=weight / weight.sum())``.

    The same p, CDF and uniforms give the same indices and leave ``rng`` in
    the same state, but ``cdf.searchsorted(u, side="right")`` is answered
    from a guide table over G = 2^ceil(log2 n) equal cells: a draw starts at
    the first CDF entry above its cell's left edge and steps forward while
    ``cdf[idx] <= u``. The guide counts the CDF entries at or below each
    left edge j / G in one pass: an entry lies there exactly when
    ceil(cdf * G) <= j, and ``cdf * G`` is exact as G is a power of two, so
    a bincount of ceil(cdf * G) summed up to j is the same table as
    ``cdf.searchsorted(arange(G) / G, side="right")``. The CDF is
    nondecreasing in floating point and the start never passes the answer,
    so the result is exact. A draw takes as many steps as its cell holds
    CDF entries, n / G <= 1 on average; the pipeline's pair weights are all
    2/N, so no cell holds more than a few.
    """
    total = weight.sum()
    # a NaN or infinite weight makes the total NaN or infinite
    if not (0 < total < np.inf and weight.min() >= 0):
        raise ValueError("pair weights must be finite, nonnegative and not "
                         "all zero")
    cdf = (weight / total).cumsum()
    cdf /= cdf[-1]
    # the guide's temporaries are freed before u is drawn, which keeps the
    # peak resident set down
    guide = _guide(cdf)
    G = guide.size
    u = rng.random(size)
    idx = np.empty(size, dtype=np.intp)
    # blocks keep the temporaries small beside u and idx
    for lo in range(0, size, DRAW_BLOCK):
        ub = u[lo:lo + DRAW_BLOCK]
        ib = guide[(ub * G).astype(np.intp)]
        active = np.flatnonzero(cdf[ib] <= ub)
        while active.size:
            ib[active] += 1
            active = active[cdf[ib[active]] <= ub[active]]
        idx[lo:lo + DRAW_BLOCK] = ib
    return idx


def classical_pipeline(vis: VisibilityModel, shots: int, rng=None,
                       sampler: str = "w_state",
                       quadratures: str = "auto") -> ImagingEstimate:
    """Image the source from sampled pair correlations.

    ``shots`` is the attempt budget. The ``w_state`` sampler spends one
    readout attempt per shot, losing the 1/N all-zeros retries; the
    ``direct_pair`` sampler idealizes away the retries so every shot lands
    on a pair. With ``quadratures="both"`` each baseline's budget is split
    evenly between the XX and XY settings.

    The reported per-point variance propagates each baseline's standard
    error isotropically through the natural weighting,

        Var(I_m) = sum_k w_k^2 sigma_k^2,

    with sigma_k^2 the mean squared standard error of the measured
    quadratures of g_k. It is independent of m and, for the real-g case,
    bounds the true propagated variance from above.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    if shots < 1:
        raise ValueError("need a positive attempt budget")
    rng = make_rng(rng)
    N = vis.geometry.N
    mode = resolve_quadratures(vis, quadratures)
    settings = ("XX",) if mode == "real" else ("XX", "XY")

    a, b, weight, corr_xx, corr_xy = _pair_correlations(vis)
    n_pairs = a.size
    shots = int(shots)
    if sampler == "w_state":
        successes = int((rng.random(shots) >= 1.0 / N).sum())
    else:
        successes = shots
    pair_idx = _draw_pairs(rng, weight, successes)

    # alternate settings shot by shot so every baseline splits its budget;
    # pool each setting's shots and +-1 sums by baseline k = b - a (the
    # sums are integer valued, so pooling in any order is exact)
    k_of_pair = b - a - 1
    n = np.zeros((len(settings), N - 1))
    total = np.zeros((len(settings), N - 1))
    corr_by_setting = {"XX": corr_xx, "XY": corr_xy}
    for s_i, setting in enumerate(settings):
        sel = pair_idx[s_i::len(settings)]
        n_sel = np.bincount(sel, minlength=n_pairs)
        corr = np.clip(corr_by_setting[setting], -1.0, 1.0)
        p_plus = 0.5 * (1.0 + corr)
        plus = rng.binomial(n_sel, p_plus)
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
        y=_grid(vis),
        i_hat=i_hat,
        var=np.full(N, var),
        i_exact=qft_image_diagonal(vis),
        method="classical",
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
