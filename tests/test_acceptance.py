"""Acceptance checklist: one test and one printed verdict per criterion.

Each criterion prints ``criterion NN: PASS/FAIL - detail`` before asserting,
so a full run (``pytest -v tests/test_acceptance.py``) yields one line per
criterion. Criterion 11 gates criteria 1 and 2: both request the gate
fixture and fail immediately if the amplitude-table oracle check fails.

Criterion 1 checks the deterministic two-site transfer fidelity against
its 0.82 +/- 0.01 band where the protocol reaches it. The fidelity
f = 1/2 + (E|d|)^2 / (2 alpha^2) rises monotonically towards its large-alpha
limit 1/2 + 1/pi = 0.8183 and enters the band only near alpha = 3.12, so the
band is checked on a closed-form grid alpha in [4, 8] and at the limit. The
value at alpha = 3 (0.809333, below the band) stays pinned, and so does the
grid: the closed form must match 1/2 + (E|d|)^2 / (2 alpha^2) with E|d|
summed over ``scipy.stats.skellam.pmf`` to 1e-12, a route that shares no
Bessel algebra with it.
Closed form and branch enumeration are compared in
``tests/test_transfer.py::TestClosedForms::test_enumeration_matches_closed_form``;
the amplitude tables both routes share are checked by criterion 11.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import skellam

import teleport_route
from dense_route import w_readout_branches

from qtelarray.codec import RunConfig, encode_single_photon, parallel_frequency_compress
from qtelarray.imaging import (
    classical_pipeline,
    natural_weights,
    qft_image_diagonal,
    qft_process,
    sample_qft,
)
from qtelarray.netdecode import decode_arrival, w_state_readout
from qtelarray.qcore import (
    ModeRegistry,
    QuantumState,
    beam_splitter,
    coherent_amplitudes,
    fock,
    qubit_registry,
)
from qtelarray.source import (
    ArrayGeometry,
    IntensityDistribution,
    visibility_from_intensity,
)
from qtelarray.transfer import (
    coherent_amplitude_table,
    deterministic_fidelity_closed,
    find_heralded_optimum,
    heralded_transfer,
    lossy_transfer,
    network_failure_probability,
    network_monte_carlo,
    network_pair_distribution,
    plus_ancilla_transfer,
)
from qtelarray.util import make_rng

SEED = 2026


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def splitter_amplitudes(alpha, cutoff, photon):
    """Independent two-mode Fock simulation of one site's splitter."""
    reg = ModeRegistry([fock("a", cutoff), fock("b", cutoff)])
    camps, _ = coherent_amplitudes(alpha, cutoff)
    vec = np.zeros(reg.dim, dtype=complex)
    for n in range(cutoff + 1):
        vec[reg.basis_index((photon, n))] = camps[n]
    state = beam_splitter(
        QuantumState.from_vector(reg, vec), "a", "b", max_leakage=1e-2
    )
    v = state.vector
    return {
        (i, j): complex(v[reg.basis_index((i, j))])
        for i in range(cutoff + 1)
        for j in range(cutoff + 1)
        if abs(v[reg.basis_index((i, j))]) > 1e-14
    }


def amplitude_table_gap(cutoff=6, alphas=(0.3, 0.7, 1.0)) -> float:
    """Worst table-vs-simulation amplitude difference over shared outcomes."""
    worst = 0.0
    for alpha in alphas:
        table = coherent_amplitude_table(alpha, cutoff)
        for photon, entries in ((0, table.c0), (1, table.c1)):
            sim = splitter_amplitudes(alpha, cutoff, photon)
            if set(sim) != set(entries):
                return float("inf")
            worst = max(
                worst, max(abs(sim[k] - entries[k]) for k in sim)
            )
    return worst


@pytest.fixture(scope="module")
def oracle_gate():
    gap = amplitude_table_gap()
    if gap > 1e-9:
        pytest.fail(
            f"amplitude-table oracle gate failed (gap {gap:.3e} > 1e-9); "
            "criteria 1 and 2 are not valid"
        )
    return gap


def skellam_fidelity(alpha):
    """1/2 + (E|d|)^2 / (2 alpha^2), with E|d| summed over the
    Skellam(alpha^2/2, alpha^2/2) pmf on all but < 1e-13 of its mass."""
    x = alpha ** 2
    width = int(np.ceil(x + 12.0 * alpha + 30.0))
    d = np.arange(-width, width + 1)
    p = skellam.pmf(d, x / 2.0, x / 2.0)
    assert abs(p.sum() - 1.0) <= 1e-13
    mean_abs = (np.abs(d) * p).sum()
    return 0.5 + mean_abs ** 2 / (2.0 * x)


def band_onset():
    """Bisect alpha in [3, 4] for where the closed form enters 0.82 +/- 0.01."""
    lo, hi = 3.0, 4.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if abs(deterministic_fidelity_closed(mid) - 0.82) <= 0.01:
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_01_deterministic_transfer_band(oracle_gate):
    start = time.perf_counter()
    alphas = np.linspace(4.0, 8.0, 17)
    grid = np.array([deterministic_fidelity_closed(a) for a in alphas])
    limit = 0.5 + 1.0 / np.pi
    f3 = deterministic_fidelity_closed(3.0)
    gap = max(
        abs(deterministic_fidelity_closed(a) - skellam_fidelity(a))
        for a in (3.0, *alphas)
    )
    onset = band_onset()
    elapsed = time.perf_counter() - start
    in_time = elapsed < 60.0
    in_band = all(abs(f - 0.82) <= 0.01 for f in (*grid, limit))
    rising = bool(np.all(np.diff(grid) > 0) and grid[-1] < limit)
    pinned = gap <= 1e-12
    report(
        1, in_time and in_band and rising and pinned,
        f"deterministic fidelity {grid[0]:.6f}..{grid[-1]:.6f} on alpha "
        f"4..8 (in 0.82 +/- 0.01: {in_band}, rising below the limit "
        f"{limit:.6f}: {rising}); band begins at alpha={onset:.3f}; "
        f"f(3)={f3:.6f}; closed form vs Skellam sum at alpha=3 and on the "
        f"grid: max gap {gap:.1e}; "
        f"runtime {elapsed:.3f}s < 60s: {in_time}",
    )


def test_criterion_02_heralded_optimum(oracle_gate):
    alpha, rate = find_heralded_optimum(0.0, 2.0, 0.005)
    out = heralded_transfer(alpha, cutoff=12)
    accepted = [b for b in out.branches if b.accepted]
    min_f = min(b.fidelity for b in accepted)
    ok = abs(rate - 0.22) <= 0.01 and min_f >= 1.0 - 1e-9
    report(
        2, ok,
        f"heralded acceptance peaks at {rate:.6f} (alpha={alpha:.3f}), "
        f"min accepted-branch fidelity {min_f:.12f}",
    )


def test_criterion_03_plus_ancilla_exact():
    worst_p = 0.0
    worst_f = 0.0
    for theta in (0.0, np.pi / 4, np.pi / 2, np.pi):
        for out in (plus_ancilla_transfer(theta),
                    teleport_route.plus_ancilla_transfer(theta)):
            worst_p = max(worst_p, abs(out.probability - 0.5))
            worst_f = max(worst_f, abs(out.fidelity - 1.0))
    ok = worst_p <= 1e-12 and worst_f <= 1e-12
    report(
        3, ok,
        f"plus-ancilla teleport in closed form and on the dense route: "
        f"|p - 1/2| <= {worst_p:.2e}, "
        f"|f - 1| <= {worst_f:.2e}",
    )


def test_criterion_04_qft_route_agreement():
    start = time.perf_counter()
    rng = make_rng(SEED)
    worst = 0.0
    for N in range(2, 9):
        for _ in range(100):
            weights = rng.dirichlet(np.ones(N))
            vis = visibility_from_intensity(
                IntensityDistribution.on_grid(N, 1.0, weights),
                ArrayGeometry(N, 1.0),
            )
            closed = qft_image_diagonal(vis)
            conjugated = np.diag(qft_process(vis)).real
            worst = max(worst, float(np.max(np.abs(closed - conjugated))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(
        4, ok,
        f"closed form vs process conjugation over 700 sources: "
        f"max gap {worst:.3e}, runtime {elapsed:.2f}s",
    )


def test_criterion_05_point_source_noiseless():
    j_star, N = 2, 4
    weights = np.zeros(N)
    weights[j_star] = 1.0
    vis = visibility_from_intensity(
        IntensityDistribution.on_grid(N, 1.0, weights), ArrayGeometry(N, 1.0)
    )
    diag = qft_image_diagonal(vis)
    est = sample_qft(vis, 20000, rng=make_rng(SEED))
    peak_ok = abs(diag[j_star] - 1.0) <= 1e-10
    rest_ok = np.max(np.abs(np.delete(diag, j_star))) <= 1e-10
    var_ok = float(est.var.max()) == 0.0 and est.i_hat[j_star] == 1.0
    report(
        5, peak_ok and rest_ok and var_ok,
        f"grid point source: diagonal peak {diag[j_star]:.12f}, "
        f"off-peak max {np.max(np.abs(np.delete(diag, j_star))):.2e}, "
        f"sampling variance {float(est.var.max()):.1e}",
    )


def test_criterion_06_variance_ratio():
    N, shots = 4, 100000
    vis = visibility_from_intensity(
        IntensityDistribution.flat_on_grid(N, 1.0), ArrayGeometry(N, 1.0)
    )
    qft = sample_qft(vis, shots, rng=make_rng(SEED))
    cls = classical_pipeline(vis, shots, rng=make_rng(SEED + 1))
    ratio = cls.var / qft.var
    ihat = np.clip(qft.i_hat, 1e-9, 1 - 1e-9)
    se_q = (
        np.abs(1 - 2 * ihat)
        * np.sqrt(ihat * (1 - ihat) / shots)
        / (ihat * (1 - ihat))
    )
    w = natural_weights(N)
    terms = (w ** 2 * cls.extra["sigma2"]) ** 2 * 3.0 / cls.extra["n_k"]
    se_c = np.sqrt(terms.sum()) / cls.var[0]
    band = 3.0 * ratio * np.sqrt(se_q ** 2 + se_c ** 2)
    ok = bool(np.all(np.abs(ratio - N) <= band))
    report(
        6, ok,
        f"classical/Fourier variance ratio {np.round(ratio, 3).tolist()} "
        f"vs {N}, 3-sigma bands {np.round(band, 3).tolist()}",
    )


def test_criterion_07_w_readout():
    rng = make_rng(SEED)
    worst_zero = 0.0
    for N in range(2, 7):
        amps = rng.normal(size=N) + 1j * rng.normal(size=N)
        amps /= np.linalg.norm(amps)
        reg = qubit_registry([f"s{i}" for i in range(N)])
        vec = np.zeros(reg.dim, dtype=complex)
        for i, a in enumerate(amps):
            vec[1 << (N - 1 - i)] = a
        branches = w_readout_branches(QuantumState.from_vector(reg, vec))
        p_zero = sum(
            p for out, p, _ in branches if all(o == 0 for o in out)
        )
        worst_zero = max(worst_zero, abs(p_zero - 1.0 / N))
    g = 0.5 - 0.3j
    rho = np.array([[0.5, np.conj(g) / 2.0], [g / 2.0, 0.5]])
    out = w_state_readout(rho, rng=make_rng(SEED))
    coherence_gap = float(np.max(np.abs(out.density - rho)))
    ok = worst_zero <= 1e-12 and coherence_gap <= 1e-10
    report(
        7, ok,
        f"retry probability off 1/N by <= {worst_zero:.2e} for N=2..6, "
        f"post-collapse coherence gap {coherence_gap:.2e}",
    )


def test_criterion_08_network_statistics():
    p1 = float(np.sqrt(0.22))
    worst_z = 0.0
    worst_norm = 0.0
    for N in range(2, 9):
        p_fail = network_failure_probability(N, p1)
        dist = network_pair_distribution(N, p1)
        worst_norm = max(worst_norm, abs(sum(dist.values()) - 1.0))
        mc = network_monte_carlo(N, p1, 100000, rng=make_rng(SEED + N))
        se = np.sqrt(p_fail * (1.0 - p_fail) / mc["trials"])
        worst_z = max(worst_z, abs(mc["p_fail"] - p_fail) / se)
        for k, pk in dist.items():
            se_k = np.sqrt(max(pk * (1.0 - pk), 0.0) / mc["successes"])
            got = mc["k_counts"][k] / mc["successes"]
            if se_k == 0.0:
                assert got == pytest.approx(pk, abs=1e-12)
            else:
                worst_z = max(worst_z, abs(got - pk) / se_k)
    ok = worst_z <= 3.0 and worst_norm <= 1e-12
    report(
        8, ok,
        f"formulas vs 1e5-trial Monte Carlo for N=2..8: worst z {worst_z:.2f}, "
        f"distribution normalization off by {worst_norm:.1e}",
    )


def test_criterion_09_roundtrip_and_footprint():
    failures = []
    footprints = {}
    for layout in ("sequential", "parallel"):
        config = RunConfig(M=16, R=4, N=2, eps=0.01, layout=layout, seed=SEED)
        for m, r in itertools.product(range(1, 17), range(1, 5)):
            run = encode_single_photon(config, m, r)
            if layout == "parallel":
                run = parallel_frequency_compress(run)
            result = decode_arrival(run)
            if (result.m, result.r) != (m, r):
                failures.append((layout, m, r, result.m, result.r))
        footprints[layout] = run.ledger.as_dict()["memory_qubits_per_site"]
    small = RunConfig(M=5, R=2, layout="sequential")
    small_qubits = encode_single_photon(small, 1, 1).ledger.as_dict()[
        "memory_qubits_per_site"
    ]
    ok = (
        not failures
        and footprints == {"sequential": 7, "parallel": 27}
        and small_qubits == 4
    )
    report(
        9, ok,
        f"128/128 write-read roundtrips at M=16 R=4 "
        f"(failures: {failures or 'none'}); qubits per site "
        f"{footprints} and 4 for M=5 R=2",
    )


def test_criterion_10_lossy_monotone():
    etas = np.round(np.arange(0.1, 1.01, 0.1), 10)
    outs = [lossy_transfer(float(e)) for e in etas]
    f = np.array([o.fidelity for o in outs])
    p = np.array([o.probability for o in outs])
    monotone = bool(np.all(np.diff(f) >= 0) and np.all(np.diff(p) >= 0))
    end_ok = abs(f[-1] - 1.0) <= 1e-12 and abs(p[-1] - 0.5) <= 1e-12
    report(
        10, monotone and end_ok,
        f"lossy sweep monotone: {monotone}; eta=1 endpoint "
        f"f={f[-1]:.12f}, p={p[-1]:.12f}",
    )


def test_criterion_11_amplitude_table_gate():
    gap = amplitude_table_gap()
    report(
        11, gap <= 1e-9,
        f"amplitude tables vs cutoff-6 Fock simulation: max gap {gap:.3e}",
    )
