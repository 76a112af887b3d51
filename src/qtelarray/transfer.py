"""Photon-to-memory state transfer through ancilla interference.

At every site the incoming mode (vacuum or the shared photon) interferes
with a local ancilla field on a balanced splitter (or a (P+1)-port Fourier
interferometer) and all output ports are photon counted. An outcome o at a
site has amplitude c0(o) if the site held vacuum and c1(o) if it held the
photon, so a joint record leaves the memory register in

    sum_s c_s [c1(o_s) / c0(o_s)] |site s>

up to a global factor. Branches where every ratio is finite, nonzero, and
of equal modulus are repaired exactly by local phase corrections
phi_s = -arg(c1/c0) (for a real coherent ancilla this is a Z precisely when
the second port saw more photons than the first); that is the heralded
acceptance rule. Keeping every branch instead gives the deterministic
fidelity. ``deterministic_transfer`` and ``heralded_transfer`` always
enumerate the records of an amplitude table. For coherent ancillas of
amplitude alpha both figures also have closed forms, called by name, in
exponentially scaled modified Bessel functions of x = alpha^2: the
deterministic fidelity for any number of sites, the heralded rate for two.

The single-site teleport with a memory-paired plus ancilla, ideal or behind
lossy detectors, has five detection records whose probabilities and
fidelities are written in closed form; ``tests/teleport_route.py`` holds the
dense state-vector route they are checked against.
"""

from __future__ import annotations

import copy
import math
import os
import sys
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .qcore.optics import linear_optics_matrix
from .util import make_rng, qft_matrix

BRANCH_PRUNE = 1e-12
RATIO_TOL = 1e-9
# Success uniforms the network Monte Carlo holds at once (4 MiB), split
# evenly among its threads; also the fewest uniforms worth one more thread.
MC_BLOCK = 1 << 19
# From N = 1030 on, C(N, N // 2) exceeds the largest float.
MAX_PAIR_SITES = 1029
# The largest ancilla amplitude whose alpha ** 2 is a finite float.
ALPHA_MAX = math.sqrt(sys.float_info.max)


class TransferError(RuntimeError):
    """Inconsistent transfer configuration or protocol state."""


@dataclass(frozen=True)
class Branch:
    """One detection record: probability, corrected fidelity, herald flag."""

    record: tuple
    probability: float
    fidelity: float
    accepted: bool


@dataclass(frozen=True, eq=False)
class Branches(Sequence):
    """Kept records of one enumeration, held as columns.

    ``outcome[s, i]`` is site s's outcome in record i, as a position in
    ``outs``. Reading an item builds its ``Branch``; a slice gives a list.
    """

    outs: list
    outcome: np.ndarray
    probability: np.ndarray
    fidelity: np.ndarray
    accepted: np.ndarray

    def __len__(self):
        return len(self.probability)

    def __getitem__(self, i):
        at = range(len(self))[i]
        if isinstance(at, range):
            return [self[j] for j in at]
        return Branch(tuple(self.outs[k] for k in self.outcome[:, at].tolist()),
                      self.probability[at].item(), self.fidelity[at].item(),
                      self.accepted[at].item())

    def __iter__(self):
        records = zip(*([self.outs[k] for k in row]
                        for row in self.outcome.tolist()))
        return map(Branch, records, self.probability.tolist(),
                   self.fidelity.tolist(), self.accepted.tolist())


@dataclass
class TransferOutcome:
    """Aggregated result of a transfer protocol run; ``branches`` is a
    ``Branches`` for an enumerated table, a list of ``Branch`` otherwise."""

    kind: str
    fidelity: float
    probability: float
    branches: Sequence = field(default_factory=list)
    mass: float = 1.0
    extra: dict = field(default_factory=dict)


def _norm_amps(amps) -> np.ndarray:
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 1 or amps.size < 2:
        raise TransferError("need which-site amplitudes for at least 2 sites")
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise TransferError("which-site amplitudes cannot all vanish")
    return amps / norm


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= ALPHA_MAX:
        raise TransferError(
            f"ancilla amplitude {alpha} must be >= 0 and at most "
            f"ALPHA_MAX = {ALPHA_MAX:.6g}, where alpha ** 2 stays finite"
        )
    return alpha


# ---- per-site amplitude tables ---------------------------------------------------


@dataclass(frozen=True)
class AmplitudeTable:
    """Outcome amplitudes of one site for vacuum (c0) and photon (c1) input."""

    c0: dict
    c1: dict
    kind: str

    def outcomes(self):
        return sorted(set(self.c0) | set(self.c1))


def _coherent_raw(alpha: float, i: int, j: int) -> float:
    """e^{-a^2/2} (a/sqrt2)^i (-a/sqrt2)^j / sqrt(i! j!) for real alpha."""
    log_mag = (
        -alpha ** 2 / 2.0
        + (i + j) * (np.log(alpha) - 0.5 * np.log(2.0))
        - 0.5 * math.lgamma(i + 1)
        - 0.5 * math.lgamma(j + 1)
    )
    return (-1.0) ** j * float(np.exp(log_mag))


def coherent_amplitude_table(alpha: float, cutoff: int) -> AmplitudeTable:
    """Truncated splitter amplitudes for a real coherent ancilla.

    The vacuum table lives on total counts i + j <= cutoff (the photon
    budget of the truncated ancilla); the photon table gains one photon,
    i, j <= cutoff with i + j <= cutoff + 1. Each table is renormalized to
    unit mass, matching a cutoff Fock simulation that conditions away its
    truncation leakage.
    """
    _check_alpha(alpha)
    if cutoff < 1:
        raise TransferError("cutoff must be >= 1")
    if alpha == 0.0:
        return AmplitudeTable(
            c0={(0, 0): 1.0},
            c1={(1, 0): 2 ** -0.5, (0, 1): 2 ** -0.5},
            kind="coherent(0)",
        )
    c0 = {}
    for i in range(cutoff + 1):
        for j in range(cutoff + 1 - i):
            c0[(i, j)] = _coherent_raw(alpha, i, j)
    c1 = {}
    for i in range(cutoff + 1):
        for j in range(min(cutoff, cutoff + 1 - i) + 1):
            d = i - j
            if d == 0:
                continue
            c1[(i, j)] = _coherent_raw(alpha, i, j) * d / alpha
    for table in (c0, c1):
        mass = np.sqrt(sum(abs(a) ** 2 for a in table.values()))
        for key in table:
            table[key] /= mass
    return AmplitudeTable(c0=c0, c1=c1, kind=f"coherent({alpha})")


def multiport_amplitude_table(ports: int) -> AmplitudeTable:
    """Exact amplitudes for P single-photon plus-state ancillas.

    The site mixes its input mode with P ancilla modes, each prepared in
    (|0> + |1>)/sqrt(2), on the (P+1)-port Fourier interferometer; outcomes
    are count tuples over the P + 1 detectors. P = 1 is the balanced
    splitter with a single plus ancilla.
    """
    if ports < 1:
        raise TransferError("need at least one ancilla port")
    k = ports + 1
    S = qft_matrix(k)
    in_cutoffs = (1,) * k
    out_cutoffs = (k,) * k
    matrix, leak = linear_optics_matrix(S, in_cutoffs, out_cutoffs)
    if leak.max() > 1e-12:
        raise TransferError("multiport enumeration unexpectedly truncated")
    plus = np.array([2 ** -0.5, 2 ** -0.5])
    vac_in = np.array([1.0, 0.0])
    pho_in = np.array([0.0, 1.0])
    tables = []
    for head in (vac_in, pho_in):
        vec = head
        for _ in range(ports):
            vec = np.kron(vec, plus)
        out = matrix @ vec.astype(complex)
        table = {}
        dims = (k + 1,) * k
        for flat in np.nonzero(np.abs(out) > 1e-14)[0]:
            table[tuple(int(x) for x in np.unravel_index(flat, dims))] = complex(
                out[flat]
            )
        tables.append(table)
    return AmplitudeTable(c0=tables[0], c1=tables[1], kind=f"multiport({ports})")


# ---- joint branch enumeration ----------------------------------------------------


def transfer_branches(table: AmplitudeTable, amps, prune: float = BRANCH_PRUNE):
    """Enumerate joint detection records for one shared photon over sites.

    Every site uses the same ancilla table. Branch fidelities are taken
    after the local phase corrections; a branch is accepted (heralded)
    when all ratio moduli are finite, nonzero, and equal.

    Returns the records of probability above ``prune`` as ``Branches``, in
    ``itertools.product`` order over ``table.outcomes()``, and the total
    mass of all K^n records. Every record is evaluated by broadcasting the
    sites' amplitude vectors over the K^n outcome grid, so temporaries
    scale as K^n * n complex at most, with no index matrix over all
    records; only the kept records are gathered, for their fidelities and
    herald flags, and no per-record object is built.
    """
    amps = _norm_amps(amps)
    n = len(amps)
    outs = table.outcomes()
    c0 = np.array([table.c0.get(o, 0.0) for o in outs], dtype=complex)
    c1 = np.array([table.c1.get(o, 0.0) for o in outs], dtype=complex)
    both = (c0 != 0) & (c1 != 0)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = np.divide(c1, c0, out=np.zeros_like(c1), where=both)
    phase = np.exp(-1j * np.angle(ratio))
    # past the float range (a subnormal c0) the ratio loses its phase
    big = ~np.isfinite(ratio)
    phase[big] = np.exp(-1j * (np.angle(c1[big]) - np.angle(c0[big])))
    # NaN marks an outcome no phase correction can repair; any NaN in a
    # record fails the equal-modulus test below
    modulus = np.abs(ratio)
    modulus[~(np.isfinite(modulus) & (modulus > 0))] = np.nan

    def site_amps(s, c0s, c1s):
        # amps[s] c1(o_s) times the other sites' c0(o_t), multiplied in
        # ascending t: the same products however the outcomes are laid out
        rest = None
        for t, c0t in enumerate(c0s):
            if t != s:
                rest = c0t if rest is None else rest * c0t
        return amps[s] * c1s[s] * rest

    # axis t of the K^n grid is site t's outcome, so C order is product
    # order; p sums re^2 + im^2 of the site amplitudes in site order, the
    # squares overwriting the amplitudes
    K = len(outs)
    axes = [(1,) * t + (K,) + (1,) * (n - 1 - t) for t in range(n)]
    c0s = [c0.reshape(axis) for axis in axes]
    c1s = [c1.reshape(axis) for axis in axes]
    p = np.zeros((K,) * n)
    for s in range(n):
        sq = site_amps(s, c0s, c1s).view(float)
        np.square(sq, out=sq)
        re2 = sq[..., 0::2]
        p += np.add(re2, sq[..., 1::2], out=re2)
    del sq, re2
    p = p.ravel()
    mass = float(p.sum())

    # the kept records' amplitudes are evaluated again, from gathers; each
    # record's overlap terms lie side by side, which numpy sums pairwise
    # from four sites on: the order the pinned figures depend on
    keep = np.flatnonzero(p > prune)
    rec = np.array(np.unravel_index(keep, (K,) * n))
    r0, r1 = c0[rec], c1[rec]
    p = p[keep]
    terms = np.empty((len(keep), n), dtype=complex)
    for s in range(n):
        terms[:, s] = np.conj(amps[s]) * site_amps(s, r0, r1) * phase[rec[s]]
    fid = np.abs(terms.sum(axis=1)) ** 2 / p
    mod = modulus[rec]
    top = mod.max(axis=0)
    accepted = top - mod.min(axis=0) <= RATIO_TOL * top
    return Branches(outs, rec, p, fid, accepted), mass


def _enumerate(alpha, amps, table, cutoff):
    """The records of ``table``, or of the coherent table at ``alpha`` and
    ``cutoff``: (table, branches, mass)."""
    if table is None:
        if alpha is None or cutoff is None:
            raise TransferError(
                "need an amplitude table, or alpha with a cutoff for the "
                "coherent table; the closed forms are "
                "deterministic_fidelity_closed and heralded_rate_closed"
            )
        table = coherent_amplitude_table(alpha, cutoff)
    return (table, *transfer_branches(table, amps))


def deterministic_transfer(alpha=None, amps=(2 ** -0.5, 2 ** -0.5),
                           table: AmplitudeTable | None = None,
                           cutoff: int | None = None) -> TransferOutcome:
    """Keep every branch; the fidelity averages the corrected branches.

    Enumerates the records of an explicit table, or of the coherent table
    at amplitude ``alpha`` truncated at ``cutoff``.
    """
    table, branches, mass = _enumerate(alpha, amps, table, cutoff)
    # builtin sum over the same float products, in record order
    f = sum((branches.probability * branches.fidelity).tolist()) / mass
    return TransferOutcome(
        kind="deterministic", fidelity=f, probability=1.0,
        branches=branches, mass=mass, extra={"table": table.kind},
    )


def heralded_transfer(alpha=None, amps=(2 ** -0.5, 2 ** -0.5),
                      table: AmplitudeTable | None = None,
                      cutoff: int | None = None) -> TransferOutcome:
    """Accept only equal-ratio records; accepted branches have unit fidelity.

    Enumerates the records of an explicit table, or of the coherent table
    at amplitude ``alpha`` truncated at ``cutoff``.
    """
    table, branches, mass = _enumerate(alpha, amps, table, cutoff)
    acc = branches.accepted
    p = sum(branches.probability[acc].tolist())
    f = (
        sum((branches.probability * branches.fidelity)[acc].tolist()) / p
        if p > 0 else 0.0
    )
    return TransferOutcome(
        kind="heralded", fidelity=f, probability=p,
        branches=branches, mass=mass, extra={"table": table.kind},
    )


# ---- closed forms in modified Bessel functions ------------------------------------


def _check_value(value, alpha: float) -> float:
    # scipy's ive turns NaN once its argument passes about 1.07e9
    if not math.isfinite(value):
        raise TransferError(
            f"ancilla amplitude {alpha} is past the range of the closed "
            f"forms: scipy.special.ive returns {value} there"
        )
    return float(value)


def deterministic_fidelity_closed(alpha: float, amps=(2 ** -0.5, 2 ** -0.5)) -> float:
    """Deterministic N-site fidelity for a real coherent ancilla.

    Each site's count difference d_s is independently Skellam(x/2, x/2)
    with x = alpha^2, and the corrected branch fidelity averages to

        f = E[(sum_s w_s |d_s|)^2] / x = S2 + (1 - S2) (E|d|)^2 / x
          = S2 + (1 - S2) x (ive(0, x) + ive(1, x))^2

    with w_s = |c_s|^2, S2 = sum_s w_s^2, E d^2 = x and
    E|d| = x (ive(0, x) + ive(1, x)). The photon reaches the memory in
    every branch; only the superposition phase is at stake.
    """
    # imported here so that no other route pays for loading scipy
    from scipy.special import ive

    alpha = _check_alpha(alpha)
    w = np.abs(_norm_amps(amps)) ** 2
    s2 = float(w @ w)
    x = alpha ** 2
    return _check_value(s2 + (1.0 - s2) * x * (ive(0, x) + ive(1, x)) ** 2,
                        alpha)


def heralded_rate_closed(alpha: float) -> float:
    """Two-site acceptance rate: equal-magnitude nonzero count differences.

    With p(D) = e^{-x} I_D(x) the Skellam(x/2, x/2) pmf at x = alpha^2,
    the rate is 4/x sum_{D>0} D^2 p(D)^2. Neumann's addition theorem,
    sum_D I_D(x)^2 e^{iD theta} = I_0(2x cos(theta/2)), differentiated
    twice at theta = 0 gives sum_D D^2 I_D(x)^2 = (x/2) I_1(2x), so

        rate = e^{-2x} I_1(2x) = ive(1, 2x).
    """
    from scipy.special import ive

    alpha = _check_alpha(alpha)
    return _check_value(ive(1, 2.0 * alpha ** 2), alpha)


def find_heralded_optimum(lo: float = 0.0, hi: float = 2.0,
                          step: float = 0.005):
    """Grid search of the heralded acceptance rate: (best alpha, best rate)."""
    alphas = np.arange(lo, hi + step / 2, step)
    rates = np.array([heralded_rate_closed(a) for a in alphas])
    best = int(np.argmax(rates))
    return float(alphas[best]), float(rates[best])


# ---- single-site teleport with a memory-paired plus ancilla ------------------------


def _teleport(eta: float, theta: float, kind: str, extra: dict) -> TransferOutcome:
    """The teleport's detection records behind detectors of amplitude
    transmission eta, in closed form with T = eta^2:

        (0, 0)           p = (1 - T/2)^2     f = 1/2                     rejected
        (0, 1), (1, 0)   p = T (2 - T) / 4   f = (3 - T) / (2 (2 - T))   accepted
        (0, 2), (2, 0)   p = T^2 / 8         f = 1/2                     rejected

    The one-photon sector (weight 1/2) carries the input phase, and a single
    count from it is repaired exactly (Z on the (0, 1) record). The
    two-photon sector (weight 1/4) leaves the memory in |0>: its photons
    bunch, and a single count from it means the other photon was lost. No
    value depends on the input phase theta.
    """
    if not math.isfinite(theta):
        raise TransferError(f"input phase theta = {theta} must be finite")
    T = float(eta) ** 2
    single, double = T * (2.0 - T) / 4.0, T * T / 8.0
    f_single = (3.0 - T) / (2.0 * (2.0 - T))
    records = (((0, 0), (1.0 - T / 2.0) ** 2, 0.5), ((0, 1), single, f_single),
               ((0, 2), double, 0.5), ((1, 0), single, f_single),
               ((2, 0), double, 0.5))
    branches = [Branch(r, p, f, sum(r) == 1)
                for r, p, f in records if p > BRANCH_PRUNE]
    p_acc = sum((b.probability for b in branches if b.accepted), 0.0)
    return TransferOutcome(
        kind=kind, fidelity=f_single if p_acc > 0 else 0.0, probability=p_acc,
        branches=branches, mass=sum(b.probability for b in branches),
        extra=extra,
    )


def plus_ancilla_transfer(theta: float = 0.0) -> TransferOutcome:
    """Teleport one vacuum/photon qubit onto a memory via a plus ancilla.

    The memory starts entangled with the ancilla mode, the input interferes
    with the ancilla on a balanced splitter, and both ports are counted.
    Single counts are accepted, with a Z on the (0, 1) record; the accepted
    fidelity is exactly 1 at exactly half the total probability, for every
    input phase theta.
    """
    return _teleport(1.0, theta, "plus_teleport", {"theta": theta})


def lossy_transfer(eta: float, theta: float = 0.0) -> TransferOutcome:
    """Plus-ancilla teleport with lossy detectors of amplitude transmission eta.

    Both output ports pass through a beam-splitter loss channel before
    counting; records with exactly one observed photon are accepted (Z on
    the (0, 1) record). Loss admits two-photon events disguised as single
    counts, trading acceptance for fidelity.
    """
    if not 0.0 <= eta <= 1.0:
        raise TransferError(f"transmission eta = {eta} must lie in [0, 1]")
    return _teleport(eta, theta, "lossy_teleport", {"eta": eta, "theta": theta})


# ---- network scaling ----------------------------------------------------------------


def _check_sites(N: int):
    if N < 2:
        raise TransferError(f"a network needs at least 2 sites, not N = {N}")


def _check_network(N: int, p1: float):
    _check_sites(N)
    if not 0.0 <= p1 <= 1.0:
        raise TransferError(f"per-site success p1 = {p1} must lie in [0, 1]")


def network_fidelity(N: int, f2: float) -> float:
    """W-state fidelity over N sites from the pairwise fidelity f2."""
    _check_sites(N)
    if not 0.0 <= f2 <= 1.0:
        raise TransferError("pairwise fidelity f2 must lie in [0, 1]")
    return (1.0 + (N - 1) * (2.0 * f2 - 1.0)) / N


def network_failure_probability(N: int, p1: float) -> float:
    """Probability that no usable pair survives one network attempt.

    Each site's transfer succeeds independently with probability p1; the
    attempt fails when the photon's site failed or fewer than two sites
    succeeded. Equals (1-p1) (1 + p1 (1-p1)^(N-2)).
    """
    _check_network(N, p1)
    q = 1.0 - p1
    return q * (1.0 + p1 * q ** (N - 2))


def network_pair_distribution(N: int, p1: float) -> dict:
    """P(k sites survive | attempt succeeded) for k = 2..N.

    p(N, k) = C(N, k) p1^k q^(N-k) * k / (N (1 - p_fail)); the factor k/N
    is the chance the photon sits among the k survivors.
    """
    p_fail = network_failure_probability(N, p1)
    if p_fail >= 1.0:
        raise TransferError("the network never succeeds at p1 = 0")
    if N > MAX_PAIR_SITES:
        raise TransferError(
            f"C(N, k) overflows a float at N = {N}; the pair distribution "
            f"supports N <= {MAX_PAIR_SITES}"
        )
    q = 1.0 - p1
    return {
        k: math.comb(N, k) * p1 ** k * q ** (N - k) * k / (N * (1.0 - p_fail))
        for k in range(2, N + 1)
    }


def _mc_workers(draws: int) -> int:
    """Threads for ``draws`` success uniforms: one per CPU this process may
    run on, each with at least MC_BLOCK uniforms to draw."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, draws // MC_BLOCK))


def _advanceable(bit_generator) -> bool:
    """Whether ``bit_generator.advance(n)`` skips exactly n float64 uniforms
    (named here, not at import, so that importing loads no numpy.random)."""
    return isinstance(bit_generator, (np.random.PCG64, np.random.PCG64DXSM))


def _skipped(bit_generator, draws: int):
    """A copy of ``bit_generator`` that has skipped ``draws`` float64 uniforms."""
    skipped = copy.deepcopy(bit_generator)
    if _advanceable(skipped):
        # advance() also drops a buffered 32-bit half, which uniforms never
        # touch but a later bounded-integer draw reads first
        state = skipped.state
        skipped.advance(draws)
        skipped.state = {**skipped.state, "has_uint32": state["has_uint32"],
                         "uinteger": state["uinteger"]}
    else:
        rng = np.random.Generator(skipped)
        buf = np.empty(min(draws, MC_BLOCK))
        for start in range(0, draws, MC_BLOCK):
            rng.random(out=buf[:draws - start])
    return skipped


def _tally(bit_generator, N: int, p1: float, photon: np.ndarray, block: int):
    """(failures, survivor-count histogram) of the trials whose photon sites
    are ``photon``; their success uniforms, N per trial, come from
    ``bit_generator`` at most ``block`` (but at least one trial's) at a time."""
    rng = np.random.Generator(bit_generator)
    rows = min(len(photon), max(1, block // N))
    u = np.empty((rows, N))
    succ_buf = np.empty((rows, N), dtype=bool)
    row_start = np.arange(rows) * N
    n_fail = 0
    counts = np.zeros(N + 1, dtype=np.int64)
    for start in range(0, len(photon), rows):
        ub = u[:len(photon) - start]
        rng.random(out=ub)
        succ = np.less(ub, p1, out=succ_buf[:len(ub)])
        k = succ.sum(1, dtype=np.min_scalar_type(N))
        ok = succ.ravel()[row_start[:len(ub)] + photon[start:start + rows]]
        ok &= k > 1
        n_fail += len(ub) - int(np.count_nonzero(ok))
        counts += np.bincount(k[ok], minlength=N + 1)
    return n_fail, counts


def _in_threads(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)], each call on a thread of its own; an
    exception raised in any call is raised here once all have ended."""
    out = [None] * n

    def run(i):
        try:
            out[i] = (fn(i), None)
        except BaseException as exc:  # raised again in the calling thread
            out[i] = (None, exc)

    threads = []
    try:
        for i in range(n):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
    finally:
        for thread in threads:
            thread.join()
    for _value, exc in out:
        if exc is not None:
            raise exc
    return [value for value, _exc in out]


def network_monte_carlo(N: int, p1: float, trials: int, rng=None) -> dict:
    """Empirical failure rate and survivor-count distribution.

    The draws are those of ``rng.random((trials, N)) < p1`` for the
    per-site successes followed by ``rng.integers(0, N, size=trials)`` for
    the photon sites, and ``rng`` ends in the state those two calls leave.
    The photon sites are drawn first, from a copy of the generator moved
    past the success uniforms; the successes are then tallied in row
    blocks, so no per-trial array but the photon sites exists. For PCG64
    and PCG64DXSM, whose ``advance`` skips one uniform per step, contiguous
    runs of trials are tallied on threads, each on a copy advanced to its
    first uniform; the result does not depend on the number of threads.
    Other bit generators run on one thread and draw every success uniform
    twice, once to reach the photon sites and once to tally.
    """
    _check_network(N, p1)
    trials = int(trials)
    if trials < 1:
        raise TransferError(f"need at least one trial, not trials = {trials}")
    bit_generator = make_rng(rng).bit_generator
    after = _skipped(bit_generator, trials * N)
    try:
        photon = np.random.Generator(after).integers(0, N, size=trials)
    except MemoryError:
        raise TransferError(
            f"trials = {trials} needs {8 * trials} bytes for its photon sites"
        ) from None
    except ValueError:  # numpy's size error: more than an intp can count
        raise TransferError(
            f"trials = {trials} exceeds numpy's largest array size, "
            f"{np.iinfo(np.intp).max}"
        ) from None
    workers = 1
    if _advanceable(bit_generator):
        workers = min(_mc_workers(trials * N), trials)
    cuts = [trials * i // workers for i in range(workers + 1)]
    starts = [_skipped(bit_generator, lo * N) for lo in cuts[:-1]]

    def tally(i):
        return _tally(starts[i], N, p1, photon[cuts[i]:cuts[i + 1]],
                      MC_BLOCK // workers)

    parts = [tally(0)] if workers == 1 else _in_threads(tally, workers)
    n_fail = sum(f for f, _ in parts)
    counts = sum(c for _, c in parts)
    bit_generator.state = after.state
    return {
        "trials": trials,
        "p_fail": n_fail / trials,
        "k_counts": {kk: int(counts[kk]) for kk in range(2, N + 1)},
        "successes": trials - n_fail,
    }
