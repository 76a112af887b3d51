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
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import repeat

import numpy as np

from .qcore.optics import linear_optics_matrix
from .util import ConfigError, array, count, make_rng, qft_matrix, real, unit_amplitudes

BRANCH_PRUNE = 1e-12
RATIO_TOL = 1e-9
# Success uniforms the network Monte Carlo holds at once (4 MiB), split
# evenly among its threads; also the fewest uniforms worth one more thread.
# Its photon sites are drawn MC_BLOCK // 8 at a time (512 KiB of int64).
MC_BLOCK = 1 << 19
# Points of an alpha or eta grid: each is one closed-form call and, in the
# CLI, one report row.
GRID_POINTS_MAX = 2 ** 20
# From N = 1030 on, C(N, N // 2) exceeds the largest float.
MAX_PAIR_SITES = 1029
# The largest ancilla amplitude whose alpha ** 2 is a finite float.
ALPHA_MAX = math.sqrt(sys.float_info.max)


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

    outs: tuple
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
    amps = unit_amplitudes(amps)
    if amps.size < 2:
        raise ConfigError("need which-site amplitudes for at least 2 sites")
    return amps


# ---- per-site amplitude tables ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class AmplitudeTable:
    """Outcome amplitudes of one site for vacuum (c0) and photon (c1) input.

    The table is its columns: ``amp0[k]`` and ``amp1[k]`` are the vacuum
    and photon amplitudes of outcome ``outs[k]``, 0 where that input never
    gives it. ``AmplitudeTable(kind, outs, amp0, amp1)`` takes distinct
    outcomes and one finite amplitude per outcome in each column, and keeps
    read-only complex copies. ``c0`` and ``c1`` are views: each read builds
    a new dict of the nonzero entries.
    """

    kind: str
    outs: tuple
    amp0: np.ndarray
    amp1: np.ndarray

    def __post_init__(self):
        outs = tuple(self.outs)
        if len(set(outs)) != len(outs):
            raise ConfigError(
                f"table {self.kind!r}: outcomes {self.outs!r} are not distinct"
            )
        object.__setattr__(self, "outs", outs)
        for name in ("amp0", "amp1"):
            column = array(getattr(self, name), f"table {self.kind!r}: {name}",
                           complex, (len(outs),)).copy()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __reduce__(self):  # unpickled arrays are writeable until rebuilt
        return type(self), (self.kind, self.outs, self.amp0, self.amp1)

    @property
    def columns(self) -> tuple:
        """(outcomes, c0, c1), the columns aligned to the outcomes."""
        return self.outs, self.amp0, self.amp1

    def outcomes(self) -> tuple:
        return self.outs

    c0 = property(lambda self: self._nonzero(self.amp0))
    c1 = property(lambda self: self._nonzero(self.amp1))

    def _nonzero(self, column: np.ndarray) -> dict:
        return {o: a for o, a in zip(self.outs, column.tolist()) if a}


@lru_cache(maxsize=8)
def _coherent_layout(cutoff: int) -> tuple:
    """What the coherent tables at ``cutoff`` share, whatever alpha.

    ``outs`` are the sorted outcomes (i, j). The entries run through the
    c0 column's domain, the first ``n0`` of them, then the c1 column's;
    per entry, ``flat`` is its place in the two columns laid end to end,
    and the rest are its i + j, lgamma(i + 1) / 2, lgamma(j + 1) / 2, and
    (-1)^j times 1 in c0 or times i - j in c1.
    """
    # the photon table's domain i, j <= cutoff, i + j <= cutoff + 1, plus
    # the diagonal below it, where only c0 has entries
    top = np.arange(cutoff + 1)
    i, j = np.nonzero(np.add.outer(top, top) <= cutoff + 1)
    kept = (i != j) | (i + j <= cutoff)
    i, j = i[kept], j[kept]
    outs = tuple(zip(i.tolist(), j.tolist()))
    at0 = np.flatnonzero(i + j <= cutoff)
    n0 = len(at0)
    at = np.concatenate([at0, np.flatnonzero(i != j)])
    i, j = i[at], j[at]
    lg = np.array([math.lgamma(k + 1) for k in range(cutoff + 1)])
    factor = np.where(j % 2, -1.0, 1.0)
    factor[n0:] *= (i - j)[n0:]
    at[n0:] += len(outs)
    arrays = (at, (i + j) * 1.0, 0.5 * lg[i], 0.5 * lg[j], factor)
    for array in arrays:
        array.flags.writeable = False
    return (outs, n0, *arrays)


def coherent_amplitude_table(alpha: float, cutoff: int) -> AmplitudeTable:
    """Truncated splitter amplitudes for a real coherent ancilla.

    The vacuum table lives on total counts i + j <= cutoff (the photon
    budget of the truncated ancilla); the photon table gains one photon,
    i, j <= cutoff with i + j <= cutoff + 1. Each table is renormalized to
    unit mass, matching a cutoff Fock simulation that conditions away its
    truncation leakage.
    """
    # in float64 whatever the type given, which still names the table
    x = real(alpha, "ancilla amplitude alpha", 0, ALPHA_MAX, "ALPHA_MAX")
    cutoff = count(cutoff, "cutoff", 1)
    if x == 0.0:
        half = 2 ** -0.5
        return AmplitudeTable("coherent(0)", ((0, 0), (0, 1), (1, 0)),
                              (1.0, 0.0, 0.0), (0.0, half, half))
    outs, n0, flat, total, half_lg_i, half_lg_j, factor = (
        _coherent_layout(cutoff))
    # c0 = e^{-a^2/2} (a/sqrt2)^i (-a/sqrt2)^j / sqrt(i! j!) and c1 =
    # c0 (i - j) / alpha, with the terms of the log added in this order:
    # every entry keeps the bits it had when it was computed alone
    log_mag = (
        -x ** 2 / 2.0
        + total * (np.log(x) - 0.5 * np.log(2.0))
        - half_lg_i
        - half_lg_j
    )
    amp = np.exp(log_mag)
    amp *= factor
    amp[n0:] /= x
    for part in (amp[:n0], amp[n0:]):
        # the builtin sum of abs(a) ** 2 in outcome order
        mass2 = sum(map(pow, map(abs, part.tolist()), repeat(2)))
        # a subnormal mass has lost its digits, and a zero one divides by 0
        if mass2 < sys.float_info.min:
            raise ConfigError(
                f"ancilla amplitude {alpha} at cutoff {cutoff}: the table's "
                f"mass underflows; raise the cutoff toward alpha ** 2"
            )
        part /= math.sqrt(mass2)
    columns = np.zeros(2 * len(outs), dtype=complex)
    columns[flat] = amp
    return AmplitudeTable(f"coherent({alpha})", outs, *columns.reshape(2, -1))


def multiport_amplitude_table(ports: int) -> AmplitudeTable:
    """Exact amplitudes for P single-photon plus-state ancillas.

    The site mixes its input mode with P ancilla modes, each prepared in
    (|0> + |1>)/sqrt(2), on the (P+1)-port Fourier interferometer; outcomes
    are count tuples over the P + 1 detectors. P = 1 is the balanced
    splitter with a single plus ancilla.
    """
    ports = count(ports, "ports", 1)
    k = ports + 1
    S = qft_matrix(k)
    in_cutoffs = (1,) * k
    out_cutoffs = (k,) * k
    matrix, leak = linear_optics_matrix(S, in_cutoffs, out_cutoffs)
    if leak.max() > 1e-12:
        raise RuntimeError("multiport enumeration unexpectedly truncated")
    # the vacuum or the photon, then P plus states
    ancillas = reduce(np.kron, [np.array([2 ** -0.5, 2 ** -0.5])] * ports)
    outputs = [matrix @ np.kron(head, ancillas).astype(complex)
               for head in np.eye(2)]
    outputs = [np.where(np.abs(out) > 1e-14, out, 0) for out in outputs]
    # flat index order over the count tuples is their sorted order
    flat = np.flatnonzero((outputs[0] != 0) | (outputs[1] != 0))
    counts = np.unravel_index(flat, (k + 1,) * k)
    outs = tuple(zip(*(x.tolist() for x in counts)))
    return AmplitudeTable(f"multiport({ports})", outs,
                          *(out[flat] for out in outputs))


# ---- joint branch enumeration ----------------------------------------------------


def transfer_branches(table: AmplitudeTable, amps):
    """Enumerate joint detection records for one shared photon over sites.

    Every site uses the same ancilla table. Branch fidelities are taken
    after the local phase corrections; a branch is accepted (heralded)
    when all ratio moduli are finite, nonzero, and equal.

    Returns the records of probability above ``BRANCH_PRUNE`` as
    ``Branches``, in ``itertools.product`` order over ``table.outcomes()``,
    and the total mass of all K^n records. Every record is evaluated by
    broadcasting the sites' amplitude vectors over the K^n outcome grid, so
    temporaries scale as K^n * n complex at most, with no index matrix over
    all records; only the kept records are gathered, for their fidelities
    and herald flags, and no per-record object is built.
    """
    amps = _norm_amps(amps)
    n = len(amps)
    outs, c0, c1 = table.columns
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
    keep = np.flatnonzero(p > BRANCH_PRUNE)
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
    ``cutoff``: (table, branches, mass). A table given with either of the
    others is refused, never read past."""
    if table is None:
        if alpha is None or cutoff is None:
            raise ConfigError(
                "need an amplitude table, or alpha with a cutoff for the "
                "coherent table; the closed forms are "
                "deterministic_fidelity_closed and heralded_rate_closed"
            )
        table = coherent_amplitude_table(alpha, cutoff)
    elif alpha is not None or cutoff is not None:
        raise ConfigError("give a table, or alpha with a cutoff")
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
        raise ConfigError(
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

    alpha = real(alpha, "ancilla amplitude alpha", 0, ALPHA_MAX, "ALPHA_MAX")
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

    alpha = real(alpha, "ancilla amplitude alpha", 0, ALPHA_MAX, "ALPHA_MAX")
    return _check_value(ive(1, 2.0 * alpha ** 2), alpha)


def value_grid(lo: float, hi: float, step: float, name: str) -> np.ndarray:
    """The alpha or eta grid lo, lo + step, ... <= hi, rounded to 10
    decimals and clamped to [lo, hi]; ConfigError names a bad one."""
    if not (all(map(math.isfinite, (lo, hi, step))) and lo <= hi and step > 0):
        raise ConfigError(f"bad {name} grid [{lo}, {hi}] step {step}: need "
                            f"finite lo <= hi and a finite step > 0")
    count = (hi - lo) / step
    if not count < GRID_POINTS_MAX:  # also an overflowing span or count
        raise ConfigError(
            f"{name} grid [{lo}, {hi}] with {name}_step = {step} has "
            f"{count:.4g} points, more than GRID_POINTS_MAX = {GRID_POINTS_MAX}"
        )
    stop = min(hi + step / 2, sys.float_info.max)  # arange refuses inf
    with np.errstate(over="ignore", invalid="ignore"):
        pts = np.round(np.arange(lo, stop, step), 10)
    # arange's inclusive-endpoint trick can overshoot hi when the span is
    # not a multiple of step, and rounding can undershoot lo; never emit
    # points outside the requested bounds
    kept = np.maximum(pts[pts <= hi + 1e-10], lo)
    # a report prints each point to 12 digits: rows must stay distinct
    shown = np.array(["%.12g" % p for p in kept.tolist()], dtype=float)
    if not (np.isfinite(pts).all() and kept.size
            and np.all(np.diff(shown) > 0)):
        raise ConfigError(
            f"{name} grid [{lo}, {hi}] with {name}_step = {step} is empty, "
            f"not finite or not strictly increasing once rounded to 10 "
            f"decimals and printed to 12 digits"
        )
    return kept


def find_heralded_optimum(lo: float = 0.0, hi: float = 2.0,
                          step: float = 0.005):
    """Grid search of the heralded acceptance rate: (best alpha, best rate)."""
    alphas = value_grid(lo, hi, step, "alpha")
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
    real(theta, "input phase theta")
    T = eta ** 2
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
    eta = real(eta, "transmission eta", 0, 1)
    return _teleport(eta, theta, "lossy_teleport", {"eta": eta, "theta": theta})


# ---- network scaling ----------------------------------------------------------------


def network_fidelity(N: int, f2: float) -> float:
    """W-state fidelity over N sites from the pairwise fidelity f2."""
    N = count(N, "N", 2)
    f2 = real(f2, "pairwise fidelity f2", 0, 1)
    return (1.0 + (N - 1) * (2.0 * f2 - 1.0)) / N


def network_failure_probability(N: int, p1: float) -> float:
    """Probability that no usable pair survives one network attempt.

    Each site's transfer succeeds independently with probability p1; the
    attempt fails when the photon's site failed or fewer than two sites
    succeeded. Equals (1-p1) (1 + p1 (1-p1)^(N-2)).
    """
    return _failure(count(N, "N", 2), real(p1, "per-site success p1", 0, 1))


def _failure(N: int, p1: float) -> float:
    q = 1.0 - p1
    return q * (1.0 + p1 * q ** (N - 2))


def network_pair_distribution(N: int, p1: float) -> dict:
    """P(k sites survive | attempt succeeded) for k = 2..N.

    p(N, k) = C(N, k) p1^k q^(N-k) * k / (N (1 - p_fail)); the factor k/N
    is the chance the photon sits among the k survivors.
    """
    N = count(N, "N", 2, MAX_PAIR_SITES, "MAX_PAIR_SITES")
    p1 = real(p1, "per-site success p1", 0, 1)
    p_fail = _failure(N, p1)
    if p_fail >= 1.0:
        raise ConfigError("the network never succeeds at p1 = 0")
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


def _photon_sites(rng, N: int, trials: int) -> np.ndarray:
    """``rng.integers(0, N, size=trials)`` held in the smallest unsigned
    dtype that fits N - 1 (one byte per trial up to N = 256). The sites are
    drawn MC_BLOCK // 8 at a time; the blocks give the same values and leave
    ``rng`` in the same state as one call, since numpy keeps the spare
    32-bit half of a draw below 2^32 in the bit generator, not in the call,
    and draws wider ranges 64 bits at a time."""
    dtype = np.min_scalar_type(N - 1)
    try:
        photon = np.empty(trials, dtype=dtype)
    except MemoryError:
        raise ConfigError(
            f"trials = {trials} needs {trials * dtype.itemsize} bytes for "
            f"its photon sites"
        ) from None
    except ValueError:  # numpy's size error: more than an intp can count
        raise ConfigError(
            f"trials = {trials} exceeds numpy's largest array size, "
            f"{np.iinfo(np.intp).max}"
        ) from None
    step = MC_BLOCK // 8
    for lo in range(0, trials, step):
        photon[lo:lo + step] = rng.integers(0, N, size=min(step, trials - lo))
    return photon


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
        # intp sums: uint64 sites (N > 2^32) would promote to float
        ok = succ.ravel()[np.add(row_start[:len(ub)],
                                 photon[start:start + rows], dtype=np.intp)]
        ok &= k > 1
        n_fail += len(ub) - int(np.count_nonzero(ok))
        counts += np.bincount(k[ok], minlength=N + 1)
    return n_fail, counts


def network_monte_carlo(N: int, p1: float, trials: int, rng=None) -> dict:
    """Empirical failure rate and survivor-count distribution.

    The draws are those of ``rng.random((trials, N)) < p1`` for the
    per-site successes followed by ``rng.integers(0, N, size=trials)`` for
    the photon sites, and ``rng`` ends in the state those two calls leave.
    The photon sites are drawn first, from a copy of the generator moved
    past the success uniforms, in blocks, into the smallest unsigned dtype
    that holds N - 1: one byte per trial up to N = 256. The successes are
    then tallied in row blocks, so the photon sites are the only per-trial
    array. For PCG64 and PCG64DXSM, whose ``advance`` skips one uniform per
    step, contiguous runs of trials are tallied on threads, each on a copy
    advanced to its first uniform; the result does not depend on the
    number of threads.
    Other bit generators run on one thread and draw every success uniform
    twice, once to reach the photon sites and once to tally.
    """
    N = count(N, "N", 2)
    p1 = real(p1, "per-site success p1", 0, 1)
    trials = count(trials, "trials", 1)
    bit_generator = make_rng(rng).bit_generator
    after = _skipped(bit_generator, trials * N)
    photon = _photon_sites(np.random.Generator(after), N, trials)
    workers = 1
    if _advanceable(bit_generator):
        workers = min(_mc_workers(trials * N), trials)
    cuts = [trials * i // workers for i in range(workers + 1)]
    # _tally's arguments, one run of trials per worker
    runs = ([_skipped(bit_generator, lo * N) for lo in cuts[:-1]], repeat(N),
            repeat(p1), [photon[lo:hi] for lo, hi in zip(cuts, cuts[1:])],
            repeat(MC_BLOCK // workers))
    if workers == 1:
        parts = list(map(_tally, *runs))
    else:  # imported here, off the import path and the one-thread runs
        from concurrent.futures import ThreadPoolExecutor

        # leaving the block joins every worker, then raises the first error
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(_tally, *runs))
    n_fail = sum(f for f, _ in parts)
    counts = sum(c for _, c in parts)
    bit_generator.state = after.state
    return {
        "trials": trials,
        "p_fail": n_fail / trials,
        "k_counts": {kk: int(counts[kk]) for kk in range(2, N + 1)},
        "successes": trials - n_fail,
    }
