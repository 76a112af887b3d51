"""Nondestructive arrival decoding and W-state readout.

Decoding reads a memory row (one register position across all sites) with a
fresh GHZ resource: CZ between each site's row qubit and its GHZ qubit, then
an X measurement of every GHZ qubit. The minus-outcome parity reveals the
total row occupation mod 2 and nothing else; in the at-most-one-photon
sector that is exactly the codeword bit, and the which-site amplitudes pass
through untouched. Scanning the rows recovers (time bin, band). The
excitation-carrying rows are then folded onto a single carrier row: the
surplus rows are measured out in the X basis, whose random signs are undone
by Z corrections on the carrier once the full record is known. On the
site-vector form of the codec a row check reads one bit of the register
pattern, and an X outcome of -1 on site i only flips the sign of a_i, so the
fold is one +-1 vector per row. A row index and a site index address every
memory qubit: the carrier is returned as its row and its N x N which-site
density, and the record keeps the draws as the row patterns, the GHZ
outcome vectors and one (row, sign vector) pair per folded row.

Parity checks have no back-action within a pattern class (the components
whose patterns agree on the rows read), so the joint record of a row group
is drawn up front. A run's first decode builds its class index: each
component's class over the lead rows (codeword rows, or the compressed band
rows of the parallel layout), with each class's members, summed weight and
the CDF the pick draws from; a parallel band's classes over its time rows
are built on that band's first use. The index lives on the run and
:meth:`~qtelarray.codec.EncodeRun.replay` hands it to every replay, so a
replayed decode only draws, gathers the picked class and builds its
density. Densities are never cached.

A decode makes a fixed number of rng draws, whatever the codeword: one
uniform picks the joint parity pattern of a row group, one
``integers(0, 2, size=(rows, N))`` block gives that group's GHZ outcomes,
and one ``random((rows, N))`` block gives every fold sign. Both blocks fill
row-major, one generator output per entry, so they consume the same stream
as one draw per row (or per qubit) would: a range-2 integer takes one
32-bit output and is never rejected, and the doubles come in the same order.
The pick uses ``rng.choice``'s CDF and uniform, so it lands on the same
class and leaves the same generator state.

With no rng given the generator is ``default_rng(seed + 2)``, so the draws
depend on the config alone: the lead pick and block, in the parallel layout
the time pick and block, then the fold block. A smaller fold, or a vacuum
arrival, reads a prefix of that order. So a decode with no rng reads its
config's stream, drawn once up to the largest fold and kept, read-only, in
a cache of at most ``STREAM_CACHE`` configs: the GHZ bits and the fold
signs at one byte per draw, the row parities and the two pick uniforms. An
explicit generator is drawn live, and ends in the same state as if the
blocks were drawn one by one. Either way the draws go through the same
class picks, parity fixes and sign conversion.

Readout entangles the carrier with a fresh W state by a CNOT per site and
Z-measures the W qubits: the all-zeros outcome (probability exactly 1/N)
leaves the carrier intact for a retry, and a two-ones outcome collapses the
carrier onto the corresponding site pair with its relative phase preserved,
giving interferometric access to one baseline per shot.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .codec import EncodeError, EncodeRun
from .util import ConfigError, array, count, make_rng

RETRY_CAP = 64
STREAM_CACHE = 32  # configs whose default decode draws are kept


class DecodeError(RuntimeError):
    """Memory content the protocol cannot produce (weights that are not a
    distribution, a pattern off the codebook or the carrier) or the retry
    cap reached. The classical imaging route's pair draw raises it too, on
    pair weights that are not a distribution. Malformed input raises
    ConfigError instead."""


# ---- arrival decoding on encode runs --------------------------------------------


@dataclass
class DecodeResult:
    """Outcome of decoding one run: the arrival and the collapsed carrier.

    ``carrier_row`` is the register row the photon was folded onto, and
    ``state`` the carrier's N x N which-site density over sites 0..N-1;
    both are None for a vacuum arrival. ``record`` keeps the draws: the
    ``lead_pattern`` and ``ghz_outcomes`` of the row checks, and for a
    photon ``fold_signs``, one (row, +-1 signs over the sites) pair per
    folded row, in fold order.
    """

    m: int
    r: int | None
    probability: float
    checks: int
    carrier_row: int | None = None
    state: np.ndarray | None = None
    record: dict = field(default_factory=dict)

    @property
    def is_vacuum(self) -> bool:
        return self.m == 0


def _sign_rows(bits: bytes, n: int) -> list:
    """Rows of n +-1 signs, one per byte of ``bits``: 0 is +1, 1 is -1."""
    signs = [1 - 2 * b for b in bits]
    return [tuple(signs[i:i + n]) for i in range(0, len(signs), n)]


def _ghz_outcomes(pattern, block, n: int) -> list:
    """Uniform X-outcome patterns, one per row, with the row's bit as parity.

    ``block`` is a drawn (bits, parities) pair, as :meth:`_Live.ghz` gives.
    Row k of the bits (n bytes a row) gets its last bit flipped when its
    parity is not ``pattern[k]``; a 1 bit is a minus sign.
    """
    bits, parities = bytearray(block[0]), block[1]
    for k, (bit, parity) in enumerate(zip(pattern, parities)):
        if parity != bit:
            bits[k * n + n - 1] ^= 1
    return _sign_rows(bits, n)


class _Live:
    """A decode's draws made live on a generator, in the order it reads
    them: per row group (0 lead, 1 time) a pick uniform, then a GHZ block
    of ``rows`` rows; then the fold block. A :class:`_Stream` reads the
    same draws by group."""

    __slots__ = ("rng", "n")

    def __init__(self, rng, n: int):
        self.rng, self.n = rng, n

    def pick(self, group: int) -> float:
        return self.rng.random()

    def ghz(self, group: int, rows: int):
        """The block's 0/1 draws, one byte each, and each row's parity."""
        bits = self.rng.integers(0, 2, size=(rows, self.n))
        parities = tuple((bits.sum(axis=1) & 1).tolist())
        return bits.astype(np.uint8).tobytes(), parities

    def fold(self, rows: int) -> bytes:
        """One byte per X sign, 1 for -1: a uniform of 0.5 or more."""
        return (self.rng.random((rows, self.n)) >= 0.5).tobytes()


@dataclass(frozen=True)
class _Stream:
    """A default decode generator's draws, read in :class:`_Live`'s order:
    the pick uniforms and GHZ blocks of each row group and the fold signs
    of the largest fold. Immutable, so decodes share it."""

    uniforms: tuple
    blocks: tuple
    signs: bytes
    n: int

    def pick(self, group: int) -> float:
        return self.uniforms[group]

    def ghz(self, group: int, rows: int):
        return self.blocks[group]

    def fold(self, rows: int) -> bytes:
        return self.signs[:rows * self.n]


@lru_cache(maxsize=STREAM_CACHE)
def _stream(entropy: int, n: int, lead: int, time: int) -> _Stream:
    """The draws of ``default_rng(entropy)`` for a decode of n sites with
    ``lead`` lead rows and ``time`` time rows (0: no time group)."""
    live = _Live(np.random.default_rng(entropy), n)
    groups = (lead, time) if time else (lead,)
    uniforms, blocks = [], []
    for group, rows in enumerate(groups):
        uniforms.append(live.pick(group))
        blocks.append(live.ghz(group, rows))
    return _Stream(tuple(uniforms), tuple(blocks),
                   live.fold(lead + time - 1), n)


def _cdf(weights):
    """The normalized CDF and the total that ``rng.choice`` builds from weights.

    Below eight weights numpy's sum is a left fold, so a Python fold gives
    the same bits; from eight on numpy's pairwise sum is kept.
    """
    small = len(weights) < 8
    if small:
        total = 0.0
        for w in weights:
            total += w
        low = min(weights)
    else:
        weights = np.asarray(weights)
        total, low = weights.sum(), weights.min()
    # a NaN or infinite weight makes the total NaN or infinite
    if not (0 < total < np.inf and low >= 0):
        raise DecodeError("outcome weights must be finite, nonnegative and "
                          "not all zero")
    if not small:
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        return cdf, total
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return [c / acc for c in cdf], total


def _pick(weights, rng) -> int:
    """Index drawn as ``rng.choice(len(weights), p=weights / sum(weights))``.

    The same p, CDF and uniform as choice, so the same index and the same
    rng state, without choice's per-call argument handling.
    """
    return bisect_right(_cdf(weights)[0], rng.random())


class _Classes:
    """Pattern classes over some rows of a weighted list of components.

    Input j is component ``source[j]``, with register pattern ``pats[j]``
    and weight ``ws[j]``. Class k holds the inputs ``members[k]``, in input
    order, whose bits on the rows read ``patterns[k]`` (rows[0] first), the
    binary number ``values[k]``. Classes are sorted by value, which is the
    order of the bit tuples, and ``weights[k]`` is the Python sum of the
    class's weights. ``cdf`` and ``total`` are what :func:`_pick` draws
    from; ``sub`` keeps, per class, the classes of its members over the
    next rows.
    """

    __slots__ = ("source", "pats", "ws", "values", "patterns", "members",
                 "weights", "cdf", "total", "sub")

    def __init__(self, source, pats, ws, rows):
        value_of: dict[int, int] = {}
        bits_of: dict[int, tuple] = {}
        groups: dict[int, list[int]] = {}
        for j, pat in enumerate(pats):
            value = value_of.get(pat)
            if value is None:
                bits = tuple(pat >> q & 1 for q in rows)
                value = 0
                for b in bits:
                    value = value << 1 | b
                value_of[pat], bits_of[value] = value, bits
            groups.setdefault(value, []).append(j)
        self.source, self.pats, self.ws = source, pats, ws
        self.values = sorted(groups)
        self.patterns = [bits_of[v] for v in self.values]
        self.members = [groups[v] for v in self.values]
        self.weights = [sum(map(ws.__getitem__, g)) for g in self.members]
        self.cdf, self.total = _cdf(self.weights)
        self.sub: dict[int, _Classes] = {}

    def draw(self, u: float):
        """Index and probability of the class :func:`_pick` draws with
        uniform ``u``."""
        k = bisect_right(self.cdf, u)
        return k, float(self.weights[k] / self.total)

    def subclasses(self, k: int, rows) -> "_Classes":
        """Classes of class k's members over further rows, built on first use.

        The member weights are renormalized by the class weight first.
        """
        sub = self.sub.get(k)
        if sub is None:
            total = self.weights[k]
            group = self.members[k]
            sub = _Classes([self.source[j] for j in group],
                           [self.pats[j] for j in group],
                           [self.ws[j] / total for j in group], rows)
            self.sub[k] = sub
        return sub

    def survivors(self, k: int, comps) -> list:
        """Class k's components, their weights renormalized to sum to one."""
        total = self.weights[k]
        return [(self.ws[j] / total, comps[self.source[j]][1])
                for j in self.members[k]]


def _class_index(run: EncodeRun, rows) -> _Classes:
    """The run's pattern classes over ``rows``, shared by its replays."""
    index = run._index.get(rows)
    if index is None:
        comps = run.components
        index = _Classes(range(len(comps)), [st.pattern for _, st, _ in comps],
                         [w for w, _, _ in comps], rows)
        run._index[rows] = index
    return index


def _carrier_density(survivors, carrier: int, folded: int) -> np.ndarray:
    """N x N which-site density of the survivors folded onto the carrier row.

    Every survivor's pattern, less the folded rows, must be the carrier bit
    alone. The fold's X signs and the carrier's Z corrections cancel, so the
    stored amplitudes are the carrier's.
    """
    for _, st in survivors:
        if st.pattern & ~folded != 1 << carrier:
            raise DecodeError(
                f"register pattern {st.pattern & ~folded:#b} is not one "
                f"photon on carrier row {carrier}"
            )
    amps = np.array([st.amps for _, st in survivors])
    weights = np.array([w for w, _ in survivors])
    return (amps.T * weights) @ amps.conj()


def decode_arrival(run: EncodeRun, rng=None) -> DecodeResult:
    """Read the arrival (time bin, band) out of a run and collapse the carrier.

    Parity checks consume one GHZ resource per scanned row (Bell pairs when
    N = 2) and leave the which-site amplitudes untouched, so the surviving
    mixture over the carrier row is exactly the stored single-photon state
    conditioned on the decoded arrival.
    """
    if run.decoded:
        raise EncodeError("run already decoded")
    if run.config.layout == "parallel" and not run.compressed:
        raise EncodeError("compress the parallel flags before decoding")
    cfg, layout, book = run.config, run.layout, run.book
    N = cfg.N

    if cfg.layout == "sequential":
        lead_rows, time = layout.code_rows(), 0
    else:
        lead_rows, time = layout.comp_rows(), book.t_bits
    if rng is None:
        draws = _stream(cfg.seed + 2, N, len(lead_rows), time)
    else:
        draws = _Live(make_rng(rng), N)

    classes = _class_index(run, lead_rows)
    k, record_p = classes.draw(draws.pick(0))
    lead_pattern = classes.patterns[k]
    ghz_outcomes = _ghz_outcomes(lead_pattern, draws.ghz(0, len(lead_rows)), N)
    checks = len(lead_rows)
    one_rows = [q for q, b in zip(lead_rows, lead_pattern) if b]

    if cfg.layout == "sequential":
        try:
            m, r = book.decode_value(classes.values[k])
        except ConfigError as exc:
            word = "".join(map(str, lead_pattern))
            raise DecodeError(f"memory row pattern {word!r}: {exc}") from None
    else:
        r = classes.values[k]
        if r > cfg.R:
            raise DecodeError(f"compressed register holds band {r}")
        if r == 0:
            m, r = 0, None
        else:
            time_rows = layout.time_rows(r)
            classes = classes.subclasses(k, time_rows)
            k, p_time = classes.draw(draws.pick(1))
            time_pattern = classes.patterns[k]
            record_p *= p_time
            ghz_outcomes += _ghz_outcomes(
                time_pattern, draws.ghz(1, len(time_rows)), N)
            checks += len(time_rows)
            m = classes.values[k]
            if not 1 <= m <= cfg.M:
                raise DecodeError(f"time rows decode to bin {m}")
            # carrier preference: time rows first, then compressed rows
            one_rows = [
                q for q, b in zip(time_rows, time_pattern) if b
            ] + one_rows

    if N == 2:
        run.ledger.bell_pairs += checks
    else:
        run.ledger.ghz_states += checks
    run.decoded = True

    if m == 0:
        return DecodeResult(
            m=0, r=None, probability=record_p, checks=checks,
            record={"lead_pattern": lead_pattern, "ghz_outcomes": ghz_outcomes},
        )

    # fold surplus excitation rows onto the carrier: X-measure each row
    # qubit (one block of draws, row by row and site by site within a row);
    # outcome -1 on site i flips a_i, which the carrier's Z correction on
    # site i undoes, so the signs go to the record only
    carrier, extra = one_rows[0], one_rows[1:]
    fold = _sign_rows(draws.fold(len(extra)), N)
    folded = sum(1 << q for q in extra)
    survivors = classes.survivors(k, run.components)
    state = _carrier_density(survivors, carrier, folded)
    return DecodeResult(
        m=m, r=r, probability=record_p, checks=checks,
        carrier_row=carrier, state=state,
        record={
            "lead_pattern": lead_pattern,
            "ghz_outcomes": ghz_outcomes,
            "fold_signs": tuple(zip(extra, fold)),
        },
    )


# ---- W-state readout -------------------------------------------------------------


@dataclass
class WReadout:
    """One successful pair collapse: sites, 2x2 density, attempts used."""

    pair: tuple
    density: np.ndarray
    attempts: int
    p_pair: float


def pair_weights(diag):
    """Site pairs a < b in row-major order and their weights diag[a] + diag[b].

    A W-state readout of a carrier with which-site diagonal ``diag``
    collapses it onto pair (a, b) with probability weight / N.
    """
    a, b = np.triu_indices(len(diag), 1)
    return a, b, diag[a] + diag[b]


def w_state_readout(rho, rng, max_attempts: int = RETRY_CAP,
                    ledger=None) -> WReadout:
    """Collapse a carrier onto a random site pair via fresh W resources.

    ``rho`` is the carrier's N x N which-site density. Each attempt consumes
    one W state; the all-zeros outcome (probability 1/N) retries with the
    carrier intact.
    """
    max_attempts = count(max_attempts, "max_attempts", 1)
    rho = array(rho, "which-site density", complex, (None, None))
    if rho.shape[0] != rho.shape[1]:
        raise ConfigError("which-site density must be square")
    diag = rho.diagonal().real
    if (diag < 0).any():
        raise ConfigError("which-site density has a negative diagonal")
    if abs(diag.sum() - 1.0) > 1e-10:
        raise ConfigError("which-site density must have unit trace")
    n = rho.shape[0]
    first, second, weight = pair_weights(diag)
    p_pairs = weight / n
    rng = make_rng(rng)
    for attempt in range(1, max_attempts + 1):
        if ledger is not None:
            ledger.w_states += 1
        if rng.random() < 1.0 / n:
            continue
        k = _pick(p_pairs, rng)
        a, b = int(first[k]), int(second[k])
        block = rho[np.ix_([a, b], [a, b])]
        norm = block.trace().real
        return WReadout(
            pair=(a, b),
            density=block / norm,
            attempts=attempt,
            p_pair=float(norm / n),
        )
    raise DecodeError(
        f"no pair collapse within max_attempts={max_attempts} attempts "
        f"(default RETRY_CAP={RETRY_CAP}) on N={n} sites"
    )


def pair_correlators(density: np.ndarray) -> dict:
    """Exact X/Y correlators of a collapsed pair and the visibility estimate.

    The pair density is 2 x 2 in the (photon at first site, photon at
    second site) basis; the estimator g_hat = <XX> - i <XY> recovers the
    off-diagonal coherence 2 rho_01.
    """
    rho01 = complex(array(density, "pair density", complex, (2, 2))[0, 1])
    return {
        "XX": 2 * rho01.real,
        "XY": -2 * rho01.imag,
        "YX": 2 * rho01.imag,
        "YY": 2 * rho01.real,
        "g_hat": 2 * rho01,
    }


def plus_probability(corr):
    """(1 + corr) / 2, the chance of a +1 product on a pair with correlator
    ``corr`` (a float or an array), clipped to [0, 1]; ConfigError when a
    correlator leaves [-1, 1] by more than 2e-12."""
    if not (np.abs(corr) <= 1 + 2e-12).all():
        raise ConfigError("pair correlator outside [-1, 1]")
    return np.clip(0.5 * (1.0 + corr), 0.0, 1.0)


def sample_pair_products(density: np.ndarray, setting: str, shots: int, rng):
    """Sampled +-1 products of local X/Y measurements on a collapsed pair."""
    corr = pair_correlators(density)
    shots = count(shots, "shots")
    if setting not in ("XX", "XY", "YX", "YY"):
        raise ConfigError(f"unknown setting {setting!r}")
    p_plus = plus_probability(corr[setting])
    try:
        plus = make_rng(rng).binomial(1, p_plus, size=shots)
    except (ValueError, MemoryError):
        raise ConfigError(f"shots = {shots} must be at most the draws numpy "
                          f"can allocate") from None
    return 2 * plus - 1
