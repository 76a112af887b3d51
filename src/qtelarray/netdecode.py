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
fold is one +-1 vector per row. The carrier is returned as its N x N
which-site density.

Readout entangles the carrier with a fresh W state by a CNOT per site and
Z-measures the W qubits: the all-zeros outcome (probability exactly 1/N)
leaves the carrier intact for a retry, and a two-ones outcome collapses the
carrier onto the corresponding site pair with its relative phase preserved,
giving interferometric access to one baseline per shot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import EncodeError, EncodeRun, SiteState
from .qcore import (
    QuantumState,
    cnot,
    cz,
    enumerate_measure,
    qubit_registry,
)
from .util import make_rng

RETRY_CAP = 64


class DecodeError(RuntimeError):
    """Memory content inconsistent with the arrival protocol."""


# ---- entangled resources -------------------------------------------------------


def ghz_state(n: int, labels=None) -> QuantumState:
    """(|0..0> + |1..1>)/sqrt(2) over n qubits."""
    if n < 2:
        raise ValueError("GHZ resource needs at least 2 qubits")
    labels = tuple(labels) if labels else tuple(f"ghz{i}" for i in range(n))
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = vec[-1] = 2 ** -0.5
    return QuantumState.from_vector(qubit_registry(labels), vec)


def w_state(n: int, labels=None) -> QuantumState:
    """Uniform single-excitation state over n qubits."""
    if n < 2:
        raise ValueError("W resource needs at least 2 qubits")
    labels = tuple(labels) if labels else tuple(f"w{i}" for i in range(n))
    vec = np.zeros(2 ** n, dtype=complex)
    for i in range(n):
        vec[1 << (n - 1 - i)] = n ** -0.5
    return QuantumState.from_vector(qubit_registry(labels), vec)


def tensor_states(a: QuantumState, b: QuantumState) -> QuantumState:
    """Product of two qubit-register states (a's modes become the slow axes)."""
    reg = qubit_registry(a.registry.labels + b.registry.labels)
    comps = [
        (wa * wb, np.kron(va, vb))
        for wa, va in a.components
        for wb, vb in b.components
    ]
    return QuantumState(reg, comps)


# ---- GHZ parity check (dense reference route) ----------------------------------


def ghz_parity_branches(state: QuantumState, row_labels):
    """All outcome branches of one GHZ row-parity check.

    Returns [(outcomes, parity, probability, post_memory)] with outcomes the
    X results (+1/-1) on the GHZ qubits and parity 0 for an even number of
    minus signs (even row occupation), 1 for odd. The GHZ qubits are
    consumed; the memory register keeps every label.
    """
    row_labels = tuple(row_labels)
    n = len(row_labels)
    ghz_labels = tuple(f"ghz{i}" for i in range(n))
    joint = tensor_states(state, ghz_state(n, ghz_labels))
    for mem, anc in zip(row_labels, ghz_labels):
        joint = cz(joint, mem, anc)
    out = []
    for outcomes, p, post in enumerate_measure(
        joint, ghz_labels, basis="X", remove=True
    ):
        parity = sum(1 for s in outcomes if s < 0) % 2
        out.append((outcomes, parity, p, post))
    return out


# ---- arrival decoding on encode runs --------------------------------------------


@dataclass
class DecodeResult:
    """Outcome of decoding one run: the arrival and the collapsed carrier.

    ``state`` is the carrier's N x N which-site density (site order of
    ``carrier_labels``), or None for a vacuum arrival.
    """

    m: int
    r: int | None
    probability: float
    checks: int
    carrier_labels: tuple = ()
    state: np.ndarray | None = None
    record: dict = field(default_factory=dict)

    @property
    def is_vacuum(self) -> bool:
        return self.m == 0


def _ghz_outcome_pattern(parity: int, n: int, rng) -> tuple:
    """Uniform X-outcome pattern with the given minus-sign parity."""
    bits = rng.integers(0, 2, size=n)
    if int(bits.sum()) % 2 != parity:
        bits[-1] ^= 1
    return tuple((1 - 2 * bits).tolist())


def _sample_pattern(comps, rows, rng):
    """Sample a joint parity pattern over rows from a weighted mixture.

    comps is a list of (weight, SiteState); a row check reads the row's bit
    of each component's register pattern. Returns the drawn pattern, its
    probability, and the matching components renormalized to unit weight.
    Parity checks have no back-action within a pattern class, so sampling
    the joint record up front is exact.
    """
    pats = [tuple((st.pattern >> q) & 1 for q in rows) for _, st in comps]
    groups: dict[tuple, list[int]] = {}
    for idx, pat in enumerate(pats):
        groups.setdefault(pat, []).append(idx)
    keys = sorted(groups)
    weights = np.array([sum(comps[i][0] for i in groups[k]) for k in keys])
    total = weights.sum()
    pick = rng.choice(len(keys), p=weights / total)
    pattern = keys[pick]
    survivors = [
        (comps[i][0] / weights[pick], comps[i][1]) for i in groups[pattern]
    ]
    return pattern, float(weights[pick] / total), survivors


def _carrier_density(survivors, carrier: int, signs) -> np.ndarray:
    """N x N which-site density of the folded survivors on the carrier row.

    Every survivor's pattern must be the carrier bit alone; the signs are
    the Z corrections on the carrier, one per site.
    """
    for _, st in survivors:
        if st.pattern != 1 << carrier:
            raise DecodeError(
                f"register pattern {st.pattern:#b} is not one photon on "
                f"carrier row {carrier}"
            )
    amps = np.array([st.amps for _, st in survivors]) * signs
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
    rng = make_rng(run.config.seed + 2) if rng is None else make_rng(rng)
    cfg, layout, book = run.config, run.layout, run.book
    N = cfg.N

    if cfg.layout == "sequential":
        lead_rows = layout.code_rows()
    else:
        lead_rows = layout.comp_rows()

    comps = [(w, st) for w, st, _ in run.components]
    lead_pattern, record_p, survivors = _sample_pattern(comps, lead_rows, rng)
    ghz_outcomes = [_ghz_outcome_pattern(b, N, rng) for b in lead_pattern]
    checks = len(lead_rows)
    one_rows = [q for q, b in zip(lead_rows, lead_pattern) if b]

    if cfg.layout == "sequential":
        word = "".join(str(b) for b in lead_pattern)
        try:
            m, r = book.decode(word)
        except Exception as exc:
            raise DecodeError(f"memory row pattern {word!r}: {exc}") from None
    else:
        r_val = int("".join(str(b) for b in lead_pattern), 2)
        if r_val > cfg.R:
            raise DecodeError(f"compressed register holds band {r_val}")
        if r_val == 0:
            m, r = 0, None
        else:
            r = r_val
            time_rows = layout.time_rows(r)
            time_pattern, p_time, survivors = _sample_pattern(
                survivors, time_rows, rng
            )
            record_p *= p_time
            ghz_outcomes += [
                _ghz_outcome_pattern(b, N, rng) for b in time_pattern
            ]
            checks += len(time_rows)
            m = int("".join(str(b) for b in time_pattern), 2)
            if not 1 <= m <= cfg.M:
                raise DecodeError(f"time rows decode to bin {m}")
            # carrier preference: time rows first, then compressed rows
            one_rows = [
                q for q, b in zip(time_rows, time_pattern) if b
            ] + one_rows

    run.ledger.add("bell_pairs" if N == 2 else "ghz_states", checks)
    run.decoded = True

    if m == 0:
        return DecodeResult(
            m=0, r=None, probability=record_p, checks=checks,
            record={"lead_pattern": lead_pattern, "ghz_outcomes": ghz_outcomes},
        )

    # fold surplus excitation rows onto the carrier: X-measure each row
    # qubit (one draw per qubit in row, then site order); outcome -1 on
    # site i flips a_i, which the carrier's Z correction on site i undoes
    carrier = one_rows[0]
    signs = np.ones(N, dtype=int)
    folded = 0
    sign_record = []
    for q in one_rows[1:]:
        s = np.where(rng.random(N) < 0.5, 1, -1)
        sign_record.extend(zip(layout.row_labels(q), s.tolist()))
        signs *= s
        folded |= 1 << q
    survivors = [
        (w, SiteState(st.amps * signs, st.pattern & ~folded))
        for w, st in survivors
    ]
    state = _carrier_density(survivors, carrier, signs)
    return DecodeResult(
        m=m, r=r, probability=record_p, checks=checks,
        carrier_labels=layout.row_labels(carrier), state=state,
        record={
            "lead_pattern": lead_pattern,
            "ghz_outcomes": ghz_outcomes,
            "fold_signs": sign_record,
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


def excitation_density(state: QuantumState) -> np.ndarray:
    """N x N density in the which-site basis of a single-excitation state."""
    n = len(state.registry.labels)
    idx = [1 << (n - 1 - i) for i in range(n)]
    rho = np.zeros((n, n), dtype=complex)
    mass = 0.0
    for w, vec in state.components:
        sub = vec[idx]
        rho += w * np.outer(sub, np.conj(sub))
        mass += w * float(np.vdot(sub, sub).real)
    if abs(mass - 1.0) > 1e-10:
        raise DecodeError(
            f"state is not confined to single excitations (mass {mass})"
        )
    return rho


def w_readout_branches(state: QuantumState):
    """Dense reference route: all W-readout branches on a carrier state.

    Returns [(w_bits, p, post_carrier)]; the all-zeros branch keeps the
    carrier for a retry, a two-ones branch collapses it onto that site pair.
    """
    labels = state.registry.labels
    n = len(labels)
    w_labels = tuple(f"w{i}" for i in range(n))
    joint = tensor_states(state, w_state(n, w_labels))
    for mem, anc in zip(labels, w_labels):
        joint = cnot(joint, mem, anc)
    return enumerate_measure(joint, w_labels, basis="Z", remove=True)


def w_state_readout(rho, rng, max_attempts: int = RETRY_CAP,
                    ledger=None) -> WReadout:
    """Collapse a carrier onto a random site pair via fresh W resources.

    ``rho`` is the carrier's N x N which-site density. Each attempt consumes
    one W state; the all-zeros outcome (probability 1/N) retries with the
    carrier intact.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DecodeError("which-site density must be square")
    if abs(rho.trace().real - 1.0) > 1e-10:
        raise DecodeError("which-site density must have unit trace")
    n = rho.shape[0]
    # site pairs a < b in row-major order
    first, second = np.triu_indices(n, 1)
    diag = rho.diagonal().real
    p_pairs = (diag[first] + diag[second]) / n
    rng = make_rng(rng)
    for attempt in range(1, max_attempts + 1):
        if ledger is not None:
            ledger.add("w_states", 1)
        if rng.random() < 1.0 / n:
            continue
        k = rng.choice(len(p_pairs), p=p_pairs / p_pairs.sum())
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
    rho01 = complex(density[0, 1])
    return {
        "XX": 2 * rho01.real,
        "XY": -2 * rho01.imag,
        "YX": 2 * rho01.imag,
        "YY": 2 * rho01.real,
        "g_hat": 2 * rho01,
    }


def sample_pair_products(density: np.ndarray, setting: str, shots: int, rng):
    """Sampled +-1 products of local X/Y measurements on a collapsed pair."""
    corr = pair_correlators(density)
    if setting not in ("XX", "XY", "YX", "YY"):
        raise ValueError(f"unknown setting {setting!r}")
    p_plus = 0.5 * (1.0 + corr[setting])
    if not -1e-12 <= p_plus <= 1 + 1e-12:
        raise DecodeError("pair correlator outside [-1, 1]")
    p_plus = min(max(p_plus, 0.0), 1.0)
    plus = make_rng(rng).binomial(1, p_plus, size=int(shots))
    return 2 * plus - 1
