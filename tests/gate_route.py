"""Gate-by-gate reference route for the site-vector codec and decoder.

The codec and decoder store each photon as site amplitudes plus one register
pattern. This module replays the same protocol on ``SupportState``, one CNOT
and one X measurement at a time: the one-bit-teleportation write with its
projector phase corrections, the parallel flag compression, the GHZ row
reads on support strings, and the surplus-row X folds. Tests compare the two
routes component by component and decode by decode.
"""

import numpy as np

from qtelarray.codec import EncodeError, _band_matrices
from dense_route import excitation_density
from qtelarray.netdecode import RETRY_CAP, DecodeError
from qtelarray.qcore import QuantumState, StateError, SupportState, qubit_registry


def gate_labels(layout):
    """Memory labels of every site, site by site in row order."""
    return sum((layout.site_labels(i) for i in range(layout.config.N)), ())


def expand(layout, state, labels) -> SupportState:
    """A site-vector component as a SupportState over the live ``labels``.

    Every set bit of the pattern must be a live qubit at each site.
    """
    pos = {lab: k for k, lab in enumerate(labels)}
    rows = [q for q in range(layout.qubits_per_site) if state.pattern >> q & 1]
    amps = {}
    for i, a in enumerate(state.amps):
        site = layout.site_labels(i)
        mask = sum(1 << pos[site[q]] for q in rows)
        amps[mask] = amps.get(mask, 0.0) + a
    return SupportState(labels, amps)


def assert_support_close(sup, want, tol=1e-12):
    assert sup.labels == want.labels
    for mask in set(sup.amps) | set(want.amps):
        gap = abs(sup.amps.get(mask, 0.0) - want.amps.get(mask, 0.0))
        assert gap <= tol, f"string {mask:#b} differs by {gap:.3e}"


def assert_components_match(layout, comps, gate_comps, tol=1e-12):
    """Production (w, SiteState, meta) against gate (w, SupportState, meta)."""
    assert len(comps) == len(gate_comps)
    for (w, st, meta), (gw, sup, gmeta) in zip(comps, gate_comps):
        assert len(st.amps) == layout.config.N
        assert meta == gmeta
        assert abs(w - gw) <= 1e-15
        assert_support_close(expand(layout, st, sup.labels), sup, tol)


def dense_state(comps) -> QuantumState:
    """Memory mixture of gate-route components as a dense state (small runs)."""
    labels = comps[0][1].labels
    return QuantumState(
        qubit_registry(labels), [(w, sup.to_vector()) for w, sup, _ in comps]
    )


# ---- encode ---------------------------------------------------------------------


def measure_and_correct(work, label, labels, bits, rng, verify):
    """X-measure one qubit and undo the minus outcome's back-action.

    The -1 branch gets the projector phase on ``labels`` holding ``bits``.
    ``verify=True`` asserts that both corrected branches agree; ``rng``
    picks a branch by its probability, None takes the first.
    """
    branches = work.measure_branches(label, basis="X")
    corrected = [
        post.phase_if_match(labels, bits) if outcome == -1 else post
        for outcome, _p, post in branches
    ]
    if verify and len(corrected) == 2:
        if abs(corrected[0].inner(corrected[1]) - 1.0) >= 1e-12:
            raise EncodeError(
                f"X branches of {label} disagree after phase correction"
            )
    if rng is None:
        return corrected[0]
    pick = rng.choice(len(branches), p=[p for _, p, _ in branches])
    return corrected[int(pick)]


def write_photon(layout, m, r, amps, rng=None, verify=False) -> SupportState:
    """One-bit-teleportation write of a spatial single photon into blank memories."""
    N = layout.config.N
    amps = np.asarray(amps, dtype=complex)
    recv = tuple(f"recv{i}" for i in range(N))
    photon = SupportState(
        recv, {1 << i: amps[i] for i in range(N) if amps[i] != 0},
        normalize=True,
    )
    work = SupportState.zeros(gate_labels(layout)).tensor(photon)
    rows, bits = layout.write_pattern(m, r)
    for i in range(N):
        site = layout.site_labels(i)
        for q, b in zip(rows, bits):
            if b:
                work = work.apply_cnot(recv[i], site[q])
    for i in range(N):
        site = layout.site_labels(i)
        labels = tuple(site[q] for q in rows)
        work = measure_and_correct(work, recv[i], labels, bits, rng, verify)
    return work


def encode_single_photon(layout, m, r, amps, rng=None, verify=False):
    return [(1.0, write_photon(layout, m, r, amps, rng, verify), {"m": m, "r": r})]


def encode_run_full(layout, band_g=None, rng=None, verify=False):
    """Gate-route components of :func:`qtelarray.codec.encode_run_full`."""
    config = layout.config
    eps, M, R = config.eps, config.M, config.R
    comps = [((1 - eps) ** M, SupportState.zeros(gate_labels(layout)), {"m": 0})]
    if eps > 0:
        eigs = []
        for mat in _band_matrices(config, band_g):
            vals, vecs = np.linalg.eigh(mat / config.N)
            eigs.append(
                [(float(v), vecs[:, e]) for e, v in enumerate(vals) if v > 1e-12]
            )
        for m in range(1, M + 1):
            p_bin = eps * (1 - eps) ** (m - 1)
            for r in range(1, R + 1):
                for lam, u in eigs[r - 1]:
                    sup = write_photon(layout, m, r, u, rng, verify)
                    comps.append((p_bin / R * lam, sup, {"m": m, "r": r}))
    total = sum(w for w, _, _ in comps)
    return [(w / total, s, meta) for w, s, meta in comps]


def compress(layout, comps, rng=None, verify=False):
    """Gate-route :func:`qtelarray.codec.parallel_frequency_compress`."""
    R = layout.config.R
    out = []
    for w, sup, meta in comps:
        work = sup
        for i in range(layout.config.N):
            site = layout.site_labels(i)
            comp = tuple(site[q] for q in layout.comp_rows())
            for r in range(1, R + 1):
                flag = site[layout.flag_row(r)]
                for lab, b in zip(comp, layout.band_code(r)):
                    if b == "1":
                        work = work.apply_cnot(flag, lab)
            for r in range(1, R + 1):
                pattern = tuple(int(b) for b in layout.band_code(r))
                work = measure_and_correct(
                    work, site[layout.flag_row(r)], comp, pattern, rng, verify
                )
        out.append((w, work, meta))
    return out


# ---- decode ---------------------------------------------------------------------


def support_row_bit(sup, row_labels) -> int:
    """Row occupation parity read off a component's support strings."""
    row_mask = 0
    for lab in row_labels:
        row_mask |= 1 << sup.bit(lab)
    bits = {(m & row_mask).bit_count() % 2 for m in sup.amps}
    if len(bits) != 1:
        raise DecodeError("row parity is not definite across the support")
    return bits.pop()


def sample_pattern(comps, rows, rng):
    pats = [tuple(support_row_bit(sup, row) for row in rows) for _, sup in comps]
    groups = {}
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


def ghz_outcome_pattern(parity, n, rng):
    bits = rng.integers(0, 2, size=n)
    if int(bits.sum()) % 2 != parity:
        bits[-1] ^= 1
    return tuple(1 - 2 * int(b) for b in bits)


def decode(layout, comps, rng):
    """Gate-route decode of (w, SupportState, meta) components.

    Returns a dict with m, r, probability, checks and record as
    :class:`qtelarray.netdecode.DecodeResult` has them, plus the folded
    survivors, the carrier labels and the Z-correction signs.
    """
    cfg, book, N = layout.config, layout.book, layout.config.N
    if cfg.layout == "sequential":
        lead_rows = [layout.row_labels(q) for q in layout.code_rows()]
    else:
        lead_rows = [layout.row_labels(q) for q in layout.comp_rows()]
    comps = [(w, sup) for w, sup, _ in comps]
    lead_pattern, record_p, survivors = sample_pattern(comps, lead_rows, rng)
    ghz_outcomes = [ghz_outcome_pattern(b, N, rng) for b in lead_pattern]
    checks = len(lead_rows)
    one_rows = [row for row, b in zip(lead_rows, lead_pattern) if b]
    if cfg.layout == "sequential":
        m, r = book.decode("".join(str(b) for b in lead_pattern))
    else:
        r = int("".join(str(b) for b in lead_pattern), 2) or None
        m = 0
        if r:
            time_rows = [layout.row_labels(q) for q in layout.time_rows(r)]
            time_pattern, p_time, survivors = sample_pattern(
                survivors, time_rows, rng
            )
            record_p *= p_time
            ghz_outcomes += [ghz_outcome_pattern(b, N, rng) for b in time_pattern]
            checks += len(time_rows)
            m = int("".join(str(b) for b in time_pattern), 2)
            one_rows = [
                row for row, b in zip(time_rows, time_pattern) if b
            ] + one_rows
    out = {"m": m, "r": r, "probability": record_p, "checks": checks,
           "record": {"lead_pattern": lead_pattern, "ghz_outcomes": ghz_outcomes}}
    if m == 0:
        return out
    carrier = one_rows[0]
    signs = [1] * N
    sign_record = []
    for row in one_rows[1:]:
        for i, lab in enumerate(row):
            s = 1 if rng.random() < 0.5 else -1
            sign_record.append((lab, s))
            folded = []
            for w, sup in survivors:
                match = [b for b in sup.measure_branches(lab, "X") if b[0] == s]
                if not match:
                    raise DecodeError(f"row qubit {lab} cannot give outcome {s}")
                folded.append((w, match[0][2]))
            survivors = folded
            if s < 0:
                signs[i] = -signs[i]
    out["record"]["fold_signs"] = sign_record
    out.update(survivors=survivors, carrier=carrier, signs=signs)
    return out


def w_readout(rho, rng):
    """W readout's (pair, attempts) with the pair drawn by ``rng.choice``."""
    n = rho.shape[0]
    first, second = np.triu_indices(n, 1)
    diag = rho.diagonal().real
    p_pairs = (diag[first] + diag[second]) / n
    for attempt in range(1, RETRY_CAP + 1):
        if rng.random() < 1.0 / n:
            continue
        k = rng.choice(len(p_pairs), p=p_pairs / p_pairs.sum())
        return (int(first[k]), int(second[k])), attempt
    raise DecodeError("no pair collapse")


def _drop_zero_qubit(sup, label):
    """Remove a qubit that is |0> on every support string."""
    b = 1 << sup.bit(label)
    pos = sup.bit(label)
    if any(m & b for m in sup.amps):
        raise StateError(f"qubit {label!r} is not |0> on all support")
    out = {}
    for m, a in sup.amps.items():
        out[((m >> (pos + 1)) << pos) | (m & (b - 1))] = a
    return SupportState(tuple(l for l in sup.labels if l != label), out)


def carrier_by_dense(survivors, carrier, signs):
    """Dense reference for the decoded carrier (at most 20 sites).

    Z corrections on the carrier, every other qubit dropped as |0>, a 2^N
    vector per survivor, then the which-site block of the mixture.
    """
    comps = []
    for w, sup in survivors:
        for i, lab in enumerate(carrier):
            if signs[i] < 0:
                sup = sup.apply_z(lab)
        for lab in sup.labels:
            if lab not in carrier:
                sup = _drop_zero_qubit(sup, lab)
        comps.append((w, sup.to_vector()))
    state = QuantumState(qubit_registry(carrier), comps)
    return excitation_density(state)


def assert_decodes_agree(res, ref, tol=1e-12):
    """A production DecodeResult against the gate route's decode."""
    assert (res.m, res.r) == (ref["m"], ref["r"])
    assert res.probability == ref["probability"]
    assert res.checks == ref["checks"]
    assert res.record == ref["record"]
    if res.m == 0:
        assert res.state is None
        return
    assert res.carrier_labels == ref["carrier"]
    want = carrier_by_dense(ref["survivors"], ref["carrier"], ref["signs"])
    np.testing.assert_allclose(res.state, want, rtol=0, atol=tol)
