"""Bosonic-mode tools: coherent states, linear optics, lossy detectors.

Linear optics follows the creation-operator picture: a k-port device with
matrix S sends a†_m -> sum_p S[m, p] b†_p. The 50:50 beam-splitter
convention used throughout is the Hadamard-type matrix

    S = (1/sqrt 2) [[1, 1], [1, -1]]

so a† -> (a'† + b'†)/sqrt2 and b† -> (a'† - b'†)/sqrt2. Probabilities and
heralding rules do not depend on this choice; phase-correction rules quoted
elsewhere in the package assume it.
"""

from __future__ import annotations

import math

import numpy as np

from .registry import ModeRegistry, fock
from .states import QuantumState, StateError
from .gates import H as HADAMARD_MATRIX

LEAKAGE_DEFAULT = 1e-9


class TruncationLeakageError(RuntimeError):
    """Amplitude pushed past the Fock cutoff beyond the allowed leakage."""


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def min_coherent_cutoff(alpha) -> int:
    """Smallest cutoff allowed for a coherent state of amplitude alpha.

    The rule cutoff >= |alpha|^2 + 10|alpha| + 20 keeps the discarded tail
    weight below 1e-12 for any phase of alpha.
    """
    a = abs(alpha)
    return int(math.ceil(a * a + 10.0 * a + 20.0))


def coherent_amplitudes(alpha, cutoff: int):
    """Truncated, renormalized coherent amplitudes and the raw tail weight.

    Returns ``(amps, tail)`` where ``amps[n] = e^{-|a|^2/2} a^n / sqrt(n!)``
    renormalized over n = 0..cutoff and ``tail`` is the discarded weight of
    the untruncated distribution.
    """
    n = np.arange(cutoff + 1)
    a = abs(alpha)
    if a == 0.0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return amps, 0.0
    log_mag = -0.5 * a * a + n * np.log(a) - 0.5 * _log_factorials(cutoff)
    phase = np.angle(complex(alpha)) * n
    amps = np.exp(log_mag) * np.exp(1j * phase)
    kept = float(np.sum(np.exp(2.0 * log_mag)))
    tail = max(0.0, 1.0 - kept)
    return amps / np.sqrt(kept), tail


def coherent_state(alpha, cutoff=None, label="a", enforce_cutoff=True):
    """Pure coherent state on a single Fock mode.

    The cutoff defaults to :func:`min_coherent_cutoff`; smaller values are
    rejected unless ``enforce_cutoff=False`` (used by small-cutoff oracle
    comparisons, where the truncated-renormalized convention still applies).
    """
    need = min_coherent_cutoff(alpha)
    if cutoff is None:
        cutoff = need
    if enforce_cutoff and cutoff < need:
        raise ValueError(
            f"cutoff {cutoff} below the coherent policy minimum {need}"
        )
    amps, _ = coherent_amplitudes(alpha, cutoff)
    reg = ModeRegistry([fock(label, cutoff)])
    return QuantumState.from_vector(reg, amps)


# ---- linear-optics matrices --------------------------------------------------


_LO_CACHE = {}


class FockMatrix:
    """Sparse (dim_out, dim_in) matrix stored as row-sorted triples.

    ``rows``, ``cols`` and ``vals`` list the nonzero entries in row order;
    ``matrix @ x`` contracts the first axis of ``x`` and ``toarray()``
    gives the dense matrix.
    """

    def __init__(self, rows, cols, vals, shape):
        rows = np.asarray(rows, dtype=np.int64)
        order = np.argsort(rows, kind="stable")
        self.rows = rows[order]
        self.cols = np.asarray(cols, dtype=np.int64)[order]
        self.vals = np.asarray(vals, dtype=complex)[order]
        self.shape = (int(shape[0]), int(shape[1]))
        # first entry of each nonempty row, for np.add.reduceat
        self._starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        self._out_rows = self.rows[self._starts]

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.ndim == 0 or x.shape[0] != self.shape[1]:
            raise ValueError(
                f"matrix of shape {self.shape} cannot act on shape {x.shape}"
            )
        dtype = np.result_type(self.vals, x)
        out = np.zeros((self.shape[0],) + x.shape[1:], dtype=dtype)
        terms = x[self.cols].astype(dtype, copy=False)
        terms *= self.vals.reshape((-1,) + (1,) * (x.ndim - 1))
        out[self._out_rows] = np.add.reduceat(terms, self._starts, axis=0)
        return out

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=complex)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense


# Kept over _lo_columns_general, which is 2.5x slower at cutoff 8, 25x at 31.
def _lo_columns_two_mode(S, dims_in, dims_out, log_fact):
    """Column data for a 2-port device via binomial convolution."""
    rows, cols, vals = [], [], []
    leakage = np.zeros(dims_in[0] * dims_in[1])
    c0_out, c1_out = dims_out[0] - 1, dims_out[1] - 1
    for na in range(dims_in[0]):
        j = np.arange(na + 1)
        log_binom_a = log_fact[na] - log_fact[j] - log_fact[na - j]
        pa = np.exp(log_binom_a) * S[0, 0] ** j * S[0, 1] ** (na - j)
        for nb in range(dims_in[1]):
            l = np.arange(nb + 1)
            log_binom_b = log_fact[nb] - log_fact[l] - log_fact[nb - l]
            pb = np.exp(log_binom_b) * S[1, 0] ** l * S[1, 1] ** (nb - l)
            conv = np.convolve(pa, pb)  # index = photons in output port 0
            total = na + nb
            p = np.arange(total + 1)
            q = total - p
            scale = np.exp(
                0.5 * (log_fact[p] + log_fact[q] - log_fact[na] - log_fact[nb])
            )
            amp = conv * scale
            keep = (p <= c0_out) & (q <= c1_out)
            col = na * dims_in[1] + nb
            kept2 = float(np.sum(np.abs(amp[keep]) ** 2))
            leakage[col] = max(0.0, 1.0 - kept2)
            pk, qk, ak = p[keep], q[keep], amp[keep]
            rows.extend(pk * dims_out[1] + qk)
            cols.extend([col] * len(ak))
            vals.extend(ak)
    return rows, cols, vals, leakage


def _lo_columns_general(S, dims_in, dims_out, log_fact):
    """Column data for a k-port device via polynomial expansion."""
    k = len(dims_in)
    rows, cols, vals = [], [], []
    n_cols = int(np.prod(dims_in))
    leakage = np.zeros(n_cols)
    out_caps = tuple(d - 1 for d in dims_out)
    for col, occ in enumerate(np.ndindex(*dims_in)):
        poly = {(0,) * k: 1.0 + 0.0j}
        for m, n_m in enumerate(occ):
            for _ in range(n_m):
                nxt = {}
                for exp_tuple, coeff in poly.items():
                    for p in range(k):
                        if exp_tuple[p] + 1 > out_caps[p]:
                            continue
                        new = list(exp_tuple)
                        new[p] += 1
                        key = tuple(new)
                        nxt[key] = nxt.get(key, 0.0) + coeff * S[m, p]
                poly = nxt
                if not poly:
                    break
            if not poly:
                break
        log_in = sum(log_fact[n_m] for n_m in occ)
        kept2 = 0.0
        for out_occ, coeff in poly.items():
            log_out = sum(log_fact[o] for o in out_occ)
            amp = coeff * np.exp(0.5 * (log_out - log_in))
            if abs(amp) == 0.0:
                continue
            rows.append(int(np.ravel_multi_index(out_occ, dims_out)))
            cols.append(col)
            vals.append(amp)
            kept2 += abs(amp) ** 2
        leakage[col] = max(0.0, 1.0 - kept2)
    return rows, cols, vals, leakage


def linear_optics_matrix(S, cutoffs, out_cutoffs=None):
    """Truncated Fock-space matrix of a k-port linear-optics device.

    Parameters
    ----------
    S : (k, k) unitary
        Creation-operator map, rows are input ports, columns output ports.
    cutoffs, out_cutoffs : per-mode photon-number cutoffs
        Output cutoffs default to the input ones.

    Returns
    -------
    (matrix, leakage)
        ``matrix`` is a :class:`FockMatrix` of shape (dim_out, dim_in);
        ``leakage[c]`` is the probability weight the basis input ``c``
        pushes past the output cutoffs. Columns are exact up to that
        truncation.
    """
    S = np.asarray(S, dtype=complex)
    k = S.shape[0]
    if S.shape != (k, k):
        raise ValueError("S must be square")
    if np.max(np.abs(S @ S.conj().T - np.eye(k))) > 1e-12:
        raise ValueError("S must be unitary to 1e-12")
    cutoffs = tuple(int(c) for c in cutoffs)
    out_cutoffs = cutoffs if out_cutoffs is None else tuple(int(c) for c in out_cutoffs)
    if len(cutoffs) != k or len(out_cutoffs) != k:
        raise ValueError("need one cutoff per port")
    key = (S.tobytes(), cutoffs, out_cutoffs)
    hit = _LO_CACHE.get(key)
    if hit is not None:
        return hit
    dims_in = tuple(c + 1 for c in cutoffs)
    dims_out = tuple(c + 1 for c in out_cutoffs)
    max_n = max(sum(cutoffs), sum(out_cutoffs)) + 1
    log_fact = _log_factorials(max_n)
    if k == 2:
        rows, cols, vals, leakage = _lo_columns_two_mode(
            S, dims_in, dims_out, log_fact
        )
    else:
        rows, cols, vals, leakage = _lo_columns_general(
            S, dims_in, dims_out, log_fact
        )
    mat = FockMatrix(
        rows, cols, vals, (int(np.prod(dims_out)), int(np.prod(dims_in)))
    )
    _LO_CACHE[key] = (mat, leakage)
    return mat, leakage


def apply_linear_optics(state, S, labels, max_leakage=LEAKAGE_DEFAULT):
    """Apply a k-port device to the named Fock modes of a state.

    Raises :class:`TruncationLeakageError` when the weighted norm loss of
    the state exceeds ``max_leakage``; otherwise components are conditioned
    on staying below cutoff (renormalized).
    """
    from .gates import apply_matrix

    labels = tuple(labels)
    reg = state.registry
    cutoffs = []
    for lab in labels:
        mode = reg.mode(lab)
        if mode.kind != "fock":
            raise StateError(f"linear optics needs fock modes, got {lab!r}")
        cutoffs.append(mode.cutoff)
    mat, _ = linear_optics_matrix(S, cutoffs)
    comps = []
    kept_total = 0.0
    for w, v in state.components:
        nv = apply_matrix(v, reg, mat, labels)
        n2 = float(np.sum(np.abs(nv) ** 2))
        if n2 > 1e-300:
            comps.append((w * n2, nv / np.sqrt(n2)))
        kept_total += w * n2
    leak = 1.0 - kept_total
    if leak > max_leakage:
        modes = ", ".join(f"{lab!r} (cutoff {c})" for lab, c in zip(labels, cutoffs))
        raise TruncationLeakageError(
            f"truncation leakage {leak:.3e} exceeds max_leakage = "
            f"{max_leakage:.1e} (default LEAKAGE_DEFAULT = {LEAKAGE_DEFAULT:.0e}) "
            f"on modes {modes}; raise the mode cutoffs"
        )
    total = sum(w for w, _ in comps)
    return QuantumState(reg, [(w / total, v) for w, v in comps])


def beam_splitter(state, mode_a, mode_b, matrix=None, max_leakage=LEAKAGE_DEFAULT):
    """50:50 beam splitter on two equal-cutoff Fock modes.

    ``matrix`` overrides the port map (must stay unitary); the default is
    the Hadamard-type convention documented in the module docstring.
    """
    reg = state.registry
    ma, mb = reg.mode(mode_a), reg.mode(mode_b)
    if ma.kind != "fock" or mb.kind != "fock":
        raise StateError("beam_splitter needs two fock modes")
    if ma.cutoff != mb.cutoff:
        raise StateError("beam_splitter needs equal cutoffs")
    S = HADAMARD_MATRIX if matrix is None else np.asarray(matrix, dtype=complex)
    return apply_linear_optics(state, S, (mode_a, mode_b), max_leakage)


def loss_mixer(eta: float) -> np.ndarray:
    """Two-port map mixing a mode with vacuum at amplitude transmission eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    t = float(eta)
    r = math.sqrt(max(0.0, 1.0 - t * t))
    return np.array([[t, r], [r, -t]], dtype=complex)


def lossy_detector(state, label, eta):
    """Number measurement through a detector of amplitude transmission eta.

    The mode is mixed with a vacuum ancilla on a beam splitter of
    transmission eta; the loss port is traced out and the transmitted port
    measured perfectly. Returns branches ``(count, probability, post)``
    where ``post`` lacks the measured mode (``None`` when nothing remains).
    Intensity transmission is eta^2: a single photon is seen with
    probability eta^2.
    """
    from .gates import enumerate_measure

    reg = state.registry
    mode = reg.mode(label)
    if mode.kind != "fock":
        raise StateError("lossy_detector needs a fock mode")
    loss_label = f"{label}__loss"
    ext = reg.extend([fock(loss_label, mode.cutoff)])
    comps = []
    for w, v in state.components:
        nv = np.zeros(ext.dim, dtype=complex)
        # appended mode is the fastest axis; vacuum slot 0 of the ancilla
        nv.reshape(reg.dim, mode.cutoff + 1)[:, 0] = v
        comps.append((w, nv))
    mixed = apply_linear_optics(
        QuantumState(ext, comps), loss_mixer(eta), (label, loss_label),
        max_leakage=1e-12,
    )
    solo = len(reg) == 1
    branches = {}
    for (k, _j), p, post in enumerate_measure(
        mixed, (label, loss_label), basis="Z",
        remove=not solo,
    ):
        prob, parts = branches.get(k, (0.0, []))
        branches[k] = (prob + p, parts + [(p, post)])
    out = []
    for k in sorted(branches):
        prob, parts = branches[k]
        if solo:
            post = None
        else:
            merged = []
            for p, st in parts:
                merged.extend((p / prob * w, v) for w, v in st.components)
            post = QuantumState(parts[0][1].registry, merged)
        out.append((k, prob, post))
    return out
