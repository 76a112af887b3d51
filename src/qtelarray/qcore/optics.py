"""Bosonic-mode tools: coherent amplitudes, linear optics, lossy detectors.

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

from ..util import array, count

LEAKAGE_DEFAULT = 1e-9


class TruncationLeakageError(RuntimeError):
    """Amplitude pushed past the Fock cutoff beyond the allowed leakage."""


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def coherent_amplitudes(alpha, cutoff: int):
    """Truncated, renormalized coherent amplitudes and the raw tail weight.

    Returns ``(amps, tail)`` where ``amps[n] = e^{-|a|^2/2} a^n / sqrt(n!)``
    renormalized over n = 0..cutoff and ``tail`` is the discarded weight of
    the untruncated distribution.
    """
    alpha = array(alpha, "alpha", complex, ())
    cutoff = count(cutoff, "cutoff", 0)
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


# ---- linear-optics matrices --------------------------------------------------


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
        ``matrix`` is a dense complex ndarray of shape (dim_out, dim_in),
        built fresh on each call; ``leakage[c]`` is the probability weight
        the basis input ``c`` pushes past the output cutoffs. Columns are
        exact up to that truncation.

    Column n is a_m^dagger / sqrt(n_m) applied to column n - e_m, where m
    is the last occupied input mode and a_m^dagger = sum_p S[m, p] b_p^dagger.
    A raise past an output cutoff is dropped; photon counts only grow, so
    where the truncation happens does not change the column.
    """
    S = array(S, "S", complex, (None, None))
    k = S.shape[0]
    if S.shape != (k, k):
        raise ValueError("S must be square")
    if np.max(np.abs(S @ S.conj().T - np.eye(k))) > 1e-12:
        raise ValueError("S must be unitary to 1e-12")
    cutoffs = tuple(count(c, "cutoff", 0) for c in cutoffs)
    out_cutoffs = (cutoffs if out_cutoffs is None
                   else tuple(count(c, "cutoff", 0) for c in out_cutoffs))
    if len(cutoffs) != k or len(out_cutoffs) != k:
        raise ValueError("need one cutoff per port")
    dims_out = tuple(c + 1 for c in out_cutoffs)
    # the output modes' axes, then the input modes': column n is cols[..., *n]
    cols = np.zeros(dims_out + tuple(c + 1 for c in cutoffs), dtype=complex)
    cols[(0,) * (2 * k)] = 1.0
    for m, c_m in enumerate(cutoffs):
        # the columns whose last occupied mode is m, a block per n_m that
        # keeps the earlier input modes' axes
        later = (0,) * (k - 1 - m)
        # sqrt(j + 1) along output axis p of a block, for the raise j -> j + 1
        root = [np.sqrt(np.arange(1.0, d)).reshape(
            (-1,) + (1,) * (k + m - 1 - p)) for p, d in enumerate(dims_out)]
        for n_m in range(1, c_m + 1):
            src = cols[(..., n_m - 1) + later]
            dst = cols[(..., n_m) + later]
            for p in range(k):
                lower = (slice(None),) * p + (slice(None, -1),)
                upper = (slice(None),) * p + (slice(1, None),)
                dst[upper] += S[m, p] / math.sqrt(n_m) * root[p] * src[lower]
    matrix = cols.reshape(math.prod(dims_out), -1)
    leakage = np.maximum(0.0, 1.0 - np.sum(np.abs(matrix) ** 2, axis=0))
    return matrix, leakage


def apply_linear_optics(state, S, labels, max_leakage=LEAKAGE_DEFAULT):
    """Apply a k-port device to the named Fock modes of a state.

    Raises :class:`TruncationLeakageError` when the weighted norm loss of
    the state exceeds ``max_leakage``; otherwise components are conditioned
    on staying below cutoff (renormalized).
    """
    from .gates import apply_matrix
    from .states import QuantumState, StateError

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
    from .gates import H
    from .states import StateError

    reg = state.registry
    ma, mb = reg.mode(mode_a), reg.mode(mode_b)
    if ma.kind != "fock" or mb.kind != "fock":
        raise StateError("beam_splitter needs two fock modes")
    if ma.cutoff != mb.cutoff:
        raise StateError("beam_splitter needs equal cutoffs")
    S = H if matrix is None else np.asarray(matrix, dtype=complex)
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
    from .registry import fock
    from .states import QuantumState, StateError

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
