"""Gates, unitary application, and projective measurement.

Measurement enumerates every branch. On a mixed state the outcome
distribution is the ensemble average and the post-state conditions every
component on the observed outcome, which is exactly the density-matrix
update rule.
"""

from __future__ import annotations

import numpy as np

from ..util import qft_matrix  # noqa: F401 - re-exported by qtelarray.qcore
from .registry import ModeRegistry
from .states import QuantumState, StateError

PROB_FLOOR = 1e-14

Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


class MeasurementError(ValueError):
    """Invalid basis/mode combination or forced zero-probability outcome."""


def apply_matrix(vec, registry: ModeRegistry, matrix, labels) -> np.ndarray:
    """Apply a dense or :class:`FockMatrix` matrix to the named modes of a vector."""
    labels = tuple(labels)
    axes = registry.axes(labels)
    dims = registry.dims
    d_t = int(np.prod([dims[a] for a in axes], dtype=np.int64))
    if matrix.shape != (d_t, d_t):
        raise StateError(
            f"operator dimension {matrix.shape[0]} does not match "
            f"target modes (dimension {d_t})"
        )
    t = vec.reshape(dims)
    t = np.moveaxis(t, axes, range(len(axes)))
    moved_shape = t.shape
    t = t.reshape(d_t, -1)
    t = matrix @ t
    t = t.reshape(moved_shape)
    t = np.moveaxis(t, range(len(axes)), axes)
    return np.ascontiguousarray(t).reshape(-1)


def _gate(state, matrix, labels):
    comps = [
        (w, apply_matrix(v, state.registry, matrix, labels))
        for w, v in state.components
    ]
    return QuantumState(state.registry, comps)


def pauli_z(state, label):
    return _gate(state, Z, (label,))


def hadamard(state, label):
    return _gate(state, H, (label,))


def cnot(state, control, target):
    return _gate(state, CNOT, (control, target))


def cz(state, a, b):
    return _gate(state, CZ, (a, b))


# ---- measurement -----------------------------------------------------------


def _check_basis(registry, labels, basis):
    for lab in labels:
        kind = registry.mode(lab).kind
        if basis == "X" and kind != "qubit":
            raise MeasurementError("X basis is qubit-only")
        if basis == "number" and kind != "fock":
            raise MeasurementError("number basis is fock-only")
        if basis not in ("Z", "X", "number"):
            raise MeasurementError(f"unknown basis {basis!r}")


def _rotate_for_basis(state, labels, basis):
    if basis != "X":
        return state
    out = state
    for lab in labels:
        out = hadamard(out, lab)
    return out


def _outcome_repr(indices, basis):
    if basis == "X":
        return tuple(1 if i == 0 else -1 for i in indices)
    return tuple(int(i) for i in indices)


def _collapse(state, axes, indices, remove, basis, labels):
    """Project every component on the given outcome; optionally drop modes."""
    reg = state.registry
    dims = reg.dims
    comps = []
    total = 0.0
    for w, v in state.components:
        t = v.reshape(dims)
        sel = [slice(None)] * len(dims)
        for a, i in zip(axes, indices):
            sel[a] = i
        sub = t[tuple(sel)]
        nrm2 = float(np.sum(np.abs(sub) ** 2))
        if nrm2 <= PROB_FLOOR:
            continue
        if remove:
            newv = sub.reshape(-1)
        else:
            filled = np.zeros_like(t)
            filled[tuple(sel)] = sub
            newv = filled.reshape(-1)
        comps.append((w * nrm2, newv))
        total += w * nrm2
    if not comps:
        raise MeasurementError("zero-probability forced outcome")
    comps = [(w / total, v) for w, v in comps]
    new_reg = reg.drop(labels) if remove else reg
    post = QuantumState(new_reg, comps)
    if not remove and basis == "X":
        for lab in labels:
            post = hadamard(post, lab)
    return post


def enumerate_measure(state, labels, basis="Z", remove=False):
    """All measurement branches as (outcome, probability, post_state) triples.

    Outcomes are occupation tuples for Z/number and +1/-1 tuples for X.
    Probabilities sum to 1 within 1e-10; branches below 1e-14 are skipped.
    """
    labels = tuple(labels)
    _check_basis(state.registry, labels, basis)
    rotated = _rotate_for_basis(state, labels, basis)
    probs = rotated.probabilities(labels)
    out = []
    for indices in np.ndindex(probs.shape):
        p = float(probs[indices])
        if p <= PROB_FLOOR:
            continue
        axes = rotated.registry.axes(labels)
        post = _collapse(rotated, axes, indices, remove, basis, labels)
        out.append((_outcome_repr(indices, basis), p, post))
    return out
