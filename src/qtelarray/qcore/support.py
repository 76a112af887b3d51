"""Compact pure qubit states with small basis support: the gate-level reference.

An encoded memory entangles a handful of basis strings over dozens of
qubits (two-site parallel layouts reach 50+ qubits), far past any dense
vector, but each mixture component is a pure state with a small support.
``SupportState`` stores it as a map from basis bitmask to amplitude, and
every gate of the protocol (Z, H, CNOT, pattern phases, single-qubit
measurement) acts on that map directly. It has no production caller: the
codec and decoder run on the site-vector form, and this engine replays the
same protocol gate by gate as their reference in the tests.

Bit convention: bit ``q`` of a mask is the occupation of ``labels[q]``
(labels[0] is the least significant bit). ``to_vector`` converts to the
dense registry convention (mode 0 slowest) for cross-checks on small cases.
"""

from __future__ import annotations

import numpy as np

from .states import StateError

AMP_FLOOR = 1e-15
TO_VECTOR_LIMIT = 20


class SupportState:
    """Pure state over labeled qubits, stored as {bitmask: amplitude}."""

    __slots__ = ("labels", "amps", "_pos")

    def __init__(self, labels, amps, normalize=False):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise StateError("duplicate qubit labels")
        if normalize:
            # before the floor, which would otherwise empty a tiny state
            norm = np.sqrt(sum(abs(complex(a)) ** 2 for a in amps.values()))
            if norm > 0:
                amps = {m: complex(a) / norm for m, a in amps.items()}
        clean = {}
        for mask, a in amps.items():
            a = complex(a)
            if abs(a) > AMP_FLOOR:
                clean[int(mask)] = a
        if not clean:
            raise StateError("empty support")
        self.amps = clean
        self._pos = {lab: i for i, lab in enumerate(self.labels)}

    @classmethod
    def zeros(cls, labels) -> "SupportState":
        """|0...0> over the given qubits."""
        return cls(labels, {0: 1.0})

    @classmethod
    def basis(cls, labels, bits) -> "SupportState":
        """Computational basis state from an occupation map or sequence."""
        labels = tuple(labels)
        if isinstance(bits, dict):
            seq = [int(bits.get(lab, 0)) for lab in labels]
        else:
            seq = [int(b) for b in bits]
        mask = 0
        for i, b in enumerate(seq):
            if b:
                mask |= 1 << i
        return cls(labels, {mask: 1.0})

    def bit(self, label: str) -> int:
        return self._pos[label]

    @property
    def n(self) -> int:
        return len(self.labels)

    def norm2(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def inner(self, other: "SupportState") -> complex:
        """<self|other> over matching labels."""
        if self.labels != other.labels:
            raise StateError("inner product needs matching labels")
        if len(self.amps) <= len(other.amps):
            return complex(
                sum(np.conj(a) * other.amps.get(m, 0.0) for m, a in self.amps.items())
            )
        return complex(
            sum(np.conj(self.amps.get(m, 0.0)) * a for m, a in other.amps.items())
        )

    # ---- gates -------------------------------------------------------------

    def apply_z(self, label) -> "SupportState":
        b = 1 << self.bit(label)
        return SupportState(
            self.labels, {m: (-a if m & b else a) for m, a in self.amps.items()}
        )

    def apply_h(self, label) -> "SupportState":
        b = 1 << self.bit(label)
        s = 1.0 / np.sqrt(2.0)
        out = {}
        for m, a in self.amps.items():
            if m & b:
                out[m & ~b] = out.get(m & ~b, 0.0) + s * a
                out[m] = out.get(m, 0.0) - s * a
            else:
                out[m] = out.get(m, 0.0) + s * a
                out[m | b] = out.get(m | b, 0.0) + s * a
        return SupportState(self.labels, out)

    def apply_cnot(self, control, target) -> "SupportState":
        c = 1 << self.bit(control)
        t = 1 << self.bit(target)
        return SupportState(
            self.labels, {(m ^ t if m & c else m): a for m, a in self.amps.items()}
        )

    def phase_if_match(self, labels, bits, phase=-1.0) -> "SupportState":
        """Multiply by ``phase`` on basis strings matching bits on labels.

        This is the diagonal operator 1 + (phase - 1) P where P projects on
        the named qubits holding exactly the given bit pattern; with the
        default phase it is the codeword-subspace Z correction.
        """
        sel = 0
        pat = 0
        for lab, b in zip(labels, bits):
            pos = 1 << self.bit(lab)
            sel |= pos
            if int(b):
                pat |= pos
        return SupportState(
            self.labels,
            {m: (phase * a if (m & sel) == pat else a) for m, a in self.amps.items()},
        )

    # ---- measurement and removal --------------------------------------------

    def measure_branches(self, label, basis="Z"):
        """Both single-qubit branches as (outcome, probability, post).

        The measured qubit is removed from the post state. Z outcomes are
        0/1; X outcomes are +1/-1. Branches with zero weight are omitted.
        """
        work = self.apply_h(label) if basis == "X" else self
        b = 1 << work.bit(label)
        pos = work.bit(label)
        halves = {0: {}, 1: {}}
        for m, a in work.amps.items():
            bitval = 1 if m & b else 0
            low = m & (b - 1)
            high = (m >> (pos + 1)) << pos
            halves[bitval][high | low] = a
        new_labels = tuple(l for l in work.labels if l != label)
        out = []
        for bitval, amps in halves.items():
            p = float(sum(abs(a) ** 2 for a in amps.values()))
            if p <= AMP_FLOOR:
                continue
            post = SupportState(
                new_labels, {m: a / np.sqrt(p) for m, a in amps.items()}
            )
            outcome = bitval if basis == "Z" else (1 if bitval == 0 else -1)
            out.append((outcome, p, post))
        return out

    def tensor(self, other: "SupportState") -> "SupportState":
        shift = self.n
        out = {}
        for m1, a1 in self.amps.items():
            for m2, a2 in other.amps.items():
                out[m1 | (m2 << shift)] = a1 * a2
        return SupportState(self.labels + other.labels, out)

    def to_vector(self) -> np.ndarray:
        """Dense amplitude vector with labels[0] as the slowest axis."""
        n = self.n
        if n > TO_VECTOR_LIMIT:
            raise StateError(
                f"to_vector: {n} qubits exceed the {TO_VECTOR_LIMIT}-qubit "
                "dense conversion limit (TO_VECTOR_LIMIT)"
            )
        vec = np.zeros(1 << n, dtype=complex)
        for m, a in self.amps.items():
            dense = 0
            for q in range(n):
                if m & (1 << q):
                    dense |= 1 << (n - 1 - q)
            vec[dense] = a
        return vec

    def __repr__(self):
        terms = ", ".join(
            f"{format(m, f'0{self.n}b')[::-1]}: {a:.3g}"
            for m, a in sorted(self.amps.items())
        )
        return f"<SupportState {self.n} qubits {{{terms}}}>"
