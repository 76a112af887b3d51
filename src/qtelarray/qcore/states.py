"""Quantum states over mode registries.

States are stored as ensembles of weighted pure vectors. A pure state is an
ensemble with one member; a mixed state carries several. All operations are
linear, so evolving each member independently reproduces density-matrix
evolution exactly while keeping memory proportional to rank, not dimension.

Dense density matrices are materialized only on demand and only up to total
dimension ``DENSE_LIMIT``.
"""

from __future__ import annotations

import numpy as np

from .registry import ModeRegistry

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
COMPONENT_CUT = 1e-12
DENSE_LIMIT = 4096


class StateError(ValueError):
    """Ill-formed state construction or use."""


class QuantumState:
    """Ensemble of weighted unit vectors over a ModeRegistry.

    Components are pairs ``(weight, vector)`` with positive weights summing
    to one and unit-norm vectors. Instances are immutable by convention:
    operations return new states.
    """

    __slots__ = ("registry", "components")

    def __init__(self, registry: ModeRegistry, components):
        self.registry = registry
        comps = []
        total = 0.0
        for w, v in components:
            w = float(w)
            if w <= 0.0:
                continue
            v = np.asarray(v, dtype=complex).reshape(-1)
            if v.size != registry.dim:
                raise StateError(
                    f"vector length {v.size} does not match registry "
                    f"dimension {registry.dim}"
                )
            norm = np.linalg.norm(v)
            if norm < 1e-15:
                raise StateError("zero-norm component vector")
            comps.append((w, v / norm))
            total += w
        if not comps:
            raise StateError("state needs at least one weighted component")
        if abs(total - 1.0) > TRACE_TOL:
            raise StateError(f"component weights sum to {total}, not 1")
        self.components = tuple((w / total, v) for w, v in comps)

    # ---- constructors ------------------------------------------------------

    @classmethod
    def from_vector(cls, registry: ModeRegistry, vec) -> "QuantumState":
        """Pure state from an amplitude vector (normalized on entry)."""
        return cls(registry, [(1.0, vec)])

    @classmethod
    def from_density(cls, registry: ModeRegistry, rho) -> "QuantumState":
        """Eigen-ensemble of a density matrix.

        The matrix must be Hermitian to 1e-12, unit trace to 1e-10, and
        positive semidefinite to -1e-10; eigenvectors with weight below
        ``COMPONENT_CUT`` are dropped and the rest renormalized.
        """
        rho = np.asarray(rho, dtype=complex)
        d = registry.dim
        if rho.shape != (d, d):
            raise StateError(f"density matrix shape {rho.shape}, expected {(d, d)}")
        if d > DENSE_LIMIT:
            raise StateError(
                f"dense density input limited to dimension {DENSE_LIMIT}"
            )
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > HERMITICITY_TOL:
            raise StateError(f"density matrix not Hermitian (deviation {herm:.2e})")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"density matrix trace {tr}, expected 1")
        vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
        if vals.min() < -PSD_TOL:
            raise StateError(
                f"density matrix not positive semidefinite "
                f"(min eigenvalue {vals.min():.2e})"
            )
        comps = [
            (float(w), vecs[:, i])
            for i, w in enumerate(vals)
            if w > COMPONENT_CUT
        ]
        return cls(registry, comps)

    # ---- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.registry.dim

    @property
    def is_pure(self) -> bool:
        return len(self.components) == 1

    @property
    def vector(self) -> np.ndarray:
        """Amplitude vector of a pure state."""
        if not self.is_pure:
            raise StateError("state is mixed; no single vector")
        return self.components[0][1]

    def density_matrix(self) -> np.ndarray:
        """Materialize the dense density matrix (small dimensions only)."""
        if self.dim > DENSE_LIMIT:
            raise StateError(
                f"refusing to materialize a {self.dim}-dimensional density "
                f"matrix: DENSE_LIMIT is {DENSE_LIMIT}"
            )
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        for w, v in self.components:
            rho += w * np.outer(v, v.conj())
        return rho

    def probabilities(self, labels=None) -> np.ndarray:
        """Marginal basis-occupation probabilities for the named modes.

        Returns an array indexed by the occupations of the requested modes
        (in the order given); defaults to the full joint distribution.
        """
        reg = self.registry
        if labels is None:
            labels = reg.labels
        axes = reg.axes(labels)
        other = tuple(i for i in range(len(reg)) if i not in axes)
        out = None
        for w, v in self.components:
            p = (np.abs(v) ** 2).reshape(reg.dims)
            if other:
                p = p.sum(axis=other)
            out = w * p if out is None else out + w * p
        # summation leaves kept axes in registry order; permute to request order
        kept_sorted = sorted(axes)
        perm = [kept_sorted.index(a) for a in axes]
        return np.transpose(out, perm)

    def expectation(self, matrix, labels) -> complex:
        """Expectation value of an operator acting on the named modes."""
        from .gates import apply_matrix  # local import to avoid a cycle

        val = 0.0 + 0.0j
        for w, v in self.components:
            ov = apply_matrix(v, self.registry, matrix, labels)
            val += w * np.vdot(v, ov)
        return complex(val)

    def fidelity(self, target) -> float:
        """Overlap <psi|rho|psi> with a pure target state or vector."""
        if isinstance(target, QuantumState):
            if target.registry.dims != self.registry.dims:
                raise StateError("fidelity: registries do not match")
            tvec = target.vector
        else:
            tvec = np.asarray(target, dtype=complex).reshape(-1)
            if tvec.size != self.dim:
                raise StateError("fidelity: target vector length mismatch")
            tvec = tvec / np.linalg.norm(tvec)
        return float(sum(w * abs(np.vdot(tvec, v)) ** 2 for w, v in self.components))

    def partial_trace(self, keep) -> "QuantumState":
        """Reduced state over the named modes (in the order given)."""
        keep = tuple(keep)
        if not keep:
            raise StateError("partial_trace: keep set must be nonempty")
        reg = self.registry
        axes = reg.axes(keep)
        other = tuple(i for i in range(len(reg)) if i not in axes)
        sub = reg.subset(keep)
        if sub.dim > DENSE_LIMIT:
            raise StateError(
                f"partial_trace: kept modes {keep} span dimension {sub.dim}, "
                f"over DENSE_LIMIT {DENSE_LIMIT}"
            )
        d_keep = sub.dim
        rho = np.zeros((d_keep, d_keep), dtype=complex)
        for w, v in self.components:
            t = v.reshape(reg.dims)
            t = np.transpose(t, axes + other)
            mat = t.reshape(d_keep, -1)
            rho += w * (mat @ mat.conj().T)
        return QuantumState.from_density(sub, rho)

    def overlap_probability(self, assignment_or_label) -> float:
        """Probability of one full basis outcome."""
        reg = self.registry
        if isinstance(assignment_or_label, str):
            idx = reg.basis_index(reg.parse_label(assignment_or_label))
        else:
            idx = reg.basis_index(assignment_or_label)
        return float(sum(w * abs(v[idx]) ** 2 for w, v in self.components))

    def __repr__(self):
        kind = "pure" if self.is_pure else f"mixed({len(self.components)})"
        return f"<QuantumState {kind} dim={self.dim} over {self.registry!r}>"


def build_state(registry: ModeRegistry, amplitudes: dict) -> QuantumState:
    """Pure state from a map of basis labels to amplitudes.

    Labels follow :meth:`ModeRegistry.parse_label`; amplitudes are
    normalized. Raises for unknown labels or an all-zero map.
    """
    vec = np.zeros(registry.dim, dtype=complex)
    for label, amp in amplitudes.items():
        occ = registry.parse_label(str(label))
        vec[registry.basis_index(occ)] += complex(amp)
    if np.linalg.norm(vec) < 1e-15:
        raise StateError("zero-norm amplitude map")
    return QuantumState.from_vector(registry, vec)
