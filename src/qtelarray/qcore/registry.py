"""Mode registries: ordered collections of labeled qubit and Fock modes.

A registry fixes the tensor-product layout of a composite Hilbert space.
Mode 0 is the slowest-varying index of the flattened state vector (C order),
so ``vec.reshape(registry.dims)`` puts mode ``i`` on axis ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class RegistryError(ValueError):
    """Malformed registry or unknown mode label."""


@dataclass(frozen=True)
class Mode:
    """One labeled subsystem: a qubit or a photon-number-truncated Fock mode.

    Parameters
    ----------
    label : str
        Unique name within a registry.
    kind : str
        Either ``"qubit"`` or ``"fock"``.
    cutoff : int
        Maximum photon number kept for a Fock mode (dimension ``cutoff + 1``).
        Ignored for qubits, whose dimension is always 2.
    """

    label: str
    kind: str
    cutoff: int = 0

    def __post_init__(self):
        if self.kind not in ("qubit", "fock"):
            raise RegistryError(f"unknown mode kind {self.kind!r}")
        if self.kind == "fock" and self.cutoff < 1:
            raise RegistryError("fock cutoff must be >= 1")

    @property
    def dim(self) -> int:
        return 2 if self.kind == "qubit" else self.cutoff + 1


def qubit(label: str) -> Mode:
    """A two-level mode."""
    return Mode(label, "qubit")


def fock(label: str, cutoff: int) -> Mode:
    """A bosonic mode truncated at photon number ``cutoff``."""
    return Mode(label, "fock", cutoff)


class ModeRegistry:
    """Ordered, immutable collection of modes with unique labels."""

    def __init__(self, modes):
        modes = tuple(modes)
        if not modes:
            raise RegistryError("registry needs at least one mode")
        if not all(isinstance(m, Mode) for m in modes):
            raise RegistryError("registry entries must be Mode instances")
        labels = [m.label for m in modes]
        if len(set(labels)) != len(labels):
            raise RegistryError("mode labels must be unique")
        self.modes = modes
        self.labels = tuple(labels)
        self.dims = tuple(m.dim for m in modes)
        self.dim = int(np.prod(self.dims, dtype=np.int64))
        self._pos = {lab: i for i, lab in enumerate(labels)}

    def __len__(self):
        return len(self.modes)

    def __eq__(self, other):
        return isinstance(other, ModeRegistry) and self.modes == other.modes

    def __repr__(self):
        inner = ", ".join(
            m.label if m.kind == "qubit" else f"{m.label}(fock:{m.cutoff})"
            for m in self.modes
        )
        return f"ModeRegistry[{inner}]"

    def index(self, label: str) -> int:
        """Axis position of the mode with the given label."""
        try:
            return self._pos[label]
        except KeyError:
            raise RegistryError(f"no mode labeled {label!r}") from None

    def mode(self, label: str) -> Mode:
        return self.modes[self.index(label)]

    def axes(self, labels) -> tuple:
        return tuple(self.index(lab) for lab in labels)

    def subset(self, labels) -> "ModeRegistry":
        """New registry holding the named modes, in the order given."""
        return ModeRegistry(self.mode(lab) for lab in labels)

    def extend(self, new_modes) -> "ModeRegistry":
        """New registry with extra modes appended."""
        return ModeRegistry(self.modes + tuple(new_modes))

    def drop(self, labels) -> "ModeRegistry":
        gone = set(labels)
        for lab in gone:
            self.index(lab)
        kept = [m for m in self.modes if m.label not in gone]
        if not kept:
            raise RegistryError("cannot drop every mode")
        return ModeRegistry(kept)

    # ---- basis bookkeeping -------------------------------------------------

    def basis_index(self, assignment) -> int:
        """Flat index of the basis state with the given per-mode occupations."""
        assignment = tuple(int(a) for a in assignment)
        if len(assignment) != len(self.modes):
            raise RegistryError("assignment length does not match registry")
        for a, d in zip(assignment, self.dims):
            if not 0 <= a < d:
                raise RegistryError(f"occupation {a} out of range for dim {d}")
        return int(np.ravel_multi_index(assignment, self.dims))

    def basis_assignment(self, index: int) -> tuple:
        """Per-mode occupations of the flat basis index."""
        if not 0 <= index < self.dim:
            raise RegistryError("basis index out of range")
        return tuple(int(x) for x in np.unravel_index(index, self.dims))

    def parse_label(self, text: str) -> tuple:
        """Parse a basis label like ``"010"`` or ``"2,0,1"`` to occupations.

        Comma-separated form is required when any mode dimension exceeds 10;
        the compact digit form reads one character per mode.
        """
        text = text.strip()
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
        elif len(self.modes) == 1:
            parts = [text]
        else:
            if any(d > 10 for d in self.dims):
                raise RegistryError(
                    "compact basis labels are ambiguous for dimensions > 10; "
                    "use the comma-separated form"
                )
            parts = list(text)
        if len(parts) != len(self.modes):
            raise RegistryError(
                f"basis label {text!r} has {len(parts)} fields, "
                f"registry has {len(self.modes)} modes"
            )
        try:
            occ = tuple(int(p) for p in parts)
        except ValueError:
            raise RegistryError(f"cannot parse basis label {text!r}") from None
        self.basis_index(occ)  # range check
        return occ


def qubit_registry(labels) -> ModeRegistry:
    """Registry of qubits with the given labels."""
    return ModeRegistry(qubit(lab) for lab in labels)


def fock_registry(labels, cutoff: int) -> ModeRegistry:
    """Registry of Fock modes sharing one cutoff."""
    return ModeRegistry(fock(lab, cutoff) for lab in labels)


def log2_ceil(n: int) -> int:
    """Smallest b with 2**b >= n, for n >= 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return int(n - 1).bit_length()
