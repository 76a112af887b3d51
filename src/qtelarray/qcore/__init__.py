"""Composite-Hilbert-space engine: the reference routes of the tests.

The pipeline uses three of its helpers: ``log2_ceil`` for the codebook,
``qft_matrix`` for QFT imaging and ``linear_optics_matrix`` for the
multiport ancilla table of the transfer step.
"""

from .registry import (
    Mode,
    ModeRegistry,
    RegistryError,
    fock,
    log2_ceil,
    qubit,
    qubit_registry,
)
from .states import (
    DENSE_LIMIT,
    QuantumState,
    StateError,
    build_state,
)
from .gates import (
    CNOT,
    CZ,
    H,
    MeasurementError,
    Z,
    apply_matrix,
    cnot,
    cz,
    enumerate_measure,
    hadamard,
    pauli_z,
    qft_matrix,
)
from .optics import (
    TruncationLeakageError,
    apply_linear_optics,
    beam_splitter,
    coherent_amplitudes,
    linear_optics_matrix,
    loss_mixer,
    lossy_detector,
)
from .support import SupportState

__all__ = [
    "Mode",
    "ModeRegistry",
    "RegistryError",
    "fock",
    "log2_ceil",
    "qubit",
    "qubit_registry",
    "DENSE_LIMIT",
    "QuantumState",
    "StateError",
    "build_state",
    "CNOT",
    "CZ",
    "H",
    "MeasurementError",
    "Z",
    "apply_matrix",
    "cnot",
    "cz",
    "enumerate_measure",
    "hadamard",
    "pauli_z",
    "qft_matrix",
    "TruncationLeakageError",
    "apply_linear_optics",
    "beam_splitter",
    "coherent_amplitudes",
    "linear_optics_matrix",
    "loss_mixer",
    "lossy_detector",
    "SupportState",
]
