"""Composite-Hilbert-space engine: the reference routes of the tests.

The pipeline uses one of its functions, ``linear_optics_matrix``, for the
multiport ancilla table of the transfer step; ``qcore.optics`` loads only
numpy and ``qtelarray.util`` at import. The names below resolve on first use (PEP 562), so
importing this package loads none of its modules.
"""

import importlib

# public name -> the module of this package that defines it
_HOMES = {
    "Mode": "registry",
    "ModeRegistry": "registry",
    "RegistryError": "registry",
    "fock": "registry",
    "qubit": "registry",
    "qubit_registry": "registry",
    "DENSE_LIMIT": "states",
    "QuantumState": "states",
    "StateError": "states",
    "build_state": "states",
    "CNOT": "gates",
    "CZ": "gates",
    "H": "gates",
    "MeasurementError": "gates",
    "Z": "gates",
    "apply_matrix": "gates",
    "cnot": "gates",
    "cz": "gates",
    "enumerate_measure": "gates",
    "hadamard": "gates",
    "pauli_z": "gates",
    "qft_matrix": "gates",
    "TruncationLeakageError": "optics",
    "apply_linear_optics": "optics",
    "beam_splitter": "optics",
    "coherent_amplitudes": "optics",
    "linear_optics_matrix": "optics",
    "loss_mixer": "optics",
    "lossy_detector": "optics",
    "SupportState": "support",
}

__all__ = list(_HOMES)


def __getattr__(name):
    # no caching: a name always reads its module's current attribute, so a
    # wrapper set on that module (and removed again) is seen here as well
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
