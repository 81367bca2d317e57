"""Simulation and analysis toolkit for randomized loss-rate characterization.

Simulates random-gate-sequence experiments on small quantum systems under
trace-non-increasing noise, fits the resulting decay curves, and checks the
worst-case-vs-average loss bound, detector efficiency, and Markovianity
diagnostics.

Each public name is listed once, in ``_EXPORTS`` under the module that
defines it; ``__all__``, ``__getattr__`` and ``__dir__`` read that table.
``import lossbench`` loads no submodule: a name or submodule is imported on
first access (PEP 562), so ``lossbench fit`` never loads the config, noise
and gate modules and ``lossbench simulate`` never loads the analysis.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "BoundReport", "DecayFit", "DetectorEfficiency", "MarkovReport", "PlateauReport",
        "RBFit", "average_response", "average_survival", "detector_efficiency",
        "fit_loss_decay", "fit_rb_decay", "markovianity_tests", "plateau_test",
        "prop1_check", "state_survival", "worst_case_loss",
    ),
    "config": ("ConfigError", "RunConfig", "parse_config"),
    "core": (
        "DensityMatrix", "MeasurementOperator", "QuantumChannel", "basis_state",
        "maximally_mixed", "stream", "validate_state",
    ),
    "gates": ("GateSet", "clifford_gateset", "embed_gateset", "pad_to_qutrit", "pauli_gateset"),
    "noise": (
        "basis_loss_channel", "coherent_leakage_error", "detector_model",
        "random_orthonormal_basis",
    ),
    "protocol": (
        "DecayDataset", "ProtocolConfig", "exact_sequence_average", "read_decay_csv",
        "run_protocol",
    ),
}
__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
