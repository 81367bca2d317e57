"""Simulation and analysis toolkit for randomized loss-rate characterization.

Simulates random-gate-sequence experiments on small quantum systems under
trace-non-increasing noise, fits the resulting decay curves, and checks the
worst-case-vs-average loss bound, detector efficiency, and Markovianity
diagnostics.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundReport,
    DecayFit,
    DetectorEfficiency,
    MarkovReport,
    PlateauReport,
    RBFit,
    average_response,
    average_survival,
    detector_efficiency,
    fit_loss_decay,
    fit_rb_decay,
    markovianity_tests,
    plateau_test,
    prop1_check,
    state_survival,
    worst_case_loss,
)
from .config import ConfigError, RunConfig, parse_config
from .core import (
    DensityMatrix,
    MeasurementOperator,
    QuantumChannel,
    Violation,
    basis_state,
    maximally_mixed,
    stream,
    validate_state,
)
from .gates import (
    GateSet,
    clifford_gateset,
    embed_gateset,
    pad_to_qutrit,
    pauli_gateset,
)
from .noise import (
    basis_loss_channel,
    coherent_leakage_error,
    detector_model,
    random_orthonormal_basis,
)
from .protocol import (
    DecayDataset,
    ProtocolConfig,
    exact_sequence_average,
    read_decay_csv,
    run_protocol,
)

__all__ = [
    "__version__",
    "BoundReport",
    "ConfigError",
    "DecayDataset",
    "DecayFit",
    "DensityMatrix",
    "DetectorEfficiency",
    "GateSet",
    "MarkovReport",
    "MeasurementOperator",
    "PlateauReport",
    "ProtocolConfig",
    "QuantumChannel",
    "RBFit",
    "RunConfig",
    "Violation",
    "average_response",
    "average_survival",
    "basis_loss_channel",
    "basis_state",
    "clifford_gateset",
    "coherent_leakage_error",
    "detector_efficiency",
    "detector_model",
    "embed_gateset",
    "exact_sequence_average",
    "fit_loss_decay",
    "fit_rb_decay",
    "markovianity_tests",
    "maximally_mixed",
    "pad_to_qutrit",
    "parse_config",
    "pauli_gateset",
    "plateau_test",
    "prop1_check",
    "random_orthonormal_basis",
    "read_decay_csv",
    "run_protocol",
    "state_survival",
    "stream",
    "validate_state",
    "worst_case_loss",
]
