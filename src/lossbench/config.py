"""Run-configuration documents: parsing, validation, and assembly.

A run config is a JSON object with sections ``gateset``, ``noise``,
``state``, ``detector``, ``protocol`` and ``seed`` (plus optional
``output_dir``).  Unknown keys are rejected at every level and validation
errors carry the path of the offending field.  Numbers must be finite:
``NaN``, ``Infinity`` and integers too large for a float are rejected, as
are integer literals longer than Python converts (4300 digits by default).

Each section is judged in one pass that reports every bad field; a check
that needs other fields (the detector model, the Kraus sum, the order of
the lengths, start <= stop) is made once those fields are valid.

Explicit complex matrices are written as nested arrays of [re, im] pairs.
Leakage runs are assembled automatically: the qubit gate set is embedded
into a qutrit with the configured (or seed-resolved) extra-level phase, and
the state and detector are padded with a zero row and column.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    MeasurementOperator,
    QuantumChannel,
    basis_state,
    maximally_mixed,
    stream,
    validate_state,
)
from .gates import clifford_gateset, embed_gateset, pad_to_qutrit, pauli_gateset
from .noise import (
    basis_loss_channel,
    coherent_leakage_error,
    detector_model,
    random_orthonormal_basis,
)
from .protocol import M_GRID_LIMIT, ProtocolConfig

REQUIRED_SECTIONS = ("gateset", "noise", "state", "detector", "protocol", "seed")
_TOP_LEVEL_KEYS = frozenset(REQUIRED_SECTIONS) | {"output_dir"}

# Tag for the sub-stream that resolves theta = "random"; disjoint from the
# engine's per-length streams, which use small tag integers in a 4-word key.
_THETA_STREAM_TAG = 1_000_000_007


class ConfigError(ValueError):
    """One or more config violations, each message prefixed by a field path."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """A fully assembled run: protocol inputs plus the names the run record adds."""

    protocol: ProtocolConfig
    output_dir: str | None
    gateset_name: str
    noise_type: str
    resolved_theta: float | None


class _HugeInteger:
    """An integer literal of more digits than Python converts (sys.get_int_max_str_digits).

    Neither an int nor a str, so every field rule rejects it, by its path.
    """

    def __init__(self, literal: str):
        self.digits = len(literal.lstrip("-"))

    def __repr__(self):
        return f"<integer of {self.digits} digits>"


def _parse_int(literal: str):
    """json.loads' integer hook: the int, or a _HugeInteger where int() refuses the digits."""
    try:
        return int(literal)
    except ValueError:
        return _HugeInteger(literal)


def _is_number(value) -> bool:
    """A JSON number, not a bool, whose float is finite (huge integers overflow)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _integer(value, path: str, least: int, errors: list, also: str = "") -> int | None:
    """``value`` if it is an integer >= ``least`` (0 or 1); else None, with an error."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= least:
        return value
    kind = "positive" if least else "nonnegative"
    errors.append(f"{path}: expected a {kind} integer{also}, got {value!r}")
    return None


def _keys(section: dict, path: str, allowed, errors: list, required=(), missing="required"):
    """Append an error for each unknown key and each ``required`` key absent from ``section``."""
    prefix = f"{path}." if path else ""
    errors += [f"{prefix}{key}: unknown key" for key in sorted(set(section) - set(allowed))]
    errors += [f"{prefix}{key}: {missing}" for key in required if key not in section]


def _parse_qubit_matrix(data, path: str, errors: list) -> np.ndarray | None:
    """A 2x2 complex matrix from [re, im] pairs; every explicit matrix is a qubit's."""
    # An object array keeps each JSON value as parsed, so strings and bools
    # reach _is_number instead of being converted by numpy.
    arr = np.array(data, dtype=object)
    if not all(_is_number(v) for v in arr.flat):
        errors.append(f"{path}: expected a nested array of finite [re, im] pairs")
    elif arr.shape != (2, 2, 2):
        errors.append(f"{path}: expected a 2x2 matrix of [re, im] pairs, got {arr.shape}")
    else:
        return arr[..., 0].astype(float) + 1j * arr[..., 1].astype(float)
    return None


# Each section validator takes its JSON value and the document's error list,
# appends one message per bad field and returns the parsed section.  A check
# that reads other fields runs only if they added no error since ``before``.


def _validate_gateset(value, errors: list) -> str:
    if value not in ("pauli", "clifford"):
        errors.append(f"gateset: expected 'pauli' or 'clifford', got {value!r}")
    return value


def _validate_noise(value, errors: list) -> tuple | None:
    """(type, channel); leakage gives (epsilon, theta, hamiltonian_seed) for _assemble."""
    if not isinstance(value, dict):
        errors.append("noise: expected an object with a 'type' key")
        return None
    ntype = value.get("type")
    if ntype == "loss":
        _keys(value, "noise", ("type", "alpha", "level"), errors)
        before = len(errors)
        alpha, level = value.get("alpha"), value.get("level")
        if not _is_number(alpha) or not 0.0 <= alpha <= 1.0:
            errors.append(f"noise.alpha: expected a number in [0, 1], got {alpha!r}")
        if level not in (0, 1) or isinstance(level, bool):
            errors.append(f"noise.level: expected 0 or 1 (qubit basis level), got {level!r}")
        if len(errors) == before:
            return "loss", basis_loss_channel(float(alpha), int(level), dim=2)
    elif ntype == "leakage":
        _keys(value, "noise", ("type", "epsilon", "theta", "hamiltonian_seed"), errors)
        before = len(errors)
        epsilon, theta = value.get("epsilon"), value.get("theta")
        if not _is_number(epsilon) or epsilon <= 0.0:
            errors.append(f"noise.epsilon: expected a positive number, got {epsilon!r}")
        if theta != "random" and not _is_number(theta):
            errors.append(f"noise.theta: expected a number or 'random', got {theta!r}")
        h_seed = _integer(value.get("hamiltonian_seed"), "noise.hamiltonian_seed", 0, errors)
        if len(errors) == before:
            theta = theta if theta == "random" else float(theta)
            return "leakage", (float(epsilon), theta, h_seed)
    elif ntype == "kraus":
        _keys(value, "noise", ("type", "operators"), errors)
        before = len(errors)
        ops = value.get("operators")
        if not isinstance(ops, list) or not ops:
            errors.append("noise.operators: expected a nonempty list of matrices")
            return None
        kraus = [
            _parse_qubit_matrix(op, f"noise.operators[{i}]", errors) for i, op in enumerate(ops)
        ]
        if len(errors) == before:
            try:
                return "kraus", QuantumChannel(tuple(kraus))
            except ValueError as exc:
                errors.append(f"noise.operators: {exc}")
    else:
        errors.append(f"noise.type: expected 'loss', 'leakage' or 'kraus', got {ntype!r}")
    return None


def _validate_state(value, errors: list) -> DensityMatrix | None:
    presets = ("zero", "one", "maximally_mixed")
    if value == "maximally_mixed":
        return maximally_mixed(2)
    if value in presets:
        return basis_state(2, presets.index(value))
    if isinstance(value, str):
        errors.append(
            f"state: expected one of {presets} or an object with 'matrix', got {value!r}"
        )
    elif isinstance(value, dict):
        _keys(value, "state", ["matrix"], errors, ["matrix"], "required for an explicit state")
        if "matrix" in value:
            matrix = _parse_qubit_matrix(value["matrix"], "state.matrix", errors)
            if matrix is not None:
                rho = DensityMatrix(matrix)
                errors += [f"state.matrix: {message}" for message in validate_state(rho)]
                return rho
    else:
        errors.append(f"state: expected a preset name or an object, got {value!r}")
    return None


def _validate_detector(value, errors: list) -> MeasurementOperator | None:
    if not isinstance(value, dict):
        errors.append("detector: expected an object")
        return None
    _keys(value, "detector", ("eigenvalues", "basis_seed", "basis"), errors)
    before = len(errors)
    eigs = value.get("eigenvalues")
    if not isinstance(eigs, list) or len(eigs) != 2:
        errors.append(
            f"detector.eigenvalues: expected a list of 2 entries (qubit detector), got {eigs!r}"
        )
    else:
        for i, e in enumerate(eigs):
            if not _is_number(e) or not 0.0 <= e <= 1.0:
                errors.append(f"detector.eigenvalues[{i}] = {e!r} outside [0, 1]")
    has_seed, has_basis = "basis_seed" in value, "basis" in value
    if has_seed == has_basis:
        errors.append("detector: give exactly one of basis_seed and basis")
    seed = _integer(value["basis_seed"], "detector.basis_seed", 0, errors) if has_seed else None
    basis = _parse_qubit_matrix(value["basis"], "detector.basis", errors) if has_basis else None
    if len(errors) == before:
        try:
            return detector_model(eigs, random_orthonormal_basis(2, seed) if has_seed else basis)
        except ValueError as exc:
            errors.append(f"detector: {exc}")
    return None


# Bounds the longest length, and so the entry count, as ProtocolConfig does.
_M_GRID_TOO_LONG = f"protocol.m_grid: lengths must be at most {M_GRID_LIMIT}"


def _validate_m_grid(value, errors: list) -> tuple | None:
    if isinstance(value, list):
        before = len(errors)
        grid = tuple(_integer(m, f"protocol.m_grid[{i}]", 1, errors) for i, m in enumerate(value))
        if not grid:
            errors.append("protocol.m_grid: must be nonempty")
        elif len(errors) == before:
            if any(b <= a for a, b in zip(grid, grid[1:])):
                errors.append("protocol.m_grid: must be strictly increasing")
            if max(grid) > M_GRID_LIMIT:
                errors.append(_M_GRID_TOO_LONG)
        return grid
    if isinstance(value, dict):
        _keys(value, "protocol.m_grid", ("start", "stop", "step"), errors)
        before = len(errors)
        start, stop, step = (
            _integer(value.get(key), f"protocol.m_grid.{key}", 1, errors)
            for key in ("start", "stop", "step")
        )
        if len(errors) > before:
            return None
        if start > stop:
            errors.append("protocol.m_grid: start must not exceed stop")
            return None
        # The last entry is read off the range: its len() overflows past 2**63.
        grid = range(start, stop + 1, step)
        if grid[-1] > M_GRID_LIMIT:
            errors.append(_M_GRID_TOO_LONG)
            return None
        return tuple(grid)
    errors.append(f"protocol.m_grid: expected a list or {{start, stop, step}}, got {value!r}")
    return None


def _validate_protocol(value, errors: list) -> dict | None:
    if not isinstance(value, dict):
        errors.append("protocol: expected an object")
        return None
    allowed = ("m_grid", "n_sequences", "shots", "variant")
    _keys(value, "protocol", allowed, errors, required=allowed[:2])
    m_grid = _validate_m_grid(value["m_grid"], errors) if "m_grid" in value else None
    n_seq = value.get("n_sequences")
    n_seq = _integer(n_seq, "protocol.n_sequences", 1, errors) if "n_sequences" in value else None
    shots = value.get("shots", "exact")
    if shots == "exact":
        shots = None
    else:
        shots = _integer(shots, "protocol.shots", 1, errors, " or 'exact'")
    variant = value.get("variant", "loss")
    if variant not in ("loss", "rb"):
        errors.append(f"protocol.variant: expected 'loss' or 'rb', got {variant!r}")
    return {"m_grid": m_grid, "n_sequences": n_seq, "shots": shots, "variant": variant}


def parse_config(text: str, seed_override: int | None = None) -> RunConfig:
    """Parse and assemble a run-configuration document.

    Raises :class:`ConfigError` carrying every detected violation; on
    success the returned config is ready for the protocol engine.
    """
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"syntax error: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected an object"])

    errors = []
    _keys(doc, "", _TOP_LEVEL_KEYS, errors, REQUIRED_SECTIONS, "required section is missing")
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        errors.append(f"output_dir: expected a string, got {output_dir!r}")
    parsers = {
        "gateset": _validate_gateset,
        "seed": lambda value, errors: _integer(value, "seed", 0, errors),
        "noise": _validate_noise,
        "state": _validate_state,
        "detector": _validate_detector,
        "protocol": _validate_protocol,
    }
    sections = {name: parse(doc[name], errors) for name, parse in parsers.items() if name in doc}
    if seed_override is not None:
        sections["seed"] = _integer(seed_override, "seed", 0, errors)
    if errors:
        raise ConfigError(errors)
    return _assemble(sections, output_dir)


def _assemble(sections: dict, output_dir) -> RunConfig:
    seed = sections["seed"]
    gateset = pauli_gateset() if sections["gateset"] == "pauli" else clifford_gateset()
    rho0, q_op = sections["state"], sections["detector"]
    noise_type, noise = sections["noise"]
    resolved_theta = None
    if noise_type == "leakage":
        epsilon, theta, hamiltonian_seed = noise
        if theta == "random":
            theta = float(stream(seed, _THETA_STREAM_TAG).uniform(0.0, 2.0 * math.pi))
        resolved_theta = theta
        noise = coherent_leakage_error(epsilon, hamiltonian_seed)
        gateset = embed_gateset(gateset, theta)
        rho0 = DensityMatrix(pad_to_qutrit(rho0.matrix))
        q_op = MeasurementOperator(pad_to_qutrit(q_op.matrix))
    try:
        protocol = ProtocolConfig(
            gateset=gateset,
            noise=noise,
            rho0=rho0,
            q_op=q_op,
            master_seed=seed,
            **sections["protocol"],
        )
    except ValueError as exc:
        raise ConfigError([f"protocol: {exc}"]) from None
    return RunConfig(
        protocol=protocol,
        output_dir=output_dir,
        gateset_name=sections["gateset"],
        noise_type=noise_type,
        resolved_theta=resolved_theta,
    )
