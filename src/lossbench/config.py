"""Run-configuration documents: parsing, validation, and assembly.

A run config is a JSON object with sections ``gateset``, ``noise``,
``state``, ``detector``, ``protocol`` and ``seed`` (plus optional
``output_dir``).  Unknown keys are rejected at every level and validation
errors carry the path of the offending field.  Numbers must be finite:
``NaN``, ``Infinity`` and integers too large for a float are rejected.

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
from .noise import basis_loss_channel, coherent_leakage_error, detector_model
from .protocol import ProtocolConfig

REQUIRED_SECTIONS = ("gateset", "noise", "state", "detector", "protocol", "seed")
_TOP_LEVEL_KEYS = frozenset(REQUIRED_SECTIONS) | {"output_dir"}

# Tag for the sub-stream that resolves theta = "random"; disjoint from the
# per-sequence streams, which use small tag integers in a 4-word key.
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


def _is_number(value) -> bool:
    """A JSON number, not a bool, whose float is finite (huge integers overflow)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(section: dict, path: str, allowed) -> list:
    return [f"{path}.{key}: unknown key" for key in sorted(set(section) - set(allowed))]


def _parse_qubit_matrix(data, path: str) -> np.ndarray:
    """A 2x2 complex matrix from [re, im] pairs; every explicit matrix is a qubit's."""
    # An object array keeps each JSON value as parsed, so strings and bools
    # reach _is_number instead of being converted by numpy.
    arr = np.array(data, dtype=object)
    if not all(_is_number(v) for v in arr.flat):
        raise ConfigError([f"{path}: expected a nested array of finite [re, im] pairs"])
    if arr.shape != (2, 2, 2):
        raise ConfigError([f"{path}: expected a 2x2 matrix of [re, im] pairs, got {arr.shape}"])
    arr = arr.astype(float)
    return arr[..., 0] + 1j * arr[..., 1]


def _validate_gateset(value) -> str:
    if value not in ("pauli", "clifford"):
        raise ConfigError([f"gateset: expected 'pauli' or 'clifford', got {value!r}"])
    return value


def _validate_seed(value) -> int:
    if not _is_int(value) or value < 0:
        raise ConfigError([f"seed: expected a nonnegative integer, got {value!r}"])
    return value


def _validate_noise(value) -> tuple:
    """(type, channel); leakage gives (epsilon, theta, hamiltonian_seed) for _assemble."""
    if not isinstance(value, dict):
        raise ConfigError(["noise: expected an object with a 'type' key"])
    ntype = value.get("type")
    if ntype == "loss":
        errors = _check_keys(value, "noise", ("type", "alpha", "level"))
        alpha = value.get("alpha")
        level = value.get("level")
        if not _is_number(alpha) or not 0.0 <= alpha <= 1.0:
            errors.append(f"noise.alpha: expected a number in [0, 1], got {alpha!r}")
        if level not in (0, 1) or isinstance(level, bool):
            errors.append(f"noise.level: expected 0 or 1 (qubit basis level), got {level!r}")
        if errors:
            raise ConfigError(errors)
        return "loss", basis_loss_channel(float(alpha), int(level), dim=2)
    if ntype == "leakage":
        errors = _check_keys(value, "noise", ("type", "epsilon", "theta", "hamiltonian_seed"))
        epsilon = value.get("epsilon")
        theta = value.get("theta")
        h_seed = value.get("hamiltonian_seed")
        if not _is_number(epsilon) or epsilon <= 0.0:
            errors.append(f"noise.epsilon: expected a positive number, got {epsilon!r}")
        if theta != "random" and not _is_number(theta):
            errors.append(f"noise.theta: expected a number or 'random', got {theta!r}")
        if not _is_int(h_seed) or h_seed < 0:
            errors.append(
                f"noise.hamiltonian_seed: expected a nonnegative integer, got {h_seed!r}"
            )
        if errors:
            raise ConfigError(errors)
        return "leakage", (float(epsilon), theta if theta == "random" else float(theta), h_seed)
    if ntype == "kraus":
        errors = _check_keys(value, "noise", ("type", "operators"))
        if errors:
            raise ConfigError(errors)
        ops = value.get("operators")
        if not isinstance(ops, list) or not ops:
            raise ConfigError(["noise.operators: expected a nonempty list of matrices"])
        kraus = tuple(_parse_qubit_matrix(op, f"noise.operators[{i}]") for i, op in enumerate(ops))
        try:
            return "kraus", QuantumChannel(2, kraus)
        except ValueError as exc:
            raise ConfigError([f"noise.operators: {exc}"]) from None
    raise ConfigError(
        [f"noise.type: expected 'loss', 'leakage' or 'kraus', got {ntype!r}"]
    )


def _validate_state(value) -> DensityMatrix:
    presets = ("zero", "one", "maximally_mixed")
    if isinstance(value, str):
        if value not in presets:
            raise ConfigError(
                [f"state: expected one of {presets} or an object with 'matrix', got {value!r}"]
            )
        if value == "maximally_mixed":
            return maximally_mixed(2)
        return basis_state(2, 0 if value == "zero" else 1)
    if isinstance(value, dict):
        errors = _check_keys(value, "state", ("matrix",))
        if errors:
            raise ConfigError(errors)
        if "matrix" not in value:
            raise ConfigError(["state.matrix: required for an explicit state"])
        rho = DensityMatrix(2, _parse_qubit_matrix(value["matrix"], "state.matrix"))
        problems = validate_state(rho)
        if problems:
            raise ConfigError([f"state.matrix: {v.message}" for v in problems])
        return rho
    raise ConfigError([f"state: expected a preset name or an object, got {value!r}"])


def _validate_detector(value) -> MeasurementOperator:
    if not isinstance(value, dict):
        raise ConfigError(["detector: expected an object"])
    errors = _check_keys(value, "detector", ("eigenvalues", "basis_seed", "basis"))
    eigs = value.get("eigenvalues")
    if not isinstance(eigs, list) or len(eigs) != 2:
        errors.append(
            f"detector.eigenvalues: expected a list of 2 entries (qubit detector), got {eigs!r}"
        )
        eigs = None
    else:
        for i, e in enumerate(eigs):
            if not _is_number(e) or not 0.0 <= e <= 1.0:
                errors.append(f"detector.eigenvalues[{i}] = {e!r} outside [0, 1]")
    has_seed = "basis_seed" in value
    has_basis = "basis" in value
    if has_seed == has_basis:
        errors.append("detector: give exactly one of basis_seed and basis")
    if has_seed and (not _is_int(value["basis_seed"]) or value["basis_seed"] < 0):
        errors.append(
            f"detector.basis_seed: expected a nonnegative integer, got {value['basis_seed']!r}"
        )
    basis = None
    if has_basis and not errors:
        basis = _parse_qubit_matrix(value["basis"], "detector.basis")
    if errors:
        raise ConfigError(errors)
    try:
        return detector_model(eigs, value.get("basis_seed"), basis)
    except ValueError as exc:
        raise ConfigError([f"detector: {exc}"]) from None


def _validate_m_grid(value) -> tuple:
    if isinstance(value, list):
        if not value:
            raise ConfigError(["protocol.m_grid: must be nonempty"])
        errors = []
        for i, m in enumerate(value):
            if not _is_int(m) or m < 1:
                errors.append(f"protocol.m_grid[{i}]: expected a positive integer, got {m!r}")
        if errors:
            raise ConfigError(errors)
        if any(b <= a for a, b in zip(value, value[1:])):
            raise ConfigError(["protocol.m_grid: must be strictly increasing"])
        return tuple(value)
    if isinstance(value, dict):
        errors = _check_keys(value, "protocol.m_grid", ("start", "stop", "step"))
        fields = {}
        for key in ("start", "stop", "step"):
            v = value.get(key)
            if not _is_int(v) or v < 1:
                errors.append(f"protocol.m_grid.{key}: expected a positive integer, got {v!r}")
            else:
                fields[key] = v
        if not errors and fields["start"] > fields["stop"]:
            errors.append("protocol.m_grid: start must not exceed stop")
        if errors:
            raise ConfigError(errors)
        return tuple(range(fields["start"], fields["stop"] + 1, fields["step"]))
    raise ConfigError(
        [f"protocol.m_grid: expected a list or {{start, stop, step}}, got {value!r}"]
    )


def _validate_protocol(value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(["protocol: expected an object"])
    errors = _check_keys(
        value, "protocol", ("m_grid", "n_sequences", "shots", "variant")
    )
    if "m_grid" not in value:
        errors.append("protocol.m_grid: required")
    if "n_sequences" not in value:
        errors.append("protocol.n_sequences: required")
    if errors:
        raise ConfigError(errors)
    m_grid = _validate_m_grid(value["m_grid"])
    n_seq = value["n_sequences"]
    if not _is_int(n_seq) or n_seq < 1:
        raise ConfigError(
            [f"protocol.n_sequences: expected a positive integer, got {n_seq!r}"]
        )
    shots = value.get("shots", "exact")
    if shots == "exact":
        shots = None
    elif not _is_int(shots) or shots < 1:
        raise ConfigError(
            [f"protocol.shots: expected a positive integer or 'exact', got {shots!r}"]
        )
    variant = value.get("variant", "loss")
    if variant not in ("loss", "rb"):
        raise ConfigError([f"protocol.variant: expected 'loss' or 'rb', got {variant!r}"])
    return {"m_grid": m_grid, "n_sequences": n_seq, "shots": shots, "variant": variant}


def parse_config(text: str, seed_override: int | None = None) -> RunConfig:
    """Parse and assemble a run-configuration document.

    Raises :class:`ConfigError` carrying every detected violation; on
    success the returned config is ready for the protocol engine.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"syntax error: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected an object"])

    errors = [f"{s}: required section is missing" for s in REQUIRED_SECTIONS if s not in doc]
    errors += [f"{k}: unknown key" for k in sorted(set(doc) - _TOP_LEVEL_KEYS)]
    if errors:
        raise ConfigError(errors)

    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        errors.append(f"output_dir: expected a string, got {output_dir!r}")

    sections = {}
    validators = {
        "gateset": _validate_gateset,
        "seed": _validate_seed,
        "noise": _validate_noise,
        "state": _validate_state,
        "detector": _validate_detector,
        "protocol": _validate_protocol,
    }
    for name, validate in validators.items():
        try:
            sections[name] = validate(doc[name])
        except ConfigError as exc:
            errors.extend(exc.errors)
    if errors:
        raise ConfigError(errors)

    if seed_override is not None:
        sections["seed"] = _validate_seed(seed_override)
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
        rho0 = DensityMatrix(3, pad_to_qutrit(rho0.matrix))
        q_op = MeasurementOperator(3, pad_to_qutrit(q_op.matrix))
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
