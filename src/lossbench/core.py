"""Dense complex linear algebra for small Hilbert spaces (d <= ~8).

States, channels and measurement operators are thin immutable wrappers
around complex numpy matrices.  States may be sub-normalized (trace < 1):
lossy channels shrink the trace and nothing in this package ever
renormalizes silently.

Tolerance conventions:
  * 1e-12 for properties guaranteed by construction (hermiticity,
    positivity of freshly built operators),
  * 1e-10 for properties degraded by accumulated arithmetic
    (trace-non-increase of composed channels, probability clamping).
"""

from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-12
TRACE_ATOL = 1e-12
ARITHMETIC_ATOL = 1e-10


def stream(*key: int) -> np.random.Generator:
    """Return an RNG stream keyed by a tuple of nonnegative integers.

    Streams derived from distinct keys are statistically independent, and
    the mapping key -> stream is fixed, so simulation results do not depend
    on the order in which tasks run.  One stream per logical task; streams
    are stateful and must not be shared across tasks.
    """
    return np.random.default_rng(key)


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """(A + A^H)/2; keeps eigensolvers robust against ~1e-15 asymmetry."""
    return (matrix + matrix.conj().T) / 2.0


def _as_square_complex(matrix, dim: int, what: str) -> np.ndarray:
    mat = np.array(matrix, dtype=np.complex128)
    if mat.shape != (dim, dim):
        raise ValueError(
            f"{what}: expected a {dim}x{dim} matrix, got shape {mat.shape}"
        )
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d density matrix, possibly sub-normalized (0 < trace <= 1).

    The constructor checks only the declared shape; physical invariants
    (hermiticity, positivity, trace range) are reported by
    :func:`validate_state` so that deliberately invalid matrices can be
    constructed and diagnosed.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        object.__setattr__(
            self, "matrix", _as_square_complex(self.matrix, self.dim, "DensityMatrix")
        )

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive trace-non-increasing map given by Kraus operators.

    The map acts as rho -> sum_i K_i rho K_i^H.  Validity (sum_i K_i^H K_i
    bounded above by the identity) is enforced at construction.
    """

    dim: int
    kraus: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        ops = tuple(
            _as_square_complex(k, self.dim, f"QuantumChannel kraus[{i}]")
            for i, k in enumerate(self.kraus)
        )
        if not ops:
            raise ValueError("QuantumChannel needs at least one Kraus operator")
        object.__setattr__(self, "kraus", ops)

        m = survival_operator_matrix(ops)
        asym = np.max(np.abs(m - m.conj().T))
        if not asym <= HERMITICITY_ATOL:  # NaN, from overflow, fails too
            raise ValueError(
                f"QuantumChannel: sum K^H K is not Hermitian (deviation {asym:.3e})"
            )
        top = float(np.linalg.eigvalsh(hermitian_part(m))[-1])
        if top > 1.0 + ARITHMETIC_ATOL:
            raise ValueError(
                f"QuantumChannel is trace-increasing: largest eigenvalue of "
                f"sum K^H K is {top!r} > 1"
            )


@dataclass(frozen=True)
class MeasurementOperator:
    """A POVM element Q with 0 <= Q <= identity, enforced at construction."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        mat = _as_square_complex(self.matrix, self.dim, "MeasurementOperator")
        asym = np.max(np.abs(mat - mat.conj().T))
        if asym > HERMITICITY_ATOL:
            raise ValueError(
                f"MeasurementOperator is not Hermitian (deviation {asym:.3e})"
            )
        eigs = np.linalg.eigvalsh(hermitian_part(mat))
        if eigs[0] < -EIGENVALUE_ATOL or eigs[-1] > 1.0 + EIGENVALUE_ATOL:
            raise ValueError(
                f"MeasurementOperator eigenvalues outside [0, 1]: "
                f"min {eigs[0]!r}, max {eigs[-1]!r}"
            )
        object.__setattr__(self, "matrix", mat)


def basis_state(dim: int, level: int) -> DensityMatrix:
    """The pure state |level><level| on a d-dimensional space."""
    if not 0 <= level < dim:
        raise ValueError(f"level must be in [0, {dim}), got {level}")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[level, level] = 1.0
    return DensityMatrix(dim, mat)


def maximally_mixed(dim: int) -> DensityMatrix:
    """The maximally mixed state, identity/d."""
    return DensityMatrix(dim, np.eye(dim, dtype=np.complex128) / dim)


@dataclass(frozen=True)
class Violation:
    """One violated state invariant, with the measured deviation."""

    code: str
    deviation: float
    message: str


def validate_state(rho: DensityMatrix) -> list:
    """Check all density-matrix invariants and report every violation.

    Returns an empty list when ``rho`` is a valid (possibly sub-normalized)
    state.  Checked invariants: hermiticity to 1e-12, eigenvalues >= -1e-12,
    and 0 < trace <= 1 + 1e-12.
    """
    violations = []
    mat = rho.matrix

    asym = float(np.max(np.abs(mat - mat.conj().T)))
    if asym > HERMITICITY_ATOL:
        violations.append(
            Violation("not_hermitian", asym, f"max |rho - rho^H| = {asym:.3e}")
        )

    eigs = np.linalg.eigvalsh(hermitian_part(mat))
    if eigs[0] < -EIGENVALUE_ATOL:
        violations.append(
            Violation(
                "negative_eigenvalue",
                float(eigs[0]),
                f"smallest eigenvalue {eigs[0]!r} < -{EIGENVALUE_ATOL}",
            )
        )

    tr = rho.trace
    if not 0.0 < tr <= 1.0 + TRACE_ATOL:
        violations.append(
            Violation("trace_out_of_range", tr, f"trace {tr!r} outside (0, 1]")
        )
    return violations


def _apply_kraus(kraus, mat: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mat)
    for k in kraus:
        out += k @ mat @ k.conj().T
    return out


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel: returns sum_i K_i rho K_i^H as a new state.

    The output trace never exceeds the input trace (up to 1e-12); it shrinks
    exactly by the loss the channel inflicts on ``rho``.  The output is not
    re-validated, so a deliberately invalid input propagates.
    """
    if channel.dim != rho.dim:
        raise ValueError(
            f"dimension mismatch: channel dim {channel.dim}, state dim {rho.dim}"
        )
    return DensityMatrix(rho.dim, _apply_kraus(channel.kraus, rho.matrix))


def survival_operator_matrix(kraus) -> np.ndarray:
    """sum_i K_i^H K_i for a plain sequence of Kraus matrices."""
    first = np.asarray(kraus[0])
    out = np.zeros_like(first, dtype=np.complex128)
    for k in kraus:
        k = np.asarray(k)
        out += k.conj().T @ k
    return out


def survival_operator(channel: QuantumChannel) -> np.ndarray:
    """The Hermitian operator M = sum_i K_i^H K_i, with 0 <= M <= identity.

    M carries all trace behaviour of the channel: the trace surviving the
    channel on any state rho is Tr(rho M), so the survival rate of rho is
    Tr(rho M) / Tr(rho).
    """
    return hermitian_part(survival_operator_matrix(channel.kraus))


def liouville(kraus) -> np.ndarray:
    """Row-major Liouville matrix sum_i K_i (x) conj(K_i) of a Kraus map.

    With states vectorized row-major, vec(rho) = rho.reshape(-1), the
    identity vec(A rho B) = (A (x) B^T) vec(rho) turns rho -> sum_i K_i rho
    K_i^H into this d^2 x d^2 matrix, and composing maps into multiplying
    their matrices.
    """
    return sum(np.kron(k, k.conj()) for k in kraus)


def click_probabilities(traces) -> np.ndarray:
    """Checked click probabilities Re Tr(Q rho) from complex traces Tr(Q rho).

    Values straying past [0, 1] by at most 1e-10 (arithmetic noise) are
    clamped; anything worse, or an imaginary part above 1e-10, signals
    invalid inputs and raises, naming the first offending value.
    """
    traces = np.asarray(traces, dtype=np.complex128)
    imag = np.abs(traces.imag) > ARITHMETIC_ATOL
    if imag.any():
        raise ValueError(
            f"Tr(Q rho) has imaginary part {float(traces.imag[imag][0])!r}; inputs "
            f"are not a valid (measurement, state) pair"
        )
    p = traces.real
    outside = (p < -ARITHMETIC_ATOL) | (p > 1.0 + ARITHMETIC_ATOL)
    if outside.any():
        raise ValueError(f"Tr(Q rho) = {float(p[outside][0])!r} is outside [0, 1]")
    return np.clip(p, 0.0, 1.0)


def expectation(q: MeasurementOperator, rho: DensityMatrix) -> float:
    """Click probability Re Tr(Q rho), a value in [0, 1].

    Checked and clamped by :func:`click_probabilities`.
    """
    if q.dim != rho.dim:
        raise ValueError(
            f"dimension mismatch: measurement dim {q.dim}, state dim {rho.dim}"
        )
    return float(click_probabilities(np.trace(q.matrix @ rho.matrix)))


def sample_clicks(
    q: MeasurementOperator,
    rho: DensityMatrix,
    shots: int,
    rng: np.random.Generator,
) -> int:
    """Draw a click count from Binomial(shots, Tr(Q rho)).

    ``rng`` is consumed; identical stream states give identical draws.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    p = expectation(q, rho)
    return int(rng.binomial(shots, p))
