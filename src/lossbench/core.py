"""Dense linear algebra for small Hilbert spaces (d <= ~8).

States, channels and measurement operators are thin immutable wrappers
around complex numpy matrices, each reading its dimension off its matrix.
States may be sub-normalized (trace < 1): lossy channels shrink the trace
and nothing in this package ever renormalizes silently.  Hermiticity and
unitarity are measured by :func:`hermiticity_deviation` and
:func:`unitarity_deviation` alone, and a NaN or overflowing deviation fails
its check.  Channels act on states only through :func:`coordinates` and
:func:`transfer_matrix`: real vectors and real matrices in one orthonormal
Hermitian operator basis, a whole stack of Kraus sets per call.  The
one-state Kraus sum (``apply_channel``) is a test reference in
``tests/support.py``.

Random draws come from numpy's PCG64 streams keyed by integer tuples
(:func:`stream`, which seeds through ``default_rng``); every draw is one of
numpy's own ``Generator`` methods on such a stream.

Tolerance conventions:
  * 1e-12 for properties guaranteed by construction (hermiticity,
    unitarity, positivity of freshly built operators),
  * 1e-10 for properties degraded by accumulated arithmetic
    (trace-non-increase of composed channels, probability clamping).
"""

import itertools
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-12
TRACE_ATOL = 1e-12
ARITHMETIC_ATOL = 1e-10

# The longest sequence length a grid or dataset may hold.  A strictly
# increasing list of positive lengths has no more entries than its longest
# length, so this one bound caps the entry count too.
M_GRID_LIMIT = 1_000_000


def _count(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``; ValueError naming ``name`` otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        try:
            got = repr(value)
        except ValueError:  # an integer of more digits than Python converts to a string
            got = "an integer too long to print"
        raise ValueError(f"{name} must be an integer >= {least}, got {got}")
    return count


def _real(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a real number."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range, whose digits are not repeated
        raise ValueError(f"{name} must be a real number within the float range") from None


def _lengths(name: str, values) -> tuple:
    """``values`` as a tuple of ints, strictly increasing from >= 1 to at most
    M_GRID_LIMIT; ValueError otherwise.  The messages name the first bad
    entry by its index and format no entry, so their size does not grow
    with the input."""
    lengths = []
    try:
        # extend keeps the entries converted before the one that fails.
        lengths.extend(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} entries must be integers: entry {len(lengths)} is not") from None
    if not lengths:
        raise ValueError(f"{name} must be nonempty")
    if lengths[0] < 1:
        raise ValueError(f"{name} must be strictly increasing positive: entry 0 is below 1")
    bad = next(itertools.compress(itertools.count(1), map(operator.le, lengths[1:], lengths)), 0)
    if bad:
        raise ValueError(
            f"{name} must be strictly increasing positive: entry {bad} is not above entry {bad - 1}"
        )
    if lengths[-1] > M_GRID_LIMIT:
        raise ValueError(f"{name} lengths must be at most {M_GRID_LIMIT}")
    return tuple(lengths)


def stream(*key: int) -> "np.random.Generator":
    """Return an RNG stream keyed by a tuple of nonnegative integers: ``default_rng(key)``.

    The mapping key -> stream is fixed, so simulation results do not depend
    on the order in which tasks run.  numpy seeds from the key's
    little-endian 32-bit words (at least one per integer, in key order) and
    hashes a word missing from its 4-word pool as a zero word, so keys whose
    words differ only by trailing zero words, up to 4 words, give the same
    stream: ``stream(s, a, b)`` draws what ``stream(s, a, b, 0)`` draws.
    Keys with the same number of words, or past 4 words, give statistically
    independent streams when distinct.  A stream is stateful: each key
    should feed one block of draws, such as all of one length's gate words,
    made by one caller.
    """
    for k in key:
        _count("stream key", k, 0)
    # One uint32 word per key skips numpy's tuple coercion: 9.2 vs 11.8 us a stream (2-core Xeon).
    words = np.array(key, dtype=np.uint32) if max(key, default=0) < 2**32 else key
    return np.random.default_rng(words)


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """(A + A^H)/2, halved first so that no finite entry overflows; steadies eigensolvers."""
    return matrix / 2.0 + matrix.conj().T / 2.0


def hermiticity_deviation(matrix: np.ndarray) -> float:
    """max |M - M^H|: NaN for a NaN entry, inf where the difference overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(matrix - matrix.conj().T)))


def unitarity_deviation(matrix: np.ndarray) -> float:
    """max |U^H U - I|: NaN for a NaN entry, inf where the product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(len(matrix)))))


def _as_square_complex(matrix, what: str, dim: int | None = None) -> np.ndarray:
    """A read-only complex copy of the nonempty square ``matrix``, ``dim`` x ``dim``
    when ``dim`` is given; ValueError naming ``what`` otherwise."""
    shape = "nonempty square" if dim is None else f"{dim}x{dim}"
    try:
        mat = np.array(matrix, dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValueError(f"{what}: expected a {shape} matrix of numbers, got {matrix!r}") from None
    size = len(mat) if mat.ndim == 2 else -1
    if mat.shape != (size, size) or not size or dim not in (None, size):
        raise ValueError(f"{what}: expected a {shape} matrix, got shape {mat.shape}")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d density matrix, possibly sub-normalized (0 < trace <= 1).

    ``dim`` is read off the matrix.  The constructor checks only that the
    matrix is square; physical invariants (hermiticity, positivity, trace
    range) are reported by :func:`validate_state` so that deliberately
    invalid matrices can be constructed and diagnosed.
    """

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        mat = _as_square_complex(self.matrix, "DensityMatrix")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dim", len(mat))

    @property
    def trace(self) -> float:
        """Real part of the trace; inf where the diagonal sums past the float range."""
        with np.errstate(over="ignore"):
            return float(np.real(np.trace(self.matrix)))


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive trace-non-increasing map given by Kraus operators.

    The map acts as rho -> sum_i K_i rho K_i^H, and ``dim`` is read off the
    first K_i.  Validity (sum_i K_i^H K_i bounded above by the identity) is
    enforced at construction, which keeps that sum M, made exactly
    Hermitian, as ``survival_operator`` and its ``eigh`` pair (ascending
    eigenvalues, eigenvector columns) as ``survival_spectrum``.  Tr(rho M)
    is the trace surviving on a state rho.
    """

    kraus: tuple
    dim: int = field(init=False)
    survival_operator: np.ndarray = field(init=False, repr=False, compare=False)
    survival_spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = []
        for i, k in enumerate(self.kraus):
            dim = len(ops[0]) if ops else None
            ops.append(_as_square_complex(k, f"QuantumChannel kraus[{i}]", dim))
        if not ops:
            raise ValueError("QuantumChannel needs at least one Kraus operator")
        object.__setattr__(self, "kraus", tuple(ops))
        object.__setattr__(self, "dim", len(ops[0]))

        # Every entry of a valid Kraus operator has modulus <= 1; checking the
        # real and imaginary parts first keeps sum K^H K from overflowing.
        part = float(np.max(np.abs(np.stack(ops).view(np.float64))))
        if not part <= 1.0 + ARITHMETIC_ATOL:  # NaN fails too
            raise ValueError(
                f"QuantumChannel is trace-increasing: a Kraus entry has a part {part!r} > 1"
            )
        m = hermitian_part(sum(k.conj().T @ k for k in ops))
        eigs, vecs = np.linalg.eigh(m)
        if eigs[-1] > 1.0 + ARITHMETIC_ATOL:
            raise ValueError(
                f"QuantumChannel is trace-increasing: largest eigenvalue of "
                f"sum K^H K is {float(eigs[-1])!r} > 1"
            )
        for a in (m, eigs, vecs):
            a.setflags(write=False)
        object.__setattr__(self, "survival_operator", m)
        object.__setattr__(self, "survival_spectrum", (eigs, vecs))


@dataclass(frozen=True)
class MeasurementOperator:
    """A POVM element Q, 0 <= Q <= identity, enforced at construction; ``dim`` is read off Q."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        mat = _as_square_complex(self.matrix, "MeasurementOperator")
        asym = hermiticity_deviation(mat)
        if not asym <= HERMITICITY_ATOL:
            raise ValueError(
                f"MeasurementOperator is not Hermitian (deviation {asym:.3e})"
            )
        eigs = np.linalg.eigvalsh(hermitian_part(mat)).tolist()
        if eigs[0] < -EIGENVALUE_ATOL or eigs[-1] > 1.0 + EIGENVALUE_ATOL:
            raise ValueError(
                f"MeasurementOperator eigenvalues outside [0, 1]: "
                f"min {eigs[0]!r}, max {eigs[-1]!r}"
            )
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dim", len(mat))


def basis_state(dim: int, level: int) -> DensityMatrix:
    """The pure state |level><level| on a d-dimensional space."""
    dim, level = _count("dim", dim, 1), _count("level", level, 0)
    if not level < dim:
        raise ValueError(f"level must be in [0, {dim}), got {level}")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[level, level] = 1.0
    return DensityMatrix(mat)


def maximally_mixed(dim: int) -> DensityMatrix:
    """The maximally mixed state, identity/d."""
    dim = _count("dim", dim, 1)
    return DensityMatrix(np.eye(dim, dtype=np.complex128) / dim)


def validate_state(rho: DensityMatrix) -> list:
    """Check all density-matrix invariants and return one message per violation.

    Returns an empty list when ``rho`` is a valid (possibly sub-normalized)
    state.  Checked invariants, in this order: hermiticity to 1e-12 (a NaN
    entry fails it), eigenvalues >= -1e-12, and 0 < trace <= 1 + 1e-12.
    """
    messages = []
    mat = rho.matrix
    asym = hermiticity_deviation(mat)
    if not asym <= HERMITICITY_ATOL:
        messages.append(f"max |rho - rho^H| = {asym:.3e}")
    eigs = np.linalg.eigvalsh(hermitian_part(mat)).tolist()
    if eigs[0] < -EIGENVALUE_ATOL:
        messages.append(f"smallest eigenvalue {eigs[0]!r} < -{EIGENVALUE_ATOL}")
    tr = rho.trace
    if not 0.0 < tr <= 1.0 + TRACE_ATOL:
        messages.append(f"trace {tr!r} outside (0, 1]")
    return messages


def hermitian_basis(dim: int) -> np.ndarray:
    """An orthonormal basis of the d x d Hermitian operators, shape (d^2, d, d).

    The units are |i><i| for each level i, then for each pair i < j
    (|i><j| + |j><i|)/sqrt(2) and i(|j><i| - |i><j|)/sqrt(2).  They are
    orthonormal under Tr(A^H B), and every Hermitian operator is a real
    combination of them.
    """
    units = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    units[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    a = dim
    half = np.sqrt(0.5)
    for i in range(dim):
        for j in range(i + 1, dim):
            units[a, i, j] = units[a, j, i] = half
            units[a + 1, j, i] = 1j * half
            units[a + 1, i, j] = -1j * half
            a += 2
    return units


def coordinates(matrix) -> np.ndarray:
    """The real coordinates Tr(E_a M) of a Hermitian M in :func:`hermitian_basis`.

    M = sum_a r_a E_a, and for Hermitian A and B, Tr(A B) is the dot product
    of their coordinate vectors.  The imaginary parts, which vanish for
    Hermitian M, are dropped.
    """
    matrix = np.asarray(matrix)
    basis = hermitian_basis(matrix.shape[0])
    return np.einsum("aji,ij->a", basis, matrix).real


def transfer_matrix(kraus) -> np.ndarray:
    """The real d^2 x d^2 transfer matrices of maps rho -> sum_i K_i rho K_i^H.

    ``kraus`` is one Kraus set, shaped (n_kraus, d, d), or a stack of them
    with leading axes, shaped (..., n_kraus, d, d); the result is a
    C-contiguous (..., d^2, d^2) real array.  Entry (a, b) is
    Tr(E_a K(E_b)) in :func:`hermitian_basis`, so the map sends coordinates
    r to T r, and composing maps multiplies their matrices.  It is computed
    as T = B (sum_i K_i (x) conj(K_i)) B^H: one einsum builds the Kronecker
    sum, and B is the unitary whose row a is conj(vec(E_a)) for row-major
    vec.  Any Kraus map keeps operators Hermitian, so T is real; the
    imaginary rounding residue is dropped.  Every set's matrix has the bytes
    a call on that set alone gives.
    """
    kraus = np.asarray(kraus, dtype=np.complex128)
    dim = kraus.shape[-1]
    dd = dim * dim
    kron = np.einsum("...kij,...kxy->...ixjy", kraus, kraus.conj()).reshape(*kraus.shape[:-3], dd, dd)
    rows = hermitian_basis(dim).reshape(dd, dd).conj()
    return (rows @ kron @ rows.conj().T).real.copy()


def click_probabilities(traces) -> np.ndarray:
    """Checked click probabilities Re Tr(Q rho) from traces Tr(Q rho), real or complex.

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
    rng: "np.random.Generator",
) -> int:
    """Draw a click count from Binomial(shots, Tr(Q rho)).

    ``rng`` is consumed; identical stream states give identical draws.
    """
    shots = _count("shots", shots, 1)
    p = expectation(q, rho)
    return int(rng.binomial(shots, p))
