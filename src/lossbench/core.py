"""Dense linear algebra for small Hilbert spaces (d <= ~8).

States, channels and measurement operators are thin immutable wrappers
around complex numpy matrices.  States may be sub-normalized (trace < 1):
lossy channels shrink the trace and nothing in this package ever
renormalizes silently.  Hermiticity and unitarity are measured by
:func:`hermiticity_deviation` and :func:`unitarity_deviation` alone, and a
NaN or overflowing deviation fails its check.  For composing many channels,
:func:`coordinates` and :func:`transfer_matrix` express Hermitian operators
and Kraus maps as real vectors and real matrices in one orthonormal
Hermitian operator basis; :func:`transfer_matrix` takes a whole stack of
Kraus sets in one call.

Random draws come from numpy's PCG64 streams keyed by integer tuples
(:func:`stream`, which seeds through ``default_rng``).  For many streams at
once, :func:`seed_states` runs numpy's SeedSequence hash over all key rows in
one batch and :func:`bit_generator` seeds numpy's own PCG64 from a row; the
draws are those of ``default_rng(key)``.

Tolerance conventions:
  * 1e-12 for properties guaranteed by construction (hermiticity,
    unitarity, positivity of freshly built operators),
  * 1e-10 for properties degraded by accumulated arithmetic
    (trace-non-increase of composed channels, probability clamping).
"""

import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

HERMITICITY_ATOL = 1e-12
UNITARITY_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-12
TRACE_ATOL = 1e-12
ARITHMETIC_ATOL = 1e-10


def _count(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``; ValueError naming ``name`` otherwise."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def _lengths(name: str, values) -> tuple:
    """``values`` as a tuple of ints, strictly increasing from >= 1; ValueError otherwise."""
    try:
        lengths = tuple(operator.index(m) for m in values)
    except TypeError:
        raise ValueError(f"{name} entries must be integers, got {values!r}") from None
    if not lengths:
        raise ValueError(f"{name} must be nonempty")
    if lengths[0] < 1 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"{name} must be strictly increasing positive, got {lengths}")
    return lengths


def key_words(*key: int) -> np.ndarray:
    """The uint32 entropy words numpy's SeedSequence takes from an integer key.

    Each nonnegative integer contributes its little-endian 32-bit words (at
    least one), concatenated in key order, so ``default_rng(key_words(*key))``
    and ``default_rng(key)`` are the same stream.  Handing numpy the words
    skips its per-call coercion of the tuple, and rows of a uint32 array
    built from these words seed many streams at once.
    """
    words = []
    for k in key:
        k = _count("stream key", k, 0)
        words.append(k & 0xFFFFFFFF)
        while k > 0xFFFFFFFF:
            k >>= 32
            words.append(k & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def stream(*key: int) -> np.random.Generator:
    """Return an RNG stream keyed by a tuple of nonnegative integers.

    Streams derived from distinct keys are statistically independent, and
    the mapping key -> stream is fixed, so simulation results do not depend
    on the order in which tasks run.  One stream per logical task; streams
    are stateful and must not be shared across tasks.
    """
    return np.random.default_rng(key_words(*key))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): pool size,
# the two hash multiplier chains and the mixing multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def seed_states(keys) -> np.ndarray:
    """PCG64 seed states of many streams: ``SeedSequence(row).generate_state(4, np.uint64)``.

    ``keys`` is a (streams, words) uint32 array whose rows are entropy words,
    such as those of :func:`key_words`.  numpy's pool hash runs once over all
    rows in wrapping uint32 array arithmetic: its hash constants advance the
    same way for every row, so only the data are per row.  Returns a
    C-contiguous (streams, 4) uint64 array; each row seeds
    :func:`bit_generator`.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    if keys.ndim != 2:
        raise ValueError(f"keys must be a (streams, words) array, got shape {keys.shape}")
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> _XSHIFT

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ value >> _XSHIFT

    zero = np.zeros(len(keys), dtype=np.uint32)
    n_words = keys.shape[1]
    pool = [hashmix(keys[:, i] if i < n_words else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(keys[:, src]))

    const = _INIT_B
    state = np.empty((len(keys), 8), dtype="<u4")
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(const)
        state[:, i] = value ^ value >> _XSHIFT
    return state.view("<u8").astype(np.uint64)


class _Seeded(ISpawnableSeedSequence):
    """A seed sequence whose state is already computed, for PCG64 to read."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state

    def spawn(self, n_children):
        raise NotImplementedError("a precomputed seed state cannot spawn")


def bit_generator(state) -> np.random.PCG64:
    """numpy's PCG64 seeded with one row of :func:`seed_states`.

    ``bit_generator(seed_states([words])[0])`` is the bit generator of
    ``default_rng(words)``, draw for draw: numpy's own PCG64 seeds itself
    from the precomputed state instead of hashing the words again.
    """
    # PCG64 reads the state through its data pointer: 4 contiguous uint64.
    state = np.ascontiguousarray(state, dtype=np.uint64)
    if state.shape != (4,):
        raise ValueError(f"a seed state is 4 uint64 words, got shape {state.shape}")
    return np.random.PCG64(_Seeded(state))


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


def _as_square_complex(matrix, dim: int, what: str) -> np.ndarray:
    """A read-only complex (dim, dim) copy of ``matrix``; ValueError naming ``what`` otherwise."""
    try:
        mat = np.array(matrix, dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValueError(
            f"{what}: expected a {dim}x{dim} matrix of numbers, got {matrix!r}"
        ) from None
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
        object.__setattr__(self, "dim", _count("dim", self.dim, 1))
        object.__setattr__(
            self, "matrix", _as_square_complex(self.matrix, self.dim, "DensityMatrix")
        )

    @property
    def trace(self) -> float:
        """Real part of the trace; inf where the diagonal sums past the float range."""
        with np.errstate(over="ignore"):
            return float(np.real(np.trace(self.matrix)))


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive trace-non-increasing map given by Kraus operators.

    The map acts as rho -> sum_i K_i rho K_i^H.  Validity (sum_i K_i^H K_i
    bounded above by the identity) is enforced at construction, which keeps
    that sum M, made exactly Hermitian, as ``survival_operator`` and its
    ``eigh`` pair (ascending eigenvalues, eigenvector columns) as
    ``survival_spectrum``.  Tr(rho M) is the trace surviving on a state rho.
    """

    dim: int
    kraus: tuple
    survival_operator: np.ndarray = field(init=False, repr=False, compare=False)
    survival_spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("dim", self.dim, 1))
        ops = tuple(
            _as_square_complex(k, self.dim, f"QuantumChannel kraus[{i}]")
            for i, k in enumerate(self.kraus)
        )
        if not ops:
            raise ValueError("QuantumChannel needs at least one Kraus operator")
        object.__setattr__(self, "kraus", ops)

        # Every entry of a valid Kraus operator has modulus <= 1; checking the
        # real and imaginary parts first keeps sum K^H K from overflowing.
        part = float(np.max(np.abs(np.stack(ops).view(np.float64))))
        if not part <= 1.0 + ARITHMETIC_ATOL:  # NaN fails too
            raise ValueError(
                f"QuantumChannel is trace-increasing: a Kraus entry has a part {part!r} > 1"
            )
        m = sum(k.conj().T @ k for k in ops)
        asym = hermiticity_deviation(m)
        if not asym <= HERMITICITY_ATOL:
            raise ValueError(
                f"QuantumChannel: sum K^H K is not Hermitian (deviation {asym:.3e})"
            )
        m = hermitian_part(m)
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
    """A POVM element Q with 0 <= Q <= identity, enforced at construction."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("dim", self.dim, 1))
        mat = _as_square_complex(self.matrix, self.dim, "MeasurementOperator")
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
    state.  Checked invariants: hermiticity to 1e-12 (a NaN entry fails it),
    eigenvalues >= -1e-12, and 0 < trace <= 1 + 1e-12.
    """
    violations = []
    mat = rho.matrix

    asym = hermiticity_deviation(mat)
    if not asym <= HERMITICITY_ATOL:
        violations.append(
            Violation("not_hermitian", asym, f"max |rho - rho^H| = {asym:.3e}")
        )

    eigs = np.linalg.eigvalsh(hermitian_part(mat)).tolist()
    if eigs[0] < -EIGENVALUE_ATOL:
        violations.append(
            Violation(
                "negative_eigenvalue",
                eigs[0],
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
    r to T r, and composing maps multiplies their matrices.  With B the
    unitary whose row a is conj(vec(E_a)) for row-major vec,
    T = B (sum_i K_i (x) conj(K_i)) B^H.  Any Kraus map keeps operators
    Hermitian, so T is real; the imaginary rounding residue is dropped.
    Every set's matrix has the bytes a call on that set alone gives.
    """
    kraus = np.asarray(kraus, dtype=np.complex128)
    lead, (n_kraus, dim) = kraus.shape[:-3], kraus.shape[-3:-1]
    basis = hermitian_basis(dim)
    sets = kraus.reshape(-1, n_kraus, 1, dim, dim)
    # A Python sum over the Kraus index of (K E_b) K^H, in the same order for
    # a stack as for one set; one einsum over all terms differs in the last bit.
    images = sum(k @ basis @ k.conj().swapaxes(-1, -2) for k in sets.swapaxes(0, 1))
    dd = dim * dim
    flat = np.einsum("aji,bij->ab", basis, images.reshape(-1, dim, dim)).real
    return np.ascontiguousarray(flat.reshape(dd, -1, dd).swapaxes(0, 1)).reshape(*lead, dd, dd)


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
    rng: np.random.Generator,
) -> int:
    """Draw a click count from Binomial(shots, Tr(Q rho)).

    ``rng`` is consumed; identical stream states give identical draws.
    """
    shots = _count("shots", shots, 1)
    p = expectation(q, rho)
    return int(rng.binomial(shots, p))
