"""Constructors for the noise and measurement models used by the protocol.

Covers single-basis-level amplitude loss (the channel family with the
largest state-to-state loss variation), imperfect detectors over a seeded
random orthonormal basis, random lossy channels for property sweeps,
depolarizing noise, and the coherent-leakage qutrit error.

All constructors are pure and fully seeded: the same spec always produces
bitwise-identical operators.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import QuantumChannel, MeasurementOperator, hermitian_part, stream

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


@dataclass(frozen=True)
class LossModelSpec:
    """Amplitude loss from one basis level: retained amplitude ``alpha``."""

    alpha: float
    level: int
    dim: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.level < self.dim:
            raise ValueError(
                f"level must be in [0, {self.dim}), got {self.level}"
            )


@dataclass(frozen=True)
class DetectorSpec:
    """A detector POVM element given by eigenvalues over some basis.

    The basis is either drawn reproducibly from ``basis_seed`` or supplied
    explicitly; exactly one of the two must be given.
    """

    eigenvalues: tuple
    basis_seed: int | None = None
    basis: np.ndarray | None = field(default=None)

    def __post_init__(self):
        eigs = tuple(float(e) for e in self.eigenvalues)
        if not eigs:
            raise ValueError("eigenvalues must be nonempty")
        for i, e in enumerate(eigs):
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"eigenvalues[{i}] = {e} outside [0, 1]")
        object.__setattr__(self, "eigenvalues", eigs)
        if (self.basis_seed is None) == (self.basis is None):
            raise ValueError("give exactly one of basis_seed and basis")
        if self.basis is not None:
            d = len(eigs)
            basis = np.array(self.basis, dtype=np.complex128)
            if basis.shape != (d, d):
                raise ValueError(f"basis must be {d}x{d}, got {basis.shape}")
            dev = np.max(np.abs(basis.conj().T @ basis - np.eye(d)))
            if not dev <= 1e-12:  # NaN, from overflow, fails too
                raise ValueError(f"basis is not unitary (deviation {dev:.3e})")
            basis.setflags(write=False)
            object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class LeakageModelSpec:
    """Coherent qutrit error: strength ``epsilon`` of a seeded random unitary.

    ``theta`` is the fixed relative phase the embedded ideal gates imprint on
    the leakage level; it is carried here so one spec pins down a full run.
    """

    epsilon: float
    theta: float
    hamiltonian_seed: int

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


def basis_loss_channel(spec: LossModelSpec) -> QuantumChannel:
    """Single-Kraus channel K = identity + (alpha - 1)|level><level|.

    Population on ``level`` survives with probability alpha^2 while every
    other basis level is untouched, so the worst-case loss is exactly d
    times the average loss: the extreme point of the worst/average bound.
    """
    k = np.eye(spec.dim, dtype=np.complex128)
    k[spec.level, spec.level] = spec.alpha
    return QuantumChannel(spec.dim, (k,))


def random_orthonormal_basis(dim: int, seed: int) -> np.ndarray:
    """Orthonormal basis from the QR step of a seeded complex Gaussian."""
    rng = stream(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    # Fix the column phases so the factorization is unique.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def detector_model(spec: DetectorSpec) -> MeasurementOperator:
    """Imperfect detector Q = sum_i e_i |b_i><b_i| over the spec's basis.

    The average detector response over all states is the eigenvalue mean
    Tr(Q)/d, independent of the basis.
    """
    d = spec.dim
    basis = spec.basis if spec.basis is not None else random_orthonormal_basis(d, spec.basis_seed)
    q = basis @ np.diag(spec.eigenvalues).astype(np.complex128) @ basis.conj().T
    return MeasurementOperator(d, hermitian_part(q))


def random_lossy_channel(dim: int, loss_scale: float, seed: int) -> QuantumChannel:
    """A seeded random trace-non-increasing channel, strictly lossy somewhere.

    Construction: a random CPTP channel (Kraus blocks of the QR isometry of
    a complex Gaussian), followed by a diagonal amplitude attenuation with
    factors drawn from [1 - loss_scale, 1].
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if not 0.0 < loss_scale < 1.0:
        raise ValueError(f"loss_scale must be in (0, 1), got {loss_scale}")
    rng = stream(seed)
    n_kraus = dim * dim
    a = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    isometry, _ = np.linalg.qr(a)  # isometry^H isometry = identity
    factors = rng.uniform(1.0 - loss_scale, 1.0, size=dim)
    attenuation = np.diag(factors).astype(np.complex128)
    kraus = tuple(
        attenuation @ isometry[i * dim : (i + 1) * dim, :] for i in range(n_kraus)
    )
    return QuantumChannel(dim, kraus)


def depolarizing_channel(q: float) -> QuantumChannel:
    """Qubit depolarizing noise rho -> (1-q) rho + q Tr(rho) I/2."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    k0 = np.sqrt(1.0 - 3.0 * q / 4.0) * np.eye(2, dtype=np.complex128)
    kx = np.sqrt(q / 4.0) * _PAULI_X
    ky = np.sqrt(q / 4.0) * _PAULI_Y
    kz = np.sqrt(q / 4.0) * _PAULI_Z
    return QuantumChannel(2, (k0, kx, ky, kz))


def coherent_leakage_error(spec: LeakageModelSpec) -> QuantumChannel:
    """Fixed random qutrit unitary V = exp(-i epsilon H), a single Kraus.

    H is a seeded random Hermitian (Gaussian entries) normalized to unit
    spectral norm.  The channel is exactly trace-preserving on the qutrit;
    apparent loss arises only because measurements act on the qubit
    subspace while V coherently moves population in and out of it.  V is
    built from the eigendecomposition H = U diag(w) U^dagger as
    U diag(exp(-i epsilon w)) U^dagger.
    """
    rng = stream(spec.hamiltonian_seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w, u = np.linalg.eigh(hermitian_part(a))
    w = w / np.max(np.abs(w))
    v = (u * np.exp(-1j * spec.epsilon * w)) @ u.conj().T
    return QuantumChannel(3, (v,))
