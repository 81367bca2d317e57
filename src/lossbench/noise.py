"""Constructors for the noise and measurement models used by the protocol.

Covers single-basis-level amplitude loss (the channel family with the
largest state-to-state loss variation), imperfect detectors over a seeded
random orthonormal basis, random lossy channels for property sweeps,
depolarizing noise, and the coherent-leakage qutrit error.

All constructors are pure and fully seeded: the same arguments always
produce bitwise-identical operators.  Each raises ``ValueError`` naming the
argument at fault.
"""

import numpy as np

from .core import (
    UNITARITY_ATOL,
    MeasurementOperator,
    QuantumChannel,
    _as_square_complex,
    _count,
    hermitian_part,
    stream,
    unitarity_deviation,
)
from .gates import _PAULIS


def basis_loss_channel(alpha: float, level: int, dim: int) -> QuantumChannel:
    """Single-Kraus channel K = identity + (alpha - 1)|level><level|.

    ``alpha`` in [0, 1] is the amplitude retained on ``level``, so
    population there survives with probability alpha^2 while every other
    basis level is untouched.  The worst-case loss is then exactly d times
    the average loss: the extreme point of the worst/average bound.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not 0 <= level < dim:
        raise ValueError(f"level must be in [0, {dim}), got {level}")
    k = np.eye(dim, dtype=np.complex128)
    k[level, level] = alpha
    return QuantumChannel(dim, (k,))


def random_orthonormal_basis(dim: int, seed: int) -> np.ndarray:
    """Orthonormal basis from the QR step of a seeded complex Gaussian."""
    rng = stream(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    # Fix the column phases so the factorization is unique.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def detector_model(eigenvalues, basis_seed: int | None = None, basis=None) -> MeasurementOperator:
    """Imperfect detector Q = sum_i e_i |b_i><b_i| with eigenvalues e_i in [0, 1].

    The basis columns b_i are either drawn reproducibly from ``basis_seed``
    or given as the unitary ``basis``; exactly one of the two must be given.
    The average detector response over all states is the eigenvalue mean
    Tr(Q)/d, independent of the basis.
    """
    eigs = tuple(float(e) for e in eigenvalues)
    if not eigs:
        raise ValueError("eigenvalues must be nonempty")
    for i, e in enumerate(eigs):
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"eigenvalues[{i}] = {e} outside [0, 1]")
    if (basis_seed is None) == (basis is None):
        raise ValueError("give exactly one of basis_seed and basis")
    d = len(eigs)
    if basis is None:
        basis = random_orthonormal_basis(d, basis_seed)
    else:
        basis = _as_square_complex(basis, d, "basis")
        dev = unitarity_deviation(basis)
        if not dev <= UNITARITY_ATOL:
            raise ValueError(f"basis is not unitary (deviation {dev:.3e})")
    q = basis @ np.diag(eigs).astype(np.complex128) @ basis.conj().T
    return MeasurementOperator(d, hermitian_part(q))


def random_lossy_channel(dim: int, loss_scale: float, seed: int) -> QuantumChannel:
    """A seeded random trace-non-increasing channel, strictly lossy somewhere.

    Construction: a random CPTP channel (Kraus blocks of the QR isometry of
    a complex Gaussian), followed by a diagonal amplitude attenuation with
    factors drawn from [1 - loss_scale, 1].
    """
    dim = _count("dim", dim, 2)
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
    return QuantumChannel(2, (k0, *(np.sqrt(q / 4.0) * _PAULIS[p] for p in "XYZ")))


def coherent_leakage_error(epsilon: float, hamiltonian_seed: int) -> QuantumChannel:
    """Fixed random qutrit unitary V = exp(-i epsilon H), a single Kraus.

    H is a Hermitian with Gaussian entries drawn from ``hamiltonian_seed``,
    normalized to unit spectral norm, and ``epsilon`` > 0.  The channel is
    exactly trace-preserving on the qutrit; apparent loss arises only
    because measurements act on the qubit subspace while V coherently moves
    population in and out of it.  V is built from the eigendecomposition
    H = U diag(w) U^dagger as U diag(exp(-i epsilon w)) U^dagger.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    rng = stream(hamiltonian_seed)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w, u = np.linalg.eigh(hermitian_part(a))
    w = w / np.max(np.abs(w))
    v = (u * np.exp(-1j * epsilon * w)) @ u.conj().T
    return QuantumChannel(3, (v,))
