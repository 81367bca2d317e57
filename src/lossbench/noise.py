"""Constructors for the noise and measurement models used by the protocol.

Covers single-basis-level amplitude loss (the channel family with the
largest state-to-state loss variation), imperfect detectors over a given
unitary basis (a seeded random orthonormal one, say), and the
coherent-leakage qutrit error.  The random lossy and depolarizing test
channels are factories in ``tests/support.py``.

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
    _real,
    hermitian_part,
    stream,
    unitarity_deviation,
)


def basis_loss_channel(alpha: float, level: int, dim: int) -> QuantumChannel:
    """Single-Kraus channel K = identity + (alpha - 1)|level><level|.

    ``alpha`` in [0, 1] is the amplitude retained on ``level``, so
    population there survives with probability alpha^2 while every other
    basis level is untouched.  The worst-case loss is then exactly d times
    the average loss: the extreme point of the worst/average bound.
    """
    alpha = _real("alpha", alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    dim, level = _count("dim", dim, 1), _count("level", level, 0)
    if not level < dim:
        raise ValueError(f"level must be in [0, {dim}), got {level}")
    k = np.eye(dim, dtype=np.complex128)
    k[level, level] = alpha
    return QuantumChannel((k,))


def random_orthonormal_basis(dim: int, seed: int) -> np.ndarray:
    """Orthonormal basis from the QR step of a seeded complex Gaussian."""
    dim = _count("dim", dim, 1)
    rng = stream(_count("seed", seed, 0))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    # Fix the column phases so the factorization is unique.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def detector_model(eigenvalues, basis) -> MeasurementOperator:
    """Imperfect detector Q = sum_i e_i |b_i><b_i| with eigenvalues e_i in [0, 1].

    The basis columns b_i are the columns of the unitary ``basis``; a seeded
    one comes from :func:`random_orthonormal_basis`.  The average detector
    response over all states is the eigenvalue mean Tr(Q)/d, independent of
    the basis.
    """
    eigs = tuple(_real(f"eigenvalues[{i}]", e) for i, e in enumerate(eigenvalues))
    if not eigs:
        raise ValueError("eigenvalues must be nonempty")
    for i, e in enumerate(eigs):
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"eigenvalues[{i}] = {e} outside [0, 1]")
    basis = _as_square_complex(basis, "basis", len(eigs))
    dev = unitarity_deviation(basis)
    if not dev <= UNITARITY_ATOL:
        raise ValueError(f"basis is not unitary (deviation {dev:.3e})")
    q = basis @ np.diag(eigs).astype(np.complex128) @ basis.conj().T
    return MeasurementOperator(hermitian_part(q))


def coherent_leakage_error(epsilon: float, hamiltonian_seed: int) -> QuantumChannel:
    """Fixed random qutrit unitary V = exp(-i epsilon H), a single Kraus.

    H is a Hermitian with Gaussian entries drawn from ``hamiltonian_seed``,
    normalized to unit spectral norm, and 0 < ``epsilon`` < inf.  The channel is
    exactly trace-preserving on the qutrit; apparent loss arises only
    because measurements act on the qubit subspace while V coherently moves
    population in and out of it.  V is built from the eigendecomposition
    H = U diag(w) U^dagger as U diag(exp(-i epsilon w)) U^dagger.
    """
    epsilon = _real("epsilon", epsilon)
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be in (0, inf), got {epsilon}")
    rng = stream(_count("hamiltonian_seed", hamiltonian_seed, 0))
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    w, u = np.linalg.eigh(hermitian_part(a))
    w = w / np.max(np.abs(w))
    v = (u * np.exp(-1j * epsilon * w)) @ u.conj().T
    return QuantumChannel((v,))
