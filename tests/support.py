"""Shared oracles and random-object factories for the test suite.

Everything here is deliberately independent of the library internals it is
used to check: the sequence averages are computed by brute-force branching
over every gate word, single sequences by composing Kraus operators and
unitaries one gate at a time, with one noise channel for every gate or one
per gate (the inverse gate found by matching the composed word against
every gate up to phase, without the group table),
the benchmarking curve's B - A from the channel's Kraus image of the state,
and the survival statistics by direct Monte Carlo over Haar-random pure states.
The one exception is :func:`exact_rb_average`, which folds the group table
and the transfer matrices and is itself checked against brute-force
enumeration with :func:`execute_sequence`.

It also holds the test references and channel factories that no library
code calls: the one-state Kraus sum (``apply_channel``), the group average
(``twirl``), the random lossy and depolarizing channels of the property
sweeps, and the row-by-row decay CSV reader (``reference_read_decay_csv``)
that the library's reader is checked against.
"""

import csv
import io
import itertools
import math

import numpy as np

import lossbench as lb
from lossbench.core import (
    ARITHMETIC_ATOL,
    M_GRID_LIMIT,
    DensityMatrix,
    QuantumChannel,
    _as_square_complex,
    _count,
    coordinates,
    expectation,
    hermitian_part,
    sample_clicks,
    stream,
    transfer_matrix,
)
from lossbench.gates import GateSet, _PAULIS
from lossbench.protocol import CSV_HEADER, _read_utf8


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
    return DensityMatrix(_apply_kraus(channel.kraus, rho.matrix))


def twirl(gateset: GateSet, a: np.ndarray) -> np.ndarray:
    """Group average |G|^-1 sum_g U_g A U_g^H.

    For any unitary 1-design this projects A onto Tr(A) * identity / d.
    """
    a = _as_square_complex(a, "twirl", gateset.dim)
    return _apply_kraus(gateset.gates, a) / len(gateset)


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
    return QuantumChannel(kraus)


def depolarizing_channel(q: float) -> QuantumChannel:
    """Qubit depolarizing noise rho -> (1-q) rho + q Tr(rho) I/2."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    k0 = np.sqrt(1.0 - 3.0 * q / 4.0) * np.eye(2, dtype=np.complex128)
    return QuantumChannel((k0, *(np.sqrt(q / 4.0) * _PAULIS[p] for p in "XYZ")))


def enumerate_average(gateset, channel, rho, q, m):
    """Signal averaged over all |G|^m gate words, by breadth-first branching.

    Carries every branch of the sequence tree as a stacked array of
    (unnormalized) states, applying the channel to all branches at once and
    then fanning each branch out across the gate set.  Memory grows as
    |G|^m, so keep m small.
    """
    gates = np.stack(gateset.gates)
    kraus = np.stack(channel.kraus)
    states = rho.matrix[np.newaxis]
    for _ in range(m):
        states = np.einsum("kij,sjl,kml->sim", kraus, states, kraus.conj())
        states = np.einsum("gai,sij,gbj->gsab", gates, states, gates.conj())
        states = states.reshape(-1, rho.dim, rho.dim)
    return float(np.mean(np.real(np.einsum("ij,sji->s", q.matrix, states))))


def enumerate_average_naive(gateset, channel, rho, q, m):
    """Same average as enumerate_average, one sequence at a time."""
    values = []
    for word in itertools.product(range(len(gateset)), repeat=m):
        mat = rho.matrix
        for k in word:
            mat = _apply_kraus(channel.kraus, mat)
            u = gateset.gates[k]
            mat = u @ mat @ u.conj().T
        values.append(float(np.real(np.trace(q.matrix @ mat))))
    return float(np.mean(values))


def phase_equal(a, b):
    """True when a = e^{i phi} b for some global phase phi, to ARITHMETIC_ATOL."""
    d = a.shape[0]
    return abs(abs(np.trace(a.conj().T @ b)) / d - 1.0) < ARITHMETIC_ATOL


def compose_sequence(gateset, indices):
    """Product U_{k_m} ... U_{k_1} for a 0-based index sequence.

    The first index acts first (rightmost factor).  An empty sequence
    composes to the identity.
    """
    out = np.eye(gateset.dim, dtype=np.complex128)
    n = len(gateset)
    for k in indices:
        if not 0 <= k < n:
            raise IndexError(f"gate index {k} out of range [0, {n})")
        out = gateset.gates[k] @ out
    return out


def inverse_by_phase_match(gateset, indices):
    """Index of the gate undoing a sequence, by trying every gate up to phase.

    Returns j such that U_j @ compose_sequence(gateset, indices) is
    proportional to the identity; raises unless some gate does.
    """
    seq = compose_sequence(gateset, indices)
    for j, u in enumerate(gateset.gates):
        if phase_equal(u @ seq, np.eye(gateset.dim)):
            return j
    raise ValueError("gate set contains no inverse for this sequence (not closed under inversion)")


def evolve_sequence(cfg, indices, channels=None):
    """The state after one sequence: noise then gate, per index.

    ``channels[g]`` is the noise before gate g, ``cfg.noise`` before every
    gate when ``channels`` is None.  The benchmarking variant appends the
    sequence's inverse gate, preceded like every gate by its noise.
    """
    indices = [int(k) for k in indices]
    n = len(cfg.gateset)
    for k in indices:
        if not 0 <= k < n:
            raise IndexError(f"gate index {k} out of range [0, {n})")
    if channels is None:
        channels = [cfg.noise] * n
    inverse = [inverse_by_phase_match(cfg.gateset, indices)] if cfg.variant == "rb" else []
    mat = cfg.rho0.matrix
    for k in indices + inverse:
        mat = _apply_kraus(channels[k].kraus, mat)
        u = cfg.gateset.gates[k]
        mat = u @ mat @ u.conj().T
    return lb.DensityMatrix(mat)


def execute_sequence(cfg, indices, rng=None):
    """Simulate one sequence (:func:`evolve_sequence`), then measure.

    Returns a float: in exact mode the expectation of the measurement, in
    shot mode the click fraction drawn from ``rng``.
    """
    final = evolve_sequence(cfg, indices)
    if cfg.shots is None:
        return expectation(cfg.q_op, final)
    if rng is None:
        raise ValueError("shot mode needs an RNG stream")
    return sample_clicks(cfg.q_op, final, cfg.shots, rng) / cfg.shots


def exact_rb_average(cfg, m):
    """The benchmarking variant's signal averaged over all |G|^m words, for any group.

    Carries one averaged state X[c] per group element c that the word folds
    to, starting from the identity: each step adds T_g X[c] / |G| into
    X[table[g, c]], and the inversion step applies T_{inverse[c]} to each X[c].
    """
    table, inverse = cfg.gateset.group
    n_gates = len(cfg.gateset)
    transfers = np.stack([transfer_matrix([u @ k for k in cfg.noise.kraus]) for u in cfg.gateset.gates])
    states = np.zeros((n_gates, cfg.gateset.dim**2))
    states[table[inverse[0], 0]] = coordinates(cfg.rho0.matrix)
    for _ in range(_count("sequence length", m, 1)):
        folded = np.zeros_like(states)
        np.add.at(folded, table, np.einsum("gab,cb->gca", transfers, states) / n_gates)
        states = folded
    final = np.einsum("cab,cb->a", transfers[inverse], states)
    return float(final @ coordinates(cfg.q_op.matrix))


def exact_b_minus_a(channel, rho0, q_op):
    """B - A of the benchmarking curve of one fixed channel, for any d.

    Over a unitary 2-design the signal is A p^m + B S^m with
    B = Tr(L rho) Tr(Q)/d and A = Tr(Q L rho) - B, so B - A is
    2 Tr(L rho) Tr(Q)/d - Tr(Q L rho), here from the Kraus image L rho.
    """
    evolved = _apply_kraus(channel.kraus, rho0.matrix)
    response = np.trace(q_op.matrix).real / q_op.dim
    return float(2.0 * np.trace(evolved).real * response - np.trace(q_op.matrix @ evolved).real)


def haar_states(dim, n, seed):
    """n Haar-random pure state vectors, rows of shape (n, dim)."""
    rng = lb.stream(seed)
    v = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_density(dim, seed, pure=False):
    """Random full-rank (or pure) density matrix."""
    rng = lb.stream(seed)
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        return lb.DensityMatrix(np.outer(v, v.conj()))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return lb.DensityMatrix(mat / np.trace(mat))


def random_povm(dim, seed):
    """Random measurement operator with eigenvalues drawn from [0, 1]."""
    basis = lb.random_orthonormal_basis(dim, seed)
    eigs = lb.stream(seed, 77).uniform(0.0, 1.0, size=dim)
    mat = basis @ np.diag(eigs).astype(complex) @ basis.conj().T
    return lb.MeasurementOperator(hermitian_part(mat))


def reference_read_decay_csv(path) -> lb.DecayDataset:
    """A decay CSV read and checked one row at a time, each rule naming the line a row ends on."""
    with io.StringIO(_read_utf8(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        if tuple(header) != CSV_HEADER:
            raise ValueError(
                f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
            )
        m_values, means, sems = [], [], []
        n_sequences, shots = None, None
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                m, mean, sem = int(row[0]), float(row[1]), float(row[2])
                n_seq = int(row[3])
                sh = None if row[4] == "exact" else int(row[4])
                if n_sequences is None:
                    n_sequences = _count("n_sequences", n_seq, 1)
                    shots = sh if sh is None else _count("shots", sh, 1)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if m < 1:
                raise ValueError(f"{path}:{lineno}: sequence length must be >= 1, got {m}")
            if m > M_GRID_LIMIT:
                raise ValueError(
                    f"{path}:{lineno}: sequence length must be at most {M_GRID_LIMIT}, got {m}"
                )
            if m_values and m <= m_values[-1]:
                raise ValueError(
                    f"{path}:{lineno}: sequence lengths must be strictly increasing, "
                    f"got {m} after {m_values[-1]}"
                )
            if not math.isfinite(mean):
                raise ValueError(f"{path}:{lineno}: mean must be finite, got {mean!r}")
            if math.isinf(sem) or sem < 0.0:
                raise ValueError(
                    f"{path}:{lineno}: sem must be NaN or finite and >= 0, got {sem!r}"
                )
            m_values.append(m)
            means.append(mean)
            sems.append(sem)
            if (n_sequences, shots) != (n_seq, sh):
                raise ValueError(f"{path}:{lineno}: inconsistent n_sequences/shots")
    if not m_values:
        raise ValueError(f"{path}: no data rows")
    return lb.DecayDataset(
        m_values=tuple(m_values),
        means=means,
        sems=sems,
        n_sequences=n_sequences,
        shots=shots,
        metadata={"source": str(path)},
    )


# An 8-row decay CSV whose n_sequences column reads 5, then 05: one count, spelt two ways.
COUNT_SPELT_TWO_WAYS_CSV = "m,mean,sem,n_sequences,shots\n" + "".join(
    f"{m},{0.9 * 0.97 ** (m - 1)!r},0.01,{'5' if i < 4 else '05'},exact\n"
    for i, m in enumerate((1, 2, 4, 8, 16, 32, 64, 128))
)
