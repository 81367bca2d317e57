"""Randomized-sequence execution engine.

Runs the loss protocol (random gate sequences, no inversion) and its
benchmarking variant (inversion gate appended before measurement) over a
grid of sequence lengths, in exact-expectation or finite-shot mode.

Noise convention: the imperfect implementation of gate g is "noise first,
then g", one d^2 x d^2 Liouville matrix per gate.  All (length, sequence)
tasks evolve together as rows of one array of vectorized states.  Every
task draws its gate word and its shots from its own RNG streams keyed by
(master_seed, length_index, sequence_index), so datasets are
bit-reproducible regardless of the order in which tasks are evaluated.
:func:`execute_sequence` simulates one sequence at a time by Kraus
operators and is kept as the scalar reference.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DensityMatrix,
    MeasurementOperator,
    QuantumChannel,
    _apply_kraus,
    click_probabilities,
    expectation,
    liouville,
    sample_clicks,
    stream,
)
from .gates import GateSet, inverse_gate, inverse_indices

VARIANT_LOSS = "loss"
VARIANT_RB = "rb"

CSV_HEADER = ("m", "mean", "sem", "n_sequences", "shots")

# Sub-stream tags appended to (master_seed, m_index, seq_index).
_GATE_DRAWS = 0
_SHOT_DRAWS = 1


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything that pins down one protocol run.

    ``shots=None`` requests exact per-sequence expectation values; a
    positive integer requests that many binomial shots per sequence.
    """

    gateset: GateSet
    noise: QuantumChannel
    rho0: DensityMatrix
    q_op: MeasurementOperator
    m_grid: tuple
    n_sequences: int
    master_seed: int
    shots: int | None = None
    variant: str = VARIANT_LOSS

    def __post_init__(self):
        grid = tuple(int(m) for m in self.m_grid)
        if not grid:
            raise ValueError("m_grid must be nonempty")
        if grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"m_grid must be strictly increasing positive, got {grid}")
        object.__setattr__(self, "m_grid", grid)
        dims = {
            "gateset": self.gateset.dim,
            "noise": self.noise.dim,
            "state": self.rho0.dim,
            "measurement": self.q_op.dim,
        }
        if len(set(dims.values())) != 1:
            raise ValueError(f"dimension mismatch across config: {dims}")
        if self.n_sequences < 1:
            raise ValueError(f"n_sequences must be positive, got {self.n_sequences}")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be positive or None, got {self.shots}")
        if self.variant not in (VARIANT_LOSS, VARIANT_RB):
            raise ValueError(f"variant must be 'loss' or 'rb', got {self.variant!r}")

    def fingerprint(self) -> str:
        """SHA-256 over a canonical byte encoding of the full configuration."""
        h = hashlib.sha256()
        h.update(
            json.dumps(
                {
                    "dim": self.gateset.dim,
                    "labels": list(self.gateset.labels),
                    "design_order": self.gateset.design_order,
                    "m_grid": list(self.m_grid),
                    "n_sequences": self.n_sequences,
                    "master_seed": self.master_seed,
                    "shots": self.shots,
                    "variant": self.variant,
                    "n_kraus": len(self.noise.kraus),
                },
                sort_keys=True,
            ).encode()
        )
        for g in self.gateset.gates:
            h.update(g.tobytes())
        for k in self.noise.kraus:
            h.update(k.tobytes())
        h.update(self.rho0.matrix.tobytes())
        h.update(self.q_op.matrix.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class SequenceOutcome:
    """Measured signal for one random sequence at one length."""

    m: int
    sequence_indices: tuple
    value: float
    shots_used: int | None


@dataclass(frozen=True)
class DecayDataset:
    """Per-length statistics of the measured signal.

    ``sems`` holds the standard error of the mean over sequences
    (sample standard deviation with the n-1 convention, divided by
    sqrt(n)); it is NaN when fewer than two sequences were run.
    """

    m_values: tuple
    means: np.ndarray
    sems: np.ndarray
    n_sequences: int
    shots: int | None
    metadata: dict = field(default_factory=dict)
    raw: tuple | None = None

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        sems = np.asarray(self.sems, dtype=float)
        if not (len(self.m_values) == means.size == sems.size):
            raise ValueError("m_values, means and sems must have equal length")
        means.setflags(write=False)
        sems.setflags(write=False)
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sems", sems)

    def to_csv(self, path) -> None:
        """Write rows as ``m,mean,sem,n_sequences,shots`` (shots: int or 'exact')."""
        shots_field = "exact" if self.shots is None else str(self.shots)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for m, mean, sem in zip(self.m_values, self.means, self.sems):
                writer.writerow([m, repr(float(mean)), repr(float(sem)), self.n_sequences, shots_field])


def read_decay_csv(path) -> DecayDataset:
    """Load a dataset written by :meth:`DecayDataset.to_csv`.

    Rejects, with a ``path:line:`` message, rows whose length m is below 1
    or not strictly above the previous row's, non-finite means, and
    infinite or negative sems.  A NaN or zero sem is valid: single-sequence
    and exact datasets write them.
    """
    with open(path, newline="") as fh:
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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                m, mean, sem = int(row[0]), float(row[1]), float(row[2])
                n_seq = int(row[3])
                sh = None if row[4] == "exact" else int(row[4])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if m < 1:
                raise ValueError(f"{path}:{lineno}: sequence length must be >= 1, got {m}")
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
            if n_sequences is None:
                n_sequences, shots = n_seq, sh
            elif (n_sequences, shots) != (n_seq, sh):
                raise ValueError(f"{path}:{lineno}: inconsistent n_sequences/shots")
    if not m_values:
        raise ValueError(f"{path}: no data rows")
    return DecayDataset(
        m_values=tuple(m_values),
        means=np.array(means),
        sems=np.array(sems),
        n_sequences=n_sequences,
        shots=shots,
        metadata={"source": str(path)},
    )


def sample_sequence(gateset: GateSet, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m i.i.d. uniform gate indices from the given stream."""
    if m < 1:
        raise ValueError(f"sequence length must be >= 1, got {m}")
    return rng.integers(0, len(gateset), size=m)


def execute_sequence(
    cfg: ProtocolConfig,
    indices,
    rng: np.random.Generator | None = None,
) -> SequenceOutcome:
    """Simulate one sequence: noise then gate, per index, then measure.

    The benchmarking variant appends the sequence's inverse gate (preceded,
    like every gate, by one application of the noise) before measuring.
    In exact mode the outcome value is the expectation of the measurement;
    in shot mode it is the click fraction drawn from ``rng``.
    """
    indices = [int(k) for k in indices]
    n = len(cfg.gateset)
    for k in indices:
        if not 0 <= k < n:
            raise IndexError(f"gate index {k} out of range [0, {n})")
    kraus = cfg.noise.kraus
    gates = cfg.gateset.gates
    mat = cfg.rho0.matrix
    for k in indices:
        mat = _apply_kraus(kraus, mat)
        u = gates[k]
        mat = u @ mat @ u.conj().T
    if cfg.variant == VARIANT_RB:
        inv = inverse_gate(cfg.gateset, indices)
        mat = _apply_kraus(kraus, mat)
        u = gates[inv]
        mat = u @ mat @ u.conj().T
    final = DensityMatrix(cfg.gateset.dim, mat)
    if cfg.shots is None:
        value = expectation(cfg.q_op, final)
        shots_used = None
    else:
        if rng is None:
            raise ValueError("shot mode needs an RNG stream")
        clicks = sample_clicks(cfg.q_op, final, cfg.shots, rng)
        value = clicks / cfg.shots
        shots_used = cfg.shots
    return SequenceOutcome(len(indices), tuple(indices), value, shots_used)


def _gate_superoperators(cfg: ProtocolConfig) -> np.ndarray:
    """Liouville matrices of "noise, then gate g" for every g: (|G|, d^2, d^2)."""
    noise = liouville(cfg.noise.kraus)
    return np.stack([np.kron(u, u.conj()) @ noise for u in cfg.gateset.gates])


def run_protocol(cfg: ProtocolConfig, keep_raw: bool = False) -> DecayDataset:
    """Run the full protocol over the length grid.

    Every (length, sequence) task is one row of a (tasks, d^2) array of
    vectorized states, and each gate step is one gathered superoperator
    product over the rows still running.  Rows are ordered longest sequence
    first, so the rows still running at any step are a prefix of the array.
    The benchmarking variant carries the ideal product of each word beside
    its state and ends with one step of the inversion gate.
    """
    n = cfg.n_sequences
    n_lengths = len(cfg.m_grid)
    # m_grid is strictly increasing, so reversing it orders tasks longest first.
    tasks = [(mi, si) for mi in reversed(range(n_lengths)) for si in range(n)]
    lengths = np.array([cfg.m_grid[mi] for mi, _ in tasks])
    # Step-major gate table: row s holds every task's gate at step s.
    words = np.zeros(
        (lengths[0], len(tasks)), dtype=np.min_scalar_type(len(cfg.gateset) - 1)
    )
    for t, (mi, si) in enumerate(tasks):
        gate_rng = stream(cfg.master_seed, mi, si, _GATE_DRAWS)
        words[: lengths[t], t] = sample_sequence(cfg.gateset, lengths[t], gate_rng)
    # running[s] = number of tasks longer than s, a prefix of the rows
    running = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")

    supers = _gate_superoperators(cfg)
    states = np.tile(cfg.rho0.matrix.reshape(-1), (len(tasks), 1))
    rb = cfg.variant == VARIANT_RB
    if rb:
        unitaries = np.stack(cfg.gateset.gates)
        products = np.tile(np.eye(cfg.gateset.dim, dtype=np.complex128), (len(tasks), 1, 1))
    for step, k in zip(words, running):
        g = step[:k]
        states[:k] = (supers[g] @ states[:k, :, np.newaxis])[:, :, 0]
        if rb:
            products[:k] = unitaries[g] @ products[:k]
    if rb:
        inverses = inverse_indices(cfg.gateset, products)
        states = (supers[inverses] @ states[:, :, np.newaxis])[:, :, 0]

    # Tr(Q rho) = sum_ij Q_ji rho_ij
    probs = click_probabilities(states @ cfg.q_op.matrix.T.reshape(-1))
    if cfg.shots is None:
        values = probs
    else:
        clicks = [
            stream(cfg.master_seed, mi, si, _SHOT_DRAWS).binomial(cfg.shots, p)
            for (mi, si), p in zip(tasks, probs)
        ]
        values = np.array(clicks) / cfg.shots
    # Back to (length, sequence) order.
    values = values.reshape(n_lengths, n)[::-1]

    means = values.mean(axis=1)
    sems = values.std(axis=1, ddof=1) / np.sqrt(n) if n >= 2 else np.full(n_lengths, np.nan)

    raw = None
    if keep_raw:
        words = words.reshape(lengths[0], n_lengths, n)[:, ::-1]
        raw = tuple(
            SequenceOutcome(m, tuple(words[:m, mi, si].tolist()), float(values[mi, si]), cfg.shots)
            for mi, m in enumerate(cfg.m_grid)
            for si in range(n)
        )

    metadata = {
        "master_seed": cfg.master_seed,
        "config_fingerprint": cfg.fingerprint(),
        "variant": cfg.variant,
        "m_grid": list(cfg.m_grid),
        "n_sequences": cfg.n_sequences,
        "shots": "exact" if cfg.shots is None else cfg.shots,
        "dim": cfg.gateset.dim,
        "gateset_labels": list(cfg.gateset.labels),
    }
    return DecayDataset(
        m_values=cfg.m_grid,
        means=means,
        sems=sems,
        n_sequences=cfg.n_sequences,
        shots=cfg.shots,
        metadata=metadata,
        raw=raw,
    )


def exact_sequence_average(cfg: ProtocolConfig, m: int) -> float:
    """The sequence-averaged signal at length m, computed without sampling.

    Averaging over all |G|^m sequences factorizes into m applications of
    the group-averaged step |G|^-1 sum_g L_g, because the m gate draws are
    independent.  This holds for any gate set; when the set is a unitary
    1-design the result collapses to the closed-form single-exponential
    decay.  Always evaluates the loss variant (no inversion gate).
    """
    if m < 1:
        raise ValueError(f"sequence length must be >= 1, got {m}")
    average = _gate_superoperators(cfg).mean(axis=0)
    state = cfg.rho0.matrix.reshape(-1)
    for _ in range(m):
        state = average @ state
    return float(click_probabilities(state @ cfg.q_op.matrix.T.reshape(-1)))
