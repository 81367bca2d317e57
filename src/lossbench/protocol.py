"""Randomized-sequence execution engine.

Runs the loss protocol (random gate sequences, no inversion) and its
benchmarking variant (each word's inverse appended as one more gate) over a
grid of sequence lengths, in exact-expectation or finite-shot mode.  A run
returns only what ``decay.csv`` and ``metadata.json`` hold: per-length means
and standard errors, and the run record.

Noise convention: the imperfect implementation of gate g is "noise first,
then g", one real d^2 x d^2 transfer matrix per gate in an orthonormal
Hermitian operator basis, all |G| built by one batched
:func:`lossbench.core.transfer_matrix` call.  All (length, sequence) tasks
evolve together as rows of one real array of state coordinates, each step
one matrix product against the C-ordered side-by-side transfer matrices.
Every task draws its gate word from its own RNG stream keyed by
(master_seed, length_index, sequence_index, 0).  With shots, each length
draws its sequences' click counts, in sequence order, with one ``binomial``
call on its own stream keyed by (master_seed, length_index, 0, 1).  So
datasets are bit-reproducible regardless of the order in which tasks are
evaluated.  The engine seeds all of a run's streams, gate and shot, with one
batched SeedSequence hash (:func:`lossbench.core.seed_states`), hands the
states to numpy's PCG64 (:func:`lossbench.core.bit_generators`) and maps each
length's gate draws in bulk, as ``Generator.integers`` maps them; every draw
equals the one ``default_rng(key)`` gives.  :func:`sample_sequence` draws one
word from one ``default_rng`` stream; the one-sequence Kraus reference engine
the batched engine is tested against lives with the test oracles.
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
    _count,
    _lengths,
    bit_generators,
    click_probabilities,
    coordinates,
    key_words,
    seed_states,
    transfer_matrix,
    validate_state,
)
from .gates import GateSet

VARIANT_LOSS = "loss"
VARIANT_RB = "rb"

CSV_HEADER = ("m", "mean", "sem", "n_sequences", "shots")

# Sub-stream tags: (master_seed, m_index, seq_index, 0) keys a task's gate
# word, (master_seed, m_index, 0, 1) a length's click counts.
_GATE_DRAWS = 0
_SHOT_DRAWS = 1


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything that pins down one protocol run.

    ``shots=None`` requests exact per-sequence expectation values; a
    positive integer requests that many binomial shots per sequence.
    ``m_grid`` entries, ``n_sequences``, ``master_seed`` (nonnegative) and
    ``shots`` must be integers; numpy integers are stored as Python ints.
    ``rho0`` must pass :func:`lossbench.core.validate_state`; among other
    things it must be Hermitian, since the engine carries states as real
    coordinates, which have no room for an anti-Hermitian part.
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
        object.__setattr__(self, "m_grid", _lengths("m_grid", self.m_grid))
        dims = {
            "gateset": self.gateset.dim,
            "noise": self.noise.dim,
            "state": self.rho0.dim,
            "measurement": self.q_op.dim,
        }
        if set(dims.values()) != {self.gateset.dim}:
            raise ValueError(f"dimension mismatch across config: {dims}")
        violations = validate_state(self.rho0)
        if violations:
            raise ValueError(f"rho0 is not a state: {violations[0].message}")
        for name, least in (("n_sequences", 1), ("master_seed", 0), ("shots", 1)):
            value = getattr(self, name)
            if not (name == "shots" and value is None):
                object.__setattr__(self, name, _count(name, value, least))
        if self.variant not in (VARIANT_LOSS, VARIANT_RB):
            raise ValueError(f"variant must be 'loss' or 'rb', got {self.variant!r}")
        if self.variant == VARIANT_RB:
            self.gateset.group  # raises unless a group up to phase; cached for run_protocol

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
class DecayDataset:
    """Per-length statistics of the measured signal, plus the run record.

    ``sems`` holds the standard error of the mean over sequences
    (sample standard deviation with the n-1 convention, divided by
    sqrt(n)); it is NaN when fewer than two sequences were run.
    ``metadata`` is :func:`run_protocol`'s run record, or a CSV's path.
    The constructor raises ValueError on the first row or count that
    :func:`read_decay_csv` would reject, so :meth:`to_csv` writes only files
    it reads back: lengths must be integers, strictly increasing from 1,
    means finite, sems NaN or finite and >= 0, and ``n_sequences`` and
    integer ``shots`` at least 1.  ``means`` and ``sems`` are stored as
    read-only copies; the caller's arrays are left as they were.
    """

    m_values: tuple
    means: np.ndarray
    sems: np.ndarray
    n_sequences: int
    shots: int | None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        m_values = _lengths("m_values", self.m_values)
        means = np.array(self.means, dtype=float)
        sems = np.array(self.sems, dtype=float)
        if not means.shape == sems.shape == (len(m_values),):
            raise ValueError("m_values, means and sems must have equal length")
        bad = ~np.isfinite(means)
        if bad.any():
            raise ValueError(f"means must be finite, got {float(means[bad][0])!r}")
        bad = np.isinf(sems) | (sems < 0.0)
        if bad.any():
            raise ValueError(f"sems must be NaN or finite and >= 0, got {float(sems[bad][0])!r}")
        object.__setattr__(self, "n_sequences", _count("n_sequences", self.n_sequences, 1))
        if self.shots is not None:
            object.__setattr__(self, "shots", _count("shots", self.shots, 1))
        means.setflags(write=False)
        sems.setflags(write=False)
        object.__setattr__(self, "m_values", m_values)
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
    or not strictly above the previous row's, non-finite means, infinite or
    negative sems, and n_sequences or integer shots below 1.  A NaN or zero
    sem is valid: single-sequence and exact datasets write them.
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
                if n_sequences is None:
                    n_sequences = _count("n_sequences", n_seq, 1)
                    shots = sh if sh is None else _count("shots", sh, 1)
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
            if (n_sequences, shots) != (n_seq, sh):
                raise ValueError(f"{path}:{lineno}: inconsistent n_sequences/shots")
    if not m_values:
        raise ValueError(f"{path}: no data rows")
    return DecayDataset(
        m_values=tuple(m_values),
        means=means,
        sems=sems,
        n_sequences=n_sequences,
        shots=shots,
        metadata={"source": str(path)},
    )


def sample_sequence(gateset: GateSet, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m i.i.d. uniform gate indices from the given stream."""
    return rng.integers(0, len(gateset), size=_count("sequence length", m, 1))


def _sample_words(states: np.ndarray, keys: np.ndarray, m: int, n: int) -> np.ndarray:
    """Each key row's word ``default_rng(key).integers(0, n, size=m)``, as (rows, m).

    ``states`` holds the rows' :func:`lossbench.core.seed_states`.  Each
    stream gives ceil(m/2) 64-bit outputs, and each of their 32-bit halves u,
    low half first, maps to (u n) >> 32, as ``Generator.integers`` maps it
    (Lemire's method).  A row where the low 32 bits of some u n fall below
    (2^32 - n) % n, a draw ``integers`` would reject and replace, is drawn
    again with ``default_rng``.
    """
    raw = np.empty((len(states), (m + 1) // 2), dtype=np.uint64)
    for row, bits in zip(raw, bit_generators(states)):
        row[:] = bits.random_raw(row.size)
    scaled = raw.astype("<u8", copy=False).view("<u4")[:, :m].astype(np.uint64) * np.uint64(n)
    words = scaled >> np.uint64(32)
    rejected = (scaled & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n
    for row in np.flatnonzero(rejected.any(axis=1)):
        words[row] = np.random.default_rng(keys[row]).integers(0, n, size=m)
    return words


def _gate_superoperators(cfg: ProtocolConfig) -> np.ndarray:
    """Transfer matrices of "noise, then gate g" for every g: (|G|, d^2, d^2)."""
    return transfer_matrix(np.array(cfg.gateset.gates)[:, None] @ np.array(cfg.noise.kraus)[None])


def run_protocol(cfg: ProtocolConfig) -> DecayDataset:
    """Run the full protocol over the length grid.

    Every (length, sequence) task is one row of a (tasks, d^2) array of real
    state coordinates.  Each gate step is one real matrix product of the
    rows still running with all |G| transfer matrices side by side, copied
    to C order once per run, from which every row keeps the block of its own
    gate.  Rows are ordered longest sequence first, so the rows still
    running at any step are a prefix of the array.  The benchmarking variant
    appends to each word, as one more step, the inverse of the element the
    word folds to in the gate set's multiplication table,
    :attr:`GateSet.group`.  Each stream is seeded from one row of a uint32
    key array holding the words of its key, the entropy
    :func:`lossbench.core.stream` derives from the same key: (master_seed,
    length_index, sequence_index, 0) for each task's gate word, then, with
    shots, (master_seed, length_index, 0, 1) for each length's click
    counts.  One :func:`lossbench.core.seed_states` call hashes every key
    row of the run; words are drawn one length at a time by
    :func:`_sample_words`, and a length's clicks by one ``binomial`` call
    over its sequences' click probabilities, in sequence order.

    Returns each length's mean and standard error over its sequences, with
    the run record in ``metadata``; per-sequence values are not kept.
    """
    n = cfg.n_sequences
    n_lengths = len(cfg.m_grid)
    n_gates = len(cfg.gateset)
    # m_grid is strictly increasing, so reversing it orders tasks longest first.
    length_index = np.repeat(np.arange(n_lengths)[::-1], n)
    lengths = np.array(cfg.m_grid)[length_index]
    steps = lengths + (cfg.variant == VARIANT_RB)
    n_tasks = len(lengths)
    seed_words = key_words(cfg.master_seed)
    # One gate key row per task; with shots, then one shot key row per length.
    shot_lengths = length_index[::n] if cfg.shots is not None else length_index[:0]
    keys = np.zeros((n_tasks + len(shot_lengths), seed_words.size + 3), dtype=np.uint32)
    keys[:, : seed_words.size] = seed_words
    keys[:, -3] = np.concatenate([length_index, shot_lengths])
    keys[:n_tasks, -2] = np.tile(np.arange(n), n_lengths)
    keys[:, -1] = np.repeat([_GATE_DRAWS, _SHOT_DRAWS], [n_tasks, len(shot_lengths)])
    seeds = seed_states(keys)
    # Step-major gate table: row s holds every task's gate at step s.  The
    # tasks of one length are n consecutive rows, drawn as one block.
    words = np.zeros((steps[0], n_tasks), dtype=np.min_scalar_type(n_gates - 1))
    for start in range(0, n_tasks, n):
        rows = slice(start, start + n)
        m = int(lengths[start])
        words[:m, rows] = _sample_words(seeds[rows], keys[rows], m, n_gates).T
    # running[s] = number of tasks with more than s steps, a prefix of the rows
    running = np.searchsorted(-steps, -np.arange(steps[0]), side="left")
    if cfg.variant == VARIANT_RB:
        table, inverse = cfg.gateset.group
        product = words[0].astype(np.intp)
        # Gate s is part of the word for the running[s + 1] tasks longer than s.
        for step, k in zip(words[1:], running[2:]):
            product[:k] = table[step[:k], product[:k]]
        words[lengths, np.arange(n_tasks)] = inverse[product]

    transfers = _gate_superoperators(cfg)
    dd = transfers.shape[1]
    # Column block g of `stacked` is T_g^T, so row t of states @ stacked
    # holds T_g r_t for every g at t * n_gates + g of the reshaped product.
    # C order halves the GEMM's time against the view (fig2, 900 rows: 13 vs 25 us).
    stacked = np.ascontiguousarray(transfers.transpose(2, 0, 1).reshape(dd, n_gates * dd))
    offsets = np.arange(n_tasks) * n_gates
    states = np.tile(coordinates(cfg.rho0.matrix), (n_tasks, 1))

    for step, k in zip(words, running):
        blocks = (states[:k] @ stacked).reshape(k * n_gates, dd)
        states[:k] = blocks.take(offsets[:k] + step[:k], axis=0)

    probs = click_probabilities(states @ coordinates(cfg.q_op.matrix))
    if cfg.shots is None:
        values = probs
    else:
        per_length = zip(bit_generators(seeds[n_tasks:]), probs.reshape(n_lengths, n))
        clicks = [np.random.Generator(bits).binomial(cfg.shots, p) for bits, p in per_length]
        values = np.array(clicks) / cfg.shots
    # Back to (length, sequence) order.
    values = values.reshape(n_lengths, n)[::-1]

    means = values.mean(axis=1)
    sems = values.std(axis=1, ddof=1) / np.sqrt(n) if n >= 2 else np.full(n_lengths, np.nan)

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
    )


def exact_sequence_average(cfg: ProtocolConfig, m: int) -> float:
    """The sequence-averaged signal at length m, computed without sampling.

    Averaging over all |G|^m sequences factorizes into m applications of
    the group-averaged step |G|^-1 sum_g T_g, because the m gate draws are
    independent.  This holds for any gate set; when the set is a unitary
    1-design the result collapses to the closed-form single-exponential
    decay.  Loss variant only: the RB closed form is open work in ROADMAP.md.
    """
    if cfg.variant != VARIANT_LOSS:
        raise ValueError(f"exact_sequence_average has no oracle for variant {cfg.variant!r}")
    m = _count("sequence length", m, 1)
    average = _gate_superoperators(cfg).mean(axis=0)
    state = coordinates(cfg.rho0.matrix)
    for _ in range(m):
        state = average @ state
    return float(click_probabilities(state @ coordinates(cfg.q_op.matrix)))
