"""Randomized-sequence execution engine.

Runs the loss protocol (random gate sequences, no inversion) and its
benchmarking variant (each word's inverse appended as one more gate) over a
grid of sequence lengths, in exact-expectation or finite-shot mode.  A run
returns only what ``decay.csv`` and ``metadata.json`` hold: per-length means
and standard errors, and the run record.

Noise convention: the imperfect implementation of gate g is "noise first,
then g", one real d^2 x d^2 transfer matrix per gate in an orthonormal
Hermitian operator basis, all |G| built by one batched
:func:`lossbench.core.transfer_matrix` call when a :class:`ProtocolConfig`
is constructed, together with the state and detector coordinates and the
config's fingerprint; a run reads them and builds none.

:func:`run_protocol` composes five module-level stages, each of which
documents its own choices: draw words, fold inverses, evolve, draw clicks
and aggregate.  Every draw is numpy's own, from
:func:`lossbench.core.stream`, on a stream keyed by its length's index, so
datasets are bit-reproducible regardless of the order in which lengths are
evaluated.  :func:`sample_sequence` draws one word from one stream; the
one-sequence Kraus reference engine the batched engine is tested against
lives with the test oracles.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    M_GRID_LIMIT,
    DensityMatrix,
    MeasurementOperator,
    QuantumChannel,
    _count,
    _lengths,
    click_probabilities,
    coordinates,
    stream,
    transfer_matrix,
    validate_state,
)

if TYPE_CHECKING:  # reading a CSV does not load the gate module
    from .gates import GateSet

VARIANT_LOSS = "loss"
VARIANT_RB = "rb"

CSV_HEADER = ("m", "mean", "sem", "n_sequences", "shots")

# The last key word of a length's gate-word and click-count streams.  Both
# are nonzero, so neither key draws the zero-padded stream of a bare seed,
# stream(seed).
_GATE_DRAWS = 2
_SHOT_DRAWS = 1


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything that pins down one protocol run.

    ``shots=None`` requests exact per-sequence expectation values; a
    positive integer requests that many binomial shots per sequence.
    ``m_grid`` entries, ``n_sequences``, ``master_seed`` (nonnegative) and
    ``shots`` must be integers; numpy integers are stored as Python ints.
    No length may exceed :data:`M_GRID_LIMIT`, nor may the run's task count,
    ``n_sequences`` times the number of lengths; ``shots`` may not exceed
    numpy's binomial limit 2^63 - 1.
    ``rho0`` must pass :func:`lossbench.core.validate_state`; among other
    things it must be Hermitian, since the engine carries states as real
    coordinates, which have no room for an anti-Hermitian part.

    After every check, the constructor builds what every run of the config
    reads, as read-only values: ``transfers``, the (|G|, d^2, d^2) transfer
    matrices of "noise, then gate g"; ``rho0_coordinates`` and
    ``q_coordinates``, the real coordinates of the state and the detector;
    and the digest :meth:`fingerprint` returns.
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
    transfers: np.ndarray = field(init=False, repr=False, compare=False)
    rho0_coordinates: np.ndarray = field(init=False, repr=False, compare=False)
    q_coordinates: np.ndarray = field(init=False, repr=False, compare=False)
    _fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m_grid = _lengths("m_grid", self.m_grid)
        object.__setattr__(self, "m_grid", m_grid)
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
            raise ValueError(f"rho0 is not a state: {violations[0]}")
        for name, least in (("n_sequences", 1), ("master_seed", 0), ("shots", 1)):
            value = getattr(self, name)
            if not (name == "shots" and value is None):
                object.__setattr__(self, name, _count(name, value, least))
        if self.n_sequences * len(m_grid) > M_GRID_LIMIT:  # every run array has a row per task
            raise ValueError(
                f"n_sequences must be at most {M_GRID_LIMIT // len(m_grid)} with {len(m_grid)} "
                f"lengths: a run has at most {M_GRID_LIMIT} (length, sequence) tasks"
            )
        if self.shots is not None and self.shots >= 2**63:  # numpy's binomial count is an int64
            raise ValueError("shots must be at most 2**63 - 1")
        if self.variant not in (VARIANT_LOSS, VARIANT_RB):
            raise ValueError(f"variant must be 'loss' or 'rb', got {self.variant!r}")
        if self.variant == VARIANT_RB:
            self.gateset.group  # raises unless a group up to phase; cached for run_protocol
        operators = {
            "transfers": _gate_superoperators(self),
            "rho0_coordinates": coordinates(self.rho0.matrix),
            "q_coordinates": coordinates(self.q_op.matrix),
        }
        for name, array in operators.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_fingerprint", self._digest())

    def fingerprint(self) -> str:
        """SHA-256 over a canonical byte encoding of the full configuration."""
        return self._fingerprint

    def _digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(
            json.dumps(
                {
                    "dim": self.gateset.dim,
                    "labels": list(self.gateset.labels),
                    # Follows from the gates hashed below; kept so fingerprints stay put.
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
    it reads back: lengths must be integers, strictly increasing from 1 to
    at most :data:`M_GRID_LIMIT`, means finite, sems NaN or finite and
    >= 0, and ``n_sequences`` and integer ``shots`` at least 1.  ``means``
    and ``sems`` are stored as read-only copies; the caller's arrays are
    left as they were.
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


def _read_utf8(path) -> str:
    """The file's text; ValueError naming the path and the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: not valid UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None


def read_decay_csv(path) -> DecayDataset:
    """Load a dataset written by :meth:`DecayDataset.to_csv`.

    The file is read as UTF-8.  Rejects, with a ``path:line:`` message, rows
    whose length m is below 1, above M_GRID_LIMIT or not strictly above the
    previous row's, non-finite means, infinite or negative sems,
    n_sequences or integer shots below 1, and fields the csv module cannot
    read.  A NaN or zero sem is valid: single-sequence and exact datasets
    write them.
    """
    text = _read_utf8(path)
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty CSV")
            if tuple(header) != CSV_HEADER:
                raise ValueError(
                    f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
                )
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    # The constructor applies every value rule.  The text is read again and
    # scanned row by row only when a row has other than 5 fields, a count
    # column changes spelling, or a conversion or the constructor raises: to
    # name the line, or to accept a count spelt two ways, such as 5 and 05.
    try:
        m, mean, sem, n_seq, shots = zip(*filter(None, rows), strict=True)
        if len({*n_seq}) == len({*shots}) == 1:
            n_seq, shots = int(n_seq[0]), None if shots[0] == "exact" else int(shots[0])
            # numpy converts each string with Python's float, as the row scan does.
            columns = tuple(map(int, m)), np.array(mean, dtype=float), np.array(sem, dtype=float)
            return DecayDataset(*columns, n_seq, shots, {"source": str(path)})
    except (ValueError, TypeError):
        pass
    return _scan_rows(path, text)


def _scan_rows(path, text) -> DecayDataset:
    """The dataset of read_decay_csv's text, checked row by row; a row is
    named by the physical line it ends on (a quoted field may span lines)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)  # the header, checked by read_decay_csv
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
            raise ValueError(f"{path}:{lineno}: sem must be NaN or finite and >= 0, got {sem!r}")
        m_values.append(m)
        means.append(mean)
        sems.append(sem)
        if (n_sequences, shots) != (n_seq, sh):
            raise ValueError(f"{path}:{lineno}: inconsistent n_sequences/shots")
    if not m_values:
        raise ValueError(f"{path}: no data rows")
    return DecayDataset(tuple(m_values), means, sems, n_sequences, shots, {"source": str(path)})


def sample_sequence(gateset: GateSet, m: int, rng: "np.random.Generator") -> np.ndarray:
    """Draw m i.i.d. uniform gate indices from the given stream."""
    return rng.integers(0, len(gateset), size=_count("sequence length", m, 1))


def _gate_superoperators(cfg: ProtocolConfig) -> np.ndarray:
    """Transfer matrices of "noise, then gate g" for every g: (|G|, d^2, d^2)."""
    return transfer_matrix(np.array(cfg.gateset.gates)[:, None] @ np.array(cfg.noise.kraus)[None])


def run_protocol(cfg: ProtocolConfig) -> DecayDataset:
    """Run the full protocol over the length grid.

    The composition of five stages: :func:`_draw_words`,
    :func:`_fold_inverses` (benchmarking variant only), :func:`_evolve`
    through ``cfg.transfers``, :func:`_draw_clicks` and :func:`_aggregate`.
    Each stage is called through this module's globals, so a wrapper set
    with ``setattr`` on the module sees every call.  The transfer matrices,
    the state and detector coordinates and the fingerprint are read from
    ``cfg``, which built them at construction, so a run does only per-run
    work.
    """
    words, lengths, running = _draw_words(cfg)
    if cfg.variant == VARIANT_RB:
        _fold_inverses(cfg.gateset.group, words, lengths, running)
    states = _evolve(cfg.transfers, words, running, cfg.rho0_coordinates)
    return _aggregate(cfg, _draw_clicks(cfg, states))


def _draw_words(cfg: ProtocolConfig) -> tuple:
    """Every (length, sequence) task's gate word: ``(words, lengths, running)``.

    Tasks are ordered longest first: the grid reversed, a length's n
    sequences in order.  So the tasks still running at step s are the first
    ``running[s]``.  ``lengths[t]`` is task t's word length, and ``words``
    is the step-major table: row s holds every task's gate at step s, as
    the smallest unsigned integer type that holds every gate index.  Each
    length draws its n words with one ``integers`` call on its own stream
    keyed (master_seed, length_index, 0, 2), row i of the (n, m) draw being
    sequence i's word, first gate first.  In the benchmarking variant each
    task runs one more step, whose gate :func:`_fold_inverses` writes.
    """
    n = cfg.n_sequences
    n_lengths = len(cfg.m_grid)
    n_gates = len(cfg.gateset)
    length_index = np.repeat(np.arange(n_lengths)[::-1], n)
    lengths = np.array(cfg.m_grid)[length_index]
    steps = lengths + (cfg.variant == VARIANT_RB)
    n_tasks = len(lengths)
    words = np.zeros((steps[0], n_tasks), dtype=np.min_scalar_type(n_gates - 1))
    for start, mi in zip(range(0, n_tasks, n), range(n_lengths)[::-1]):
        m = cfg.m_grid[mi]
        rng = stream(cfg.master_seed, mi, 0, _GATE_DRAWS)
        words[:m, start : start + n] = rng.integers(0, n_gates, size=(n, m)).T
    running = np.searchsorted(-steps, -np.arange(steps[0]), side="left")
    return words, lengths, running


def _fold_inverses(group, words, lengths, running) -> None:
    """Write each task's inverse gate into ``words``, at row ``lengths[t]``.

    Each word, first gate first, is folded through ``group``, the
    ``(table, inverse)`` of :attr:`GateSet.group`, and the inverse of the
    element it folds to is the task's last gate.  ``running`` counts the
    tasks that take each step, the inverse's included.
    """
    table, inverse = group
    product = words[0].astype(np.intp)
    # Gate s is part of the word for the running[s + 1] tasks longer than s.
    for step, k in zip(words[1:], running[2:]):
        product[:k] = table[step[:k], product[:k]]
    words[lengths, np.arange(len(lengths))] = inverse[product]


def _evolve(transfers, words, running, state) -> np.ndarray:
    """The final real state coordinates of every task, shaped (tasks, d^2).

    Every task starts at ``state``, and at step s the first ``running[s]``
    tasks apply ``transfers[g]``, g their gate in row s of ``words``.
    ``transfers`` is any (|G|, d^2, d^2) stack, so the noise may depend on
    the gate.  Each step is one real matrix product of the running rows with
    all |G| matrices side by side, copied to C order once per call, into
    one product buffer allocated per call.  Every row then takes its own
    gate's block back into the state array, so a step allocates nothing.
    """
    n_gates, dd = transfers.shape[:2]
    n_tasks = words.shape[1]
    # Column block g of `stacked` is T_g^T, so row t of states @ stacked
    # holds T_g r_t at t * n_gates + g of the reshaped product.
    # C order halves the GEMM's time against the view (fig2, 900 rows: 13 vs 25 us).
    stacked = np.ascontiguousarray(transfers.transpose(2, 0, 1).reshape(dd, n_gates * dd))
    offsets = np.arange(n_tasks) * n_gates
    states = np.tile(state, (n_tasks, 1))
    products = np.empty((n_tasks, n_gates * dd))
    blocks = products.reshape(-1, dd)
    # Every gate index is in [0, |G|), so mode="clip" clips nothing;
    # mode="raise" would make numpy buffer the output (fig2's loop on a
    # 2-core Xeon: 4.1 against 3.5 ms).
    for step, k in zip(words, running):
        np.matmul(states[:k], stacked, out=products[:k])
        blocks.take(offsets[:k] + step[:k], axis=0, out=states[:k], mode="clip")
    return states


def _draw_clicks(cfg: ProtocolConfig, states) -> np.ndarray:
    """Each task's measured value, shaped (lengths, sequences), longest length first.

    The value is the task's click probability Tr(Q rho) in exact mode.
    With shots it is the task's click fraction: each length draws its
    sequences' click counts, in sequence order, with one ``binomial`` call
    on its own stream keyed (master_seed, length_index, 0, 1).
    """
    n_lengths = len(cfg.m_grid)
    probs = click_probabilities(states @ cfg.q_coordinates).reshape(n_lengths, cfg.n_sequences)
    if cfg.shots is None:
        return probs
    per_length = zip(range(n_lengths)[::-1], probs)
    clicks = [stream(cfg.master_seed, mi, 0, _SHOT_DRAWS).binomial(cfg.shots, p) for mi, p in per_length]
    return np.array(clicks) / cfg.shots


def _aggregate(cfg: ProtocolConfig, values) -> DecayDataset:
    """The dataset of a run: each length's mean and standard error over its
    sequences, with the run record in ``metadata``.

    ``values`` are :func:`_draw_clicks`'s, longest length first.  The sems
    are NaN below two sequences.  Per-sequence values are not kept.
    """
    n = cfg.n_sequences
    values = values[::-1]
    means = values.mean(axis=1)
    sems = values.std(axis=1, ddof=1) / np.sqrt(n) if n >= 2 else np.full(len(cfg.m_grid), np.nan)
    metadata = {
        "master_seed": cfg.master_seed,
        "config_fingerprint": cfg.fingerprint(),
        "variant": cfg.variant,
        "m_grid": list(cfg.m_grid),
        "n_sequences": n,
        "shots": "exact" if cfg.shots is None else cfg.shots,
        "dim": cfg.gateset.dim,
        "gateset_labels": list(cfg.gateset.labels),
    }
    return DecayDataset(cfg.m_grid, means, sems, n, cfg.shots, metadata)


def exact_sequence_average(cfg: ProtocolConfig, m: int) -> float:
    """The sequence-averaged signal at length m, computed without sampling.

    Averaging over all |G|^m sequences factorizes into m applications of
    the group-averaged step |G|^-1 sum_g T_g, because the m gate draws are
    independent.  This holds for any gate set; when the set is a unitary
    1-design the result collapses to the closed-form single-exponential
    decay.  The average is taken over ``cfg.transfers``, the stack the
    config built at construction.  Loss variant only: the benchmarking
    variant's average is the test oracle ``tests/support.exact_rb_average``.
    """
    if cfg.variant != VARIANT_LOSS:
        raise ValueError(f"exact_sequence_average has no oracle for variant {cfg.variant!r}")
    m = _count("sequence length", m, 1)
    average = cfg.transfers.mean(axis=0)
    state = cfg.rho0_coordinates
    for _ in range(m):
        state = average @ state
    return float(click_probabilities(state @ cfg.q_coordinates))
