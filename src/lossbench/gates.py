"""Finite unitary gate sets and sequence algebra.

Provides the single-qubit Pauli set (a unitary 1-design) and the 24-element
single-qubit Clifford group (a unitary 2-design), plus the group
multiplication table, the inverse of a gate word (folded through that
table), and the qutrit embedding used to study leakage outside the qubit
subspace.  A set's design order is measured from its frame potentials.
The group-average (twirl) map is a test reference in ``tests/support.py``.

Global phase is physically irrelevant and is quotiented everywhere: the
Cliffords are stored in canonical phase (first nonzero entry real positive),
the Paulis as written (Y = [[0, -i], [i, 0]]), and both the Clifford
enumeration and the multiplication table match products by one rule,
|<A, B>|/d within ARITHMETIC_ATOL (core) of 1.
"""

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import ARITHMETIC_ATOL, CONSTRUCTION_ATOL, _as_square_complex, _real, unitarity_deviation

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=np.complex128)

_PAULIS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
}


@dataclass(frozen=True)
class GateSet:
    """An ordered, immutable collection of d x d unitaries; d is read off the first.

    Sequence indices are 0-based positions into ``gates``; ``labels`` give
    the stable names used in run logs.  The unitary-design order
    (:attr:`design_order`) and the group structure (:attr:`group`) are
    measured from the gates on first read.
    """

    gates: tuple
    labels: tuple
    dim: int = field(init=False)

    def __post_init__(self):
        gates = []
        for i, g in enumerate(self.gates):
            gates.append(_as_square_complex(g, f"gate {i}", len(gates[0]) if gates else None))
        if not gates:
            raise ValueError("GateSet needs at least one gate")
        for i, g in enumerate(gates):
            dev = unitarity_deviation(g)
            if not dev <= CONSTRUCTION_ATOL:
                raise ValueError(f"gate {i} is not unitary (deviation {dev:.3e})")
        labels = tuple(str(s) for s in self.labels)
        if len(labels) != len(gates):
            raise ValueError("labels and gates must have the same length")
        repeated = sorted({s for s in labels if labels.count(s) > 1})
        if repeated:
            raise ValueError(f"labels must be unique, got {repeated} more than once")
        object.__setattr__(self, "gates", tuple(gates))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dim", len(gates[0]))

    def __len__(self) -> int:
        return len(self.gates)

    @cached_property
    def design_order(self) -> int:
        """The largest t <= 2 for which the set is a unitary t-design, or 0.

        A set is a t-design exactly when its frame potential F_t = |G|^-2
        sum_{g,h} |Tr(U_g^H U_h)|^(2t) takes its least value, the Haar one: 1
        for t = 1, min(d, 2) for t = 2 (Gross, Audenaert & Eisert, J. Math.
        Phys. 48, 052104, 2007), here to within ARITHMETIC_ATOL.  Both come
        from one product of the gates' entries on first read; the result is
        cached on the set.
        """
        v = np.stack(self.gates).reshape(len(self), -1)
        overlaps = np.square(np.abs(v.conj() @ v.T))  # |Tr(U_g^H U_h)|^2
        if not abs(overlaps.mean() - 1.0) <= ARITHMETIC_ATOL:
            return 0
        return 2 if abs(np.square(overlaps).mean() - min(self.dim, 2)) <= ARITHMETIC_ATOL else 1

    @cached_property
    def group(self) -> tuple:
        """Integer arrays ``(table, inverse)``: U_table[a, b] ~ U_a U_b, U_inverse[c] ~ U_c^H.

        All |G|^2 products are matched against the set, up to phase, by one
        batched overlap the first time the property is read; the read-only
        result is cached on the set.  Raises ValueError when a product is
        missing; a finite set closed under products is a group, so then
        every gate has an inverse.
        """
        u = np.stack(self.gates)
        n, d = u.shape[0], self.dim
        products = u[:, np.newaxis] @ u[np.newaxis]
        # U_c = phase * P  <=>  |Tr(U_c^H P)| = d
        overlaps = np.abs(products.reshape(n, n, d * d) @ u.reshape(n, d * d).conj().T) / d
        missing = np.argwhere(np.abs(overlaps.max(axis=2) - 1.0) > ARITHMETIC_ATOL)
        if missing.size:
            a, b = (self.labels[i] for i in missing[0])
            raise ValueError(f"gate set is not a group up to phase: {a} times {b} is missing")
        # U_b = phase * U_c^H  <=>  |Tr(U_b U_c)| = d
        table = np.argmax(overlaps, axis=2)
        inverse = np.argmax(np.abs(np.trace(products, axis1=2, axis2=3)), axis=0)
        table.setflags(write=False)
        inverse.setflags(write=False)
        return table, inverse


def canonical_phase(u: np.ndarray) -> np.ndarray:
    """Rescale a unitary so its first nonzero entry is real positive."""
    flat = u.ravel()
    idx = int(np.argmax(np.abs(flat) > 1e-9))
    pivot = flat[idx]
    return u * (abs(pivot) / pivot)


def pauli_gateset() -> GateSet:
    """The four single-qubit Paulis {I, X, Y, Z}, a unitary 1-design."""
    names = ("I", "X", "Y", "Z")
    return GateSet(tuple(_PAULIS[n] for n in names), names)


def clifford_gateset() -> GateSet:
    """The 24 single-qubit Clifford unitaries, a unitary 2-design.

    Enumerated breadth-first as products of {H, S} words.  A product is new
    unless it matches a found element up to phase, |Tr(A^H B)|/d within
    ARITHMETIC_ATOL of 1, the rule of :attr:`GateSet.group`.  Each element
    is stored in canonical phase and labeled by the shortest generating
    word found.
    """
    generators = {"H": _H, "S": _S}
    words, mats = ["I"], [np.eye(2, dtype=np.complex128)]
    # Breadth-first: both lists grow while they are walked.
    for word, mat in zip(words, mats):
        for gname, gmat in generators.items():
            prod = canonical_phase(gmat @ mat)
            if all(abs(abs(np.vdot(u, prod)) / 2 - 1.0) > ARITHMETIC_ATOL for u in mats):
                words.append(gname if word == "I" else gname + word)
                mats.append(prod)
    if len(mats) != 24:
        raise RuntimeError(f"Clifford enumeration produced {len(mats)} elements")
    items = sorted(zip(words, mats), key=lambda kv: (len(kv[0]), kv[0]))
    labels = tuple(word for word, _ in items)
    gates = tuple(mat for _, mat in items)
    return GateSet(gates, labels)


def inverse_gate(gateset: GateSet, indices) -> int:
    """Index of the gate undoing a sequence up to global phase.

    Folds the word, first index first, through the multiplication table of
    :attr:`GateSet.group` and returns the inverse of the element it lands
    on, so U_j U_{k_m} ... U_{k_1} is proportional to the identity.  An
    empty word folds to the identity.  Raises ValueError unless the set is
    a group up to phase (true for the Pauli and Clifford sets).
    """
    table, inverse = gateset.group
    n = len(gateset)
    product = table[inverse[0], 0]
    for k in map(operator.index, indices):
        if not 0 <= k < n:
            raise IndexError(f"gate index {k} out of range [0, {n})")
        product = table[k, product]
    return int(inverse[product])


def embed_gateset(gateset: GateSet, theta: float) -> GateSet:
    """Embed every gate of a qubit set into a qutrit: U (+) e^{i theta}.

    The extra level picks up only the shared finite phase ``theta``, so the
    gates act trivially on population outside the qubit subspace.  The
    embedded set is not a unitary design on d=3: its design_order is 0.
    """
    if gateset.dim != 2:
        raise ValueError("only qubit gate sets can be embedded into a qutrit")
    theta = _real("theta", theta)
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    gates = tuple(pad_to_qutrit(u) for u in gateset.gates)
    for gate in gates:
        gate[2, 2] = np.exp(1j * theta)
    return GateSet(gates, gateset.labels)


def pad_to_qutrit(matrix: np.ndarray) -> np.ndarray:
    """Pad a 2x2 operator with a zero row/column for the leakage level."""
    out = np.zeros((3, 3), dtype=np.complex128)
    out[:2, :2] = _as_square_complex(matrix, "pad_to_qutrit", 2)
    return out
