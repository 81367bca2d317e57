import dataclasses
import inspect

import numpy as np
import pytest

import lossbench as lb
from lossbench.gates import canonical_phase, inverse_gate
from lossbench.protocol import sample_sequence
from support import compose_sequence, inverse_by_phase_match, phase_equal, twirl


def frame_potential(gateset, t):
    """|G|^-2 sum_{g,h} |Tr(U_g^H U_h)|^(2t); equals t! for a t-design (d >= t)."""
    total = 0.0
    for a in gateset.gates:
        for b in gateset.gates:
            total += abs(np.trace(a.conj().T @ b)) ** (2 * t)
    return total / len(gateset) ** 2


def design_order_by_frame_potential(gateset):
    """The largest t <= 2 whose loop-oracle F_t is the Haar value (1, then min(d, 2)), or 0."""
    haar = (1.0, min(gateset.dim, 2))
    order = 0
    while order < 2 and abs(frame_potential(gateset, order + 1) - haar[order]) <= 1e-9:
        order += 1
    return order


class TestGateSet:
    def test_non_unitary_raises(self):
        with pytest.raises(ValueError, match="not unitary"):
            lb.GateSet((np.diag([1.0, 0.5]),), ("bad",))

    @pytest.mark.parametrize(
        "gate, deviation",
        [(np.diag([1.0, np.nan]), "nan"), (np.diag([1e200, 1.0]), "inf")],
    )
    def test_non_finite_deviation_raises(self, gate, deviation):
        # U^H U overflows for 1e200; the suite turns the warning into an error.
        with pytest.raises(ValueError, match=rf"not unitary \(deviation {deviation}\)"):
            lb.GateSet((gate,), ("bad",))

    def test_nonpositive_dim_raises(self):
        message = r"^gate 0: expected a nonempty square matrix, got shape \(0, 0\)$"
        with pytest.raises(ValueError, match=message):
            lb.GateSet((np.zeros((0, 0)),), ("empty",))

    def test_duplicate_labels_raise(self):
        with pytest.raises(ValueError, match="unique"):
            lb.GateSet((np.eye(2), np.eye(2)), ("I", "I"))

    def test_label_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="same length"):
            lb.GateSet((np.eye(2),), ("I", "extra"))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            lb.GateSet((), ())

    def test_len(self):
        assert len(lb.pauli_gateset()) == 4


_S_GATE = np.diag([1.0, 1.0j])


class TestDesignOrder:
    @pytest.mark.parametrize(
        "make, order",
        [
            (lb.pauli_gateset, 1),
            (lb.clifford_gateset, 2),
            (lambda: lb.embed_gateset(lb.pauli_gateset(), 0.3), 0),
            (lambda: lb.embed_gateset(lb.pauli_gateset(), 2.5), 0),
            (lambda: lb.embed_gateset(lb.clifford_gateset(), 0.3), 0),
            (lambda: lb.embed_gateset(lb.clifford_gateset(), 2.5), 0),
            (lambda: lb.GateSet((np.eye(2),), ("I",)), 0),
            (lambda: lb.GateSet((np.eye(2), _S_GATE), ("I", "S")), 0),
            (lambda: lb.GateSet((np.eye(1), np.array([[1.0j]])), ("1", "i")), 2),
        ],
        ids=[
            "pauli", "clifford", "embedded-pauli-0.3", "embedded-pauli-2.5",
            "embedded-clifford-0.3", "embedded-clifford-2.5", "identity", "identity-and-S", "d=1",
        ],
    )
    def test_measured_order_matches_the_frame_potential_oracle(self, make, order):
        g = make()
        assert g.design_order == design_order_by_frame_potential(g) == order
        assert type(g.design_order) is int

    def test_is_measured_not_given(self):
        assert list(inspect.signature(lb.GateSet).parameters) == ["gates", "labels"]
        g = lb.pauli_gateset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.design_order = 2
        assert g.design_order == 1


class TestPhaseHelpers:
    def test_canonical_phase_pins_first_entry(self):
        u = np.exp(0.7j) * np.array([[0.0, 1.0], [1.0, 0.0]])
        c = canonical_phase(u)
        assert c[0, 1] == pytest.approx(1.0)

    def test_canonical_phase_is_phase_invariant(self):
        rng = lb.stream(2024)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(h)
        assert np.allclose(canonical_phase(np.exp(1.3j) * u), canonical_phase(u))

    def test_phase_equal(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert phase_equal(np.exp(0.4j) * x, x)
        assert not phase_equal(x, np.eye(2))


class TestPauliGateset:
    def test_members_and_labels(self):
        g = lb.pauli_gateset()
        assert g.labels == ("I", "X", "Y", "Z")
        assert g.design_order == 1
        assert np.allclose(g.gates[1] @ g.gates[1], np.eye(2))

    def test_is_a_1_design_but_not_a_2_design(self):
        g = lb.pauli_gateset()
        assert frame_potential(g, 1) == pytest.approx(1.0, abs=1e-12)
        assert frame_potential(g, 2) > 2.0 + 1e-6


class TestCliffordGateset:
    def test_has_24_elements_in_canonical_order(self):
        g = lb.clifford_gateset()
        assert len(g) == 24
        assert g.design_order == 2
        assert g.labels[:3] == ("H", "I", "S")
        assert len(set(g.labels)) == 24

    def test_is_a_2_design(self):
        g = lb.clifford_gateset()
        assert frame_potential(g, 1) == pytest.approx(1.0, abs=1e-12)
        assert frame_potential(g, 2) == pytest.approx(2.0, abs=1e-12)

    def test_closed_under_multiplication(self):
        g = lb.clifford_gateset()
        for a in g.gates[::5]:
            for b in g.gates[::5]:
                prod = a @ b
                assert any(phase_equal(prod, c) for c in g.gates)

    def test_closed_under_inversion(self):
        g = lb.clifford_gateset()
        for u in g.gates:
            assert any(phase_equal(u.conj().T, c) for c in g.gates)


class TestTwirl:
    @pytest.mark.parametrize("make", [lb.pauli_gateset, lb.clifford_gateset])
    def test_projects_onto_identity_component(self, make):
        g = make()
        rng = lb.stream(31)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        expected = np.trace(a) * np.eye(2) / 2.0
        assert np.allclose(twirl(g, a), expected, atol=1e-12)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"twirl: expected a 2x2 matrix, got shape \(3, 3\)"):
            twirl(lb.pauli_gateset(), np.eye(3))

    def test_unconvertible_matrix_raises(self):
        with pytest.raises(ValueError, match=r"^twirl: expected a 2x2 matrix of numbers, got \[\[1, 0\], \[0\]\]$"):
            twirl(lb.pauli_gateset(), [[1, 0], [0]])


class TestSequenceAlgebra:
    def test_first_index_acts_first(self):
        g = lb.clifford_gateset()
        h, s = g.labels.index("H"), g.labels.index("S")
        assert np.allclose(
            compose_sequence(g, [h, s]), g.gates[s] @ g.gates[h]
        )

    def test_empty_sequence_is_identity(self):
        assert np.allclose(compose_sequence(lb.pauli_gateset(), []), np.eye(2))

    def test_out_of_range_index_raises(self):
        with pytest.raises(IndexError, match="out of range"):
            compose_sequence(lb.pauli_gateset(), [4])

    @pytest.mark.parametrize("make", [lb.pauli_gateset, lb.clifford_gateset])
    def test_inverse_gate_undoes_sequence(self, make):
        g = make()
        rng = lb.stream(77)
        for _ in range(10):
            idx = rng.integers(0, len(g), size=6)
            j = inverse_gate(g, idx)
            total = g.gates[j] @ compose_sequence(g, idx)
            assert phase_equal(total, np.eye(2))

    @pytest.mark.parametrize("make", [lb.pauli_gateset, lb.clifford_gateset])
    def test_inverse_gate_out_of_range_index_raises(self, make):
        # Without the check, -1 would wrap around in the table lookup.
        g = make()
        for index in (-1, len(g)):
            with pytest.raises(IndexError, match="out of range"):
                inverse_gate(g, [0, index])
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            inverse_gate(g, [0, 1.0])

    def test_set_not_closed_under_inversion_raises(self):
        s = np.diag([1.0, 1.0j])
        g = lb.GateSet((s,), ("S",))
        with pytest.raises(ValueError, match="no inverse"):
            inverse_by_phase_match(g, [0])
        with pytest.raises(ValueError, match="not a group up to phase"):
            inverse_gate(g, [0])


class TestMultiplicationTable:
    @pytest.mark.parametrize("make", [lb.pauli_gateset, lb.clifford_gateset])
    def test_every_product_and_inverse(self, make):
        g = make()
        table, inverse = g.group
        assert table.shape == (len(g), len(g)) and inverse.shape == (len(g),)
        for a, u in enumerate(g.gates):
            for b, v in enumerate(g.gates):
                assert phase_equal(g.gates[table[a, b]], u @ v)
            assert phase_equal(g.gates[inverse[a]] @ u, np.eye(2))

    @pytest.mark.parametrize("make", [lb.pauli_gateset, lb.clifford_gateset])
    def test_fold_matches_inverse_gate(self, make):
        # The table fold in inverse_gate against the table-free phase match;
        # m = 0 is the empty word.
        g = make()
        for m in range(40):
            word = sample_sequence(g, m, lb.stream(3, m)) if m else []
            assert inverse_gate(g, word) == inverse_by_phase_match(g, word)

    def test_non_group_raises(self):
        s = np.diag([1.0, 1.0j])
        not_groups = [
            lb.GateSet((np.eye(2), s), ("I", "S")),
            lb.embed_gateset(lb.pauli_gateset(), 0.3),
        ]
        for g in not_groups:
            with pytest.raises(ValueError, match="not a group up to phase"):
                g.group


class TestQutritEmbedding:
    def test_block_structure_and_phase(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        v = lb.embed_gateset(lb.pauli_gateset(), 0.5).gates[1]
        assert np.allclose(v[:2, :2], x)
        assert v[2, 2] == pytest.approx(np.exp(0.5j))
        assert np.allclose(v[2, :2], 0.0) and np.allclose(v[:2, 2], 0.0)
        assert np.allclose(v.conj().T @ v, np.eye(3))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match=r"^pad_to_qutrit: expected a 2x2 matrix, got shape \(3, 3\)$"):
            lb.pad_to_qutrit(np.eye(3))
        with pytest.raises(ValueError, match="^only qubit gate sets can be embedded into a qutrit$"):
            lb.embed_gateset(lb.GateSet((np.eye(3),), ("I",)), 0.0)

    def test_embed_gateset(self):
        g = lb.embed_gateset(lb.pauli_gateset(), 0.3)
        assert g.dim == 3
        assert g.design_order == 0
        assert g.labels == ("I", "X", "Y", "Z")

    def test_embed_non_qubit_set_raises(self):
        g = lb.embed_gateset(lb.pauli_gateset(), 0.0)
        with pytest.raises(ValueError, match="qubit"):
            lb.embed_gateset(g, 0.0)

    def test_pad_to_qutrit(self):
        padded = lb.pad_to_qutrit(np.diag([0.87, 0.95]))
        assert np.allclose(padded, np.diag([0.87, 0.95, 0.0]))
        with pytest.raises(ValueError, match="2x2"):
            lb.pad_to_qutrit(np.eye(3))
