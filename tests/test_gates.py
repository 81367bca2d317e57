import numpy as np
import pytest

import lossbench as lb
from lossbench.gates import canonical_phase
from support import compose_sequence, inverse_by_phase_match, phase_equal


def frame_potential(gateset, t):
    """|G|^-2 sum_{g,h} |Tr(U_g^H U_h)|^(2t); equals t! for a t-design (d >= t)."""
    total = 0.0
    for a in gateset.gates:
        for b in gateset.gates:
            total += abs(np.trace(a.conj().T @ b)) ** (2 * t)
    return total / len(gateset) ** 2


class TestGateSet:
    def test_non_unitary_raises(self):
        with pytest.raises(ValueError, match="not unitary"):
            lb.GateSet(2, (np.diag([1.0, 0.5]),), 0, ("bad",))

    @pytest.mark.parametrize(
        "gate, deviation",
        [(np.diag([1.0, np.nan]), "nan"), (np.diag([1e200, 1.0]), "inf")],
    )
    def test_non_finite_deviation_raises(self, gate, deviation):
        # U^H U overflows for 1e200; the suite turns the warning into an error.
        with pytest.raises(ValueError, match=rf"not unitary \(deviation {deviation}\)"):
            lb.GateSet(2, (gate,), 0, ("bad",))

    def test_nonpositive_dim_raises(self):
        with pytest.raises(ValueError, match=r"dim must be an integer >= 1, got 0"):
            lb.GateSet(0, (np.zeros((0, 0)),), 0, ("empty",))

    def test_duplicate_labels_raise(self):
        with pytest.raises(ValueError, match="unique"):
            lb.GateSet(2, (np.eye(2), np.eye(2)), 0, ("I", "I"))

    def test_label_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="same length"):
            lb.GateSet(2, (np.eye(2),), 0, ("I", "extra"))

    def test_bad_design_order_raises(self):
        with pytest.raises(ValueError, match="design_order"):
            lb.GateSet(2, (np.eye(2),), 3, ("I",))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            lb.GateSet(2, (), 0, ())

    def test_len(self):
        assert len(lb.pauli_gateset()) == 4


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
        assert np.allclose(lb.twirl(g, a), expected, atol=1e-12)

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            lb.twirl(lb.pauli_gateset(), np.eye(3))


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
            j = lb.inverse_gate(g, idx)
            total = g.gates[j] @ compose_sequence(g, idx)
            assert phase_equal(total, np.eye(2))

    @pytest.mark.parametrize("make", [lb.pauli_gateset, lb.clifford_gateset])
    def test_inverse_gate_out_of_range_index_raises(self, make):
        # Without the check, -1 would wrap around in the table lookup.
        g = make()
        for index in (-1, len(g)):
            with pytest.raises(IndexError, match="out of range"):
                lb.inverse_gate(g, [0, index])
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            lb.inverse_gate(g, [0, 1.0])

    def test_set_not_closed_under_inversion_raises(self):
        s = np.diag([1.0, 1.0j])
        g = lb.GateSet(2, (s,), 0, ("S",))
        with pytest.raises(ValueError, match="no inverse"):
            inverse_by_phase_match(g, [0])
        with pytest.raises(ValueError, match="not a group up to phase"):
            lb.inverse_gate(g, [0])


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
            word = lb.sample_sequence(g, m, lb.stream(3, m)) if m else []
            assert lb.inverse_gate(g, word) == inverse_by_phase_match(g, word)

    def test_non_group_raises(self):
        s = np.diag([1.0, 1.0j])
        not_groups = [
            lb.GateSet(2, (np.eye(2), s), 0, ("I", "S")),
            lb.embed_gateset(lb.pauli_gateset(), 0.3),
        ]
        for g in not_groups:
            with pytest.raises(ValueError, match="not a group up to phase"):
                g.group


class TestQutritEmbedding:
    def test_block_structure_and_phase(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        v = lb.embed_in_qutrit(x, 0.5)
        assert np.allclose(v[:2, :2], x)
        assert v[2, 2] == pytest.approx(np.exp(0.5j))
        assert np.allclose(v[2, :2], 0.0) and np.allclose(v[:2, 2], 0.0)
        assert np.allclose(v.conj().T @ v, np.eye(3))

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="2x2"):
            lb.embed_in_qutrit(np.eye(3), 0.0)

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
