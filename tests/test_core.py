import math
import warnings

import numpy as np
import pytest

import lossbench as lb
from lossbench.core import (
    bit_generator,
    click_probabilities,
    coordinates,
    hermitian_basis,
    hermitian_part,
    key_words,
    seed_states,
)


def test_stream_is_deterministic_and_key_separated():
    a = lb.stream(3, 1, 4).normal(size=5)
    b = lb.stream(3, 1, 4).normal(size=5)
    c = lb.stream(3, 1, 5).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize(
    "key, words",
    [
        ((0,), [0]),
        ((3, 1, 4), [3, 1, 4]),
        ((2**32 - 1, 0, 2, 1), [2**32 - 1, 0, 2, 1]),
        ((2**32, 5, 0, 0), [0, 1, 5, 0, 0]),
        ((2**64 + 5, 1, 2, 1), [5, 0, 1, 1, 2, 1]),
    ],
)
def test_stream_is_numpy_seeding_by_the_key_words(key, words):
    assert key_words(*key).tolist() == words
    draws = lb.stream(*key).integers(0, 2**62, size=8)
    assert np.array_equal(draws, np.random.default_rng(key).integers(0, 2**62, size=8))


def test_bit_generator_takes_only_a_seed_state():
    state = seed_states([[1, 2, 3, 4]])
    # A strided row is copied to the contiguous words PCG64 reads.
    strided = np.repeat(state, 2, axis=1)[0, ::2]
    assert np.array_equal(bit_generator(strided).random_raw(3), bit_generator(state[0]).random_raw(3))
    with pytest.raises(ValueError, match="4 uint64 words"):
        bit_generator(state[0, :3])
    with pytest.raises(ValueError, match="4 uint64 words"):
        bit_generator(state)
    with pytest.raises(ValueError, match=r"\(streams, words\)"):
        seed_states([1, 2, 3])


@pytest.mark.parametrize("bad", [-1, 1.5])
def test_stream_rejects_keys_that_are_not_nonnegative_integers(bad):
    with pytest.raises(ValueError, match=rf"^stream key must be an integer >= 0, got {bad}$"):
        lb.stream(3, bad)


# The four types that carry a dim, each built from one 2x2 matrix.
DIM_TYPES = {
    "DensityMatrix": (lambda d, m: lb.DensityMatrix(d, m), "DensityMatrix"),
    "QuantumChannel": (lambda d, m: lb.QuantumChannel(d, (m,)), r"QuantumChannel kraus\[0\]"),
    "MeasurementOperator": (lambda d, m: lb.MeasurementOperator(d, m), "MeasurementOperator"),
    "GateSet": (lambda d, m: lb.GateSet(d, (m,), 0, ("I",)), "gate 0"),
}


@pytest.mark.parametrize("name", sorted(DIM_TYPES))
def test_dim_is_an_integer_stored_as_int(name):
    build, _ = DIM_TYPES[name]
    assert type(build(np.int64(2), np.eye(2)).dim) is int
    with pytest.raises(ValueError, match=r"^dim must be an integer >= 1, got 2\.5$"):
        build(2.5, np.eye(2))


@pytest.mark.parametrize("matrix", [[[1, 0], [0]], [["x", 0], [0, 1]]], ids=["ragged", "string"])
@pytest.mark.parametrize("name", sorted(DIM_TYPES))
def test_unconvertible_matrix_names_its_field(name, matrix):
    build, what = DIM_TYPES[name]
    with pytest.raises(ValueError, match=rf"^{what}: expected a 2x2 matrix of numbers, got \["):
        build(2, matrix)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hermitian_basis_is_orthonormal_and_spans(dim):
    basis = hermitian_basis(dim)
    assert basis.shape == (dim * dim, dim, dim)
    assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    assert np.allclose(gram, np.eye(dim * dim), rtol=0.0, atol=1e-15)
    a = lb.stream(dim, 9).normal(size=(2, dim, dim))
    h = hermitian_part(a[0] + 1j * a[1])
    assert np.allclose(np.einsum("a,aij->ij", coordinates(h), basis), h, rtol=0.0, atol=1e-14)


def test_hermitian_part():
    m = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitian_part(m)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0 + 0.5j], [1.0 - 0.5j, 3.0]])


def test_hermitian_part_halves_before_adding():
    a = lb.stream(4, 2).normal(size=(2, 3, 3))
    m = a[0] + 1j * a[1]
    assert np.array_equal(hermitian_part(m), (m + m.conj().T) / 2.0)
    big = np.array([[0.0, 1.7e308], [1.7e308, 0.0]])
    assert np.array_equal(hermitian_part(big), big)


class TestDensityMatrix:
    def test_trace_property(self):
        rho = lb.DensityMatrix(2, np.diag([0.3, 0.45]))
        assert rho.trace == pytest.approx(0.75)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="expected a 2x2"):
            lb.DensityMatrix(2, np.eye(3))

    def test_nonpositive_dim_raises(self):
        with pytest.raises(ValueError, match=r"dim must be an integer >= 1, got 0"):
            lb.DensityMatrix(0, np.zeros((0, 0)))

    def test_matrix_is_read_only(self):
        rho = lb.basis_state(2, 0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_basis_state(self):
        rho = lb.basis_state(3, 1)
        assert np.array_equal(rho.matrix, np.diag([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="level"):
            lb.basis_state(2, 2)

    def test_maximally_mixed(self):
        rho = lb.maximally_mixed(4)
        assert np.allclose(rho.matrix, np.eye(4) / 4)
        assert rho.trace == pytest.approx(1.0)


class TestValidateState:
    def test_valid_state_has_no_violations(self):
        assert lb.validate_state(lb.maximally_mixed(3)) == []

    def test_subnormalized_state_is_valid(self):
        rho = lb.DensityMatrix(2, np.diag([0.2, 0.1]))
        assert lb.validate_state(rho) == []

    def test_non_hermitian_detected(self):
        rho = lb.DensityMatrix(2, np.array([[0.5, 0.3], [0.0, 0.5]]))
        codes = [v.code for v in lb.validate_state(rho)]
        assert "not_hermitian" in codes

    def test_negative_eigenvalue_detected(self):
        rho = lb.DensityMatrix(2, np.diag([1.1, -0.1]))
        codes = [v.code for v in lb.validate_state(rho)]
        assert codes == ["negative_eigenvalue"]

    def test_trace_out_of_range_detected(self):
        rho = lb.DensityMatrix(2, np.diag([0.8, 0.8]))
        violations = lb.validate_state(rho)
        assert [v.code for v in violations] == ["trace_out_of_range"]
        assert violations[0].deviation == pytest.approx(1.6)

    def test_overflowing_trace_is_out_of_range_without_a_warning(self):
        rho = lb.DensityMatrix(2, np.diag([1.7e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            violations = lb.validate_state(rho)
        assert [v.code for v in violations] == ["trace_out_of_range"]
        assert violations[0].deviation == math.inf

    def test_zero_trace_detected(self):
        rho = lb.DensityMatrix(2, np.zeros((2, 2)))
        codes = [v.code for v in lb.validate_state(rho)]
        assert "trace_out_of_range" in codes

    def test_nan_entry_is_not_hermitian(self):
        rho = lb.DensityMatrix(2, np.array([[0.5, np.nan], [np.nan, 0.5]]))
        codes = [v.code for v in lb.validate_state(rho)]
        assert codes == ["not_hermitian"]


class TestQuantumChannel:
    def test_valid_amplitude_damping(self):
        g = 0.3
        k0 = np.diag([1.0, np.sqrt(1 - g)])
        k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
        ch = lb.QuantumChannel(2, (k0, k1))
        assert np.allclose(ch.survival_operator, np.eye(2))

    def test_trace_increasing_raises(self):
        with pytest.raises(ValueError, match="trace-increasing"):
            lb.QuantumChannel(2, (np.diag([1.1, 1.0]),))
        # Rejected before sum K^H K overflows, which the suite turns into an error.
        for huge in (9.5e153, 1.35e154, 1e300j):
            with pytest.raises(ValueError, match="trace-increasing"):
                lb.QuantumChannel(2, (np.diag([huge, 0.0]), np.eye(2)))

    def test_empty_kraus_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            lb.QuantumChannel(2, ())

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="kraus\\[0\\]"):
            lb.QuantumChannel(2, (np.eye(3),))

    def test_tiny_overshoot_tolerated(self):
        ch = lb.QuantumChannel(2, (np.diag([1.0 + 4e-11, 1.0]),))
        assert len(ch.kraus) == 1


class TestMeasurementOperator:
    def test_nan_entry_raises(self):
        with pytest.raises(ValueError, match=r"not Hermitian \(deviation nan\)"):
            lb.MeasurementOperator(2, np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_huge_off_diagonal_raises_without_overflow(self):
        # (Q + Q^H)/2 would overflow; the suite turns the warning into an error.
        with pytest.raises(ValueError, match="eigenvalues outside"):
            lb.MeasurementOperator(2, np.array([[0.0, 1e308], [1e308, 0.0]]))


class TestApplyChannel:
    def test_lossy_channel_shrinks_trace(self):
        ch = lb.basis_loss_channel(alpha=0.5, level=1, dim=2)
        out = lb.apply_channel(ch, lb.basis_state(2, 1))
        assert out.trace == pytest.approx(0.25)

    def test_unaffected_state_keeps_trace(self):
        ch = lb.basis_loss_channel(alpha=0.5, level=1, dim=2)
        out = lb.apply_channel(ch, lb.basis_state(2, 0))
        assert out.trace == pytest.approx(1.0)

    def test_dim_mismatch_raises(self):
        ch = lb.depolarizing_channel(0.1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            lb.apply_channel(ch, lb.maximally_mixed(3))


class TestSurvivalOperator:
    def test_basis_loss_survival_operator(self):
        ch = lb.basis_loss_channel(alpha=0.99, level=1, dim=2)
        assert np.allclose(ch.survival_operator, np.diag([1.0, 0.9801]))

    def test_bounded_by_identity_for_random_channels(self):
        for seed in range(5):
            ch = lb.random_lossy_channel(3, 0.6, seed)
            eigs = np.linalg.eigvalsh(ch.survival_operator)
            assert eigs[0] >= -1e-12
            assert eigs[-1] <= 1.0 + 1e-10

    def test_matrix_helper_matches(self):
        ch = lb.random_lossy_channel(2, 0.4, 11)
        m = ch.survival_operator
        assert np.allclose(m, sum(k.conj().T @ k for k in ch.kraus))
        # Stored when the channel is built, with its eigendecomposition.
        eigs, vecs = ch.survival_spectrum
        assert np.allclose(vecs @ np.diag(eigs) @ vecs.conj().T, m, rtol=0.0, atol=1e-15)
        assert np.array_equal(eigs, np.linalg.eigh(m)[0])
        assert not any(a.flags.writeable for a in (m, eigs, vecs))


class TestExpectation:
    def test_projector_on_basis_state(self):
        q = lb.MeasurementOperator(2, np.diag([1.0, 0.0]))
        assert lb.expectation(q, lb.basis_state(2, 0)) == 1.0
        assert lb.expectation(q, lb.basis_state(2, 1)) == 0.0

    def test_tiny_negative_clamped_to_zero(self):
        q = lb.MeasurementOperator(2, np.diag([1.0, 0.0]))
        rho = lb.DensityMatrix(2, np.diag([-5e-11, 1.0]))
        assert lb.expectation(q, rho) == 0.0

    def test_large_negative_raises(self):
        q = lb.MeasurementOperator(2, np.diag([1.0, 0.0]))
        rho = lb.DensityMatrix(2, np.diag([-1e-8, 1.0]))
        with pytest.raises(ValueError, match="outside"):
            lb.expectation(q, rho)

    def test_dim_mismatch_raises(self):
        q = lb.MeasurementOperator(2, np.eye(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            lb.expectation(q, lb.maximally_mixed(3))


class TestClickProbabilities:
    def test_clamps_small_strays(self):
        p = click_probabilities([-5e-11, 1.0 + 5e-11, 0.25 + 5e-11j])
        assert p.tolist() == [0.0, 1.0, 0.25]

    @pytest.mark.parametrize("bad", [-2e-10, 1.0 + 2e-10])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(ValueError, match="outside"):
            click_probabilities([0.5, bad])

    def test_imaginary_part_raises(self):
        with pytest.raises(ValueError, match="imaginary part"):
            click_probabilities([0.5, 0.5 + 2e-10j])

    def test_expectation_rejects_imaginary_trace(self):
        q = lb.MeasurementOperator(2, np.diag([1.0, 0.0]))
        rho = lb.DensityMatrix(2, np.diag([0.5 + 1e-9j, 0.5]))
        with pytest.raises(ValueError, match="imaginary part"):
            lb.expectation(q, rho)


class TestSampleClicks:
    def test_deterministic_given_stream(self):
        q = lb.MeasurementOperator(2, np.diag([0.7, 0.2]))
        rho = lb.maximally_mixed(2)
        a = lb.sample_clicks(q, rho, 100, lb.stream(5))
        b = lb.sample_clicks(q, rho, 100, lb.stream(5))
        assert a == b

    def test_frequency_matches_probability(self):
        # 5 sigma around p = 0.45 at 100000 shots
        q = lb.MeasurementOperator(2, np.diag([0.7, 0.2]))
        rho = lb.maximally_mixed(2)
        shots = 100_000
        clicks = lb.sample_clicks(q, rho, shots, lb.stream(123))
        p = 0.45
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(clicks / shots - p) < 5 * sigma

    def test_nonpositive_shots_raises(self):
        q = lb.MeasurementOperator(2, np.eye(2))
        with pytest.raises(ValueError, match="shots"):
            lb.sample_clicks(q, lb.maximally_mixed(2), 0, lb.stream(1))

    def test_non_integer_shots_raises(self):
        q = lb.MeasurementOperator(2, np.eye(2))
        with pytest.raises(ValueError, match=r"^shots must be an integer >= 1, got 2\.5$"):
            lb.sample_clicks(q, lb.maximally_mixed(2), 2.5, lb.stream(1))
