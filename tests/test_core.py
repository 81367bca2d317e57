import re
import warnings

import numpy as np
import pytest

import lossbench as lb
from lossbench.core import (
    click_probabilities,
    coordinates,
    expectation,
    hermitian_basis,
    hermitian_part,
    sample_clicks,
)
from support import apply_channel, depolarizing_channel, random_lossy_channel


def test_stream_is_deterministic_and_key_separated():
    a = lb.stream(3, 1, 4).normal(size=5)
    b = lb.stream(3, 1, 4).normal(size=5)
    c = lb.stream(3, 1, 5).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_short_keys_draw_their_zero_padded_streams():
    # numpy hashes a word missing from its 4-word pool as a zero word.
    def draws(*key):
        return lb.stream(*key).integers(0, 2**62, size=8)

    assert np.array_equal(draws(42, 3, 1), draws(42, 3, 1, 0))
    assert np.array_equal(draws(7), draws(7, 0, 0, 0))
    # Past the pool, a trailing zero word is one more word hashed in.
    assert not np.array_equal(draws(42, 3, 1, 0), draws(42, 3, 1, 0, 0))


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
    draws = lb.stream(*key).integers(0, 2**62, size=8)
    for seed in (key, np.array(words, dtype=np.uint32)):
        assert np.array_equal(draws, np.random.default_rng(seed).integers(0, 2**62, size=8))


def test_engine_draws_are_pinned_literals():
    # The engine's words are one integers call and its clicks one binomial
    # call per length; a numpy whose draws differ would change every artifact.
    words = lb.stream(42, 3, 0, 2).integers(0, 24, size=(2, 5))
    assert words.tolist() == [[13, 23, 10, 23, 4], [0, 12, 14, 0, 9]]
    clicks = lb.stream(42, 3, 0, 1).binomial(100, [0.25, 0.5, 0.9])
    assert clicks.tolist() == [26, 44, 91]


@pytest.mark.parametrize("bad", [-1, 1.5])
def test_stream_rejects_keys_that_are_not_nonnegative_integers(bad):
    with pytest.raises(ValueError, match=rf"^stream key must be an integer >= 0, got {bad}$"):
        lb.stream(3, bad)


# The four types that carry a dim, each built from one square matrix.
DIM_TYPES = {
    "DensityMatrix": (lambda m: lb.DensityMatrix(m), "DensityMatrix"),
    "QuantumChannel": (lambda m: lb.QuantumChannel((m,)), r"QuantumChannel kraus\[0\]"),
    "MeasurementOperator": (lambda m: lb.MeasurementOperator(m), "MeasurementOperator"),
    "GateSet": (lambda m: lb.GateSet((m,), ("I",)), "gate 0"),
}


@pytest.mark.parametrize("name", sorted(DIM_TYPES))
def test_dim_is_an_integer_stored_as_int(name):
    build, _ = DIM_TYPES[name]
    for dim in (1, 2, 3):
        obj = build(np.eye(dim))
        assert type(obj.dim) is int and obj.dim == dim
        with pytest.raises(AttributeError):
            obj.dim = dim + 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lb.basis_state(2, 1.5), r"^level must be an integer >= 0, got 1\.5$"),
        (lambda: lb.basis_state(2.0, 0), r"^dim must be an integer >= 1, got 2\.0$"),
        (lambda: lb.maximally_mixed(2.0), r"^dim must be an integer >= 1, got 2\.0$"),
        (lambda: lb.basis_loss_channel(0.5, 1.5, 2), r"^level must be an integer >= 0, got 1\.5$"),
        (lambda: lb.basis_loss_channel(0.5, 0, 2.0), r"^dim must be an integer >= 1, got 2\.0$"),
        (lambda: lb.random_orthonormal_basis(2.5, 1), r"^dim must be an integer >= 1, got 2\.5$"),
        # Past Python's 4300-digit conversion limit the message still names the field.
        (
            lambda: lb.DecayDataset((1, 2, 3), [0.5] * 3, [0.1] * 3, -(10**5000), None),
            r"^n_sequences must be an integer >= 1, got an integer too long to print$",
        ),
        (
            lambda: lb.stream(-(10**5000)),
            r"^stream key must be an integer >= 0, got an integer too long to print$",
        ),
        (
            lambda: lb.basis_state(-(10**5000), 0),
            r"^dim must be an integer >= 1, got an integer too long to print$",
        ),
    ],
    ids=[
        "basis_state-level",
        "basis_state-dim",
        "maximally_mixed-dim",
        "basis_loss_channel-level",
        "basis_loss_channel-dim",
        "random_orthonormal_basis-dim",
        "DecayDataset-huge-n_sequences",
        "stream-huge-key",
        "basis_state-huge-dim",
    ],
)
def test_constructor_counts_go_through_the_count_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("matrix", [[[1, 0], [0]], [["x", 0], [0, 1]]], ids=["ragged", "string"])
@pytest.mark.parametrize("name", sorted(DIM_TYPES))
def test_unconvertible_matrix_names_its_field(name, matrix):
    build, what = DIM_TYPES[name]
    message = rf"^{what}: expected a nonempty square matrix of numbers, got \["
    with pytest.raises(ValueError, match=message):
        build(matrix)


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
        rho = lb.DensityMatrix(np.diag([0.3, 0.45]))
        assert rho.trace == pytest.approx(0.75)

    def test_shape_mismatch_raises(self):
        for matrix in (np.ones((2, 3)), np.eye(2)[0], np.ones((2, 2, 2))):
            shape = re.escape(str(matrix.shape))
            message = rf"^DensityMatrix: expected a nonempty square matrix, got shape {shape}$"
            with pytest.raises(ValueError, match=message):
                lb.DensityMatrix(matrix)

    def test_nonpositive_dim_raises(self):
        with pytest.raises(ValueError, match=r"got shape \(0, 0\)$"):
            lb.DensityMatrix(np.zeros((0, 0)))

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
        rho = lb.DensityMatrix(np.diag([0.2, 0.1]))
        assert lb.validate_state(rho) == []

    def test_non_hermitian_detected(self):
        rho = lb.DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))
        assert lb.validate_state(rho) == ["max |rho - rho^H| = 3.000e-01"]

    def test_negative_eigenvalue_detected(self):
        rho = lb.DensityMatrix(np.diag([1.1, -0.1]))
        assert lb.validate_state(rho) == ["smallest eigenvalue -0.1 < -1e-12"]

    def test_trace_out_of_range_detected(self):
        rho = lb.DensityMatrix(np.diag([0.8, 0.8]))
        assert lb.validate_state(rho) == ["trace 1.6 outside (0, 1]"]

    def test_overflowing_trace_is_out_of_range_without_a_warning(self):
        rho = lb.DensityMatrix(np.diag([1.7e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            violations = lb.validate_state(rho)
        assert violations == ["trace inf outside (0, 1]"]

    def test_zero_trace_detected(self):
        rho = lb.DensityMatrix(np.zeros((2, 2)))
        assert lb.validate_state(rho) == ["trace 0.0 outside (0, 1]"]

    def test_nan_entry_is_not_hermitian(self):
        rho = lb.DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))
        assert lb.validate_state(rho) == ["max |rho - rho^H| = nan"]


class TestQuantumChannel:
    def test_valid_amplitude_damping(self):
        g = 0.3
        k0 = np.diag([1.0, np.sqrt(1 - g)])
        k1 = np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])
        ch = lb.QuantumChannel((k0, k1))
        assert np.allclose(ch.survival_operator, np.eye(2))

    def test_trace_increasing_raises(self):
        with pytest.raises(ValueError, match="trace-increasing"):
            lb.QuantumChannel((np.diag([1.1, 1.0]),))
        # Every part at most 1, and still sum K^H K = 2 I.
        with pytest.raises(ValueError, match=r"largest eigenvalue of sum K\^H K is 2.0 > 1"):
            lb.QuantumChannel((np.eye(2), np.eye(2)))
        # Rejected before sum K^H K overflows, which the suite turns into an error.
        for huge in (9.5e153, 1.35e154, 1e300j):
            with pytest.raises(ValueError, match="trace-increasing"):
                lb.QuantumChannel((np.diag([huge, 0.0]), np.eye(2)))

    def test_empty_kraus_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            lb.QuantumChannel(())

    def test_wrong_shape_raises(self):
        message = r"^QuantumChannel kraus\[1\]: expected a 2x2 matrix, got shape \(3, 3\)$"
        with pytest.raises(ValueError, match=message):
            lb.QuantumChannel((np.eye(2), np.eye(3)))

    def test_tiny_overshoot_tolerated(self):
        ch = lb.QuantumChannel((np.diag([1.0 + 4e-11, 1.0]),))
        assert len(ch.kraus) == 1


class TestMeasurementOperator:
    def test_nan_entry_raises(self):
        with pytest.raises(ValueError, match=r"not Hermitian \(deviation nan\)"):
            lb.MeasurementOperator(np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_huge_off_diagonal_raises_without_overflow(self):
        # (Q + Q^H)/2 would overflow; the suite turns the warning into an error.
        with pytest.raises(ValueError, match="eigenvalues outside"):
            lb.MeasurementOperator(np.array([[0.0, 1e308], [1e308, 0.0]]))


class TestApplyChannel:
    def test_lossy_channel_shrinks_trace(self):
        ch = lb.basis_loss_channel(alpha=0.5, level=1, dim=2)
        out = apply_channel(ch, lb.basis_state(2, 1))
        assert out.trace == pytest.approx(0.25)

    def test_unaffected_state_keeps_trace(self):
        ch = lb.basis_loss_channel(alpha=0.5, level=1, dim=2)
        out = apply_channel(ch, lb.basis_state(2, 0))
        assert out.trace == pytest.approx(1.0)

    def test_dim_mismatch_raises(self):
        ch = depolarizing_channel(0.1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_channel(ch, lb.maximally_mixed(3))


class TestSurvivalOperator:
    def test_basis_loss_survival_operator(self):
        ch = lb.basis_loss_channel(alpha=0.99, level=1, dim=2)
        assert np.allclose(ch.survival_operator, np.diag([1.0, 0.9801]))

    def test_bounded_by_identity_for_random_channels(self):
        for seed in range(5):
            ch = random_lossy_channel(3, 0.6, seed)
            eigs = np.linalg.eigvalsh(ch.survival_operator)
            assert eigs[0] >= -1e-12
            assert eigs[-1] <= 1.0 + 1e-10

    def test_matrix_helper_matches(self):
        ch = random_lossy_channel(2, 0.4, 11)
        m = ch.survival_operator
        assert np.allclose(m, sum(k.conj().T @ k for k in ch.kraus))
        # Stored when the channel is built, with its eigendecomposition.
        eigs, vecs = ch.survival_spectrum
        assert np.allclose(vecs @ np.diag(eigs) @ vecs.conj().T, m, rtol=0.0, atol=1e-15)
        assert np.array_equal(eigs, np.linalg.eigh(m)[0])
        assert not any(a.flags.writeable for a in (m, eigs, vecs))


class TestExpectation:
    def test_projector_on_basis_state(self):
        q = lb.MeasurementOperator(np.diag([1.0, 0.0]))
        assert expectation(q, lb.basis_state(2, 0)) == 1.0
        assert expectation(q, lb.basis_state(2, 1)) == 0.0

    def test_tiny_negative_clamped_to_zero(self):
        q = lb.MeasurementOperator(np.diag([1.0, 0.0]))
        rho = lb.DensityMatrix(np.diag([-5e-11, 1.0]))
        assert expectation(q, rho) == 0.0

    def test_large_negative_raises(self):
        q = lb.MeasurementOperator(np.diag([1.0, 0.0]))
        rho = lb.DensityMatrix(np.diag([-1e-8, 1.0]))
        with pytest.raises(ValueError, match="outside"):
            expectation(q, rho)

    def test_dim_mismatch_raises(self):
        q = lb.MeasurementOperator(np.eye(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            expectation(q, lb.maximally_mixed(3))


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
        q = lb.MeasurementOperator(np.diag([1.0, 0.0]))
        rho = lb.DensityMatrix(np.diag([0.5 + 1e-9j, 0.5]))
        with pytest.raises(ValueError, match="imaginary part"):
            expectation(q, rho)


class TestSampleClicks:
    def test_deterministic_given_stream(self):
        q = lb.MeasurementOperator(np.diag([0.7, 0.2]))
        rho = lb.maximally_mixed(2)
        a = sample_clicks(q, rho, 100, lb.stream(5))
        b = sample_clicks(q, rho, 100, lb.stream(5))
        assert a == b

    def test_frequency_matches_probability(self):
        # 5 sigma around p = 0.45 at 100000 shots
        q = lb.MeasurementOperator(np.diag([0.7, 0.2]))
        rho = lb.maximally_mixed(2)
        shots = 100_000
        clicks = sample_clicks(q, rho, shots, lb.stream(123))
        p = 0.45
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(clicks / shots - p) < 5 * sigma

    def test_nonpositive_shots_raises(self):
        q = lb.MeasurementOperator(np.eye(2))
        with pytest.raises(ValueError, match="shots"):
            sample_clicks(q, lb.maximally_mixed(2), 0, lb.stream(1))

    def test_non_integer_shots_raises(self):
        q = lb.MeasurementOperator(np.eye(2))
        with pytest.raises(ValueError, match=r"^shots must be an integer >= 1, got 2\.5$"):
            sample_clicks(q, lb.maximally_mixed(2), 2.5, lb.stream(1))
