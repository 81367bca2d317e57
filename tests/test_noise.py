import inspect

import numpy as np
import pytest

import lossbench as lb
from support import apply_channel, depolarizing_channel, random_lossy_channel


class TestBasisLossChannel:
    def test_survival_operator_is_diagonal_attenuation(self):
        ch = lb.basis_loss_channel(alpha=0.8, level=0, dim=3)
        assert np.allclose(ch.survival_operator, np.diag([0.64, 1.0, 1.0]))

    def test_saturates_worst_equals_dim_times_average(self):
        for alpha in (0.2, 0.9, 0.99):
            ch = lb.basis_loss_channel(alpha=alpha, level=1, dim=2)
            assert lb.worst_case_loss(ch) == pytest.approx(
                2.0 * (1.0 - lb.average_survival(ch)), abs=1e-12
            )

    def test_alpha_one_is_identity(self):
        ch = lb.basis_loss_channel(alpha=1.0, level=0, dim=2)
        assert np.allclose(ch.kraus[0], np.eye(2))

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            lb.basis_loss_channel(alpha=1.5, level=0, dim=2)
        with pytest.raises(ValueError, match="level"):
            lb.basis_loss_channel(alpha=0.5, level=2, dim=2)


class TestRandomOrthonormalBasis:
    def test_unitary_and_deterministic(self):
        b1 = lb.random_orthonormal_basis(4, 9)
        b2 = lb.random_orthonormal_basis(4, 9)
        assert np.array_equal(b1, b2)
        assert np.allclose(b1.conj().T @ b1, np.eye(4), atol=1e-12)

    def test_seeds_give_different_bases(self):
        assert not np.allclose(
            lb.random_orthonormal_basis(2, 1), lb.random_orthonormal_basis(2, 2)
        )


class TestDetectorModel:
    def test_eigenvalues_recovered(self):
        q = lb.detector_model(eigenvalues=(0.87, 0.95), basis=lb.random_orthonormal_basis(2, 7))
        assert np.allclose(np.linalg.eigvalsh(q.matrix), [0.87, 0.95])

    def test_average_response_is_basis_independent(self):
        for seed in (0, 7, 200):
            q = lb.detector_model((0.87, 0.95), lb.random_orthonormal_basis(2, seed))
            assert lb.average_response(q) == pytest.approx(0.91, abs=1e-12)

    def test_takes_its_basis_as_a_unitary_only(self):
        assert list(inspect.signature(lb.detector_model).parameters) == ["eigenvalues", "basis"]

    def test_explicit_identity_basis(self):
        q = lb.detector_model(eigenvalues=(0.3, 0.6), basis=np.eye(2))
        assert np.allclose(q.matrix, np.diag([0.3, 0.6]))

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="outside"):
            lb.detector_model(eigenvalues=(0.5, 1.2), basis=np.eye(2))
        with pytest.raises(ValueError, match="not unitary"):
            lb.detector_model(eigenvalues=(0.5, 0.5), basis=np.ones((2, 2)))
        # B^H B overflows; the suite turns the overflow warning into an error.
        with pytest.raises(ValueError, match="not unitary"):
            lb.detector_model(eigenvalues=(0.5, 0.5), basis=np.diag([1.5e154, 1.0]))
        with pytest.raises(ValueError, match=r"^basis: expected a 2x2 matrix, got shape \(3, 3\)$"):
            lb.detector_model(eigenvalues=(0.5, 0.5), basis=np.eye(3))
        with pytest.raises(ValueError, match=r"^basis: expected a 2x2 matrix of numbers, got \["):
            lb.detector_model(eigenvalues=(0.5, 0.5), basis=[[1, 0], [0]])

    def test_dim_property(self):
        assert lb.detector_model((1.0, 1.0, 1.0), lb.random_orthonormal_basis(3, 0)).dim == 3


class TestRandomLossyChannel:
    def test_deterministic(self):
        a = random_lossy_channel(3, 0.5, 42)
        b = random_lossy_channel(3, 0.5, 42)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))

    def test_is_lossy_but_valid(self):
        for seed in range(5):
            ch = random_lossy_channel(2, 0.5, seed)
            assert lb.average_survival(ch) < 1.0
            eigs = np.linalg.eigvalsh(ch.survival_operator)
            assert eigs[0] > 0.0

    def test_kraus_count(self):
        assert len(random_lossy_channel(3, 0.2, 0).kraus) == 9

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="dim"):
            random_lossy_channel(1, 0.5, 0)
        with pytest.raises(ValueError, match="loss_scale"):
            random_lossy_channel(2, 0.0, 0)


class TestDepolarizingChannel:
    def test_action_on_state(self):
        q = 0.3
        ch = depolarizing_channel(q)
        rho = lb.basis_state(2, 0)
        out = apply_channel(ch, rho)
        expected = (1 - q) * rho.matrix + q * np.eye(2) / 2.0
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_trace_preserving(self):
        ch = depolarizing_channel(0.1)
        assert np.allclose(ch.survival_operator, np.eye(2), atol=1e-12)

    def test_q_validation(self):
        with pytest.raises(ValueError, match="q must be"):
            depolarizing_channel(-0.1)


class TestCoherentLeakageError:
    def test_unitary_and_trace_preserving(self):
        ch = lb.coherent_leakage_error(epsilon=0.1, hamiltonian_seed=5)
        assert ch.dim == 3
        assert len(ch.kraus) == 1
        assert np.allclose(ch.survival_operator, np.eye(3), atol=1e-12)

    def test_deterministic(self):
        a = lb.coherent_leakage_error(epsilon=0.2, hamiltonian_seed=8)
        b = lb.coherent_leakage_error(epsilon=0.2, hamiltonian_seed=8)
        assert np.array_equal(a.kraus[0], b.kraus[0])

    def test_small_epsilon_is_near_identity(self):
        # |exp(-i eps H) - 1| <= eps for |H| = 1
        v = lb.coherent_leakage_error(epsilon=1e-3, hamiltonian_seed=5).kraus[0]
        assert np.max(np.abs(v - np.eye(3))) < 2e-3

    def test_moves_population_out_of_qubit_subspace(self):
        ch = lb.coherent_leakage_error(epsilon=0.3, hamiltonian_seed=5)
        rho = lb.DensityMatrix(lb.pad_to_qutrit(lb.basis_state(2, 0).matrix))
        out = apply_channel(ch, rho)
        qubit_weight = float(np.real(out.matrix[0, 0] + out.matrix[1, 1]))
        assert qubit_weight < 1.0 - 1e-6

    def test_matches_matrix_exponential(self):
        # The eigendecomposition form of exp(-i eps H) against scipy's expm
        # on the same seeded Hamiltonians.
        expm = pytest.importorskip("scipy.linalg").expm
        for seed in range(30):
            rng = lb.stream(seed)
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = (a + a.conj().T) / 2.0
            h = h / np.max(np.abs(np.linalg.eigvalsh(h)))
            for epsilon in (1e-3, 0.1, 0.5, 2.0):
                v = lb.coherent_leakage_error(epsilon=epsilon, hamiltonian_seed=seed).kraus[0]
                assert np.max(np.abs(v - expm(-1j * epsilon * h))) < 1e-14

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            lb.coherent_leakage_error(epsilon=0.0, hamiltonian_seed=0)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: lb.random_orthonormal_basis(2, -1),
            r"^seed must be an integer >= 0, got -1$",
        ),
        (
            lambda: lb.coherent_leakage_error(0.1, -1),
            r"^hamiltonian_seed must be an integer >= 0, got -1$",
        ),
        (
            lambda: lb.coherent_leakage_error(float("inf"), 1),
            r"^epsilon must be in \(0, inf\), got inf$",
        ),
        (
            lambda: lb.coherent_leakage_error(float("nan"), 1),
            r"^epsilon must be in \(0, inf\), got nan$",
        ),
        (
            lambda: lb.embed_gateset(lb.pauli_gateset(), float("nan")),
            r"^theta must be finite, got nan$",
        ),
        (
            lambda: lb.embed_gateset(lb.pauli_gateset(), float("-inf")),
            r"^theta must be finite, got -inf$",
        ),
        (
            lambda: lb.embed_gateset(lb.pauli_gateset(), "x"),
            r"^theta must be a real number, got 'x'$",
        ),
        (
            lambda: lb.coherent_leakage_error("a", 1),
            r"^epsilon must be a real number, got 'a'$",
        ),
        (
            lambda: lb.basis_loss_channel("a", 0, 2),
            r"^alpha must be a real number, got 'a'$",
        ),
        (
            lambda: lb.detector_model(("a", 0.5), np.eye(2)),
            r"^eigenvalues\[0\] must be a real number, got 'a'$",
        ),
        # Integers past the float range, which float() refuses with OverflowError.
        (
            lambda: lb.basis_loss_channel(10**400, 0, 2),
            r"^alpha must be a real number within the float range$",
        ),
        (
            lambda: lb.coherent_leakage_error(10**400, 1),
            r"^epsilon must be a real number within the float range$",
        ),
        (
            lambda: lb.embed_gateset(lb.pauli_gateset(), 10**400),
            r"^theta must be a real number within the float range$",
        ),
        (
            lambda: lb.detector_model((10**400, 0.5), np.eye(2)),
            r"^eigenvalues\[0\] must be a real number within the float range$",
        ),
        (lambda: lb.detector_model((), np.eye(2)), r"^eigenvalues must be nonempty$"),
    ],
    ids=[
        "random_orthonormal_basis-seed",
        "coherent_leakage_error-hamiltonian_seed",
        "coherent_leakage_error-epsilon-inf",
        "coherent_leakage_error-epsilon-nan",
        "embed_gateset-theta-nan",
        "embed_gateset-theta-inf",
        "embed_gateset-theta-str",
        "coherent_leakage_error-epsilon-str",
        "basis_loss_channel-alpha-str",
        "detector_model-eigenvalues-str",
        "basis_loss_channel-alpha-huge-int",
        "coherent_leakage_error-epsilon-huge-int",
        "embed_gateset-theta-huge-int",
        "detector_model-eigenvalues-huge-int",
        "detector_model-eigenvalues-empty",
    ],
)
def test_errors_name_the_argument_at_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()

