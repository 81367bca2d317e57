import dataclasses

import numpy as np
import pytest

import lossbench as lb
from lossbench import analysis
from lossbench.analysis import RBFit
from support import haar_states, random_density
from lossbench.core import survival_operator_matrix


class TestSurvivalRates:
    def test_average_response(self):
        q = lb.MeasurementOperator(2, np.diag([0.87, 0.95]))
        assert lb.average_response(q) == pytest.approx(0.91, abs=1e-15)

    def test_state_survival_on_basis_loss(self):
        ch = lb.basis_loss_channel(lb.LossModelSpec(alpha=0.99, level=1, dim=2))
        assert lb.state_survival(ch, lb.basis_state(2, 0)) == pytest.approx(1.0)
        assert lb.state_survival(ch, lb.basis_state(2, 1)) == pytest.approx(0.9801)
        assert lb.state_survival(ch, lb.maximally_mixed(2)) == pytest.approx(0.99005)
        assert lb.average_survival(ch) == pytest.approx(0.99005)

    def test_state_survival_is_scale_invariant(self):
        ch = lb.random_lossy_channel(2, 0.5, 3)
        rho = random_density(2, 4)
        shrunk = lb.DensityMatrix(2, 0.25 * rho.matrix)
        assert lb.state_survival(ch, shrunk) == pytest.approx(
            lb.state_survival(ch, rho), abs=1e-14
        )

    def test_zero_trace_raises(self):
        ch = lb.depolarizing_channel(0.1)
        with pytest.raises(ValueError, match="positive trace"):
            lb.state_survival(ch, lb.DensityMatrix(2, np.zeros((2, 2))))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_average_survival_matches_haar_mean(self, dim):
        # 5 sigma against a 10^4-state Monte Carlo estimate
        ch = lb.random_lossy_channel(dim, 0.5, 900 + dim)
        mop = survival_operator_matrix(ch.kraus)
        vs = haar_states(dim, 10_000, 40 + dim)
        surv = np.real(np.einsum("si,ij,sj->s", vs.conj(), mop, vs))
        sem = surv.std(ddof=1) / np.sqrt(surv.size)
        assert abs(surv.mean() - lb.average_survival(ch)) < 5 * sem


class TestWorstCaseLoss:
    def test_basis_loss_value(self):
        ch = lb.basis_loss_channel(lb.LossModelSpec(alpha=0.99, level=1, dim=2))
        assert lb.worst_case_loss(ch) == pytest.approx(1.0 - 0.9801, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_dominates_sampled_states(self, dim):
        # the eigenvalue solution must upper-bound a 10^5-state random search
        ch = lb.random_lossy_channel(dim, 0.5, 900 + dim)
        mop = survival_operator_matrix(ch.kraus)
        vs = haar_states(dim, 100_000, 50 + dim)
        sampled = 1.0 - np.real(np.einsum("si,ij,sj->s", vs.conj(), mop, vs))
        wc = lb.worst_case_loss(ch)
        assert sampled.max() <= wc + 1e-10
        assert wc - sampled.max() < 0.01


class TestProp1Check:
    def test_random_channels_satisfy_bound(self):
        for dim in (2, 3, 4):
            for seed in range(10):
                report = lb.prop1_check(lb.random_lossy_channel(dim, 0.7, seed))
                assert report.satisfied
                assert report.slack >= -1e-10
                assert 0.0 <= report.complement_survival <= 1.0 + 1e-12

    def test_single_level_loss_saturates_bound(self):
        for alpha in np.linspace(0.1, 0.99, 10):
            ch = lb.basis_loss_channel(lb.LossModelSpec(alpha=alpha, level=0, dim=2))
            report = lb.prop1_check(ch)
            assert report.satisfied
            assert report.slack == pytest.approx(0.0, abs=1e-12)
            assert report.complement_survival == pytest.approx(1.0, abs=1e-12)

    def test_report_fields_consistent(self):
        ch = lb.random_lossy_channel(3, 0.4, 17)
        report = lb.prop1_check(ch)
        assert report.avg_loss == pytest.approx(1.0 - lb.average_survival(ch))
        assert report.worst_loss == pytest.approx(lb.worst_case_loss(ch))
        assert report.bound == pytest.approx(3.0 * report.avg_loss)
        assert report.slack == pytest.approx(report.bound - report.worst_loss)

    def test_one_dimensional_channel_has_no_complement(self):
        ch = lb.QuantumChannel(1, (np.array([[0.9]]),))
        assert lb.prop1_check(ch).complement_survival is None


def synthetic_loss_dataset(b0, s, sems=None, m_grid=None, seed=None):
    m = np.array(m_grid if m_grid is not None else range(5, 101, 5), dtype=float)
    y = b0 * s ** (m - 1.0)
    if seed is not None:
        y = y + lb.stream(seed).normal(0.0, sems, size=m.size)
    sems_arr = np.full(m.size, np.nan if sems is None else sems)
    return lb.DecayDataset(
        m_values=tuple(int(v) for v in m),
        means=y,
        sems=sems_arr,
        n_sequences=30,
        shots=None,
    )


class TestFitLossDecay:
    def test_exact_data_round_trip(self):
        ds = synthetic_loss_dataset(0.91, 0.99)
        fit = lb.fit_loss_decay(ds)
        assert fit.converged
        assert fit.S_hat == pytest.approx(0.99, abs=1e-10)
        assert fit.B0_hat == pytest.approx(0.91, abs=1e-10)
        assert fit.chi2_per_dof < 1e-20
        assert 0 < fit.n_iterations <= 200

    def test_weighted_round_trip(self):
        ds = synthetic_loss_dataset(0.5, 0.95, sems=0.001, seed=21)
        fit = lb.fit_loss_decay(ds)
        assert fit.converged
        assert abs(fit.S_hat - 0.95) < 3 * fit.stderr_S
        assert abs(fit.B0_hat - 0.5) < 3 * fit.stderr_B0
        assert fit.chi2_per_dof < 3.0

    def test_scale_invariance_of_decay_rate(self):
        a = lb.fit_loss_decay(synthetic_loss_dataset(0.3, 0.97, sems=0.002, seed=5))
        scaled = synthetic_loss_dataset(0.3, 0.97, sems=0.002, seed=5)
        scaled = lb.DecayDataset(
            m_values=scaled.m_values,
            means=scaled.means * 2.0,
            sems=scaled.sems * 2.0,
            n_sequences=30,
            shots=None,
        )
        b = lb.fit_loss_decay(scaled)
        assert b.S_hat == pytest.approx(a.S_hat, abs=1e-9)
        assert b.B0_hat == pytest.approx(2.0 * a.B0_hat, rel=1e-9)

    def test_too_few_lengths_raises(self):
        ds = synthetic_loss_dataset(0.9, 0.99, m_grid=[1, 2])
        with pytest.raises(ValueError, match=">= 3"):
            lb.fit_loss_decay(ds)

    def test_all_nonpositive_raises(self):
        ds = lb.DecayDataset(
            m_values=(1, 2, 3),
            means=np.array([-0.1, -0.2, 0.0]),
            sems=np.full(3, np.nan),
            n_sequences=5,
            shots=None,
        )
        with pytest.raises(ValueError, match="non-positive"):
            lb.fit_loss_decay(ds)

    def test_non_finite_mean_raises(self):
        ds = synthetic_loss_dataset(0.9, 0.99)
        means = ds.means.copy()
        means[3] = np.nan
        ds = lb.DecayDataset(ds.m_values, means, ds.sems, 30, None)
        with pytest.raises(ValueError, match="not finite"):
            lb.fit_loss_decay(ds)

    def test_mostly_nonpositive_falls_back(self):
        ds = lb.DecayDataset(
            m_values=(1, 2, 3, 4),
            means=np.array([0.2, -0.01, 0.01, -0.02]),
            sems=np.full(4, 0.05),
            n_sequences=5,
            shots=None,
        )
        fit = lb.fit_loss_decay(ds)
        assert fit.converged
        assert fit.B0_hat > 0.0
        assert 0.0 < fit.S_hat


def rb_dataset(a, b, p, m_grid, sems=None, seed=None):
    m = np.array(m_grid, dtype=float)
    y = a * p**m + b
    if seed is not None:
        y = y + lb.stream(seed).normal(0.0, sems, size=m.size)
    sems_arr = np.full(m.size, np.nan if sems is None else sems)
    return lb.DecayDataset(
        m_values=tuple(int(v) for v in m),
        means=y,
        sems=sems_arr,
        n_sequences=30,
        shots=None,
    )


class TestFitRBDecay:
    def test_exact_data_round_trip(self):
        ds = rb_dataset(0.49, 0.5, 0.98, range(2, 61, 2))
        fit = lb.fit_rb_decay(ds)
        assert fit.converged
        assert fit.A_hat == pytest.approx(0.49, abs=1e-8)
        assert fit.B_hat == pytest.approx(0.5, abs=1e-8)
        assert fit.p_hat == pytest.approx(0.98, abs=1e-8)

    def test_weighted_recovery(self):
        ds = rb_dataset(0.4, 0.55, 0.95, range(1, 41), sems=0.002, seed=33)
        fit = lb.fit_rb_decay(ds)
        assert fit.converged
        assert abs(fit.p_hat - 0.95) < 3 * fit.stderr_p
        assert abs(fit.B_hat - 0.55) < 3 * fit.stderr_B

    def test_negative_amplitude_branch(self):
        ds = rb_dataset(-0.3, 0.7, 0.9, range(1, 31))
        fit = lb.fit_rb_decay(ds)
        assert fit.A_hat == pytest.approx(-0.3, abs=1e-7)
        assert fit.p_hat == pytest.approx(0.9, abs=1e-7)

    def test_covariance_is_symmetric_and_matches_stderr(self):
        ds = rb_dataset(0.49, 0.5, 0.98, range(2, 61, 2), sems=0.003, seed=12)
        fit = lb.fit_rb_decay(ds)
        assert fit.covariance.shape == (3, 3)
        assert np.allclose(fit.covariance, fit.covariance.T)
        assert fit.stderr_A == pytest.approx(np.sqrt(fit.covariance[0, 0]))
        assert fit.stderr_p == pytest.approx(np.sqrt(fit.covariance[2, 2]))

    def test_too_few_lengths_raises(self):
        ds = rb_dataset(0.5, 0.5, 0.9, [1, 2, 3])
        with pytest.raises(ValueError, match=">= 4"):
            lb.fit_rb_decay(ds)


def hard_floor_dataset():
    # A decay that levels off at 0.05: a plateau no single exponential fits.
    m = np.arange(1, 21, dtype=float)
    return lb.DecayDataset(
        m_values=tuple(int(v) for v in m),
        means=0.9 * 0.85 ** (m - 1.0) + 0.05,
        sems=np.full(m.size, 0.002),
        n_sequences=30,
        shots=None,
    )


def unit_weight_dataset():
    # Noisy means with zero sems: unit weights, residual-scaled stderrs.
    ds = synthetic_loss_dataset(0.8, 0.97, sems=0.003, seed=77)
    return lb.DecayDataset(ds.m_values, ds.means, np.zeros(ds.means.size), 30, None)


def mostly_nonpositive_dataset():
    return lb.DecayDataset(
        m_values=(1, 2, 3, 4),
        means=np.array([0.2, -0.01, 0.01, -0.02]),
        sems=np.full(4, 0.05),
        n_sequences=5,
        shots=None,
    )


_LOSS_FIELDS = ("S_hat", "B0_hat", "stderr_S", "stderr_B0")
_RB_FIELDS = ("A_hat", "B_hat", "p_hat", "stderr_A", "stderr_B", "stderr_p")


class TestSolverMatchesMinpack:
    """The numpy Levenberg-Marquardt against scipy's MINPACK lmder."""

    @pytest.mark.parametrize(
        "fit, fields, ds",
        [
            (lb.fit_loss_decay, _LOSS_FIELDS, synthetic_loss_dataset(0.91, 0.99)),
            (lb.fit_loss_decay, _LOSS_FIELDS, synthetic_loss_dataset(0.5, 0.95, sems=0.001, seed=21)),
            (lb.fit_loss_decay, _LOSS_FIELDS, unit_weight_dataset()),
            (lb.fit_loss_decay, _LOSS_FIELDS, hard_floor_dataset()),
            (lb.fit_loss_decay, _LOSS_FIELDS, mostly_nonpositive_dataset()),
            (lb.fit_rb_decay, _RB_FIELDS, rb_dataset(0.49, 0.5, 0.98, range(2, 61, 2))),
            (lb.fit_rb_decay, _RB_FIELDS, rb_dataset(0.4, 0.55, 0.95, range(1, 41), sems=0.002, seed=33)),
            (lb.fit_rb_decay, _RB_FIELDS, rb_dataset(-0.3, 0.7, 0.9, range(1, 31))),
        ],
        ids=[
            "loss-exact",
            "loss-weighted",
            "loss-unit-weight",
            "loss-plateau",
            "loss-mostly-nonpositive",
            "rb-exact",
            "rb-weighted",
            "rb-negative-amplitude",
        ],
    )
    def test_same_estimates_as_minpack(self, monkeypatch, fit, fields, ds):
        ours = fit(ds)
        reference = self.minpack_fit(monkeypatch, fit, ds)
        assert ours.converged == reference.converged
        for name in fields:
            # The stderrs of exact data are rounding noise below 1e-12.
            floor = 1e-12 if name.startswith("stderr_") else 0.0
            expected = pytest.approx(getattr(reference, name), rel=1e-7, abs=floor)
            assert getattr(ours, name) == expected, name

    def test_flat_curve_runs_out_of_budget_where_minpack_does(self, monkeypatch):
        # An alternating flat curve: neither solver converges within the
        # budget, and both stop at the same point up to rounding growth
        # over 200 evaluations.
        grid = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64)
        means = 0.5 + 0.004 * (-1.0) ** np.arange(len(grid))
        ds = lb.DecayDataset(grid, means, np.full(len(grid), 0.004), 40, 200)
        ours = lb.fit_rb_decay(ds)
        reference = self.minpack_fit(monkeypatch, lb.fit_rb_decay, ds)
        assert not ours.converged and not reference.converged
        assert ours.n_iterations == reference.n_iterations == analysis.MAX_ITERATIONS
        for name in ("A_hat", "B_hat", "p_hat"):
            assert getattr(ours, name) == pytest.approx(getattr(reference, name), rel=1e-5), name

    @staticmethod
    def minpack_fit(monkeypatch, fit, ds):
        least_squares = pytest.importorskip("scipy.optimize").least_squares

        def minpack(residuals, jacobian, x0):
            res = least_squares(
                residuals,
                x0,
                jac=jacobian,
                method="lm",
                gtol=analysis.GRADIENT_TOL,
                ftol=1e-15,
                xtol=1e-15,
                max_nfev=analysis.MAX_ITERATIONS,
            )
            return res.x, res.cost, res.jac, res.nfev, res.status >= 1

        monkeypatch.setattr(analysis, "_least_squares", minpack)
        return fit(ds)


class TestFitCalibration:
    def test_loss_fit_coverage_spot_check(self):
        # 20 noisy datasets; >= 17 should put the truth within 3 stderr
        hits = 0
        for i in range(20):
            s_true = (0.90, 0.99, 0.999)[i % 3]
            ds = synthetic_loss_dataset(0.91, s_true, sems=0.002, seed=4000 + i)
            fit = lb.fit_loss_decay(ds)
            if abs(fit.S_hat - s_true) <= 3 * fit.stderr_S:
                hits += 1
        assert hits >= 17


class TestDetectorEfficiency:
    def test_mixed_state_start_recovers_response_exactly(self):
        # B0 = D * S when the start state survives at the average rate
        out = lb.detector_efficiency(
            0.91 * 0.99005, 0.99005, lb.MeasurementOperator(2, np.eye(2))
        )
        assert out.D_hat == pytest.approx(0.91, abs=1e-12)
        assert out.eta == pytest.approx(0.91, abs=1e-12)
        assert out.relative_uncertainty == pytest.approx(0.00995, abs=1e-12)

    def test_basis_state_start_lands_within_twice_uncertainty(self):
        # B0 = D * S(rho0) with S(rho0) = 1: extraction error is ~(1-S)/S
        out = lb.detector_efficiency(
            0.91, 0.99005, lb.MeasurementOperator(2, np.eye(2))
        )
        assert abs(out.D_hat - 0.91) / 0.91 <= 2 * out.relative_uncertainty

    def test_eta_against_non_ideal_reference(self):
        q_ideal = lb.MeasurementOperator(2, np.diag([0.8, 0.6]))
        out = lb.detector_efficiency(0.63, 0.9, q_ideal)
        assert out.eta == pytest.approx((0.63 / 0.9) / 0.7)

    def test_validation(self):
        q = lb.MeasurementOperator(2, np.eye(2))
        with pytest.raises(ValueError, match="S_hat"):
            lb.detector_efficiency(0.9, 0.0, q)
        zero_q = lb.MeasurementOperator(2, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-positive average response"):
            lb.detector_efficiency(0.9, 0.99, zero_q)


class TestPlateauTest:
    def test_pure_exponential_not_flagged(self):
        ds = synthetic_loss_dataset(0.91, 0.99, sems=0.002, seed=8)
        report = lb.plateau_test(ds, lb.fit_loss_decay(ds))
        assert not report.flagged
        assert abs(report.tail_excess_z) < 3.0

    def test_hard_floor_is_flagged(self):
        ds = hard_floor_dataset()
        report = lb.plateau_test(ds, lb.fit_loss_decay(ds))
        assert report.flagged

    def test_thresholds_are_adjustable(self):
        ds = hard_floor_dataset()
        report = lb.plateau_test(
            ds, lb.fit_loss_decay(ds), chi2_threshold=1e9, tail_z_threshold=1e9
        )
        assert not report.flagged

    def test_too_few_lengths_raises(self):
        ds = synthetic_loss_dataset(0.9, 0.99, m_grid=[1, 2, 3, 4, 5])
        fit = lb.fit_loss_decay(ds)
        with pytest.raises(ValueError, match=">= 8"):
            lb.plateau_test(ds, fit)


def converged_rb(a, b, p, sigma=1e-3):
    cov = np.diag([sigma**2, sigma**2, sigma**2])
    return RBFit(
        A_hat=a,
        B_hat=b,
        p_hat=p,
        stderr_A=sigma,
        stderr_B=sigma,
        stderr_p=sigma,
        chi2_per_dof=1.0,
        converged=True,
        n_iterations=10,
        covariance=cov,
    )


class TestBMinusATest:
    def test_unconverged_fit_is_never_flagged(self):
        # Where a non-converged fit of a noisy flat curve can stop: p just
        # below 1 with large opposite A and B, far below -3 sigma.
        fit = converged_rb(8.4, -7.9, 0.999997)
        assert lb.b_minus_a_test(fit)[2]
        b_minus_a, _, flagged = lb.b_minus_a_test(dataclasses.replace(fit, converged=False))
        assert b_minus_a == pytest.approx(-16.3)
        assert not flagged


class TestMarkovianityTests:
    def test_consistent_depolarizing_data_has_no_flags(self):
        ds = rb_dataset(0.49, 0.5, 0.98, range(2, 61, 2))
        rb = lb.fit_rb_decay(ds)
        report = lb.markovianity_tests(
            rb,
            (0.5, 0.016),
            channel=lb.depolarizing_channel(0.02),
            rho0=lb.basis_state(2, 0),
            q_op=lb.MeasurementOperator(2, np.diag([1.0, 0.0])),
        )
        assert report.flags == ()
        assert report.b_minus_a == pytest.approx(0.01, abs=1e-7)
        assert report.exact_b_minus_a == pytest.approx(0.01, abs=1e-12)

    def test_negative_offset_gap_is_flagged(self):
        report = lb.markovianity_tests(converged_rb(0.55, 0.45, 0.9), (0.45, 0.01))
        assert "B_MINUS_A_NEGATIVE" in report.flags

    def test_m1_mismatch_is_flagged(self):
        report = lb.markovianity_tests(converged_rb(0.4, 0.5, 0.9), (0.9, 0.001))
        assert "M1_MISMATCH" in report.flags

    def test_flat_curve_suppresses_comparison_flags(self):
        # p ~ 1 leaves the A/B split unidentified
        report = lb.markovianity_tests(converged_rb(0.55, 0.45, 1.0), (0.9, 0.001))
        assert report.flags == ()
        report = lb.markovianity_tests(converged_rb(1e-12, 0.45, 0.9), (0.9, 0.001))
        assert report.flags == ()

    def test_plateau_report_is_folded_in(self):
        plateau = lb.PlateauReport(chi2_per_dof=9.0, tail_excess_z=5.0, flagged=True)
        report = lb.markovianity_tests(
            converged_rb(0.49, 0.5, 0.98), (0.5, 0.01), plateau=plateau
        )
        assert report.flags == ("PLATEAU",)

    def test_non_converged_fit_raises(self):
        bad = RBFit(
            A_hat=0.5,
            B_hat=0.5,
            p_hat=0.9,
            stderr_A=0.1,
            stderr_B=0.1,
            stderr_p=0.1,
            chi2_per_dof=1.0,
            converged=False,
            n_iterations=200,
            covariance=np.eye(3),
        )
        with pytest.raises(ValueError, match="converge"):
            lb.markovianity_tests(bad, (0.5, 0.01))

    def test_exact_value_needs_qubit_channel(self):
        spec = lb.LeakageModelSpec(epsilon=0.1, theta=0.0, hamiltonian_seed=3)
        report = lb.markovianity_tests(
            converged_rb(0.49, 0.5, 0.98),
            (0.5, 0.01),
            channel=lb.coherent_leakage_error(spec),
            rho0=lb.DensityMatrix(3, lb.pad_to_qutrit(lb.basis_state(2, 0).matrix)),
            q_op=lb.MeasurementOperator(3, lb.pad_to_qutrit(np.eye(2))),
        )
        assert report.exact_b_minus_a is None
