import dataclasses
import math
import warnings

import numpy as np
import pytest

import lossbench as lb
from lossbench import analysis
from lossbench.analysis import RBFit
from lossbench.core import coordinates, transfer_matrix
from support import (
    depolarizing_channel,
    exact_b_minus_a,
    haar_states,
    random_density,
    random_lossy_channel,
)


class TestSurvivalRates:
    def test_average_response(self):
        q = lb.MeasurementOperator(np.diag([0.87, 0.95]))
        assert lb.average_response(q) == pytest.approx(0.91, abs=1e-15)

    def test_state_survival_on_basis_loss(self):
        ch = lb.basis_loss_channel(alpha=0.99, level=1, dim=2)
        assert lb.state_survival(ch, lb.basis_state(2, 0)) == pytest.approx(1.0)
        assert lb.state_survival(ch, lb.basis_state(2, 1)) == pytest.approx(0.9801)
        assert lb.state_survival(ch, lb.maximally_mixed(2)) == pytest.approx(0.99005)
        assert lb.average_survival(ch) == pytest.approx(0.99005)

    def test_state_survival_is_scale_invariant(self):
        ch = random_lossy_channel(2, 0.5, 3)
        rho = random_density(2, 4)
        shrunk = lb.DensityMatrix(0.25 * rho.matrix)
        assert lb.state_survival(ch, shrunk) == pytest.approx(
            lb.state_survival(ch, rho), abs=1e-14
        )

    def test_zero_trace_raises(self):
        ch = depolarizing_channel(0.1)
        with pytest.raises(ValueError, match="positive trace"):
            lb.state_survival(ch, lb.DensityMatrix(np.zeros((2, 2))))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.diag([np.nan, 0.5]), "positive trace"),
            (np.diag([1.7e308, 1.7e308]), "positive trace"),
            (np.array([[0.5, np.nan], [np.nan, 0.5]]), "outside"),
        ],
        ids=["nan-trace", "overflowing-trace", "nan-rate"],
    )
    def test_non_finite_state_raises(self, matrix, message):
        # A NaN or overflowing trace fails 0 < trace < inf, and a NaN rate
        # fails the range test; none may come back as NaN or warn.
        ch = depolarizing_channel(0.1)
        with pytest.raises(ValueError, match=message):
            lb.state_survival(ch, lb.DensityMatrix(matrix))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_average_survival_matches_haar_mean(self, dim):
        # 5 sigma against a 10^4-state Monte Carlo estimate
        ch = random_lossy_channel(dim, 0.5, 900 + dim)
        mop = sum(k.conj().T @ k for k in ch.kraus)
        vs = haar_states(dim, 10_000, 40 + dim)
        surv = np.real(np.einsum("si,ij,sj->s", vs.conj(), mop, vs))
        sem = surv.std(ddof=1) / np.sqrt(surv.size)
        assert abs(surv.mean() - lb.average_survival(ch)) < 5 * sem


class TestWorstCaseLoss:
    def test_basis_loss_value(self):
        ch = lb.basis_loss_channel(alpha=0.99, level=1, dim=2)
        assert lb.worst_case_loss(ch) == pytest.approx(1.0 - 0.9801, abs=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_dominates_sampled_states(self, dim):
        # the eigenvalue solution must upper-bound a 10^5-state random search
        ch = random_lossy_channel(dim, 0.5, 900 + dim)
        mop = sum(k.conj().T @ k for k in ch.kraus)
        vs = haar_states(dim, 100_000, 50 + dim)
        sampled = 1.0 - np.real(np.einsum("si,ij,sj->s", vs.conj(), mop, vs))
        wc = lb.worst_case_loss(ch)
        assert sampled.max() <= wc + 1e-10
        assert wc - sampled.max() < 0.01


class TestProp1Check:
    def test_random_channels_satisfy_bound(self):
        for dim in (2, 3, 4):
            for seed in range(10):
                report = lb.prop1_check(random_lossy_channel(dim, 0.7, seed))
                assert report.satisfied
                assert report.slack >= -1e-10
                assert 0.0 <= report.complement_survival <= 1.0 + 1e-12

    def test_single_level_loss_saturates_bound(self):
        for alpha in np.linspace(0.1, 0.99, 10):
            ch = lb.basis_loss_channel(alpha=alpha, level=0, dim=2)
            report = lb.prop1_check(ch)
            assert report.satisfied
            assert report.slack == pytest.approx(0.0, abs=1e-12)
            assert report.complement_survival == pytest.approx(1.0, abs=1e-12)

    def test_report_fields_consistent(self):
        ch = random_lossy_channel(3, 0.4, 17)
        report = lb.prop1_check(ch)
        assert report.avg_loss == pytest.approx(1.0 - lb.average_survival(ch))
        assert report.worst_loss == pytest.approx(lb.worst_case_loss(ch))
        assert report.bound == pytest.approx(3.0 * report.avg_loss)
        assert report.slack == pytest.approx(report.bound - report.worst_loss)

    def test_one_dimensional_channel_has_no_complement(self):
        ch = lb.QuantumChannel((np.array([[0.9]]),))
        assert lb.prop1_check(ch).complement_survival is None

    def test_losses_are_the_clamped_survival_functions(self):
        # Trace-preserving leakage unitaries sit at the clamp: unclamped,
        # epsilon = 0.1 with seed 3 gives an average loss of -1.1e-15.
        channels = [random_lossy_channel(d, 0.5, seed) for d in (2, 3) for seed in range(100)]
        channels += [lb.coherent_leakage_error(0.1, seed) for seed in range(50)]
        for ch in channels:
            report = lb.prop1_check(ch)
            assert report.worst_loss == lb.worst_case_loss(ch)
            assert report.avg_loss == 1.0 - lb.average_survival(ch)
            assert report.avg_loss >= 0.0 and report.worst_loss >= 0.0


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

    def test_non_positive_means_are_judged_before_the_length_count(self):
        # Two lengths whose means are all <= 0 fail both rules; the loss fit's
        # own check runs first.
        ds = lb.DecayDataset((1, 2), np.array([-0.1, 0.0]), np.full(2, 0.01), 5, None)
        with pytest.raises(ValueError, match="^all means are non-positive; nothing to fit$"):
            lb.fit_loss_decay(ds)

    def test_the_evaluation_budget_ends_a_fit_unconverged(self):
        # The clip B0 <= 1e300 binds and the gradient jumps across it, so the
        # refinement spends every evaluation (ROADMAP item 9, clip-binding fit).
        ds = lb.DecayDataset((168, 212, 274), np.array([0.6, 0.0, 0.0]), np.full(3, 0.05), 5, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = lb.fit_loss_decay(ds)
        assert fit.n_iterations == analysis.MAX_ITERATIONS
        assert fit.converged is False

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

    @pytest.mark.parametrize(
        "means",
        [[0.01, -0.2, -0.3, -0.2], [0.05, -0.1, -0.05, -0.1, -0.08], [-0.2, 0.01, -0.1, -0.3]],
    )
    def test_intercept_stays_nonnegative(self, means):
        # A least-squares B0 below zero would fit these better at S ~ 1.
        ds = lb.DecayDataset(tuple(range(1, len(means) + 1)), np.array(means), np.full(len(means), 0.05), 5, None)
        fit = lb.fit_loss_decay(ds)
        assert fit.converged
        assert fit.B0_hat >= 0.0
        assert np.isfinite(fit.stderr_S) and np.isfinite(fit.stderr_B0)

    def test_tiny_sems_fit_without_overflow(self):
        # Weights 1/sem^2 of 1e200: no product of two weighted sums may overflow.
        fit = lb.fit_loss_decay(synthetic_loss_dataset(0.9, 0.99, sems=1e-100))
        assert fit.converged
        assert fit.S_hat == pytest.approx(0.99, rel=1e-12)

    def test_underflowing_column_keeps_its_amplitude(self):
        # Near the 1e-6 rate bound S^39 squared underflows, yet the curve
        # B0 * S^39 with B0 ~ 1e233 meets the first mean: the fit's column
        # S^(m - 40) is 1 at m = 40, and B0 = c S^-39 is formed at the end.
        ds = lb.DecayDataset((40, 45, 50), np.array([0.2, -0.1, 0.0]), np.full(3, 0.05), 5, None)
        fit = lb.fit_loss_decay(ds)
        assert fit.converged
        assert fit.chi2_per_dof == pytest.approx(4.0, rel=1e-9)  # only -0.1 left unfit
        assert fit.B0_hat * fit.S_hat**39 == pytest.approx(0.2, rel=1e-9)
        assert np.isfinite(fit.stderr_S) and np.isfinite(fit.stderr_B0)

    def test_intercept_is_held_at_its_largest_reportable_value(self):
        # Meeting the first mean needs B0 * S^199 = 0.5: B0 beyond the float
        # range at most rates.  The fit holds B0 at 1e300 and finds the rate
        # where that curve meets it.
        ds = lb.DecayDataset((200, 210, 220), np.array([0.5, 0.0, 0.0]), np.full(3, 0.05), 5, None)
        fit = lb.fit_loss_decay(ds)
        assert fit.converged
        assert fit.B0_hat == pytest.approx(analysis._B0_MAX, rel=1e-12)
        assert fit.B0_hat * fit.S_hat**199 == pytest.approx(0.5, rel=1e-9)
        assert fit.chi2_per_dof < 1e-20

    def test_huge_intercept_keeps_a_finite_jacobian(self):
        # The fit sits at the rate bound 1e-6 with B0 = 0.5e234.  Weights of
        # 1e80 times that B0 would overflow; the fit's weights are at most 1
        # and its amplitude is that of S^(m - 40), 0.5.
        ds = lb.DecayDataset((40, 50, 60, 70), np.array([0.5, 0.0, 0.0, 0.0]), np.full(4, 1e-80), 30, None)
        fit = lb.fit_loss_decay(ds)
        assert fit.B0_hat * fit.S_hat**39 == pytest.approx(0.5, rel=1e-9)
        # Only the m = 40 row moves with S: dS = S / (sqrt_w * model * (m - 1)).
        assert fit.stderr_S == pytest.approx(fit.S_hat / (1e80 * 0.5 * 39.0), rel=1e-9)

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


# The RB lengths of perfbench's fit-batch workload.
RB_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64)


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
        # (J^T J)^-1 from the weighted Jacobian of A p^m + B in natural units
        # at the fitted (A, B, p).
        ds = rb_dataset(0.49, 0.5, 0.98, range(2, 61, 2), sems=0.003, seed=12)
        fit = lb.fit_rb_decay(ds)
        m = np.array(ds.m_values, dtype=float)
        a, p = fit.A_hat, fit.p_hat
        jac = np.column_stack([p**m, np.ones_like(m), a * m * p ** (m - 1.0)]) / ds.sems[:, None]
        cov = np.linalg.inv(jac.T @ jac)
        assert np.allclose(cov, cov.T, rtol=1e-12, atol=0.0)
        var_b_minus_a = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
        expected = [*np.sqrt(cov.diagonal()), math.sqrt(var_b_minus_a)]
        stderrs = [fit.stderr_A, fit.stderr_B, fit.stderr_p, fit.stderr_B_minus_A]
        assert stderrs == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_too_few_lengths_raises(self):
        ds = rb_dataset(0.5, 0.5, 0.9, [1, 2, 3])
        with pytest.raises(ValueError, match=">= 4"):
            lb.fit_rb_decay(ds)

    def test_unidentified_amplitude_has_large_stderr(self):
        # An alternating flat curve pins B but not A: the fit converges with
        # p at a bound of the rate search, and the stderrs must say that A,
        # and with it B - A, is unknown.
        grid = RB_GRID
        means = 0.5 + 0.004 * (-1.0) ** np.arange(len(grid))
        fit = lb.fit_rb_decay(lb.DecayDataset(grid, means, np.full(len(grid), 0.004), 40, 200))
        assert fit.converged
        assert fit.p_hat in analysis.RATE_BOUNDS
        assert not analysis._identifiable(fit)
        assert 1.0 <= fit.stderr_A < math.inf
        report = lb.markovianity_tests(fit)
        assert 1.0 <= report.b_minus_a_sigma < math.inf
        assert report.flags == ()

    def test_noisy_flat_curves_converge(self):
        # Kaufman's curvature scales with A^2, so on flat curves plain
        # Gauss-Newton creeps (and ran out of its 200 evaluations on 2 of
        # these 40); the secant curvature converges in a few steps.
        grid = RB_GRID
        for seed in range(40):
            means = 0.5 + 0.005 * np.random.default_rng(seed).normal(size=len(grid))
            ds = lb.DecayDataset(grid, means, np.full(len(grid), 0.005), 40, 200)
            fit = lb.fit_rb_decay(ds)
            assert fit.converged and fit.n_iterations < 100, seed

    def test_null_direction_has_huge_finite_variance(self):
        # A flat curve fits with A = 0, so J's column for p is zero: its
        # variance must come out huge, not inf or NaN.
        grid = RB_GRID
        ds = lb.DecayDataset(grid, np.full(len(grid), -0.01), np.full(len(grid), 0.001), 40, 200)
        fit = lb.fit_rb_decay(ds)
        assert fit.A_hat == 0.0
        stderrs = [fit.stderr_A, fit.stderr_B, fit.stderr_p, fit.stderr_B_minus_A]
        assert all(math.isfinite(v) for v in stderrs)
        assert fit.stderr_p >= 1.0

    def test_rates_stay_inside_the_bounds(self):
        # A curve that falls ever faster (A < 0, p = 1.01) would fit p > 1
        # without the bound.
        ds = rb_dataset(-0.1, 0.6, 1.01, range(1, 41))
        fit = lb.fit_rb_decay(ds)
        assert fit.converged
        assert fit.p_hat == analysis.RATE_BOUNDS[1]
        assert not analysis._identifiable(fit)


def overflow_scan_dataset(index):
    """Dataset ``index`` of a seeded scan with sems spread over 150 decades."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        lo = int(rng.integers(20, 60))
        m_values = tuple(range(lo, 121, 10))
        sems = 10 ** rng.uniform(-150, 0, len(m_values))
        means = rng.normal(size=len(m_values))
    means[0] = abs(means[0])
    return lb.DecayDataset(m_values, means, sems, 30, None)


class TestNormalisedUnits:
    """Weights near 1e150 once overflowed inside a fit (a RuntimeWarning fails the suite)."""

    @pytest.mark.parametrize(
        "fit, index",
        [
            (lb.fit_rb_decay, 1),
            (lb.fit_loss_decay, 128),
            (lb.fit_rb_decay, 15),
            (lb.fit_rb_decay, 100),
        ],
        ids=["rb-covariance", "loss-covariance", "rb-projection", "rb-projection-sum"],
    )
    def test_spread_sems_fit_in_range(self, fit, index):
        ds = overflow_scan_dataset(index)
        result = fit(ds)
        assert result.converged
        stderrs = [v for k, v in vars(result).items() if k.startswith("stderr_")]
        assert all(0.0 < v < math.inf for v in stderrs)
        assert math.isfinite(result.chi2_per_dof)
        # The same data in units 2^-300 smaller: the same fit, bit for bit.
        scaled = fit(dataclasses.replace(ds, sems=np.ldexp(ds.sems, -300)))
        for name, value in vars(result).items():
            if name.endswith("_hat") or name == "n_iterations":
                assert getattr(scaled, name) == value, name
            elif name.startswith("stderr_"):
                assert getattr(scaled, name) == math.ldexp(value, -300), name

    def test_unit_weight_chi2_near_the_float_maximum_is_finite(self):
        # Under unit weights chi2/dof carries the means' unit squared.  Scaled
        # back before the division by dof (28 here), a chi2/dof in
        # [2^1022, 2^1024) overflowed to inf.
        noisy = synthetic_loss_dataset(0.6, 0.9, sems=0.01, seed=4)
        zeros = np.zeros(len(noisy.means))
        base = lb.fit_loss_decay(dataclasses.replace(noisy, sems=zeros))
        k = (1024 - math.frexp(base.chi2_per_dof)[1]) // 2
        means = np.ldexp(noisy.means, k)
        scaled = lb.fit_loss_decay(dataclasses.replace(noisy, means=means, sems=zeros))
        assert 2.0**1022 <= scaled.chi2_per_dof < math.inf
        assert scaled.chi2_per_dof == pytest.approx(math.ldexp(base.chi2_per_dof, 2 * k), rel=1e-9)


# The sems span 1e628, 1e220 and 1e270.  Squared and scaled to the largest,
# every weight but the third underflows to 0, and the loss fit's residuals
# past 1e154 on those rows once made its cost 0 * inf = NaN.
SPAN_LENGTHS = (7, 20, 33, 999999)
SPAN_MEANS = (-0.5, 8.5e-321, 0.5, -0.5)
SPAN_SEMS = {
    "span-1e628": (1.7e308, 1.7e308, 1e-320, 1.7e308),
    "span-1e220": (1.0, 1.0, 1e-220, 1.0),
    "span-1e270": (1e135, 1e135, 1e-135, 1e135),
}


def refused(n_params, n_kept):
    """pytest.raises for a fit refused by _separable_fit's length rule."""
    message = f"^need >= {n_params + 1} distinct sequence lengths, got {n_kept}$"
    return pytest.raises(ValueError, match=message)


class TestWeightsThatUnderflow:
    """A row whose weight underflows to 0 is left out of the fit (see _fit_weights),
    and a fit needs p + 1 rows left, p its parameter count."""

    @pytest.mark.parametrize("sems", list(SPAN_SEMS.values()), ids=list(SPAN_SEMS))
    @pytest.mark.parametrize("fit", [lb.fit_loss_decay, lb.fit_rb_decay], ids=["loss", "rb"])
    def test_a_lone_weighted_row_is_refused(self, fit, sems):
        # One row determines no rate, whatever stderrs its fit would report.
        offset = fit is lb.fit_rb_decay
        ds = lb.DecayDataset(SPAN_LENGTHS, SPAN_MEANS, sems, 5, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with refused(2 + offset, 1):
                fit(ds)
            with refused(2 + offset, 1):
                analysis._separable_fit((33,), np.array([0.5]), np.array([sems[2]]), offset)

    @pytest.mark.parametrize("fit", [lb.fit_loss_decay, lb.fit_rb_decay], ids=["loss", "rb"])
    def test_p_plus_one_weighted_rows_fit_with_one_dof(self, fit):
        n_params = 2 + (fit is lb.fit_rb_decay)
        full = rb_dataset(0.6, 0.3, 0.95, (1, 3, 6, 10, 15, 21, 28), sems=1e-3, seed=5)
        kept = [0, 2, 4, 6][: n_params + 1]
        sems = np.full(7, 1e300)
        sems[kept] = full.sems[kept]
        result = fit(dataclasses.replace(full, sems=sems))
        alone = dataclasses.replace(
            full,
            m_values=tuple(full.m_values[i] for i in kept),
            means=full.means[kept],
            sems=full.sems[kept],
        )
        assert result == fit(alone)
        m = np.array(alone.m_values, dtype=float)
        if n_params == 2:
            curve = result.B0_hat * result.S_hat ** (m - 1.0)
        else:
            curve = result.A_hat * result.p_hat**m + result.B_hat
        chi2 = float(np.sum(((alone.means - curve) / alone.sems) ** 2))
        # dof = n - p = 1, so chi2/dof is chi2 itself.
        assert chi2 > 0.1
        assert result.chi2_per_dof == pytest.approx(chi2, rel=1e-6)

    @pytest.mark.parametrize("fit", [lb.fit_loss_decay, lb.fit_rb_decay], ids=["loss", "rb"])
    def test_p_weighted_rows_are_refused(self, fit):
        n_params = 2 + (fit is lb.fit_rb_decay)
        full = rb_dataset(0.6, 0.3, 0.95, (1, 3, 6, 10, 15, 21, 28), sems=1e-3, seed=5)
        sems = np.full(7, 1e300)
        sems[: n_params] = 1e-3
        with refused(n_params, n_params):
            fit(dataclasses.replace(full, sems=sems))

    @pytest.mark.parametrize("fit", [lb.fit_loss_decay, lb.fit_rb_decay], ids=["loss", "rb"])
    def test_dof_counts_only_the_rows_kept(self, fit):
        full = rb_dataset(0.6, 0.3, 0.95, tuple(range(1, 21)), sems=1e-3, seed=2)
        sems = full.sems.copy()
        sems[[4, 11]] = 1e300
        kept = [i for i in range(20) if i not in (4, 11)]
        without = dataclasses.replace(
            full,
            m_values=tuple(full.m_values[i] for i in kept),
            means=full.means[kept],
            sems=full.sems[kept],
        )
        assert fit(dataclasses.replace(full, sems=sems)) == fit(without)


def evaluator_case(x, a, r, sems, offset, b=0.0):
    """(x, y, sems, offset) as a fit passes them to _separable_fit, y = a r^x + b."""
    x = np.array(x, dtype=float)
    return x, a * r**x + b, sems, offset


_EVALUATOR_CASES = {
    "loss-free": evaluator_case(range(4, 150, 5), 0.9, 0.98, 0.01, False),
    "loss-negative": evaluator_case(range(12), -0.5, 0.9, 0.05, False),
    "loss-clip-binding": (np.array([59.0, 69.0, 79.0]), np.array([0.5, 0.0, 0.0]), 0.05, False),
    "loss-unit-weights": evaluator_case(range(20), 0.8, 0.97, 0.0, False),
    "loss-subnormal-sems": evaluator_case(range(9, 60, 5), 0.7, 0.95, 1e-310, False),
    "rb": evaluator_case(RB_GRID, 0.4, 0.93, 0.004, True, b=0.5),
    "rb-unit-weights": evaluator_case(RB_GRID, 0.4, 0.93, 0.0, True, b=0.5),
    "rb-subnormal-sems": evaluator_case(RB_GRID, -0.3, 0.8, 3e-311, True, b=0.5),
}


class TestRateEvaluators:
    """A refinement step's single-rate evaluation against the grid's batched one."""

    # Both ends of RATE_BOUNDS and rates in between.
    RATES = (*analysis.RATE_BOUNDS, 1e-3, 0.3, 0.8, 0.93, 0.98, 1.0 - 1e-6)

    @staticmethod
    def compare(x, y, sems, offset) -> list:
        sems = np.full(x.size, sems, dtype=float)
        # Weights and centring as in _separable_fit.
        w2 = analysis._fit_weights(sems)[0] ** 2
        w_sum = float(w2.sum())
        mean = float(w2 @ y) / w_sum if offset else 0.0
        x0 = 0.0 if offset else float(x.min())
        args = (x - x0, y - mean, w2, w_sum, offset)
        amplitudes = []
        for t in map(math.log, TestRateEvaluators.RATES):
            c_max = analysis._B0_MAX * math.exp(x0 * t)
            cost, c, res, phi, norm2, curve = analysis._project_rate(t, c_max, *args)
            basis = analysis._rate_basis(np.array([t]), args[0], offset)
            costs, cs, ress, phis, norm2s = analysis._project_basis(basis, c_max, *args[1:])
            assert [repr(v) for v in (cost, c, norm2)] == [
                repr(float(v[0])) for v in (costs, cs, norm2s)
            ], t
            assert res.tobytes() == ress[0].tobytes(), t
            assert phi.tobytes() == phis[0].tobytes(), t
            assert curve.tobytes() == np.exp(t * args[0]).tobytes(), t
            amplitudes.append((c, c_max))
        return amplitudes

    @pytest.mark.parametrize("case", sorted(_EVALUATOR_CASES))
    def test_single_rate_matches_the_batch_bit_for_bit(self, case):
        self.compare(*_EVALUATOR_CASES[case])

    def test_cases_reach_both_clips_and_a_free_amplitude(self):
        amplitudes = [
            a for x, y, sems, offset in _EVALUATOR_CASES.values() if not offset
            for a in self.compare(x, y, sems, offset)
        ]
        assert any(c == 0.0 for c, _ in amplitudes)
        assert any(c == c_max for c, c_max in amplitudes)
        assert any(0.0 < c < c_max for c, c_max in amplitudes)


def grid_cache_dataset(model, weights, grid):
    """A noisy decay on one of two grids per model that differ in their last
    length, with absolute (1/sem^2) or unit (zero sems) weights."""
    if model == "rb":
        ds = rb_dataset(0.4, 0.5, 0.93, (RB_GRID, (*RB_GRID[:-1], 63))[grid], sems=0.004, seed=31)
    else:
        m_grid = (tuple(range(5, 101, 5)), (*range(5, 96, 5), 99))[grid]
        ds = synthetic_loss_dataset(0.9, 0.98, sems=0.003, m_grid=m_grid, seed=32)
    sems = ds.sems if weights == "absolute" else np.zeros(ds.sems.size)
    return lb.DecayDataset(ds.m_values, ds.means, sems, 30, None)


class TestGridBasisCache:
    """Fits on one length grid share its basis (analysis._grid_basis)."""

    @pytest.mark.parametrize("weights", ["absolute", "unit"])
    @pytest.mark.parametrize("model", ["loss", "rb"])
    def test_warm_fits_equal_cold_fits_bit_for_bit(self, model, weights):
        fit = lb.fit_rb_decay if model == "rb" else lb.fit_loss_decay
        hexed = lambda result: tuple(
            v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(result)
        )
        datasets = [grid_cache_dataset(model, weights, grid) for grid in (0, 1)]
        cold = []
        for ds in datasets:
            analysis._grid_basis.cache_clear()
            cold.append(hexed(fit(ds)))
        assert cold[0] != cold[1]
        # Each grid is a cache entry of its own: one miss each, then hits.
        analysis._grid_basis.cache_clear()
        for _ in range(2):
            assert [hexed(fit(ds)) for ds in datasets] == cold
        info = analysis._grid_basis.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

    def test_cached_arrays_are_read_only(self):
        analysis._grid_basis.cache_clear()
        for offset in (False, True):
            x, u, x0, phis, c_maxs = analysis._grid_basis(RB_GRID, offset)
            assert phis.shape == (analysis._LOG_RATE_GRID.size, len(RB_GRID))
            for array in (x, u, phis, c_maxs):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
        # One entry per model, in a cache of a fixed size.
        info = analysis._grid_basis.cache_info()
        assert (info.currsize, info.maxsize) == (2, analysis._GRID_CACHE_SIZE)


# One dataset of each kind that the fit-batch benchmark generates
# (perfbench/workloads.py), its values rounded to 6 significant digits:
# (m_values, means, sems, n_sequences, shots).
_LOSS_M = tuple(range(5, 151, 5))
_RB_M = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64)
PINNED_DATASETS = {
    "exp-abs": (_LOSS_M, [
        0.781188, 0.726486, 0.662831, 0.618406, 0.569176, 0.526827, 0.4846, 0.447844,
        0.416676, 0.387577, 0.355156, 0.326335, 0.301875, 0.278989, 0.255268, 0.238008,
        0.213141, 0.207287, 0.189392, 0.171599, 0.161764, 0.154701, 0.144163, 0.121923,
        0.113293, 0.112114, 0.102568, 0.0982725, 0.0827233, 0.0808911,
    ], [
        0.00296531, 0.00433528, 0.00430565, 0.00436515, 0.00253389, 0.00211974, 0.0023426,
        0.00250542, 0.00374842, 0.00222572, 0.00391183, 0.00230921, 0.00179233, 0.00260905,
        0.00435454, 0.00449303, 0.00389992, 0.00258889, 0.00308969, 0.00227893, 0.00369289,
        0.00393091, 0.00427712, 0.00316902, 0.00333887, 0.00310753, 0.00182379, 0.00412815,
        0.00283654, 0.00302533,
    ], 30, None),
    "exp-nan": (_LOSS_M, [
        0.891432, 0.846355, 0.798351, 0.760534, 0.706172, 0.671174, 0.640908, 0.599493,
        0.558034, 0.535547, 0.502109, 0.479822, 0.450054, 0.424918, 0.399888, 0.375638,
        0.355944, 0.339635, 0.316907, 0.299318, 0.283868, 0.268415, 0.252349, 0.240332,
        0.22505, 0.210996, 0.202004, 0.186944, 0.178202, 0.174852,
    ], [math.nan] * 30, 1, None),
    "exp-zero": (_LOSS_M, [
        0.716084, 0.643786, 0.564005, 0.50746, 0.448128, 0.390763, 0.344879, 0.308114,
        0.273445, 0.248818, 0.208486, 0.196545, 0.16754, 0.145884, 0.140113, 0.124354,
        0.0976568, 0.0954509, 0.0809729, 0.07891, 0.0499434, 0.0546471, 0.0472953,
        0.0526934, 0.038612, 0.0389413, 0.0254313, 0.0221746, 0.0301411, 0.0192654,
    ], [0.0] * 30, 30, None),
    "plateau": (_LOSS_M, [
        0.684474, 0.566575, 0.488434, 0.433624, 0.41756, 0.39284, 0.397081, 0.380964,
        0.379983, 0.373086, 0.373753, 0.387442, 0.381108, 0.364774, 0.382731, 0.373498,
        0.369463, 0.370062, 0.373421, 0.38215, 0.357309, 0.377379, 0.376198, 0.366139,
        0.385648, 0.375096, 0.3799, 0.373924, 0.377266, 0.3754,
    ], [
        0.00334919, 0.00734284, 0.00434578, 0.00463952, 0.00585968, 0.00812542, 0.00758003,
        0.00609845, 0.00368364, 0.00618114, 0.00578662, 0.00729587, 0.00467559, 0.00471696,
        0.00715326, 0.00643109, 0.00293265, 0.00443374, 0.0033718, 0.00437231, 0.00746943,
        0.00681299, 0.00301134, 0.00795119, 0.00651776, 0.00298708, 0.00623013, 0.00280537,
        0.00341181, 0.00360134,
    ], 30, None),
    "rb": (_RB_M, [
        0.975617, 0.965866, 0.930404, 0.929205, 0.906546, 0.887045, 0.86467, 0.835577,
        0.806546, 0.780663, 0.726413, 0.697181, 0.657304, 0.607779, 0.58658, 0.549542,
    ], [
        0.00462796, 0.00693667, 0.00750556, 0.00784003, 0.00575295, 0.00596622, 0.00817067,
        0.00565424, 0.0055964, 0.00721537, 0.00790786, 0.00529063, 0.00382389, 0.00710804,
        0.0056865, 0.00615334,
    ], 40, 200),
    "rb-flat": (_RB_M, [
        0.480203, 0.487668, 0.489743, 0.485219, 0.484335, 0.495868, 0.483702, 0.487698,
        0.487727, 0.492587, 0.484672, 0.47775, 0.478068, 0.494706, 0.470752, 0.480264,
    ], [
        0.00957093, 0.00687685, 0.00359478, 0.00495649, 0.00551086, 0.00570541, 0.00481043,
        0.00400467, 0.00482761, 0.00918922, 0.00600114, 0.00860558, 0.00386825, 0.00849246,
        0.00911208, 0.00362209,
    ], 40, 200),
}

# Every field of each dataset's fit, then of the loss fits' plateau_test, in
# field order, floats as float.hex.
PINNED_FITS = {
    "exp-abs": (
        ("0x1.f7fa837fa1400p-1", "0x1.a9f917be07adcp-1", "0x1.b823e52cce97bp-15",
         "0x1.05611e336b637p-9", "0x1.0ff96a0b2ed54p+0", True, 53),
        ("0x1.0ff96a0b2ed54p+0", "0x1.839c894bb8286p+0", False),
    ),
    "exp-nan": (
        ("0x1.fa26d12a383b0p-1", "0x1.dfeeaeb5c3336p-1", "0x1.253988c2542b4p-15",
         "0x1.c6a71f365bde6p-10", "0x1.52286c6bfc5c7p-17", True, 53),
        ("0x1.52286c6bfc5c7p-17", "0x1.764ed9aa21435p-4", False),
    ),
    "exp-zero": (
        ("0x1.f3c5d97d8763dp-1", "0x1.96ad59a87d2e2p-1", "0x1.66e791befeb42p-13",
         "0x1.121254c136ea8p-8", "0x1.ff81373be3c22p-16", True, 53),
        ("0x1.ff81373be3c22p-16", "-0x1.5020bdbd7d584p-2", False),
    ),
    "plateau": (
        ("0x1.fe89aee09b104p-1", "0x1.05dd03a25e3aep-1", "0x1.68feb8ae43389p-15",
         "0x1.fc6ad0cd57551p-10", "0x1.6c9a0b3bbfc49p+7", True, 51),
        ("0x1.6c9a0b3bbfc49p+7", "0x1.22d74ddbf61bbp+4", True),
    ),
    "rb": (
        ("0x1.ec70de4f1bb60p-2", "0x1.05765062d1cdcp-1", "0x1.ecf1f4219e68cp-1",
         "0x1.0bb2f905e0e83p-7", "0x1.2e58d5fa37fe9p-7", "0x1.a2efc7894d968p-10",
         "0x1.17a8c18910f89p-6", "0x1.d45c7cd0deffep-1", True, 52),
        None,
    ),
    "rb-flat": (
        ("0x1.882df37f73479p-7", "0x1.e8df02c54edddp-2", "0x1.f0f77e6665a49p-1",
         "0x1.1d6c237e2c0edp-7", "0x1.4b9d9cfd0632bp-7", "0x1.bff1f464e4866p-5",
         "0x1.3101ef85ada4ap-6", "0x1.9f9d6ec92aff9p-1", True, 53),
        None,
    ),
}


@pytest.mark.parametrize("kind", sorted(PINNED_DATASETS))
def test_fits_are_pinned_bit_for_bit(kind):
    # Any change to the fitter's arithmetic, or to the kernels numpy runs it
    # on, moves a bit here.
    ds = lb.DecayDataset(*PINNED_DATASETS[kind])
    hexed = lambda report: tuple(
        v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)
    )
    fit, plateau = PINNED_FITS[kind]
    if kind.startswith("rb"):
        assert hexed(lb.fit_rb_decay(ds)) == fit
    else:
        loss_fit = lb.fit_loss_decay(ds)
        assert hexed(loss_fit) == fit
        assert hexed(lb.plateau_test(ds, loss_fit)) == plateau


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


def minpack_fit(fit, ds) -> dict:
    """The model of ``fit`` fitted to ``ds`` by scipy's MINPACK lmder.

    A reference independent of the variable-projection search: the same
    weights, the rate on a log scale from a fixed start, gtol 1e-10,
    ftol = xtol = 1e-15 and 200 evaluations, and standard errors from
    (J^T J)^-1 at the solution, scaled by chi^2/dof under unit weights.
    Returns the fit's fields by name.
    """
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    m = np.array(ds.m_values, dtype=float)
    y = np.array(ds.means, dtype=float)
    absolute = bool(np.all(np.isfinite(ds.sems)) and np.all(ds.sems > 0))
    w = 1.0 / ds.sems if absolute else np.ones_like(y)
    if fit is lb.fit_loss_decay:
        names, x0 = ("B0_hat", "S_hat"), [y[0], np.log(0.9)]

        def model(x):
            curve = np.exp((m - 1.0) * x[1])
            return x[0] * curve, [curve, x[0] * (m - 1.0) * curve]
    else:
        names, x0 = ("A_hat", "B_hat", "p_hat"), [y[0] - y[-1], y[-1], np.log(0.9)]

        def model(x):
            curve = np.exp(m * x[2])
            return x[0] * curve + x[1], [curve, np.ones_like(m), x[0] * m * curve]

    res = least_squares(
        lambda x: w * (model(x)[0] - y),
        x0,
        jac=lambda x: w[:, None] * np.array(model(x)[1]).T,
        method="lm",
        gtol=1e-10,
        ftol=1e-15,
        xtol=1e-15,
        max_nfev=200,
    )
    chi2 = float(res.fun @ res.fun)
    cov = np.linalg.inv(res.jac.T @ res.jac)
    if not absolute:
        cov = cov * chi2 / (m.size - len(names))
    values = list(res.x[:-1]) + [np.exp(res.x[-1])]
    stderrs = list(np.sqrt(np.diag(cov)))
    stderrs[-1] *= values[-1]
    out = dict(zip(names, values))
    out.update({"stderr_" + n[:-4]: e for n, e in zip(names, stderrs)})
    out["converged"] = res.status >= 1
    out["chi2"] = chi2
    return out


class TestSolverMatchesMinpack:
    """The variable-projection fits against scipy's MINPACK lmder on the same models."""

    @pytest.mark.parametrize(
        "fit, fields, ds",
        [
            (lb.fit_loss_decay, _LOSS_FIELDS, synthetic_loss_dataset(0.91, 0.99)),
            (lb.fit_loss_decay, _LOSS_FIELDS, synthetic_loss_dataset(0.5, 0.95, sems=0.001, seed=21)),
            (lb.fit_loss_decay, _LOSS_FIELDS, unit_weight_dataset()),
            (lb.fit_loss_decay, _LOSS_FIELDS, hard_floor_dataset()),
            (lb.fit_rb_decay, _RB_FIELDS, rb_dataset(0.49, 0.5, 0.98, range(2, 61, 2))),
            (lb.fit_rb_decay, _RB_FIELDS, rb_dataset(0.4, 0.55, 0.95, range(1, 41), sems=0.002, seed=33)),
            (lb.fit_rb_decay, _RB_FIELDS, rb_dataset(-0.3, 0.7, 0.9, range(1, 31))),
        ],
        ids=[
            "loss-exact",
            "loss-weighted",
            "loss-unit-weight",
            "loss-plateau",
            "rb-exact",
            "rb-weighted",
            "rb-negative-amplitude",
        ],
    )
    def test_same_estimates_as_minpack(self, fit, fields, ds):
        ours = fit(ds)
        reference = minpack_fit(fit, ds)
        assert ours.converged == reference["converged"]
        for name in fields:
            # The stderrs of exact data are rounding noise below 1e-12.
            floor = 1e-12 if name.startswith("stderr_") else 0.0
            expected = pytest.approx(reference[name], rel=1e-7, abs=floor)
            assert getattr(ours, name) == expected, name

    def test_mostly_nonpositive_stops_at_the_lower_bound(self):
        # The cost keeps falling as S -> 0: lmder runs on to S ~ 1e-17, the
        # search stops at its lower bound with the same B0.
        ds = mostly_nonpositive_dataset()
        ours = lb.fit_loss_decay(ds)
        reference = minpack_fit(lb.fit_loss_decay, ds)
        assert ours.converged
        assert ours.S_hat == analysis.RATE_BOUNDS[0]
        assert reference["S_hat"] < ours.S_hat
        assert ours.B0_hat == pytest.approx(reference["B0_hat"], rel=1e-7)

    def test_flat_curve_converges_where_minpack_runs_out_of_budget(self):
        # An alternating flat curve: lmder spends its 200 evaluations
        # trading A against p near 0, the search stops at the lower rate
        # bound with a cost no higher and the same B.
        grid = RB_GRID
        means = 0.5 + 0.004 * (-1.0) ** np.arange(len(grid))
        ds = lb.DecayDataset(grid, means, np.full(len(grid), 0.004), 40, 200)
        ours = lb.fit_rb_decay(ds)
        reference = minpack_fit(lb.fit_rb_decay, ds)
        assert not reference["converged"]
        assert ours.converged and ours.n_iterations < analysis.MAX_ITERATIONS
        assert ours.p_hat == analysis.RATE_BOUNDS[0]
        assert ours.chi2_per_dof * (len(grid) - 3) <= reference["chi2"] * (1 + 1e-12)
        assert ours.B_hat == pytest.approx(reference["B_hat"], rel=1e-7)


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
            0.91 * 0.99005, 0.99005, lb.MeasurementOperator(np.eye(2))
        )
        assert out.D_hat == pytest.approx(0.91, abs=1e-12)
        assert out.eta == pytest.approx(0.91, abs=1e-12)
        assert out.relative_uncertainty == pytest.approx(0.00995, abs=1e-12)

    def test_basis_state_start_lands_within_twice_uncertainty(self):
        # B0 = D * S(rho0) with S(rho0) = 1: extraction error is ~(1-S)/S
        out = lb.detector_efficiency(
            0.91, 0.99005, lb.MeasurementOperator(np.eye(2))
        )
        assert abs(out.D_hat - 0.91) / 0.91 <= 2 * out.relative_uncertainty

    def test_eta_against_non_ideal_reference(self):
        q_ideal = lb.MeasurementOperator(np.diag([0.8, 0.6]))
        out = lb.detector_efficiency(0.63, 0.9, q_ideal)
        assert out.eta == pytest.approx((0.63 / 0.9) / 0.7)

    def test_validation(self):
        q = lb.MeasurementOperator(np.eye(2))
        with pytest.raises(ValueError, match="S_hat"):
            lb.detector_efficiency(0.9, 0.0, q)
        for s_hat in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^S_hat must be positive and finite"):
                lb.detector_efficiency(0.9, s_hat, q)
        for b0_hat in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^B0_hat must be finite"):
                lb.detector_efficiency(b0_hat, 0.9, q)
        zero_q = lb.MeasurementOperator(np.zeros((2, 2)))
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

    @pytest.mark.parametrize("scale", [-1029, 1023])
    def test_tail_sigma_survives_squaring(self, scale):
        # Squared, sems near 2^-1029 underflow to 0 and sems near 2^1023
        # overflow.  Sems scaled by a power of two give the same weighted
        # fit and the same excess, so z scales by its inverse.
        means = np.array([0.6071, 0.4488, 0.3294, 0.2434, 0.1794,
                          0.1335, 0.0969, 0.0727, 0.0533, 0.0401])
        sems = np.linspace(0.5, 0.95, 10)
        z = {}
        for e in (scale, -10):
            ds = lb.DecayDataset(tuple(range(10, 101, 10)), means, np.ldexp(sems, e), 30, None)
            z[e] = lb.plateau_test(ds, lb.fit_loss_decay(ds)).tail_excess_z
        assert z[scale] == pytest.approx(math.ldexp(z[-10], -10 - scale), rel=1e-12)

    def test_unit_weight_verdict_does_not_depend_on_the_unit_of_the_means(self):
        # Under unit weights chi2/dof is in the means' unit squared: this
        # exponential's is 7.02 at 2^10, and its tail sigma sat on the
        # 1e-15 floor at 2^-60.
        noisy = synthetic_loss_dataset(0.91, 0.99, sems=0.002, seed=3)
        reports = []
        for k in (-60, 0, 10):
            means = np.ldexp(noisy.means, k)
            ds = lb.DecayDataset(noisy.m_values, means, np.zeros(len(means)), 30, None)
            reports.append(lb.plateau_test(ds, lb.fit_loss_decay(ds)))
        assert [r.flagged for r in reports] == [False] * 3
        for report in reports:
            assert report.tail_excess_z == pytest.approx(reports[1].tail_excess_z, rel=1e-9)

    def test_too_few_lengths_raises(self):
        ds = synthetic_loss_dataset(0.9, 0.99, m_grid=[1, 2, 3, 4, 5])
        fit = lb.fit_loss_decay(ds)
        with pytest.raises(ValueError, match=">= 8"):
            lb.plateau_test(ds, fit)


def converged_rb(a, b, p, sigma=1e-3):
    return RBFit(
        A_hat=a,
        B_hat=b,
        p_hat=p,
        stderr_A=sigma,
        stderr_B=sigma,
        stderr_p=sigma,
        stderr_B_minus_A=math.sqrt(2.0) * sigma,
        chi2_per_dof=1.0,
        converged=True,
        n_iterations=10,
    )


class TestBMinusATest:
    def test_unconverged_fit_is_never_flagged(self):
        # Where a non-converged fit of a noisy flat curve can stop: p just
        # below 1 with large opposite A and B, far below -3 sigma.
        fit = converged_rb(8.4, -7.9, 0.999997)
        assert lb.markovianity_tests(fit).flags == ("B_MINUS_A_NEGATIVE",)
        report = lb.markovianity_tests(dataclasses.replace(fit, converged=False))
        assert report.b_minus_a == pytest.approx(-16.3)
        assert report.flags == ()

    @pytest.mark.parametrize("scale", [-1029, 664])
    def test_sigma_survives_squaring(self, scale):
        # Sems near 1e-310 (2^-1029) square to 0 and near 1e200 (2^664)
        # overflow.  Sems scaled by a power of two give the same weighted
        # fit, so every sigma scales with them; m = 1 joins with its own sem.
        sems = np.linspace(0.5, 1.0, 16)
        means = rb_dataset(0.45, 0.5, 0.9, RB_GRID, sems=np.ldexp(sems, -10), seed=3).means
        sigmas = {}
        for e in (scale, -10):
            ds = lb.DecayDataset(RB_GRID, means, np.ldexp(sems, e), 30, None)
            rb = lb.fit_rb_decay(ds)
            report = lb.markovianity_tests(rb, (rb.B_hat, math.ldexp(0.75, e)))
            assert report.b_minus_a_sigma == lb.markovianity_tests(rb).b_minus_a_sigma
            sigmas[e] = (report.b_minus_a_sigma, report.b_minus_m1_sigma)
        for extreme, normal in zip(sigmas[scale], sigmas[-10]):
            assert extreme == pytest.approx(math.ldexp(normal, scale + 10), rel=1e-12, abs=0.0)


class TestMarkovianityTests:
    def test_consistent_depolarizing_data_has_no_flags(self):
        ds = rb_dataset(0.49, 0.5, 0.98, range(2, 61, 2))
        rb = lb.fit_rb_decay(ds)
        report = lb.markovianity_tests(rb, (0.5, 0.016))
        assert report.flags == ()
        assert report.b_minus_a == pytest.approx(0.01, abs=1e-7)
        assert report.b_minus_m1 == rb.B_hat - 0.5
        assert report.b_minus_m1_sigma == math.hypot(rb.stderr_B, 0.016)
        exact = exact_b_minus_a(
            depolarizing_channel(0.02),
            lb.basis_state(2, 0),
            lb.MeasurementOperator(np.diag([1.0, 0.0])),
        )
        assert exact == pytest.approx(0.01, abs=1e-12)

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

    def test_nan_m1_sem_raises(self):
        # Single-sequence data write NaN sems; max(nan, floor) would be NaN
        # and skip the M1_MISMATCH comparison without a word.
        fit = converged_rb(0.4, 0.55, 0.9)
        assert lb.markovianity_tests(fit, (0.2, 0.0)).flags == ("M1_MISMATCH",)
        with pytest.raises(ValueError, match="sem of loss_m1"):
            lb.markovianity_tests(fit, (0.2, math.nan))

    @pytest.mark.parametrize(
        "loss_m1, part",
        [((math.nan, 0.01), "mean"), ((-math.inf, 0.01), "mean"), ((0.2, math.inf), "sem")],
    )
    def test_non_finite_m1_input_raises(self, loss_m1, part):
        # A NaN mean or an infinite sem would pass every comparison as False
        # and drop M1_MISMATCH without a word.
        rb = lb.fit_rb_decay(rb_dataset(0.49, 0.5, 0.98, range(2, 61, 2)))
        with pytest.raises(ValueError, match=f"^the {part} of loss_m1 must be finite"):
            lb.markovianity_tests(rb, loss_m1)

    def test_non_converged_fit_reports_statistics_without_flags(self):
        # B - A and B - m1 both lie far beyond 3 sigma, and the same fit
        # converged raises both flags; unconverged it raises none.
        fit = converged_rb(0.55, 0.45, 0.9)
        assert lb.markovianity_tests(fit, (0.9, 0.001)).flags == (
            "B_MINUS_A_NEGATIVE",
            "M1_MISMATCH",
        )
        report = lb.markovianity_tests(dataclasses.replace(fit, converged=False), (0.9, 0.001))
        assert report.flags == ()
        assert report.b_minus_a == pytest.approx(-0.1)
        assert report.b_minus_a_sigma == fit.stderr_B_minus_A
        assert report.b_minus_m1 == pytest.approx(-0.45)
        assert report.b_minus_m1_sigma == math.hypot(fit.stderr_B, 0.001)
        assert report.b_minus_a / report.b_minus_a_sigma < -3.0
        assert abs(report.b_minus_m1) > 3.0 * report.b_minus_m1_sigma

    def test_without_loss_m1_only_b_minus_a_is_checked(self):
        # B - m1 would be far beyond 3 sigma with loss_m1 = (0.9, 0.001).
        fit = converged_rb(0.55, 0.45, 0.9)
        report = lb.markovianity_tests(fit)
        assert report.b_minus_m1 is None and report.b_minus_m1_sigma is None
        assert report.flags == ("B_MINUS_A_NEGATIVE",)
        assert lb.markovianity_tests(converged_rb(0.4, 0.5, 0.9)).flags == ()
        assert lb.markovianity_tests(converged_rb(0.4, 0.5, 0.9), (0.9, 0.001)).flags == (
            "M1_MISMATCH",
        )

    def test_exact_value_for_qutrit_channels(self):
        # The Kraus-image oracle against the same value from the channel's
        # transfer matrix acting on state coordinates.
        rho = lb.DensityMatrix(lb.pad_to_qutrit(lb.basis_state(2, 0).matrix))
        q = lb.MeasurementOperator(lb.pad_to_qutrit(np.eye(2)))
        channels = [
            lb.coherent_leakage_error(epsilon=0.1, hamiltonian_seed=3),
            random_lossy_channel(3, 0.4, 21),
        ]
        for channel in channels:
            evolved = transfer_matrix(channel.kraus) @ coordinates(rho.matrix)
            survived = float(coordinates(np.eye(3)) @ evolved)
            observed = float(coordinates(q.matrix) @ evolved)
            expected = 2.0 * survived * lb.average_response(q) - observed
            assert exact_b_minus_a(channel, rho, q) == pytest.approx(expected, abs=1e-12)

    def test_exact_value_for_non_unital_channel(self):
        # Trace-preserving amplitude damping fixes |0><0|, so B - A = 0, while
        # Tr(Q L(I - rho)) = gamma: that form equals B - A only for unital L.
        gamma = 0.1
        channel = lb.QuantumChannel(
            (np.diag([1.0, np.sqrt(1.0 - gamma)]), np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])),
        )
        rho = lb.basis_state(2, 0)
        q = lb.MeasurementOperator(np.diag([1.0, 0.0]))
        cfg = lb.ProtocolConfig(
            lb.clifford_gateset(), channel, rho, q, range(1, 61, 3), 400, 0, variant="rb"
        )
        rb = lb.fit_rb_decay(lb.run_protocol(cfg))
        # The loss signal at m = 1 is Tr(L rho) Tr(Q)/d = 1/2 exactly.
        report = lb.markovianity_tests(rb, (0.5, 0.0))
        exact = exact_b_minus_a(channel, rho, q)
        assert exact == pytest.approx(0.0, abs=1e-12)
        assert abs(report.b_minus_a - exact) < 3.0 * report.b_minus_a_sigma
        assert report.flags == ()

    @pytest.mark.parametrize("k", [0, 40, -30, -40])
    def test_flags_do_not_depend_on_the_unit_of_the_data(self, k):
        # z = -143 at every scale.  Absolute thresholds, the amplitude cut
        # 1e-9 max(1, |B|) and the sigma floor, dropped the flag from 2^-30 on.
        m = np.arange(1, 41)
        means = 0.6 * 0.93**m + 0.3 + 0.002 * np.random.default_rng(5).normal(size=m.size)
        sems = np.full(m.size, 0.002)
        ds = lb.DecayDataset(tuple(range(1, 41)), np.ldexp(means, k), np.ldexp(sems, k), 30, None)
        report = lb.markovianity_tests(lb.fit_rb_decay(ds))
        assert report.flags == ("B_MINUS_A_NEGATIVE",)
        assert report.b_minus_a / report.b_minus_a_sigma == pytest.approx(-142.68, abs=0.01)

    def test_sigma_floor_covers_rounding_in_exact_fits(self):
        # Criterion 5's exact Clifford RB run: rounding leaves sems near
        # 1e-16, so the absolutely weighted fit's stderr_B sits below the
        # rounding error of B itself.  Without the floor, B against the
        # exact m = 1 value 1/2 would raise a false M1_MISMATCH.
        cfg = lb.ProtocolConfig(
            lb.clifford_gateset(),
            depolarizing_channel(0.02),
            lb.basis_state(2, 0),
            lb.MeasurementOperator(np.diag([1.0, 0.0])),
            tuple(range(2, 61, 2)),
            30,
            9,
            variant="rb",
        )
        ds = lb.run_protocol(cfg)
        rb = lb.fit_rb_decay(ds)
        assert analysis._absolute_weights(ds.sems) and ds.sems.max() < 1e-15
        assert abs(rb.B_hat - 0.5) > 3.0 * rb.stderr_B
        assert lb.markovianity_tests(rb, (0.5, 0.0)).flags == ()
