import dataclasses
import math

import numpy as np
import pytest

import lossbench as lb
from lossbench import analysis
from lossbench.analysis import RBFit
from support import haar_states, random_density


class TestSurvivalRates:
    def test_average_response(self):
        q = lb.MeasurementOperator(2, np.diag([0.87, 0.95]))
        assert lb.average_response(q) == pytest.approx(0.91, abs=1e-15)

    def test_state_survival_on_basis_loss(self):
        ch = lb.basis_loss_channel(alpha=0.99, level=1, dim=2)
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
        ch = lb.random_lossy_channel(dim, 0.5, 900 + dim)
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
                report = lb.prop1_check(lb.random_lossy_channel(dim, 0.7, seed))
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
        ch = lb.random_lossy_channel(3, 0.4, 17)
        report = lb.prop1_check(ch)
        assert report.avg_loss == pytest.approx(1.0 - lb.average_survival(ch))
        assert report.worst_loss == pytest.approx(lb.worst_case_loss(ch))
        assert report.bound == pytest.approx(3.0 * report.avg_loss)
        assert report.slack == pytest.approx(report.bound - report.worst_loss)

    def test_one_dimensional_channel_has_no_complement(self):
        ch = lb.QuantumChannel(1, (np.array([[0.9]]),))
        assert lb.prop1_check(ch).complement_survival is None

    def test_losses_are_the_clamped_survival_functions(self):
        # Trace-preserving leakage unitaries sit at the clamp: unclamped,
        # epsilon = 0.1 with seed 3 gives an average loss of -1.1e-15.
        channels = [lb.random_lossy_channel(d, 0.5, seed) for d in (2, 3) for seed in range(100)]
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
        _, sigma, flagged = lb.b_minus_a_test(fit)
        assert 1.0 <= sigma < math.inf
        assert not flagged

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
        assert np.all(np.isfinite(fit.covariance))
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

    def test_nan_m1_sem_raises(self):
        # Single-sequence data write NaN sems; max(nan, floor) would be NaN
        # and skip the M1_MISMATCH comparison without a word.
        fit = converged_rb(0.4, 0.55, 0.9)
        assert lb.markovianity_tests(fit, (0.2, 0.0)).flags == ("M1_MISMATCH",)
        with pytest.raises(ValueError, match="sem of loss_m1"):
            lb.markovianity_tests(fit, (0.2, math.nan))

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

    def test_exact_value_for_qutrit_channels(self):
        # 2 Tr(L rho) Tr(Q)/d - Tr(Q L rho), with L rho from the Kraus images
        rho = lb.DensityMatrix(3, lb.pad_to_qutrit(lb.basis_state(2, 0).matrix))
        q = lb.MeasurementOperator(3, lb.pad_to_qutrit(np.eye(2)))
        response = np.trace(q.matrix).real / 3.0
        channels = [
            lb.coherent_leakage_error(epsilon=0.1, hamiltonian_seed=3),
            lb.random_lossy_channel(3, 0.4, 21),
        ]
        for channel in channels:
            evolved = lb.apply_channel(channel, rho).matrix
            expected = 2.0 * evolved.trace().real * response - np.trace(q.matrix @ evolved).real
            report = lb.markovianity_tests(
                converged_rb(0.49, 0.5, 0.98), (0.5, 0.01), channel=channel, rho0=rho, q_op=q
            )
            assert report.exact_b_minus_a == pytest.approx(expected, abs=1e-12)

    def test_exact_value_for_non_unital_channel(self):
        # Trace-preserving amplitude damping fixes |0><0|, so B - A = 0, while
        # Tr(Q L(I - rho)) = gamma: that form equals B - A only for unital L.
        gamma = 0.1
        channel = lb.QuantumChannel(
            2,
            (np.diag([1.0, np.sqrt(1.0 - gamma)]), np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])),
        )
        rho = lb.basis_state(2, 0)
        q = lb.MeasurementOperator(2, np.diag([1.0, 0.0]))
        cfg = lb.ProtocolConfig(
            lb.clifford_gateset(), channel, rho, q, range(1, 61, 3), 400, 0, variant="rb"
        )
        rb = lb.fit_rb_decay(lb.run_protocol(cfg))
        # The loss signal at m = 1 is Tr(L rho) Tr(Q)/d = 1/2 exactly.
        report = lb.markovianity_tests(rb, (0.5, 0.0), channel=channel, rho0=rho, q_op=q)
        assert report.exact_b_minus_a == pytest.approx(0.0, abs=1e-12)
        assert abs(report.b_minus_a - report.exact_b_minus_a) < 3.0 * report.b_minus_a_sigma
        assert report.flags == ()
