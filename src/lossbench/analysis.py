"""Estimation and validation mathematics for randomized loss experiments.

Covers survival and loss rates with the worst-case-vs-average bound, decay
fitting for the loss protocol (B0 * S^(m-1)) and the benchmarking variant
(A * p^m + B), detector-efficiency extraction, Markovianity consistency
checks, and plateau detection for leakage-type deviations from a single
exponential.

Fits run weighted least squares (weights 1/sem^2, or unit weights when any
sem is zero or missing) by variable projection: the amplitudes (B0, or A
and B) enter linearly and come in closed form at each rate, so only the
rate r (S or p) is searched, within RATE_BOUNDS = [1e-6, 1 - 1e-9].  One
fitter, _separable_fit, runs both models: a fixed grid of 48 rates brackets
the minimum and Gauss-Newton steps refine it until GRADIENT_TOL = 1e-10 is
met.  A minimum beyond a bound is reported at the bound, and a fit is
unconverged only when MAX_ITERATIONS = 200 evaluations run out.
``n_iterations`` counts reduced-cost evaluations: 48 for the grid plus one
per step.  Standard errors come from the full Jacobian at the solution.

Fits run in normalised units: the weights' square roots are divided by a
power of two that puts the largest near 1, means whose largest magnitude
lies outside [2^-16, 2^16) are divided by the power of two that puts it in
[1/2, 1), and the loss column is r^(m - m_min), 1 at the shortest length,
so the products inside a fit stay in range and the Jacobian's columns do
not depend on the data's unit.  The amplitudes, chi^2 and the stderrs are
scaled back exactly; beyond the float range they are inf.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ARITHMETIC_ATOL,
    DensityMatrix,
    MeasurementOperator,
    QuantumChannel,
)
from .protocol import DecayDataset

BOUND_ATOL = 1e-10
MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10

# The grid of t = log r that brackets every fitted rate: geometric in -t, so
# decay lengths -1/t from 0.07 to 1e9 steps are covered at a fixed ratio
# (about 1.6) between neighbours.  Its ends are the rate bounds.
_LOG_RATE_GRID = -np.geomspace(-math.log(1e-6), 1e-9, 48)
RATE_BOUNDS = tuple(float(r) for r in np.exp(_LOG_RATE_GRID[[0, -1]]))

# Length grids whose grid basis (see _grid_basis) is kept, least recently
# used first out.  An entry holds about 50 floats per length.
_GRID_CACHE_SIZE = 32

_EPS = np.finfo(float).eps

FLAG_B_MINUS_A_NEGATIVE = "B_MINUS_A_NEGATIVE"
FLAG_M1_MISMATCH = "M1_MISMATCH"
FLAG_PLATEAU = "PLATEAU"

# Fewest sequence lengths plateau_test accepts; `lossbench fit` skips the test below it.
PLATEAU_MIN_LENGTHS = 8
# plateau_test flags an absolutely weighted fit whose chi2/dof exceeds
# PLATEAU_CHI2, or a fit whose mean excess over the last PLATEAU_TAIL_POINTS
# lengths exceeds PLATEAU_TAIL_Z sigma.
PLATEAU_CHI2 = 4.0
PLATEAU_TAIL_Z = 3.0
PLATEAU_TAIL_POINTS = 5

# A loss fit holds B0, a detector response times a survival, in [0, _B0_MAX]:
# B0 = c r^-x0 grows without bound as r -> 0 when the shortest length exceeds 1.
_B0_MAX = 1e300

# Floor for the sigmas of the B - A and m = 1 comparisons.  It is there for
# exact-mode data, whose sems are rounding noise (5e-17 to 2e-16 on exact
# Clifford RB): a fit weighted by them reports stderrs below its own rounding
# error.  Criterion 5's exact RB fit has stderr_B = 3.9e-16 and B 27 of them
# off its exact m = 1 value 0.5, so absolutely weighted fits are floored too.
# It holds in the unit of the fit's amplitudes (see markovianity_tests).
_SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class DecayFit:
    """Single-exponential fit y(m) = B0 * S^(m-1)."""

    S_hat: float
    B0_hat: float
    stderr_S: float
    stderr_B0: float
    chi2_per_dof: float
    converged: bool
    n_iterations: int


@dataclass(frozen=True)
class RBFit:
    """Benchmarking-curve fit y(m) = A * p^m + B.

    ``stderr_B_minus_A`` is the standard error of B - A, taken in the fit's
    normalised units like the other stderrs.
    """

    A_hat: float
    B_hat: float
    p_hat: float
    stderr_A: float
    stderr_B: float
    stderr_p: float
    stderr_B_minus_A: float
    chi2_per_dof: float
    converged: bool
    n_iterations: int


@dataclass(frozen=True)
class BoundReport:
    """Worst-case loss against d times the average loss.

    ``complement_survival`` exercises the bound's mechanism: for the
    worst-case state rho*, the complement state (identity - rho*)/(d-1)
    must itself have survival probability inside [0, 1].  None when d = 1
    (no complement exists).
    """

    avg_loss: float
    worst_loss: float
    bound: float
    satisfied: bool
    slack: float
    complement_survival: float | None


@dataclass(frozen=True)
class MarkovReport:
    """Each indicator flag's statistic (B - A, B - m1) and its sigma.

    The B - m1 pair is None when no loss_m1 was given.
    """

    b_minus_a: float
    b_minus_a_sigma: float
    b_minus_m1: float | None
    b_minus_m1_sigma: float | None
    flags: tuple


@dataclass(frozen=True)
class PlateauReport:
    """Non-exponential tail diagnostics of a single-exponential fit."""

    chi2_per_dof: float
    tail_excess_z: float
    flagged: bool


@dataclass(frozen=True)
class DetectorEfficiency:
    """Detector response extracted from fitted decay constants."""

    eta: float
    D_hat: float
    relative_uncertainty: float


def average_response(q: MeasurementOperator) -> float:
    """Average detector response over all states: Tr(Q)/d."""
    return float(np.real(np.trace(q.matrix))) / q.dim


def state_survival(channel: QuantumChannel, rho: DensityMatrix) -> float:
    """Fraction of the trace of rho that survives the channel.

    Equals Tr(rho M)/Tr(rho) with M the survival operator, so it is
    invariant under rescaling rho.  A trace outside (0, inf), NaN included,
    or a NaN rate raises ValueError.
    """
    tr = rho.trace
    if not 0.0 < tr < math.inf:
        raise ValueError(f"state must have positive trace < inf, got {tr!r}")
    val = float(np.real(np.trace(rho.matrix @ channel.survival_operator))) / tr
    if not -ARITHMETIC_ATOL <= val <= 1.0 + ARITHMETIC_ATOL:
        raise ValueError(f"survival rate {val!r} outside [0, 1]")
    return min(max(val, 0.0), 1.0)


def average_survival(channel: QuantumChannel) -> float:
    """Survival rate of the maximally mixed state, Tr(M)/d, clamped to [0, 1]."""
    val = float(np.real(np.trace(channel.survival_operator))) / channel.dim
    return min(max(val, 0.0), 1.0)


def worst_case_loss(channel: QuantumChannel) -> float:
    """Largest loss over all input states: 1 - (smallest eigenvalue of M).

    Clamped to [0, 1].  The maximizing state is the eigenvector of the
    survival operator with the minimal eigenvalue.
    """
    lam_min = float(channel.survival_spectrum[0][0])
    return min(max(1.0 - lam_min, 0.0), 1.0)


def prop1_check(channel: QuantumChannel) -> BoundReport:
    """Check worst_loss <= d * avg_loss and the complement-state mechanism.

    The bound holds for every trace-non-increasing channel because the
    survival operator's eigenvalues all sit in [0, 1]: the d-1 eigenvalues
    other than the minimum can each hide at most 1/d of the average
    survival deficit.  Equality requires every non-minimal eigenvalue to be
    exactly 1 (loss concentrated on a single direction).  The two losses
    are those of :func:`average_survival` and :func:`worst_case_loss`.
    """
    d = channel.dim
    avg_loss = 1.0 - average_survival(channel)
    worst_loss = worst_case_loss(channel)
    bound = d * avg_loss
    slack = bound - worst_loss
    if d >= 2:
        v = channel.survival_spectrum[1][:, 0]
        rho_star = np.outer(v, v.conj())
        rho_complement = (np.eye(d) - rho_star) / (d - 1)
        complement_survival = float(
            np.real(np.trace(rho_complement @ channel.survival_operator))
        )
    else:
        complement_survival = None
    return BoundReport(
        avg_loss=avg_loss,
        worst_loss=worst_loss,
        bound=bound,
        satisfied=worst_loss <= bound + BOUND_ATOL,
        slack=slack,
        complement_survival=complement_survival,
    )


def _absolute_weights(sems: np.ndarray) -> bool:
    """The weighting rule: weights 1/sem^2 when every sem is finite and positive."""
    return sems.size > 0 and bool(np.isfinite(sems).all() and (sems > 0).all())


def _fit_weights(sems: np.ndarray) -> tuple:
    """Return (sqrt_weights, e, absolute_sigma) per the weighting rule.

    Weights are 1/sem^2 when _absolute_weights holds; otherwise unit
    weights, and standard errors are then scaled by the residual variance
    instead of taken as absolute.  The returned square roots of the weights
    are 2^-e times the true ones, the largest in (1/2, 1]; e comes from the
    smallest sem, so subnormal sems work too.  A row whose weight, so scaled,
    underflows to 0 (its sem more than about 2^537 times the smallest) has
    no weight: _separable_fit leaves it out, so it moves no estimate, and
    the fit's dof counts only the rows it keeps.
    """
    sems = np.asarray(sems, dtype=float)
    if _absolute_weights(sems):
        e = 1 - math.frexp(float(sems.min()))[1]
        return 2.0**-e / sems, e, True
    return np.ones_like(sems), 0, False


def _ldexp(x: float, n: int) -> float:
    """x 2^n; +-inf beyond the float range, where math.ldexp raises OverflowError."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _mean_shift(y: np.ndarray) -> int:
    """f such that a fit divides the means by 2^f: 0 when their largest magnitude
    lies in [2^-16, 2^16), else the exponent that puts it in [1/2, 1)."""
    f = math.frexp(float(np.maximum.reduce(np.abs(y))))[1]
    return 0 if -15 <= f <= 16 else f


def _rate_basis(t, u, offset):
    """r^u, or r^u - 1 with an offset, at every t = log r of a 1-D array: one row per rate."""
    ut = np.multiply.outer(t, u)
    return np.expm1(ut) if offset else np.exp(ut)


def _project_basis(phi, c_max, yc, w2, w_sum, offset):
    """Reduced cost of y ~ c phi(r) (+ b) at every row of a _rate_basis, in one call.

    phi is r^u, or r^u - 1 centred on its weighted mean with an offset; the
    rows passed in are not written to.  Returns (cost, c, res, phi, norm2),
    one entry or row per rate: c solves phi's 1x1 weighted normal equation
    (norm2 = sum w^2 phi^2), clipped to [0, c_max] without an offset;
    res = yc - c phi and cost = sum w^2 res^2.
    """
    if offset:
        phi = phi - phi.dot(w2)[:, None] / w_sum
    wphi = phi * w2
    norm2 = np.add.reduce(wphi * phi, axis=1)
    c = np.divide(wphi.dot(yc), norm2, out=np.zeros(norm2.shape), where=norm2 > 0.0)
    if not offset:
        c = np.minimum(np.maximum(c, 0.0), c_max)
    res = yc - c[:, None] * phi
    return (res * res).dot(w2), c, res, phi, norm2


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid_basis(lengths: tuple, offset: bool) -> tuple:
    """(x, u, x0, phis, c_maxs): what a fit on these lengths computes before its data.

    x is m - 1 for the loss model and m with an offset, x0 the smallest x
    (0 with an offset) and u = x - x0; phis is _rate_basis on _LOG_RATE_GRID
    and c_maxs the loss clip _B0_MAX r^x0 at each of its rates.  Each grid
    and model is computed once per process (up to _GRID_CACHE_SIZE grids);
    the arrays are read-only, as every fit on the grid shares them.
    """
    m = np.array(lengths, dtype=float)
    x = m if offset else m - 1.0
    x0 = 0.0 if offset else float(x.min())
    u = x - x0
    phis = _rate_basis(_LOG_RATE_GRID, u, offset)
    c_maxs = _B0_MAX * np.exp(x0 * _LOG_RATE_GRID)
    for a in (x, u, phis, c_maxs):
        a.setflags(write=False)
    return x, u, x0, phis, c_maxs


def _project_rate(t, c_max, u, yc, w2, w_sum, offset):
    """_project_basis at the single float t, on 1-D arrays with float scalars.

    The same operations in the same order give the results of a one-rate
    _rate_basis row bit for bit, with cost, c and norm2 as floats.  Also
    returns exp(u t), the curve of the gradient.
    """
    ut = t * u
    curve = np.exp(ut)
    if offset:
        phi = np.expm1(ut)
        phi = phi - float(phi.dot(w2)) / w_sum
    else:
        phi = curve
    wphi = phi * w2
    norm2 = float(np.add.reduce(wphi * phi))
    c = float(wphi.dot(yc)) / norm2 if norm2 > 0.0 else 0.0
    if not offset:
        # As np.maximum then np.minimum: -0.0 becomes 0.0 and NaN passes.
        c = 0.0 if c <= 0.0 else min(c, c_max)
    res = yc - c * phi
    return float((res * res).dot(w2)), c, res, phi, norm2, curve


def _separable_fit(
    lengths: tuple, y: np.ndarray, sems: np.ndarray, offset: bool
) -> DecayFit | RBFit:
    """Weighted least squares of y ~ a * r^x (+ b when ``offset``) over r in RATE_BOUNDS.

    x is m - 1 for the lengths m, or m itself with an offset.  Variable
    projection (Golub-Pereyra): for each rate the amplitudes come from the
    closed-form weighted normal equations, so only t = log r is searched.
    The reduced cost of every point of _LOG_RATE_GRID is taken in one
    _project_basis call on the grid basis, which _grid_basis computes once
    per length grid and model and every fit on that grid shares, and the
    best point brackets the minimum between its neighbours.  Safeguarded
    Gauss-Newton steps on t, with Kaufman's Jacobian (secant curvature after
    the first step) and the exact gradient, refine it, one _project_rate call
    per step, until the cosine of that Jacobian with the residual vector is
    at most GRADIENT_TOL or the step no longer moves t.  A best grid point
    at an end of the grid where the cost still falls outward is returned at
    once, at that bound.

    The fit runs in normalised units (see the module docstring and
    _fit_weights).  With an offset the column is r^x - 1 (expm1 keeps its
    digits as r -> 1), centred on its weighted mean, which projects out the
    constant column.  Without one it is r^(x - x0), x0 the smallest x, and
    its amplitude c is clipped to 0 <= c r^-x0 <= _B0_MAX: for one linear
    amplitude the clip is the exact constrained least-squares solution.

    Returns the RBFit of a, b and p = r with an offset, else the DecayFit of
    B0 = a and S = r, with a = c r^-x0 in both.  n_iterations counts the
    rates whose reduced cost was evaluated, and converged says whether a
    stop rule, not the MAX_ITERATIONS budget, ended the search.
    """
    sqrt_w, e, absolute_sigma = _fit_weights(sems)
    w2 = sqrt_w * sqrt_w
    if not w2.all():
        # Rows of no weight: 0 * inf would reach the cost once a residual overflows.
        kept = w2 > 0.0
        lengths = tuple(m for m, k in zip(lengths, kept) if k)
        y, sqrt_w, w2 = y[kept], sqrt_w[kept], w2[kept]
    f = _mean_shift(y)
    if f:
        y = np.ldexp(y, -f)
    w_sum = float(np.add.reduce(w2))
    mean = float(w2.dot(y)) / w_sum if offset else 0.0
    yc = y - mean
    x, u, x0, phis, c_maxs = _grid_basis(lengths, offset)
    args = (u, yc, w2, w_sum, offset)
    costs, cs, ress, phis, norm2s = _project_basis(phis, c_maxs, yc, w2, w_sum, offset)
    k = int(costs.argmin())
    nfev = _LOG_RATE_GRID.size
    lo = float(_LOG_RATE_GRID[max(k - 1, 0)])
    hi = float(_LOG_RATE_GRID[min(k + 1, nfev - 1)])
    # The search starts from the grid's own row k: a row of the batched
    # product is not always bit-equal to _project_rate's single dot.
    t, cost, c, c_max, norm2 = (
        float(v[k]) for v in (_LOG_RATE_GRID, costs, cs, c_maxs, norm2s)
    )
    res, phi, curve = ress[k], phis[k], np.exp(t * u)
    converged = True
    t_prev = g_prev = None
    while True:
        # v = d(model)/dt at fixed B0 (or A and B) is c x r^(x - x0).  For a
        # free c Kaufman's Jacobian is -P v, v projected off the columns; the
        # gradient of the reduced cost is -2 <res, v> = -2 <res, P v> exactly
        # (res is orthogonal to the columns), and the P v form keeps rounding
        # in res out of it.  A clipped c holds B0 at 0 or _B0_MAX, so v is
        # the Jacobian itself.  The Gauss-Newton step is <res, P v> / |P v|^2.
        pv = c * x * curve
        if c != 0.0 and (offset or c < c_max):
            pv = pv - (float((w2 * pv).dot(phi)) / norm2) * phi
        if offset:
            pv = pv - float(w2.dot(pv)) / w_sum
        wpv = w2 * pv
        g = float(wpv.dot(res))
        h = float(wpv.dot(pv))
        if h == 0.0 or abs(g) <= GRADIENT_TOL * math.sqrt(h) * math.sqrt(cost):
            break
        # The cost falls on the side of t that g points to, so the minimum
        # stays bracketed; at a grid end that side is empty and the bracket
        # closes at the bound.
        if g > 0.0:
            lo = t
        else:
            hi = t
        # After the first step the curvature is the secant of the exact
        # gradient: Kaufman's |P v|^2 scales with c^2 and misjudges flat
        # curves, where c is near 0.
        if t_prev is not None and (g_prev - g) * (t - t_prev) > 0.0:
            h = (g_prev - g) / (t - t_prev)
        t_prev, g_prev = t, g
        trial = t + g / h
        if not lo < trial < hi:
            trial = 0.5 * (lo + hi)
        if not lo < trial < hi:
            break
        if nfev >= MAX_ITERATIONS:
            converged = False
            break
        c_max = _B0_MAX * math.exp(x0 * trial)
        cost, c, res, phi, norm2, curve = _project_rate(trial, c_max, *args)
        t = trial
        nfev += 1

    r = float(np.exp(t))
    curve = r**u
    cols = [sqrt_w * curve] + [sqrt_w] * offset + [sqrt_w * c * x * curve / r]
    dof = max(y.size - len(cols), 1)
    # (J^T J)^-1 from the SVD of J, with singular values floored at eps times
    # the largest (and at eps^2): an undetermined direction keeps a huge but
    # finite variance.
    jac = np.array(cols).T
    if len(jac) < len(cols):
        # Fewer rows kept than parameters: zero rows give each its singular value.
        jac = np.vstack([jac, np.zeros((len(cols) - len(jac), len(cols)))])
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    sv = np.maximum(sv, _EPS * max(sv[0], _EPS))
    cov = (vt.T / sv**2).dot(vt)
    # Back to the data's units by powers of two: the weights' square roots
    # carry 2^-e (e = 0 for unit weights) and the means 2^-f, which leaves
    # the rate alone.  Unit-weight stderrs carry 2^-f through the cost.
    # Divided before the scale goes back on, so no chi2 within the float range overflows.
    chi2 = _ldexp(_ldexp(float(cost) / dof, e + f), e + f)
    if not absolute_sigma:
        cov = cov * (cost / dof)
        e = -f
    shifts = [-e] * offset + [-e, -e - f]
    stderrs = [_ldexp(math.sqrt(v), n) for v, n in zip(cov.diagonal().tolist(), shifts)]
    rx0 = math.exp(x0 * t)  # 0 only where c is held at 0
    a = _ldexp(float(c) / rx0, f) if rx0 else 0.0
    stderr_a = stderrs[0] / rx0 if rx0 else math.inf
    stats = dict(chi2_per_dof=chi2, converged=converged, n_iterations=nfev)
    if not offset:
        return DecayFit(S_hat=r, B0_hat=a, stderr_S=stderrs[1], stderr_B0=stderr_a, **stats)
    b = float(mean - c * (1.0 + float(w2.dot(np.expm1(u * t))) / w_sum))
    # Rooted before the scale goes back on, as above: var(b - a) = var(b - c).
    var = float(cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1])
    return RBFit(
        A_hat=a,
        B_hat=_ldexp(b, f),
        p_hat=r,
        stderr_A=stderr_a,
        stderr_B=stderrs[1],
        stderr_p=stderrs[2],
        stderr_B_minus_A=_ldexp(math.sqrt(max(var, 0.0)), -e),
        **stats,
    )


def fit_loss_decay(ds: DecayDataset) -> DecayFit:
    """Weighted least-squares fit of y(m) = B0 * S^(m-1), S in RATE_BOUNDS.

    Non-convergence is reported in the result, not raised.  The minimum
    bracketed by the rate grid is the global one for data that decay; on
    data that do not (noise around zero), the refinement can stop in a local
    minimum of the reduced cost.
    """
    if len(ds.m_values) < 3:
        raise ValueError(f"need >= 3 distinct sequence lengths, got {len(ds.m_values)}")
    if (ds.means <= 0).all():
        raise ValueError("all means are non-positive; nothing to fit")
    return _separable_fit(ds.m_values, ds.means, ds.sems, offset=False)


def fit_rb_decay(ds: DecayDataset) -> RBFit:
    """Weighted least-squares fit of y(m) = A * p^m + B, p in RATE_BOUNDS."""
    if len(ds.m_values) < 4:
        raise ValueError(f"need >= 4 distinct sequence lengths, got {len(ds.m_values)}")
    return _separable_fit(ds.m_values, ds.means, ds.sems, offset=True)


def detector_efficiency(
    B0_hat: float,
    S_hat: float,
    q_ideal: MeasurementOperator,
) -> DetectorEfficiency:
    """Extract the detector response from fitted decay constants.

    D_hat = B0_hat / S_hat undoes one factor of per-step survival from the
    fitted intercept; eta compares it to the ideal detector's average
    response.  The extraction is exact only for loss-free preparation, so
    the relative uncertainty is (d-1) times the average loss implied by
    S_hat.  A non-finite B0_hat or an S_hat outside (0, inf) raises ValueError.
    """
    if not math.isfinite(B0_hat):
        raise ValueError(f"B0_hat must be finite, got {B0_hat!r}")
    if not 0.0 < S_hat < math.inf:
        raise ValueError(f"S_hat must be positive and finite, got {S_hat!r}")
    d_ideal = average_response(q_ideal)
    if d_ideal <= 0.0:
        raise ValueError(f"ideal detector has non-positive average response {d_ideal!r}")
    d_hat = B0_hat / S_hat
    return DetectorEfficiency(
        eta=d_hat / d_ideal,
        D_hat=d_hat,
        relative_uncertainty=(q_ideal.dim - 1) * (1.0 - S_hat),
    )


def plateau_test(ds: DecayDataset, fit: DecayFit) -> PlateauReport:
    """Flag non-exponential tails in a single-exponential fit.

    Checks the z-score of the excess of the last PLATEAU_TAIL_POINTS data
    means over the fitted curve against PLATEAU_TAIL_Z and, for an absolutely
    weighted fit, its chi-squared per degree of freedom against PLATEAU_CHI2
    (under unit weights it carries the means' unit squared).  Coherent leakage
    produces exactly this signature: the signal first tracks an exponential,
    then flattens above it.
    """
    n = len(ds.m_values)
    if n < PLATEAU_MIN_LENGTHS:
        raise ValueError(f"plateau test needs >= {PLATEAU_MIN_LENGTHS} sequence lengths, got {n}")
    tail = slice(-PLATEAU_TAIL_POINTS, None)
    n_tail = PLATEAU_TAIL_POINTS
    # In the units the fit ran in (see _separable_fit), no sum of finite means overflows.
    f = _mean_shift(ds.means)
    model = _ldexp(fit.B0_hat, -f) * fit.S_hat ** (np.array(ds.m_values[tail], dtype=float) - 1.0)
    means = np.ldexp(ds.means[tail], -f)
    excess = _ldexp(float(np.add.reduce(means) / n_tail - np.add.reduce(model) / n_tail), f)
    absolute = _absolute_weights(ds.sems)
    if absolute:
        # Squared subnormal sems underflow, so the root is taken of the sems
        # scaled by a power of two, which is exact, and scaled back.  Only
        # tail sems near 5e-324 take the floor of the smallest float.
        _, e = math.frexp(float(ds.sems[tail].max()))
        root = math.sqrt(float(np.add.reduce(np.ldexp(ds.sems[tail], -e) ** 2)))
        sigma_tail = max(math.ldexp(root / PLATEAU_TAIL_POINTS, e), math.ulp(0.0))
    else:
        # Unit-weight fits carry no per-point sigma; use the fit's own
        # residual scale for the tail mean, which is 0 for a perfect fit.  Its
        # floor of 1e-15 is in the units the fit ran in.
        residual_scale = math.sqrt(max(fit.chi2_per_dof, 0.0))
        floor = math.ldexp(1e-15, f)
        sigma_tail = max(residual_scale / math.sqrt(PLATEAU_TAIL_POINTS), floor)
    # Python floats: a z beyond the float range is inf, without a warning.
    z = excess / sigma_tail
    return PlateauReport(
        chi2_per_dof=fit.chi2_per_dof,
        tail_excess_z=z,
        flagged=bool(absolute and fit.chi2_per_dof > PLATEAU_CHI2 or z > PLATEAU_TAIL_Z),
    )


def _identifiable(rb: RBFit) -> bool:
    """Whether the fit separates A from B: p inside RATE_BOUNDS and |A| > 1e-9 max(1, |B|),
    both in the unit 2^f of the amplitudes (see markovianity_tests)."""
    inside = RATE_BOUNDS[0] < rb.p_hat < RATE_BOUNDS[1]
    f = _mean_shift(np.array([rb.A_hat, rb.B_hat]))
    return inside and abs(math.ldexp(rb.A_hat, -f)) > 1e-9 * max(1.0, abs(math.ldexp(rb.B_hat, -f)))


def markovianity_tests(rb: RBFit, loss_m1: tuple | None = None) -> MarkovReport:
    """The non-Markovian indicator of a benchmarking fit: B - A and B - m1.

    B - A must be nonnegative when the noise is one fixed channel per gate,
    so FLAG_B_MINUS_A_NEGATIVE is raised when it sits more than 3 standard
    errors below zero.  ``loss_m1`` is the (mean, sem) of the loss-protocol
    signal at m = 1, both finite and the sem >= 0 (ValueError otherwise).
    It equals the curve's offset B under the same noise, so
    FLAG_M1_MISMATCH is raised when B - m1 lies beyond 3 sigma, sigma =
    hypot(stderr_B, m1 sem).  Without ``loss_m1`` both m1 fields are None
    and only the B - A flag can be raised.

    A fit that did not converge, or a flat curve (fitted p at a bound of
    RATE_BOUNDS, or decay amplitude ~ 0), does not identify the split
    between A and B: its statistics are reported and no flag is raised.
    ``lossbench fit --model rb`` writes this report's flags.
    """
    b_minus_m1 = b_minus_m1_sigma = None
    if loss_m1 is not None:
        m1_mean, m1_sem = float(loss_m1[0]), float(loss_m1[1])
        if not math.isfinite(m1_mean):
            raise ValueError(f"the mean of loss_m1 must be finite, got {m1_mean!r}")
        if not 0.0 <= m1_sem < math.inf:
            raise ValueError(f"the sem of loss_m1 must be finite and >= 0, got {m1_sem!r}")
        b_minus_m1 = rb.B_hat - m1_mean
        b_minus_m1_sigma = math.hypot(rb.stderr_B, m1_sem)

    b_minus_a = rb.B_hat - rb.A_hat
    # The thresholds hold in the unit 2^f of the fit's amplitudes, so the
    # flags do not depend on the data's unit; f is 0 for amplitudes near 1.
    f = _mean_shift(np.array([rb.A_hat, rb.B_hat]))
    flags = []
    if rb.converged and _identifiable(rb):
        sigma = max(_ldexp(rb.stderr_B_minus_A, -f), _SIGMA_FLOOR)
        if _ldexp(b_minus_a, -f) / sigma < -3.0:
            flags.append(FLAG_B_MINUS_A_NEGATIVE)
        if loss_m1 is not None:
            sigma = max(_ldexp(b_minus_m1_sigma, -f), _SIGMA_FLOOR)
            if abs(_ldexp(b_minus_m1, -f)) > 3.0 * sigma:
                flags.append(FLAG_M1_MISMATCH)
    return MarkovReport(
        b_minus_a=b_minus_a,
        b_minus_a_sigma=rb.stderr_B_minus_A,
        b_minus_m1=b_minus_m1,
        b_minus_m1_sigma=b_minus_m1_sigma,
        flags=tuple(flags),
    )
