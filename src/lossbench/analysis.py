"""Estimation and validation mathematics for randomized loss experiments.

Covers survival and loss rates with the worst-case-vs-average bound, decay
fitting for the loss protocol (B0 * S^(m-1)) and the benchmarking variant
(A * p^m + B), detector-efficiency extraction, Markovianity consistency
checks, and plateau detection for leakage-type deviations from a single
exponential.

Fits run weighted nonlinear least squares (weights 1/sem^2, or unit weights
when any sem is zero or missing) with a numpy port of MINPACK's
Levenberg-Marquardt (lmder: scaled trust region, damping from an SVD of the
scaled Jacobian).  It stops when every Jacobian column's cosine with the
residual vector is at most GRADIENT_TOL = 1e-10, when the relative reduction
of the sum of squares or the relative step is at most 1e-15, or after
MAX_ITERATIONS = 200 residual evaluations, the only stop reported as not
converged; ``n_iterations`` counts the residual evaluations.  Decay
parameters are optimized on a log scale to keep them positive and reported
on the natural scale with delta-method standard errors.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    ARITHMETIC_ATOL,
    DensityMatrix,
    MeasurementOperator,
    QuantumChannel,
    _apply_kraus,
    hermitian_part,
    survival_operator,
)
from .protocol import DecayDataset

BOUND_ATOL = 1e-10
MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10

# Levenberg-Marquardt settings beside MAX_ITERATIONS and GRADIENT_TOL: the
# relative tolerance on the reduction and on the step, the initial trust
# radius as a multiple of the scaled norm of x0, and the smallest positive
# float (MINPACK's dwarf).
_REL_TOL = 1e-15
_FACTOR = 100.0
_DWARF = sys.float_info.min

FLAG_B_MINUS_A_NEGATIVE = "B_MINUS_A_NEGATIVE"
FLAG_M1_MISMATCH = "M1_MISMATCH"
FLAG_PLATEAU = "PLATEAU"

# Floor for z-score denominators so exact-mode data (sigma = 0) yields
# z = 0 instead of a 0/0.
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

    ``covariance`` is the 3x3 covariance of (A, B, p) on the natural scale,
    kept so downstream combinations (such as B - A) propagate correlations.
    """

    A_hat: float
    B_hat: float
    p_hat: float
    stderr_A: float
    stderr_B: float
    stderr_p: float
    chi2_per_dof: float
    converged: bool
    n_iterations: int
    covariance: np.ndarray


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
    """Consistency checks between the benchmarking and loss protocols."""

    b_minus_a: float
    b_minus_a_sigma: float
    m1_intercept: float
    m1_sigma: float
    rb_b: float
    rb_b_sigma: float
    flags: tuple
    exact_b_minus_a: float | None


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
    invariant under rescaling rho.
    """
    tr = rho.trace
    if tr <= 0.0:
        raise ValueError(f"state must have positive trace, got {tr!r}")
    m = survival_operator(channel)
    val = float(np.real(np.trace(rho.matrix @ m))) / tr
    if val < -ARITHMETIC_ATOL or val > 1.0 + ARITHMETIC_ATOL:
        raise ValueError(f"survival rate {val!r} outside [0, 1]")
    return min(max(val, 0.0), 1.0)


def average_survival(channel: QuantumChannel) -> float:
    """Survival rate of the maximally mixed state, Tr(M)/d."""
    m = survival_operator(channel)
    val = float(np.real(np.trace(m))) / channel.dim
    return min(max(val, 0.0), 1.0)


def worst_case_loss(channel: QuantumChannel) -> float:
    """Largest loss over all input states: 1 - (smallest eigenvalue of M).

    The maximizing state is the eigenvector of the survival operator with
    the minimal eigenvalue.
    """
    m = survival_operator(channel)
    lam_min = float(np.linalg.eigvalsh(m)[0])
    return min(max(1.0 - lam_min, 0.0), 1.0)


def prop1_check(channel: QuantumChannel) -> BoundReport:
    """Check worst_loss <= d * avg_loss and the complement-state mechanism.

    The bound holds for every trace-non-increasing channel because the
    survival operator's eigenvalues all sit in [0, 1]: the d-1 eigenvalues
    other than the minimum can each hide at most 1/d of the average
    survival deficit.  Equality requires every non-minimal eigenvalue to be
    exactly 1 (loss concentrated on a single direction).
    """
    m = survival_operator(channel)
    eigs, vecs = np.linalg.eigh(m)
    d = channel.dim
    avg_loss = 1.0 - float(np.real(np.trace(m))) / d
    worst_loss = 1.0 - float(eigs[0])
    bound = d * avg_loss
    slack = bound - worst_loss
    if d >= 2:
        v = vecs[:, 0]
        rho_star = np.outer(v, v.conj())
        rho_complement = (np.eye(d) - rho_star) / (d - 1)
        complement_survival = float(np.real(np.trace(rho_complement @ m)))
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


def _fit_weights(sems: np.ndarray) -> tuple:
    """Return (sqrt_weights, absolute_sigma) per the weighting rule.

    Weights are 1/sem^2 when every sem is finite and positive; otherwise
    unit weights, and standard errors are then scaled by the residual
    variance instead of taken as absolute.
    """
    sems = np.asarray(sems, dtype=float)
    if sems.size and np.all(np.isfinite(sems)) and np.all(sems > 0):
        return 1.0 / sems, True
    return np.ones_like(sems), False


def _covariance(jac: np.ndarray, chi2: float, dof: int, absolute_sigma: bool) -> np.ndarray:
    cov = np.linalg.pinv(jac.T @ jac)
    if not absolute_sigma and dof > 0:
        cov = cov * (chi2 / dof)
    return cov


def _lm_parameter(sigma: list, c: list, delta: float, par: float) -> tuple:
    """Levenberg-Marquardt parameter for one trust radius (MINPACK's lmpar).

    In the column-scaled variables the Jacobian is U diag(sigma) V^T and
    c = U^T f; the scaled step for damping ``par`` is V w with
    w = -sigma c / (sigma^2 + par).  Returns (par, w): par = 0 when the
    Gauss-Newton step fits inside ``delta``, otherwise the par of at most 10
    safeguarded Newton iterations from the previous ``par``, which stop once
    |w| is within 10% of ``delta``.  The vectors have one entry per fitted
    parameter, so plain floats are cheaper here than numpy arrays.
    """
    w = [-ci / si if si > 0.0 else 0.0 for si, ci in zip(sigma, c)]
    dxnorm = math.hypot(*w)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    parl = 0.0
    if sigma[-1] > 0.0:
        parl = fp / delta / (math.hypot(*[wi / si for wi, si in zip(w, sigma)]) / dxnorm) ** 2
    sc = [si * ci for si, ci in zip(sigma, c)]
    gnorm = math.hypot(*sc)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * paru)
        damped = [si * si + par for si in sigma]
        w = [-sci / di for sci, di in zip(sc, damped)]
        dxnorm = math.hypot(*w)
        previous, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= previous < 0.0) or iteration == 10:
            break
        curvature = sum([wi * wi / di for wi, di in zip(w, damped)]) / dxnorm**2
        parc = fp / delta / curvature
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, w


def _least_squares(residuals, jacobian, x0) -> tuple:
    """Levenberg-Marquardt refinement shared by both decay fits.

    Returns (x, cost, jac, nfev, converged): the solution, half the sum of
    squared residuals there, the Jacobian at x, the number of residual
    evaluations and whether a tolerance, not the budget, stopped it.

    MINPACK's lmder: each column is scaled by the largest norm it has had,
    the scaled step stays inside a trust radius (initially 100 times the
    scaled norm of x0, then grown or shrunk by the ratio of actual to
    predicted reduction), and :func:`_lm_parameter` picks the damping for
    that radius from an SVD of the scaled Jacobian.  It stops on the
    gradient test (every Jacobian column's cosine with the residual vector
    at most GRADIENT_TOL), on a relative reduction or a relative step of at
    most _REL_TOL, or after MAX_ITERATIONS residual evaluations; only the
    last counts as not converged.  Norms use math.hypot, which neither
    overflows nor costs a numpy call.
    """
    x = np.array(x0, dtype=float)
    f = residuals(x)
    fnorm = math.hypot(*f.tolist())
    if not math.isfinite(fnorm):
        raise ValueError("residuals are not finite at the starting point")
    nfev = 1
    first = True
    converged = None
    par = 0.0
    while converged is None:
        jac = jacobian(x)
        col_norms = np.sqrt((jac * jac).sum(axis=0))
        if first:
            diag = np.where(col_norms > 0.0, col_norms, 1.0)
            xnorm = math.hypot(*(diag * x).tolist())
            delta = _FACTOR * xnorm if xnorm > 0.0 else _FACTOR
        gradient = (jac.T @ f).tolist()
        gnorm = max(
            (abs(gj) / cj for gj, cj in zip(gradient, col_norms.tolist()) if cj > 0.0),
            default=0.0,
        )
        if fnorm == 0.0 or gnorm / fnorm <= GRADIENT_TOL:
            converged = True
            break
        diag = np.maximum(diag, col_norms)
        u, sigma, vt = np.linalg.svd(jac / diag, full_matrices=False)
        c = (f @ u).tolist()
        sigma = sigma.tolist()
        unscale = vt / diag
        while True:
            par, w = _lm_parameter(sigma, c, delta, par)
            pnorm = math.hypot(*w)
            if first:
                delta = min(delta, pnorm)
            x_new = x + np.dot(w, unscale)
            f_new = residuals(x_new)
            nfev += 1
            fnorm_new = math.hypot(*f_new.tolist())
            # Actual and predicted relative reductions of |f|^2, and the
            # directional derivative, as in lmder.
            actred = 1.0 - (fnorm_new / fnorm) ** 2 if 0.1 * fnorm_new < fnorm else -1.0
            t1 = (math.hypot(*[si * wi for si, wi in zip(sigma, w)]) / fnorm) ** 2
            t2 = par * (pnorm / fnorm) ** 2
            prered = t1 + 2.0 * t2
            dirder = -(t1 + t2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm_new >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = 2.0 * pnorm
                par *= 0.5
            accepted = ratio >= 1e-4
            if accepted:
                x, f, fnorm = x_new, f_new, fnorm_new
                xnorm = math.hypot(*(diag * x).tolist())
                first = False
            if (abs(actred) <= _REL_TOL and prered <= _REL_TOL and ratio <= 2.0) or (
                delta <= _REL_TOL * xnorm
            ):
                converged = True
            elif nfev >= MAX_ITERATIONS:
                converged = False
            if converged is not None or accepted:
                break
    return x, 0.5 * float(f @ f), jacobian(x), nfev, converged


def fit_loss_decay(ds: DecayDataset) -> DecayFit:
    """Weighted least-squares fit of y(m) = B0 * S^(m-1).

    Initialized from a linear regression of log(mean) on m-1 over the
    positive means; when fewer than 3 means are positive, falls back to an
    unweighted fit started at (B0 = first mean, S = 0.99).  Non-convergence
    is reported in the result, not raised.
    """
    m = np.array(ds.m_values, dtype=float)
    y = np.array(ds.means, dtype=float)
    if len(set(ds.m_values)) < 3:
        raise ValueError(f"need >= 3 distinct sequence lengths, got {len(set(ds.m_values))}")
    if np.all(y <= 0):
        raise ValueError("all means are non-positive; nothing to fit")

    sqrt_w, absolute_sigma = _fit_weights(ds.sems)
    positive = y > 0
    if int(positive.sum()) >= 3:
        slope, intercept = np.polyfit(m[positive] - 1.0, np.log(y[positive]), 1)
        x0 = np.array([
            np.clip(intercept, -30.0, 5.0),
            np.clip(slope, -30.0, np.log(1.5)),
        ])
    else:
        first_positive = float(y[positive][0])
        x0 = np.array([np.log(first_positive), np.log(0.99)])
        sqrt_w = np.ones_like(sqrt_w)
        absolute_sigma = False

    def residuals(x):
        b0, s = np.exp(x[0]), np.exp(x[1])
        return sqrt_w * (b0 * s ** (m - 1.0) - y)

    def jacobian(x):
        b0, s = np.exp(x[0]), np.exp(x[1])
        model = b0 * s ** (m - 1.0)
        return np.array([sqrt_w * model, sqrt_w * model * (m - 1.0)]).T

    x, cost, jac, nfev, converged = _least_squares(residuals, jacobian, x0)
    dof = max(m.size - 2, 1)
    chi2 = float(2.0 * cost)
    cov = _covariance(jac, chi2, dof, absolute_sigma)
    b0_hat, s_hat = float(np.exp(x[0])), float(np.exp(x[1]))
    return DecayFit(
        S_hat=s_hat,
        B0_hat=b0_hat,
        stderr_S=s_hat * math.sqrt(max(cov[1, 1], 0.0)),
        stderr_B0=b0_hat * math.sqrt(max(cov[0, 0], 0.0)),
        chi2_per_dof=chi2 / dof,
        converged=converged,
        n_iterations=nfev,
    )


def fit_rb_decay(ds: DecayDataset) -> RBFit:
    """Weighted least-squares fit of y(m) = A * p^m + B.

    B is initialized from the large-m tail mean, then (A, p) from a
    log-linear regression on the residual above that floor.
    """
    m = np.array(ds.m_values, dtype=float)
    y = np.array(ds.means, dtype=float)
    if len(set(ds.m_values)) < 4:
        raise ValueError(f"need >= 4 distinct sequence lengths, got {len(set(ds.m_values))}")

    sqrt_w, absolute_sigma = _fit_weights(ds.sems)
    n_tail = max(3, m.size // 4)
    b0 = float(np.mean(y[-n_tail:]))
    resid = y - b0
    sign = 1.0 if resid[0] >= 0 else -1.0
    magnitude = sign * resid
    usable = magnitude > max(np.max(magnitude), 0.0) * 1e-3
    if int(usable.sum()) >= 2:
        slope, intercept = np.polyfit(m[usable], np.log(magnitude[usable]), 1)
        p0 = float(np.clip(np.exp(slope), 1e-6, 0.9999))
        a0 = sign * float(np.exp(np.clip(intercept, -30.0, 5.0)))
    else:
        p0 = 0.95
        a0 = float(y[0] - b0) if y[0] != b0 else 0.5
    x0 = np.array([a0, b0, np.log(p0)])

    def residuals(x):
        a, b, p = x[0], x[1], np.exp(x[2])
        return sqrt_w * (a * p**m + b - y)

    def jacobian(x):
        a, b, p = x[0], x[1], np.exp(x[2])
        pm = p**m
        return np.array([sqrt_w * pm, sqrt_w, sqrt_w * a * m * pm]).T

    x, cost, jac, nfev, converged = _least_squares(residuals, jacobian, x0)
    dof = max(m.size - 3, 1)
    chi2 = float(2.0 * cost)
    cov_internal = _covariance(jac, chi2, dof, absolute_sigma)
    p_hat = float(np.exp(x[2]))
    scale = np.diag([1.0, 1.0, p_hat])
    cov = scale @ cov_internal @ scale
    return RBFit(
        A_hat=float(x[0]),
        B_hat=float(x[1]),
        p_hat=p_hat,
        stderr_A=math.sqrt(max(cov[0, 0], 0.0)),
        stderr_B=math.sqrt(max(cov[1, 1], 0.0)),
        stderr_p=math.sqrt(max(cov[2, 2], 0.0)),
        chi2_per_dof=chi2 / dof,
        converged=converged,
        n_iterations=nfev,
        covariance=cov,
    )


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
    S_hat.
    """
    if S_hat <= 0.0:
        raise ValueError(f"S_hat must be positive, got {S_hat!r}")
    d_ideal = average_response(q_ideal)
    if d_ideal <= 0.0:
        raise ValueError(f"ideal detector has non-positive average response {d_ideal!r}")
    d_hat = B0_hat / S_hat
    return DetectorEfficiency(
        eta=d_hat / d_ideal,
        D_hat=d_hat,
        relative_uncertainty=(q_ideal.dim - 1) * (1.0 - S_hat),
    )


def plateau_test(
    ds: DecayDataset,
    fit: DecayFit,
    chi2_threshold: float = 4.0,
    tail_z_threshold: float = 3.0,
    tail_points: int = 5,
) -> PlateauReport:
    """Flag non-exponential tails in a single-exponential fit.

    Checks the fit's chi-squared per degree of freedom and the z-score of
    the excess of the last ``tail_points`` data means over the fitted
    curve.  Coherent leakage produces exactly this signature: the signal
    first tracks an exponential, then flattens above it.
    """
    m = np.array(ds.m_values, dtype=float)
    y = np.array(ds.means, dtype=float)
    if m.size < 8:
        raise ValueError(f"plateau test needs >= 8 sequence lengths, got {m.size}")
    model = fit.B0_hat * fit.S_hat ** (m - 1.0)
    tail = slice(-tail_points, None)
    excess = float(np.mean(y[tail]) - np.mean(model[tail]))
    sems = np.asarray(ds.sems, dtype=float)
    if np.all(np.isfinite(sems)) and np.all(sems > 0):
        sigma_tail = float(np.sqrt(np.sum(sems[tail] ** 2))) / tail_points
    else:
        # Unit-weight fits carry no per-point sigma; use the fit's own
        # residual scale for the tail mean.
        residual_scale = math.sqrt(max(fit.chi2_per_dof, 0.0))
        sigma_tail = residual_scale / math.sqrt(tail_points)
    z = excess / max(sigma_tail, 1e-15)
    return PlateauReport(
        chi2_per_dof=fit.chi2_per_dof,
        tail_excess_z=z,
        flagged=bool(fit.chi2_per_dof > chi2_threshold or z > tail_z_threshold),
    )


def _identifiable(rb: RBFit) -> bool:
    """Whether the fit separates A from B: p below 1 and a nonzero amplitude."""
    return rb.p_hat < 1.0 - 1e-9 and abs(rb.A_hat) > 1e-9 * max(1.0, abs(rb.B_hat))


def b_minus_a_test(rb: RBFit) -> tuple:
    """Return (B - A, its standard error, flagged) for a benchmarking fit.

    B - A must be nonnegative when the noise is one fixed channel per gate,
    so it is flagged when it sits more than 3 standard errors below zero.
    A fit that did not converge, or a flat curve (fitted p ~ 1, or decay
    amplitude ~ 0), does not identify the split between A and B and is
    never flagged.  Both ``lossbench fit --model rb`` and
    :func:`markovianity_tests` apply this one rule.
    """
    b_minus_a = rb.B_hat - rb.A_hat
    var = rb.covariance[0, 0] + rb.covariance[1, 1] - 2.0 * rb.covariance[0, 1]
    sigma = math.sqrt(max(var, 0.0))
    flagged = (
        rb.converged
        and _identifiable(rb)
        and b_minus_a / max(sigma, _SIGMA_FLOOR) < -3.0
    )
    return b_minus_a, sigma, flagged


def markovianity_tests(
    rb: RBFit,
    loss_m1: tuple,
    channel: QuantumChannel | None = None,
    rho0: DensityMatrix | None = None,
    q_op: MeasurementOperator | None = None,
    plateau: PlateauReport | None = None,
) -> MarkovReport:
    """Cross-protocol consistency checks on a converged benchmarking fit.

    ``loss_m1`` is the (mean, sem) of the loss-protocol signal at m = 1,
    which equals the benchmarking curve's offset B when the noise is one
    fixed channel per gate.  B - A must be nonnegative for such noise (it
    equals the click probability of the state orthogonal to the ideal
    preparation, after one noise application).  When the true channel is
    supplied along with a qubit preparation and measurement, that exact
    value is reported for comparison.

    A flat benchmarking curve (fitted p ~ 1, or decay amplitude ~ 0) does
    not identify the split between A and B, so the two comparison flags
    are suppressed in that case; the exact channel value is still reported.
    """
    if not rb.converged:
        raise ValueError("benchmarking fit did not converge; checks need a valid fit")
    m1_mean, m1_sem = float(loss_m1[0]), float(loss_m1[1])

    b_minus_a, b_minus_a_sigma, negative = b_minus_a_test(rb)
    flags = [FLAG_B_MINUS_A_NEGATIVE] if negative else []
    combined = math.sqrt(rb.stderr_B**2 + m1_sem**2)
    if _identifiable(rb) and abs(rb.B_hat - m1_mean) > 3.0 * max(combined, _SIGMA_FLOOR):
        flags.append(FLAG_M1_MISMATCH)
    if plateau is not None and plateau.flagged:
        flags.append(FLAG_PLATEAU)

    exact = None
    if channel is not None and rho0 is not None and q_op is not None and channel.dim == 2:
        rho_perp = np.eye(2, dtype=np.complex128) - rho0.matrix
        evolved = _apply_kraus(channel.kraus, hermitian_part(rho_perp))
        exact = float(np.real(np.trace(q_op.matrix @ evolved)))

    return MarkovReport(
        b_minus_a=b_minus_a,
        b_minus_a_sigma=b_minus_a_sigma,
        m1_intercept=m1_mean,
        m1_sigma=m1_sem,
        rb_b=rb.B_hat,
        rb_b_sigma=rb.stderr_B,
        flags=tuple(flags),
        exact_b_minus_a=exact,
    )
