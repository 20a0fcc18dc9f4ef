"""Elastic Net regression by semismooth Newton on the dual, certified by the duality gap.

Minimizes 0.5 ||y - W b||^2 + lam1 ||b||_1 + 0.5 lam2 ||b||^2 with no
intercept.  Penalized fits minimize the Fenchel dual, one unknown per row
of the design, by damped semismooth Newton: each step solves the linear
system of the current active set exactly, so a fit takes a handful of
steps.  A fit stops only once the duality gap certifies the primal point;
an active-set finish on its sign pattern gets there early.  Pure lasso
(lam2 = 0) runs the same steps inside a proximal-point loop.  Plain least
squares (lam1 = lam2 = 0) is a direct minimum-norm solve.  Columns are not
standardized: the design matrices produced by Shepard normalization are
already scale-balanced, and rescaling would change the minimizer of the
penalized objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dsyrk

# Armijo sufficient-decrease fraction, and the step halvings after which
# a line search gives up
ARMIJO_C = 1e-4
MAX_HALVINGS = 40
# a line search counts a decrease of the dual objective only when it
# exceeds this many times the magnitude of the terms it is summed from
ROUNDING = 16 * np.finfo(float).eps
# pure lasso: the proximal weight starts at the largest squared column norm
# and shrinks by this factor each time the centre moves
PROX_SHRINK = 0.1
# a solution is certified when its duality gap is this small relative to
# its objective
GAP_RTOL = 1e-12
# a least-squares solution is certified when its normal-equation residual
# |W^T r|_inf is at most this many times eps ||W||_2 (||W||_2 ||beta||_2 +
# ||r||_2), a normwise backward-error bound (Higham 2002, ch. 20).  Exact
# min-norm solves measured at most 1.46 times that bound (box fields on
# 2x2 partitions, 1D steps, condition numbers 40 to 1e20), and solves
# truncated at 1e-6 of the largest singular value at least 49 times it.
LSTSQ_BACKWARD_C = 8.0


@dataclass(frozen=True)
class ElasticNetConfig:
    """Penalty weights and stopping controls for :func:`fit`.

    ``tol`` is the relative duality gap below which the solver starts
    trying the active-set finish (a line search that finds no decrease
    tries it too); it never stops a fit by itself.
    ``max_iters`` caps the Newton steps.
    """

    lam1: float = 0.0
    lam2: float = 0.0
    tol: float = 1e-10
    max_iters: int = 100_000

    def __post_init__(self):
        if not (0 <= self.lam1 < math.inf and 0 <= self.lam2 < math.inf):
            raise ValueError(
                f"penalties must be finite and nonnegative: lam1={self.lam1} lam2={self.lam2}"
            )
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class FitResult:
    """Solver output.

    ``iterations`` counts Newton steps, a last one whose line search
    failed included (a direct least-squares solve counts as one), and
    ``objective_history`` has one entry per step: the lowest objective of
    the warm start and the primal points of the steps so far, so it is
    nonincreasing, except that the last entry of a converged fit is the
    objective of the certified point, which is returned: it is optimal to
    within its gap, so it can exceed the entry before it only by rounding.
    ``objective`` equals the last entry.  ``converged`` is true only when the
    returned coefficients are certified optimal (see :func:`fit`).
    """

    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    active_set_size: int
    objective_history: np.ndarray = field(repr=False, default=None)


def soft_threshold(z, lam):
    """sign(z) * max(|z| - lam, 0); works on scalars and arrays."""
    if np.any(np.asarray(lam) < 0):
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)


def fit(W, y, config: ElasticNetConfig, beta0=None) -> FitResult:
    """Solve the Elastic Net problem, certified by the duality gap.

    Penalized problems are solved on the Fenchel dual, one unknown per row
    of ``W`` (:func:`_dual_newton`): damped semismooth Newton on
    phi(theta) = 0.5 |theta|^2 - theta.y + |S_lam1(W^T theta)|^2 / (2 lam2),
    whose minimizer gives the primal solution beta = S_lam1(W^T theta) / lam2.
    Pure lasso (lam2 = 0) runs the same steps inside a proximal-point loop.
    The warm start ``beta0`` enters as theta_0 = y - W beta0.

    After every step the duality gap (:func:`duality_gap`) of beta(theta)
    is computed.  The fit stops with ``converged=True`` when that gap is
    within ``GAP_RTOL`` of the objective, or when the active-set finish
    (Friedman, Hastie & Tibshirani 2010) is accepted: once the relative gap
    is at most ``config.tol``, the sign-pattern system of beta(theta) is
    solved directly, once per pattern, and the solution is taken if it
    keeps that sign pattern and its gap is within ``GAP_RTOL`` of its
    objective.  A line search that finds no decrease leaves the finish as
    the last thing to try, whatever the gap.  Otherwise the fit returns the
    best coefficients seen, with ``converged=False`` rather than raising,
    after ``config.max_iters`` steps or a failed line search.

    Plain least squares (lam1 = lam2 = 0) is solved directly for the
    minimum-norm solution, whatever ``beta0``; it is ``converged`` when the
    normal equations hold to a backward-error bound (:func:`_least_squares`).
    """
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if W.ndim != 2:
        raise ValueError(f"design matrix must be 2-D, got shape {W.shape}")
    n, m = W.shape
    if y.shape[0] != n:
        raise ValueError(f"target length {y.shape[0]} does not match {n} rows")
    if not np.all(np.isfinite(W)) or not np.all(np.isfinite(y)):
        raise ValueError("design matrix and targets must be finite")
    if beta0 is None:
        x = np.zeros(m)
    else:
        x = np.asarray(beta0, dtype=float).copy()
        if x.shape[0] != m:
            raise ValueError(f"beta0 length {x.shape[0]} does not match {m} columns")
    if config.lam1 == 0 and config.lam2 == 0:
        return _least_squares(W, y)
    return _dual_newton(W, y, x, config)


def _dual_newton(W, y, beta0, config: ElasticNetConfig) -> FitResult:
    """Damped semismooth Newton on the Elastic Net dual (Li, Sun & Toh 2018).

    The gradient of phi is theta - y + W beta(theta) and its generalized
    Hessian is I + W_A W_A^T / lam2 on the active set A = {j : |w_j.theta|
    > lam1}.  Each step solves that n x n system by Cholesky and backtracks
    on phi until the Armijo condition holds.

    For lam2 = 0 the objective gains mu/2 |beta - c|^2 about a centre c,
    so the kernel runs with mu in place of lam2 and W^T theta shifted by
    mu c.  When the subproblem's optimality error |W^T grad| is at most
    half of mu |beta - c| (a relative-error proximal-point rule), the
    centre moves to beta(theta) and mu shrinks by ``PROX_SHRINK``.  The
    certificate is always the gap of the lasso itself.
    """
    lam1 = config.lam1
    lasso = config.lam2 == 0
    WT = np.ascontiguousarray(W.T)
    if lasso:
        mu = float(np.max(np.einsum("ij,ij->j", W, W), initial=0.0)) or 1.0
        center = beta0
    else:
        mu, center = config.lam2, np.zeros_like(beta0)

    theta = y - W @ beta0
    best, best_obj = beta0, _objective(theta, beta0, config)
    history = []
    v = WT @ theta + mu * center
    s = soft_threshold(v, lam1)
    beta = s / mu
    w_beta = W @ beta
    tried = set()
    while len(history) < config.max_iters:
        grad = theta - y + w_beta
        d = _newton_direction(WT, np.flatnonzero(s), grad, mu)
        step = _line_search(WT, y, theta, v, s, grad, d, lam1, mu, mu * center)
        if step is not None:
            theta, v, s = step
            beta = s / mu
            w_beta = W @ beta
            r = y - w_beta
            obj = _objective(r, beta, config)
            if obj <= best_obj:
                best, best_obj = beta, obj
            gap = _gap(W, y, beta, r, config)
        history.append(best_obj)
        if step is not None and gap <= GAP_RTOL * obj:
            history[-1] = obj
            return _result(beta, obj, history, True)

        # a stalled line search leaves the finish as the last thing to try
        if step is None or gap <= config.tol * obj:
            signs = np.sign(beta).astype(np.int8)
            pattern = signs.tobytes()
            finished = None if pattern in tried else _sign_pattern_finish(W, y, signs, config)
            tried.add(pattern)
            if finished is not None:
                history[-1] = finished[1]
                return _result(*finished, history, True)
        if step is None:
            break
        if lasso and np.linalg.norm(WT @ (theta - y + w_beta)) <= 0.5 * mu * np.linalg.norm(
            beta - center
        ):
            center, mu = beta, mu * PROX_SHRINK
            v = WT @ theta + mu * center
            s = soft_threshold(v, lam1)
            w_beta = W @ (s / mu)
    return _result(best, best_obj, history, False)


def _newton_direction(WT, active, grad, mu):
    """Solve (I + W_A W_A^T / mu) d = -grad.

    The matrix mu I + W_A W_A^T is formed by one symmetric rank-|A| update
    (its upper triangle only, half the flops of a general product) and
    factored by Cholesky.  Returns None if the factorization fails.
    """
    if active.size == 0:
        return -grad
    n = grad.shape[0]
    # rows of W^T are C-contiguous, so their transpose is a Fortran-order
    # W_A that BLAS takes without a copy
    h = dsyrk(1.0, WT[active].T)
    h.flat[:: n + 1] += mu
    try:
        factor = cho_factor(h, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return -mu * cho_solve(factor, grad, check_finite=False)


def _line_search(WT, y, theta, v, s, grad, d, lam1, mu, shift):
    """Backtrack along ``d`` until phi falls by ``ARMIJO_C`` of the predicted decrease.

    Returns the accepted (theta, v, s), or None when ``d`` is missing, is
    not a descent direction, or ``MAX_HALVINGS`` halvings find no
    sufficient decrease.  The change of phi is summed from its parts rather
    than taken as a difference of two values of phi: near the minimizer the
    curvature 1 + |W_A|^2 / mu makes the decrease fall below the rounding
    of phi itself while the gradient is still far from its own rounding.
    """
    if d is None:
        return None
    slope = float(grad @ d)
    if not slope < 0.0:
        return None
    e = theta - y
    t = 1.0
    for _ in range(MAX_HALVINGS):
        theta_t = theta + t * d
        v_t = WT @ theta_t + shift
        s_t = soft_threshold(v_t, lam1)
        # phi's change between the two points, summed from their differences
        step, delta = theta_t - theta, s_t - s
        a, b = e + 0.5 * step, s + 0.5 * delta
        change = float(a @ step) + float(b @ delta) / mu
        # a decrease within the rounding of its terms, W^T theta's included,
        # is no decrease
        noise = ROUNDING * (
            float(np.abs(a) @ np.abs(step)) + float(np.abs(b) @ (np.abs(v) + np.abs(v_t))) / mu
        )
        if change < -noise and change <= ARMIJO_C * t * slope:
            return theta_t, v_t, s_t
        t *= 0.5
    return None


def _result(beta, objective, history, converged) -> FitResult:
    return FitResult(
        beta=beta,
        objective=float(objective),
        iterations=len(history),
        converged=bool(converged),
        active_set_size=int(np.count_nonzero(beta)),
        objective_history=np.array(history, dtype=float),
    )


def _least_squares(W, y) -> FitResult:
    """Minimum-norm least-squares solution by one direct solve.

    It is certified when the normal equations hold to the rounding of a
    backward-stable solve: |W^T r|_inf <= c eps ||W||_2 (||W||_2 ||beta||_2
    + ||r||_2) with r = y - W beta and c = ``LSTSQ_BACKWARD_C``.  Unlike a
    bound relative to |W^T y|, this holds for a solve that is exact to
    rounding however ill-conditioned W is, and still rejects one truncated
    at a singular value far above rounding.  ||W||_2 is the largest
    singular value, which the solve returns.
    """
    beta, _, _, singular = np.linalg.lstsq(W, y, rcond=None)
    r = y - W @ beta
    norm_w = float(singular.max(initial=0.0))
    bound = LSTSQ_BACKWARD_C * np.finfo(float).eps * norm_w * (
        norm_w * float(np.linalg.norm(beta)) + float(np.linalg.norm(r))
    )
    stationary = float(np.max(np.abs(W.T @ r), initial=0.0)) <= bound
    objective = 0.5 * float(r @ r)
    return _result(beta, objective, [objective], stationary)


def _sign_pattern_finish(W, y, signs, config: ElasticNetConfig):
    """Exact minimizer for a guessed sign pattern, or None if it is not optimal.

    On the support A of ``signs`` the optimality conditions with fixed signs
    s_A are linear: (W_A^T W_A + lam2 I) b_A = W_A^T y - lam1 s_A.  The
    solution is returned as ``(beta, objective)`` only if it keeps the signs
    s_A and its duality gap is at rounding level, which certifies it as the
    global minimizer.
    """
    active = np.flatnonzero(signs)
    beta = np.zeros(W.shape[1])
    if active.size:
        WA = W[:, active]
        s = signs[active].astype(float)
        gram = WA.T @ WA
        gram[np.diag_indices_from(gram)] += config.lam2
        try:
            b_active = cho_solve(cho_factor(gram), WA.T @ y - config.lam1 * s)
        except np.linalg.LinAlgError:
            return None
        if not np.array_equal(np.sign(b_active), s):
            return None
        beta[active] = b_active
    theta = y - W @ beta
    objective = _objective(theta, beta, config)
    if not _gap(W, y, beta, theta, config) <= GAP_RTOL * objective:
        return None
    return beta, objective


def duality_gap(W, y, beta, config: ElasticNetConfig) -> float:
    """Elastic Net duality gap P(beta) - D(theta) at theta = y - W beta.

    The Fenchel dual is D(theta) = theta.y - 0.5|theta|^2 - g*(W^T theta)
    with g*(v) = sum_m max(|v_m| - lam1, 0)^2 / (2 lam2) for lam2 > 0 (Ndiaye,
    Fercoq, Gramfort & Salmon 2017).  For lam2 = 0 the conjugate is the
    indicator of |v|_inf <= lam1, so theta is rescaled into that box.  The
    gap is nonnegative up to rounding and zero exactly at the minimizer.
    Plain least squares (lam1 = lam2 = 0) has no such certificate and
    returns infinity; :func:`fit` certifies it by a backward-error bound
    on the normal equations instead.
    """
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float)
    return _gap(W, y, beta, y - W @ beta, config)


def _gap(W, y, beta, theta, config: ElasticNetConfig) -> float:
    """:func:`duality_gap` given the residual theta = y - W beta."""
    primal = _objective(theta, beta, config)
    v = W.T @ theta
    if config.lam2 > 0:
        excess = np.maximum(np.abs(v) - config.lam1, 0.0)
        conj = float(excess @ excess) / (2.0 * config.lam2)
    elif config.lam1 > 0:
        theta = theta * (config.lam1 / max(float(np.max(np.abs(v), initial=0.0)), config.lam1))
        conj = 0.0
    else:
        return float("inf")
    dual = float(theta @ y) - 0.5 * float(theta @ theta) - conj
    return primal - dual


def fit_log_field(values, W, config: ElasticNetConfig, beta0=None) -> FitResult:
    """Fit against log(values); the fitted expansion is exponentiated to
    recover the field."""
    v = np.asarray(values, dtype=float).ravel()
    bad = ~(v > 0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"field value at cell {j} is not positive: {v[j]}")
    return fit(W, np.log(v), config, beta0=beta0)


def _objective(r: np.ndarray, beta: np.ndarray, config: ElasticNetConfig) -> float:
    return (
        0.5 * float(r @ r)
        + config.lam1 * float(np.abs(beta).sum())
        + 0.5 * config.lam2 * float(beta @ beta)
    )


def objective_value(W, y, beta, config: ElasticNetConfig) -> float:
    """Penalized objective at an arbitrary coefficient vector."""
    r = np.asarray(y, dtype=float) - np.asarray(W, dtype=float) @ np.asarray(beta, dtype=float)
    return _objective(r, np.asarray(beta, dtype=float), config)
