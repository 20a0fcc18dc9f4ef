"""Elastic Net regression by accelerated proximal gradient, certified by the duality gap.

Minimizes 0.5 ||y - W b||^2 + lam1 ||b||_1 + 0.5 lam2 ||b||^2 with no
intercept.  Penalized fits run monotone FISTA with adaptive restart on the
design as given, two matrix-vector products per iteration, and stop only
once the duality gap certifies the result; an active-set finish on the
iterate's sign pattern gets there early.  Plain least squares (lam1 = lam2
= 0) is a direct minimum-norm solve.  Columns are not standardized: the
design matrices produced by Shepard normalization are already
scale-balanced, and rescaling would change the minimizer of the penalized
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# iterations between duality-gap evaluations
GAP_CHECK_EVERY = 10
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
    trying the active-set finish; it never stops a fit by itself.
    ``max_iters`` caps the proximal-gradient iterations.
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

    ``iterations`` counts proximal-gradient iterations (a direct
    least-squares solve counts as one) and ``objective_history`` has one
    entry per iteration: the objective of the best iterate so far, so it is
    nonincreasing.  When the active-set finish certified the fit, the last
    entry is the finished objective, which is no higher than the iterate's.
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

    Penalized problems run monotone FISTA (Beck & Teboulle 2009) with the
    smooth part 0.5 ||y - W b||^2 + 0.5 lam2 ||b||^2 and the l1 term in the
    prox.  The step is 1/L with L = ||W||_1 ||W||_inf + lam2, a bound on
    the smooth part's Lipschitz constant for any W that needs no eigen-solve
    (rows of Shepard weights sum to one, so L is then the largest column sum
    plus lam2).  Momentum restarts when a step would raise the objective,
    which is then not taken, or when it points against the last step
    (gradient restart, O'Donoghue & Candes 2015).

    Every ``GAP_CHECK_EVERY`` iterations, and at the last, the duality gap
    (:func:`duality_gap`) of the iterate is computed.  The fit stops with
    ``converged=True`` when that gap is within ``GAP_RTOL`` of the
    objective, or when the active-set finish (Friedman, Hastie & Tibshirani
    2010) is accepted: once the relative gap is at most ``config.tol``, the
    sign-pattern system of the iterate is solved directly, once per
    pattern, and the solution is taken if it keeps that sign pattern, its
    gap is within ``GAP_RTOL`` of its objective, and its objective is no
    higher than the iterate's.  Otherwise the fit returns after
    ``config.max_iters`` iterations with ``converged=False`` rather than
    raising.

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

    lam1, lam2 = config.lam1, config.lam2
    absW = np.abs(W)
    L = float(absW.sum(axis=0).max(initial=0.0) * absW.sum(axis=1).max(initial=0.0)) + lam2
    del absW
    # W = 0 with lam2 = 0 leaves nothing smooth, and any step size works
    step = 1.0 / L if L > 0 else 1.0

    Wx = W @ x
    fx = _objective(y - Wx, x, config)
    x_prev, Wx_prev = x, Wx
    z, Wz, t = x, Wx, 1.0
    history = np.empty(config.max_iters)
    tried = set()
    converged = False
    k = 0
    while k < config.max_iters:
        u = soft_threshold(z - step * (W.T @ (Wz - y) + lam2 * z), step * lam1)
        Wu = W @ u
        fu = _objective(y - Wu, u, config)
        k += 1
        restart = fu > fx or float((z - u) @ (u - x)) > 0.0
        if fu <= fx:
            x_prev, Wx_prev = x, Wx
            x, Wx, fx = u, Wu, fu
        history[k - 1] = fx
        if restart:
            z, Wz, t = x, Wx, 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            c = (t - 1.0) / t_next
            z, Wz, t = x + c * (x - x_prev), Wx + c * (Wx - Wx_prev), t_next

        if k % GAP_CHECK_EVERY and k < config.max_iters:
            continue
        gap = _gap(W, y, x, y - Wx, config)
        if gap <= GAP_RTOL * fx:
            converged = True
            break
        if gap > config.tol * fx:
            continue
        signs = np.sign(x).astype(np.int8)
        pattern = signs.tobytes()
        if pattern in tried:
            continue
        tried.add(pattern)
        finished = _sign_pattern_finish(W, y, signs, config)
        if finished is not None and finished[1] <= fx:
            x, history[k - 1] = finished
            converged = True
            break

    return FitResult(
        beta=x,
        objective=float(history[k - 1]),
        iterations=int(k),
        converged=bool(converged),
        active_set_size=int(np.count_nonzero(x)),
        objective_history=history[:k].copy(),
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
    return FitResult(
        beta=beta,
        objective=objective,
        iterations=1,
        converged=bool(stationary),
        active_set_size=int(np.count_nonzero(beta)),
        objective_history=np.array([objective]),
    )


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
    objective = objective_value(W, y, beta, config)
    if not duality_gap(W, y, beta, config) <= GAP_RTOL * objective:
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
