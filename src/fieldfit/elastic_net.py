"""Elastic Net regression by cyclic coordinate descent with an active-set finish.

Minimizes 0.5 ||y - W b||^2 + lam1 ||b||_1 + 0.5 lam2 ||b||^2 with no
intercept.  Optimality of a finished fit is certified by the duality gap.
Columns are not standardized: the design matrices produced by Shepard
normalization are already scale-balanced, and rescaling would change the
minimizer of the penalized objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# sweeps between chances to try the active-set finish
FINISH_CHUNK = 50
# a finished solution is certified when its duality gap is this small
# relative to its objective
GAP_RTOL = 1e-12


@dataclass(frozen=True)
class ElasticNetConfig:
    """Penalty weights and stopping controls for the coordinate descent."""

    lam1: float = 0.0
    lam2: float = 0.0
    tol: float = 1e-10
    max_iters: int = 100_000

    def __post_init__(self):
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError(f"penalties must be nonnegative: lam1={self.lam1} lam2={self.lam2}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class FitResult:
    """Coordinate-descent output.

    ``objective_history`` has one entry per sweep.  When the fit was
    certified by the active-set finish (see :func:`fit`), its last entry is
    the finished objective, which is no higher than the last sweep's, so
    the history stays nonincreasing and ``objective`` equals its last entry.
    ``converged`` is true when either the step rule or the finish stopped
    the iteration.
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
    """Solve the Elastic Net problem by cyclic coordinate descent.

    Coefficients are visited in fixed column order 0..M-1 each sweep, in
    chunks of ``FINISH_CHUNK`` sweeps.  There are two ways to stop:

    - the step rule: max_m |delta beta_m| / max(1, max_m |beta_m|) drops to
      ``config.tol`` within a sweep;
    - the active-set finish (Friedman, Hastie & Tibshirani 2010): when the
      sign pattern of beta is unchanged over a chunk and has not been tried
      yet, the sign-pattern system on its support is solved directly, and
      the solution is accepted if it keeps that sign pattern, its duality
      gap (:func:`duality_gap`) is within ``GAP_RTOL`` of its objective, and
      its objective is no higher than the last sweep's.  The finished
      objective then replaces the last ``objective_history`` entry.

    Both paths return ``converged=True``.  Plain least squares (lam1 =
    lam2 = 0) has no gap certificate and stops on the step rule only.  If
    neither fires within ``config.max_iters`` sweeps the result is returned
    with ``converged=False`` rather than raising.
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

    Wf = np.asfortranarray(W)
    col_sq = np.einsum("nm,nm->m", Wf, Wf)
    denom = col_sq + config.lam2

    if beta0 is None:
        beta = np.zeros(m)
    else:
        beta = np.asarray(beta0, dtype=float).copy()
        if beta.shape[0] != m:
            raise ValueError(f"beta0 length {beta.shape[0]} does not match {m} columns")
    r = y - Wf @ beta

    history = np.empty(config.max_iters)
    sweeps = 0
    converged = False
    # plain least squares has no duality-gap certificate, so no finish
    can_finish = config.lam1 > 0 or config.lam2 > 0
    signs = None
    tried = set()
    while sweeps < config.max_iters:
        chunk = min(FINISH_CHUNK, config.max_iters - sweeps)
        done, converged = _cd_sweeps_numpy(
            Wf, col_sq, denom, config.lam1, config.lam2, config.tol, chunk,
            beta, r, history[sweeps:sweeps + chunk],
        )
        sweeps += done
        if converged:
            break
        previous, signs = signs, np.sign(beta).astype(np.int8)
        pattern = signs.tobytes()
        stable = previous is not None and np.array_equal(previous, signs)
        if not (can_finish and stable) or pattern in tried:
            continue
        tried.add(pattern)
        finished = _sign_pattern_finish(Wf, y, signs, config)
        if finished is not None and finished[1] <= history[sweeps - 1]:
            beta, history[sweeps - 1] = finished
            converged = True
            break

    return FitResult(
        beta=beta,
        objective=float(history[sweeps - 1]),
        iterations=int(sweeps),
        converged=bool(converged),
        active_set_size=int(np.count_nonzero(beta)),
        objective_history=history[:sweeps].copy(),
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
    returns infinity.
    """
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float)
    theta = y - W @ beta
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


def _cd_sweeps_numpy(W, col_sq, denom, lam1, lam2, tol, max_iters, beta, r, history):
    """Cyclic coordinate-descent sweeps with residual updates.

    Mutates ``beta``, ``r`` and ``history`` in place; returns the number of
    sweeps performed and whether the stopping rule was met.
    """
    n, m = W.shape
    sweeps = 0
    converged = False
    for s in range(max_iters):
        max_delta = 0.0
        for j in range(m):
            b_old = beta[j]
            z = np.dot(W[:, j], r) + col_sq[j] * b_old
            if denom[j] > 0.0:
                mag = abs(z) - lam1
                b_new = (mag if z >= 0.0 else -mag) / denom[j] if mag > 0.0 else 0.0
            else:
                b_new = 0.0
            if b_new != b_old:
                r -= (b_new - b_old) * W[:, j]
                beta[j] = b_new
                max_delta = max(max_delta, abs(b_new - b_old))
        rss = float(r @ r)
        max_abs = float(np.max(np.abs(beta), initial=0.0))
        history[s] = (
            0.5 * rss
            + lam1 * float(np.abs(beta).sum())
            + 0.5 * lam2 * float(beta @ beta)
        )
        sweeps = s + 1
        if max_delta <= tol * max(1.0, max_abs):
            converged = True
            break
    return sweeps, converged


def fit_log_field(values, W, config: ElasticNetConfig, beta0=None) -> tuple[FitResult, bool]:
    """Fit against log(values); the returned flag records that evaluation
    of the fitted expansion must exponentiate to recover the field."""
    v = np.asarray(values, dtype=float).ravel()
    bad = ~(v > 0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"field value at cell {j} is not positive: {v[j]}")
    return fit(W, np.log(v), config, beta0=beta0), True


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
