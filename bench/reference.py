"""Reference computations written apart from fieldfit.

These functions use numpy only and never import the package they check,
so an error in fieldfit's feature or solver code cannot hide itself by
reappearing on both sides of a comparison.

- :func:`shepard_direct` evaluates a Shepard blend sum_m beta_m w_m(x) /
  sum_m w_m(x) by direct summation, one centre at a time.
- :func:`shepard_design` builds the normalized design matrix W column by
  column, so the Elastic Net optimality of a coefficient vector can be
  checked from W, y and beta alone.
- :func:`kkt_violation` and :func:`rel_duality_gap` are the two optimality
  certificates of the Elastic Net problem
  0.5 ||y - W b||^2 + lam1 ||b||_1 + 0.5 lam2 ||b||^2.
"""

from __future__ import annotations

import numpy as np

# a certified Elastic Net fit meets its optimality conditions to rounding
# (about 1e-15 on every workload); an uncertified one misses them by orders
# of magnitude more
KKT_TOL = 1e-8
# two evaluators that add the same terms in different orders agree to this
# relative tolerance
EVAL_RTOL = 1e-10


def _points(points, dim):
    pts = np.asarray(points, dtype=float)
    return pts.reshape(-1, dim)


def _exponents(pts, center, width):
    d2 = np.zeros(pts.shape[0])
    for k in range(pts.shape[1]):
        d2 += (pts[:, k] - center[k]) ** 2
    return -d2 / (2.0 * width * width)


def shepard_direct(points, centers, widths, beta):
    """Sum_m beta_m g_m(x) / sum_m g_m(x) with Gaussians g_m, by direct summation.

    Two passes over the centres: the first finds the largest exponent at each
    point, the second accumulates the shifted weights, so the blend is exact
    to rounding even where every unshifted Gaussian underflows.
    """
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    beta = np.asarray(beta, dtype=float)
    pts = _points(points, centers.shape[1])
    top = np.full(pts.shape[0], -np.inf)
    for c, s in zip(centers, widths):
        top = np.maximum(top, _exponents(pts, c, s))
    num = np.zeros(pts.shape[0])
    den = np.zeros(pts.shape[0])
    for c, s, b in zip(centers, widths, beta):
        w = np.exp(_exponents(pts, c, s) - top)
        num += b * w
        den += w
    return num / den


def shepard_design(points, centers, widths):
    """Row-normalized Gaussian design matrix W[j, m] = g_m(x_j) / sum_k g_k(x_j)."""
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    pts = _points(points, centers.shape[1])
    W = np.empty((pts.shape[0], centers.shape[0]))
    for m, (c, s) in enumerate(zip(centers, widths)):
        W[:, m] = _exponents(pts, c, s)
    W -= W.max(axis=1, keepdims=True)
    np.exp(W, out=W)
    W /= W.sum(axis=1, keepdims=True)
    return W


def kkt_violation(W, y, beta, lam1, lam2):
    """Largest violation of the Elastic Net optimality conditions.

    With g = W^T (y - W beta), the minimizer satisfies
    g_m - lam2 beta_m = lam1 sign(beta_m) where beta_m != 0, and
    |g_m| <= lam1 where beta_m = 0.  The violation is scaled by
    max(lam1, |W^T y|_inf), the size of the gradient at beta = 0, so it
    reads the same whatever the units of y.
    """
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    g = W.T @ (y - W @ beta)
    active = beta != 0
    viol = np.where(
        active,
        np.abs(g - lam2 * beta - lam1 * np.sign(beta)),
        np.maximum(np.abs(g) - lam1, 0.0),
    )
    scale = max(lam1, float(np.max(np.abs(W.T @ y), initial=0.0)))
    return float(np.max(viol, initial=0.0)) / scale


def objective(W, y, beta, lam1, lam2):
    r = np.asarray(y, dtype=float) - np.asarray(W, dtype=float) @ beta
    return 0.5 * float(r @ r) + lam1 * float(np.abs(beta).sum()) + 0.5 * lam2 * float(beta @ beta)


def rel_duality_gap(W, y, beta, lam1, lam2):
    """(P(beta) - D(theta)) / P(beta) at the dual point theta = y - W beta.

    D(theta) = theta.y - 0.5 |theta|^2 - sum_m max(|v_m| - lam1, 0)^2 / (2 lam2)
    with v = W^T theta, for lam2 > 0.  For lam2 = 0 the conjugate is the
    indicator of |v|_inf <= lam1, so theta is scaled into that box first.
    """
    if lam1 <= 0 and lam2 <= 0:
        raise ValueError("plain least squares has no duality-gap certificate")
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta, dtype=float)
    theta = y - W @ beta
    primal = objective(W, y, beta, lam1, lam2)
    v = W.T @ theta
    if lam2 > 0:
        excess = np.maximum(np.abs(v) - lam1, 0.0)
        conj = float(excess @ excess) / (2.0 * lam2)
    else:
        theta = theta * (lam1 / max(float(np.max(np.abs(v), initial=0.0)), lam1))
        conj = 0.0
    dual = float(theta @ y) - 0.5 * float(theta @ theta) - conj
    return (primal - dual) / primal
