"""Independent reference implementations used only by the test suite.

These are deliberately written with different algorithms than the library
(plain proximal gradient on the primal with a backtracking line search on
the Gram form instead of semismooth Newton on the dual with an active-set
finish, direct summation instead of blocked, vectorized kernels) so that
agreement between the two is meaningful.
"""

import numpy as np


def elastic_net_objective(W, y, beta, lam1, lam2):
    r = y - W @ beta
    return 0.5 * float(r @ r) + lam1 * float(np.abs(beta).sum()) + 0.5 * lam2 * float(beta @ beta)


def prox_gradient_elastic_net(W, y, lam1, lam2, max_iters=1_000_000, kkt_tol=1e-12):
    """Minimize 0.5||y - W b||^2 + lam1 ||b||_1 + 0.5 lam2 ||b||^2 by ISTA.

    Proximal gradient with backtracking line search.  Smooth part is the
    least-squares term plus the ridge term; the l1 term is handled by the
    shrinkage prox.  Stops when the minimal-norm subgradient is below
    ``kkt_tol`` or the iteration cap is hit.  The quadratic pieces are kept
    in Gram form so each iteration costs O(m^2) regardless of n.
    """
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = W.shape
    G = W.T @ W
    q = W.T @ y
    const = 0.5 * float(y @ y)
    beta = np.zeros(m)
    step = 1.0

    def smooth_grad(b):
        return G @ b - q + lam2 * b

    def smooth_val(b):
        return 0.5 * float(b @ (G @ b)) - float(q @ b) + const + 0.5 * lam2 * float(b @ b)

    def prox(v, t):
        return np.sign(v) * np.maximum(np.abs(v) - t * lam1, 0.0)

    def kkt_residual(b):
        g = smooth_grad(b)
        sub = np.where(
            b != 0.0,
            g + lam1 * np.sign(b),
            np.sign(g) * np.maximum(np.abs(g) - lam1, 0.0),
        )
        return float(np.max(np.abs(sub), initial=0.0))

    stall = 0
    for it in range(max_iters):
        g = smooth_grad(beta)
        f0 = smooth_val(beta)
        # backtracking: shrink the step until the quadratic upper bound holds
        t = step
        while True:
            cand = prox(beta - t * g, t)
            d = cand - beta
            if smooth_val(cand) <= f0 + float(g @ d) + float(d @ d) / (2 * t) + 1e-30:
                break
            t *= 0.5
            if t < 1e-18:
                break
        step = t * 1.5
        moved = float(np.max(np.abs(cand - beta), initial=0.0))
        beta = cand

        # the iterates reach a floating-point fixed point long before an
        # absolute subgradient test can trigger on badly scaled data, so a
        # long stretch of bitwise-stationary steps also counts as converged
        stall = stall + 1 if moved == 0.0 else 0
        if stall >= 50:
            break
        if it % 16 == 0 and kkt_residual(beta) <= kkt_tol:
            break
    return beta


def shepard_direct(points, centers, widths, beta):
    """Shepard blend sum_m beta_m g_m(x) / sum_m g_m(x) summed one center at a time.

    The Gaussian exponents are shifted by their maximum at each point, so
    the blend stays exact where every unshifted Gaussian underflows.
    """
    pts = np.asarray(points, dtype=float)
    exps = [-np.sum((pts - c) ** 2, axis=1) / (2.0 * s * s) for c, s in zip(centers, widths)]
    top = np.max(exps, axis=0)
    num = np.zeros(pts.shape[0])
    den = np.zeros(pts.shape[0])
    for e, b in zip(exps, beta):
        w = np.exp(e - top)
        num += b * w
        den += w
    return num / den
