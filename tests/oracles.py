"""Independent reference implementations used only by the test suite.

These are deliberately written with different algorithms than the library
(accelerated proximal gradient on the primal with a backtracking line search
on the Gram form instead of semismooth Newton on the dual with an active-set
finish, direct summation instead of blocked, vectorized kernels, element
matrices scattered per triangle instead of a stencil) so that agreement
between the two is meaningful.
"""

import numpy as np
import scipy.sparse as sp


def elastic_net_objective(W, y, beta, lam1, lam2):
    r = y - W @ beta
    return 0.5 * float(r @ r) + lam1 * float(np.abs(beta).sum()) + 0.5 * lam2 * float(beta @ beta)


def prox_gradient_elastic_net(W, y, lam1, lam2, max_iters=1_000_000, kkt_tol=1e-12):
    """Minimize 0.5||y - W b||^2 + lam1 ||b||_1 + 0.5 lam2 ||b||^2 by FISTA.

    Accelerated proximal gradient (Beck & Teboulle 2009) with a backtracking
    line search and adaptive restart: the momentum is dropped whenever it
    points uphill (O'Donoghue & Candes 2015).  Smooth part is the
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
    beta = np.zeros(m)
    z = beta  # the extrapolated point the gradient step starts from
    theta = 1.0
    step = 1.0

    def smooth_grad(b):
        return G @ b - q + lam2 * b

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
        g = smooth_grad(z)
        # backtracking: shrink the step until the quadratic upper bound holds.
        # The smooth part is quadratic, so its excess over the linear model
        # is exactly 0.5 d'(G + lam2 I)d; testing that term directly avoids
        # the cancellation of comparing two objective values near the optimum
        t = step
        while True:
            cand = prox(z - t * g, t)
            d = cand - z
            if float(d @ (G @ d)) + lam2 * float(d @ d) <= float(d @ d) / t:
                break
            t *= 0.5
            if t < 1e-18:
                break
        step = t * 1.5
        moved = float(np.max(np.abs(cand - beta), initial=0.0))
        if float((z - cand) @ (cand - beta)) > 0.0:
            theta, z = 1.0, cand
        else:
            nxt = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
            z = cand + ((theta - 1.0) / nxt) * (cand - beta)
            theta = nxt
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


def _values_at(data, pts):
    if callable(data):
        return np.asarray(data(pts), dtype=float)
    return np.full(pts.shape[0], float(data))


def p1_assembly_2d(problem):
    """Element-by-element P1 stiffness matrix (CSR) and load vector.

    Every kept triangle's 3x3 matrix k/(4|T|) (b_i b_j + c_i c_j) is
    scattered as COO triplets, centroids and areas are gathered from the
    corner coordinates, and Neumann data is integrated by the midpoint rule
    over the edges that belong to exactly one kept triangle.
    """
    mesh = problem.mesh
    tris = mesh.triangles
    p = mesh.nodes[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    cent = p.mean(axis=1)
    k = np.asarray(problem.coefficient(cent), dtype=float)

    # P1 gradient coefficients: grad(lambda_i) = (bvec_i, cvec_i) / (2 A)
    bvec = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1)
    cvec = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1)
    scale = k / (4.0 * areas)
    local = (bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]) * scale[:, None, None]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()

    b = np.zeros(mesh.n_nodes)
    f = _values_at(problem.source, cent)
    np.add.at(b, tris.ravel(), np.repeat(f * areas / 3.0, 3))

    edges = np.sort(np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    bedges = uniq[counts == 1]
    (x0, x1), (y0, y1) = mesh.bounds
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    faces = {"left": x == x0, "right": x == x1, "bottom": y == y0, "top": y == y1}
    for face, data in problem.neumann.items():
        edges = bedges[faces[face][bedges].all(axis=1)]
        mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
        lengths = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
        np.add.at(b, edges.ravel(), np.repeat(0.5 * _values_at(data, mids) * lengths, 2))
    return A, b
