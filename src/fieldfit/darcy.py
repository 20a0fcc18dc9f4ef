"""Continuous-Galerkin P1 pressure solver for -div(K grad p) = f.

The 2D mesh is a structured triangulation: each rectangular cell is split
along its lower-left to upper-right diagonal, which keeps assembly and point
location deterministic.  The coefficient is sampled at element centroids
(one-point quadrature), so a continuous surrogate is consumed directly, with
no projection onto the mesh.  In 1D the elements are intervals with linear
basis functions and the tridiagonal system is solved directly.

Every 2D system is solved by conjugate gradients preconditioned by one
symmetric multigrid V(2,2) cycle (MGCG, Tatebe 1993).  Halving the grid
counts (on stretched cells, only along the narrow axis) gives the coarse P1
spaces; the coarse operators are Galerkin products PᵀAP, which follow
coefficient jumps algebraically (Alcouffe, Brandt, Dendy & Painter 1981);
damped Jacobi smooths, and the coarsest level is LU-factorized.  A system
that is already coarsest-sized is solved by that factorization, in one CG
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .io import _write_text

FACES_2D = ("left", "right", "bottom", "top")
FACES_1D = ("left", "right")

# 2D systems: CG to this relative residual, preconditioned by one V(2,2)
# cycle whose coarsest level (at most _COARSEST unknowns) is factorized
_CG_RTOL = 1e-10
_COARSEST = 1100
_JACOBI_DAMPING = 0.8
_SWEEPS = 2
# an axis is halved when its cells are at most this many times as wide as
# along the narrowest halvable axis; the coarse cells' aspect ratio then
# settles within [1/sqrt(2), sqrt(2)]
_SEMI_RATIO = 2.0**0.5


@dataclass(frozen=True)
class Triangulation:
    """Structured triangle mesh of a rectangle, possibly with disk holes."""

    counts: tuple[int, int]
    bounds: tuple[tuple[float, float], tuple[float, float]]
    nodes: np.ndarray  # (n_nodes, 2)
    triangles: np.ndarray  # (n_tri, 3), counterclockwise
    tri_kept: np.ndarray  # mask into the full 2*nx*ny triangle list

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return 2

    def centroids(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        return p.mean(axis=1)

    def areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def face_nodes(self, face: str) -> np.ndarray:
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        (x0, x1), (y0, y1) = self.bounds
        sel = {
            "left": x == x0,
            "right": x == x1,
            "bottom": y == y0,
            "top": y == y1,
        }
        if face not in sel:
            raise ValueError(f"unknown face {face!r}; expected one of {FACES_2D}")
        return np.flatnonzero(sel[face])

    def boundary_edges(self) -> np.ndarray:
        """Edges that belong to exactly one kept triangle, as node pairs."""
        t = self.triangles
        edges = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        edges = np.sort(edges, axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        return uniq[counts == 1]


@dataclass(frozen=True)
class LineMesh:
    """Uniform interval mesh for the one-dimensional solver."""

    count: int
    bounds: tuple[float, float]
    nodes: np.ndarray  # (count + 1,)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return 1

    def face_nodes(self, face: str) -> np.ndarray:
        if face == "left":
            return np.array([0])
        if face == "right":
            return np.array([self.count])
        raise ValueError(f"unknown face {face!r}; expected one of {FACES_1D}")


def line_mesh(n: int, bounds) -> LineMesh:
    if n < 1:
        raise ValueError(f"element count must be >= 1, got {n}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if lo >= hi:
        raise ValueError(f"inverted bounds {bounds}")
    return LineMesh(count=n, bounds=(lo, hi), nodes=np.linspace(lo, hi, n + 1))


def triangulate(nx: int, ny: int, bounds, holes=()) -> Triangulation:
    """Triangulate an nx-by-ny rectangle grid with a fixed diagonal.

    ``holes`` is a sequence of (cx, cy, radius) disks; triangles whose
    centroids fall inside a disk are removed, and the resulting staircase
    boundary is left to the natural (no-flow) boundary condition.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"grid counts must be >= 1, got {(nx, ny)}")
    b = np.asarray(bounds, dtype=float).reshape(2, 2)
    xs = np.linspace(b[0, 0], b[0, 1], nx + 1)
    ys = np.linspace(b[1, 0], b[1, 1], ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([xg.ravel(), yg.ravel()])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    n00 = (jj * (nx + 1) + ii).ravel()
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    triangles = np.empty((2 * nx * ny, 3), dtype=int)
    triangles[0::2] = lower
    triangles[1::2] = upper

    kept = np.ones(triangles.shape[0], dtype=bool)
    if holes:
        cent = nodes[triangles].mean(axis=1)
        for cx, cy, r in holes:
            kept &= (cent[:, 0] - cx) ** 2 + (cent[:, 1] - cy) ** 2 > r**2
        if not np.any(kept):
            raise ValueError("holes remove every triangle")
    return Triangulation(
        counts=(nx, ny),
        bounds=((b[0, 0], b[0, 1]), (b[1, 0], b[1, 1])),
        nodes=nodes,
        triangles=triangles[kept],
        tri_kept=kept,
    )


@dataclass(frozen=True)
class DarcyProblem:
    """Mesh, coefficient, source and named-face boundary data.

    Faces listed in neither ``dirichlet`` nor ``neumann`` get homogeneous
    Neumann (no-flow) conditions; at least one Dirichlet face is required
    for well-posedness.
    """

    mesh: Triangulation | LineMesh
    coefficient: Callable[[np.ndarray], np.ndarray]
    dirichlet: Mapping[str, float | Callable]
    neumann: Mapping[str, float | Callable] = field(default_factory=dict)
    source: float | Callable = 0.0

    def __post_init__(self):
        faces = FACES_1D if self.mesh.dim == 1 else FACES_2D
        for name in (*self.dirichlet, *self.neumann):
            if name not in faces:
                raise ValueError(f"unknown face {name!r}; expected one of {faces}")
        overlap = set(self.dirichlet) & set(self.neumann)
        if overlap:
            raise ValueError(f"faces {sorted(overlap)} appear in both boundary sets")
        if not self.dirichlet:
            raise ValueError("at least one Dirichlet face is required")


@dataclass(frozen=True)
class PressureSolution:
    """Nodal pressure with solver diagnostics.

    ``values`` covers the full node set; nodes removed by holes carry NaN.
    The unconstrained system (matrix, rhs) is retained so boundary reactions
    can be read off the discrete residual.
    """

    mesh: Triangulation | LineMesh
    values: np.ndarray
    diagnostics: dict
    system: tuple = field(repr=False, default=None)

    def interpolate(self, points) -> np.ndarray:
        if self.mesh.dim == 1:
            return np.interp(
                np.asarray(points, dtype=float).ravel(), self.mesh.nodes, self.values
            )
        return _interp_p1(self.mesh, self.values, points)

    def boundary_reaction(self, face: str) -> float:
        """Discrete flux through a face: sum of A p - b over its nodes."""
        A, b = self.system
        vals = np.where(np.isfinite(self.values), self.values, 0.0)
        residual = A @ vals - b
        return float(residual[self.mesh.face_nodes(face)].sum())


def _interp_p1(tri: Triangulation, values: np.ndarray, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nx, ny = tri.counts
    (x0, x1), (y0, y1) = tri.bounds
    dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
    if np.any(pts[:, 0] < x0) or np.any(pts[:, 0] > x1) or np.any(pts[:, 1] < y0) or np.any(pts[:, 1] > y1):
        raise ValueError("interpolation point outside the mesh")
    ix = np.minimum(((pts[:, 0] - x0) / dx).astype(int), nx - 1)
    iy = np.minimum(((pts[:, 1] - y0) / dy).astype(int), ny - 1)
    xi = (pts[:, 0] - x0) / dx - ix
    yi = (pts[:, 1] - y0) / dy - iy
    # barycentric weights on the corners 00, 10, 01, 11 of the triangle
    # picked by xi >= yi: a corner off that triangle gets weight 0
    lo, hi = np.minimum(xi, yi), np.maximum(xi, yi)
    n00 = iy * (nx + 1) + ix
    terms = ((1.0 - hi, n00), (xi - lo, n00 + 1), (yi - lo, n00 + nx + 1), (lo, n00 + nx + 2))
    out = sum(w * values[c] for w, c in terms)
    redo = np.isnan(out)
    if np.any(redo):
        # a point of a kept triangle on an edge it shares with a removed one
        # may pick the removed triangle, whose off-edge corner can be an
        # inactive (NaN) node with a rounding-level weight: it does not count
        slack = 16 * np.finfo(float).eps * max(nx, ny)
        out[redo] = 0.0
        for w, c in terms:
            w, v = w[redo], values[c[redo]]
            out[redo] += np.where((np.abs(w) <= slack) & np.isnan(v), 0.0, w * v)
    return out


def _as_func(value):
    if callable(value):
        return value
    return lambda pts, v=float(value): np.full(np.atleast_2d(pts).shape[0], v)


def solve_darcy(problem: DarcyProblem) -> PressureSolution:
    """Assemble and solve the P1 system for the pressure.

    ``diagnostics`` holds ``method`` ("cg" in 2D, "direct" in 1D, "none"
    without free nodes), ``iterations``, ``levels`` (multigrid levels,
    1 for a direct solve) and ``residual`` (relative, of the reduced system).
    """
    if problem.mesh.dim == 1:
        A, b = _assemble_1d(problem)
    else:
        A, b = _assemble_2d(problem)
    mesh = problem.mesh

    if mesh.dim == 1:
        active = np.ones(mesh.n_nodes, dtype=bool)
    else:
        active = np.zeros(mesh.n_nodes, dtype=bool)
        active[mesh.triangles.ravel()] = True

    x = np.zeros(mesh.n_nodes)
    dir_mask = np.zeros(mesh.n_nodes, dtype=bool)
    for face, data in problem.dirichlet.items():
        nodes = mesh.face_nodes(face)
        nodes = nodes[active[nodes]]
        coords = mesh.nodes[nodes] if mesh.dim == 2 else mesh.nodes[nodes][:, None]
        x[nodes] = np.asarray(_as_func(data)(coords), dtype=float)
        dir_mask[nodes] = True
    if not np.any(dir_mask):
        raise NumericalError("no Dirichlet nodes: the system is singular")

    free = active & ~dir_mask
    A_csr = A.tocsr()
    rhs = b - A_csr @ x
    Aff = A_csr[free][:, free]
    bf = rhs[free]

    n_free = int(free.sum())
    if n_free == 0:
        method, iterations, levels, rel_res = "none", 0, 0, 0.0
    else:
        if mesh.dim == 1:
            xf = spla.spsolve(Aff.tocsc(), bf)
            method, iterations, levels = "direct", 1, 1
        else:
            extent = [hi - lo for lo, hi in mesh.bounds]
            hierarchy, coarsest = _multigrid(Aff, mesh.counts, extent, free)
            xf, iterations = _pcg(Aff, bf, hierarchy, coarsest)
            method, levels = "cg", len(hierarchy) + 1
        x[free] = xf
        res = float(np.linalg.norm(Aff @ xf - bf))
        ref = float(np.linalg.norm(bf))
        rel_res = res / ref if ref > 0 else res

    values = np.where(active, x, np.nan)
    return PressureSolution(
        mesh=mesh,
        values=values,
        diagnostics={
            "method": method, "iterations": iterations, "levels": levels, "residual": rel_res,
        },
        system=(A_csr, b),
    )


def _halve(n: int, coarsen: bool):
    """Coarse parents (lo, hi) of fine nodes 0..n on one axis.

    A coarsened axis keeps the even fine indices plus n: a fine node either
    coincides with a coarse node (lo == hi) or lies midway between two.  An
    axis that is not coarsened keeps every node.
    """
    i = np.arange(n + 1)
    if not coarsen:
        return i, i
    hi = (i + 1) // 2
    return np.where(i == n, hi, i // 2), hi


def _prolongation(counts, halve, free: np.ndarray):
    """P1 prolongation from the coarse grid, restricted to free nodes.

    Rows are the free fine nodes; a coarse column is kept when its
    coincident fine node is free.  Edge midpoints average their endpoints,
    and a coarse-cell centre averages the lower-left and upper-right corners
    (it lies on the diagonal).  Returns P, the coarse counts and the coarse
    free mask over the coarse node grid.
    """
    nx, ny = counts
    (lox, hix), (loy, hiy) = _halve(nx, halve[0]), _halve(ny, halve[1])
    mx, my = hix[-1] + 1, hiy[-1] + 1
    coincident = free.reshape(ny + 1, nx + 1)[np.flatnonzero(loy == hiy)]
    coarse_free = coincident[:, np.flatnonzero(lox == hix)].ravel()
    n_coarse = int(coarse_free.sum())
    column = np.full(mx * my, -1)
    column[coarse_free] = np.arange(n_coarse)

    parents = np.column_stack([
        (loy[:, None] * mx + lox).ravel()[free],
        (hiy[:, None] * mx + hix).ravel()[free],
    ])
    cols = column[parents]
    rows = np.broadcast_to(np.arange(cols.shape[0])[:, None], cols.shape)
    keep = cols >= 0
    P = sp.csr_matrix(
        (np.full(int(keep.sum()), 0.5), (rows[keep], cols[keep])),
        shape=(cols.shape[0], n_coarse),
    )
    return P, (mx - 1, my - 1), coarse_free


def _multigrid(A, counts, extent, free):
    """Galerkin hierarchy: per level (A, P, Pᵀ, damped inverse diagonal).

    Each level halves the axes whose cells are at most _SEMI_RATIO times
    as wide as along the narrowest halvable axis.  On stretched cells the
    coupling is strong along the narrow axis, and point Jacobi smooths the
    error only along it, so only that axis may be coarsened (semi-
    coarsening); halving both stalls CG at hundreds of iterations.
    Coarsening stops at _COARSEST unknowns (a 1-by-1 grid has at most 4)
    or before a level with no free node; the last operator is LU-factorized.
    """
    levels = []
    while A.shape[0] > _COARSEST:
        width = [e / n if n > 1 else np.inf for e, n in zip(extent, counts)]
        halve = [w <= _SEMI_RATIO * min(width) for w in width]
        P, coarse_counts, coarse_free = _prolongation(counts, halve, free)
        if P.shape[1] == 0:
            break
        R = P.T.tocsr()
        levels.append((A, P, R, _JACOBI_DAMPING / A.diagonal()))
        A = (R @ A @ P).tocsr()
        counts, free = coarse_counts, coarse_free
    return levels, spla.splu(A.tocsc())


def _vcycle(levels, coarsest, r, k=0):
    """One symmetric V(2,2) cycle from a zero guess, applied to r.

    A module-level function, so the hierarchy holds no reference to itself
    and is freed as soon as the solve returns.
    """
    if k == len(levels):
        return coarsest.solve(r)
    A, P, R, wdinv = levels[k]
    x = wdinv * r
    for _ in range(_SWEEPS - 1):
        x += wdinv * (r - A @ x)
    x += P @ _vcycle(levels, coarsest, R @ (r - A @ x), k + 1)
    for _ in range(_SWEEPS):
        x += wdinv * (r - A @ x)
    return x


def _pcg(A, b, levels, coarsest):
    """Conjugate gradients preconditioned by one V-cycle; (x, iterations)."""
    x = np.zeros_like(b)
    tol = _CG_RTOL * np.linalg.norm(b)
    if tol == 0.0:
        return x, 0
    r = b.copy()
    z = _vcycle(levels, coarsest, r)
    p = z.copy()
    rz = r @ z
    for it in range(1, b.size + 1):
        q = A @ p
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= tol:
            return x, it
        z = _vcycle(levels, coarsest, r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise NumericalError(f"preconditioned CG did not converge in {b.size} iterations")


def _assemble_2d(problem: DarcyProblem):
    mesh: Triangulation = problem.mesh
    tris = mesh.triangles
    p = mesh.nodes[tris]
    areas = mesh.areas()
    cent = mesh.centroids()

    k = np.asarray(problem.coefficient(cent), dtype=float)
    if np.any(~(k > 0) | ~np.isfinite(k)):
        j = int(np.argmax(~(k > 0) | ~np.isfinite(k)))
        raise NumericalError(f"coefficient sample at triangle {j} is not positive: {k[j]}")

    # P1 gradient coefficients: grad(lambda_i) = (bvec_i, cvec_i) / (2 A)
    bvec = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1)
    cvec = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1)

    scale = k / (4.0 * areas)
    local = (bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]) * scale[:, None, None]

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))

    b = np.zeros(mesh.n_nodes)
    f = np.asarray(_as_func(problem.source)(cent), dtype=float)
    np.add.at(b, tris.ravel(), np.repeat(f * areas / 3.0, 3))

    if problem.neumann:
        bedges = mesh.boundary_edges()
        for face, data in problem.neumann.items():
            on_face = np.isin(bedges, mesh.face_nodes(face))
            edges = bedges[on_face.all(axis=1)]
            if edges.size == 0:
                continue
            mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
            lengths = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
            q = np.asarray(_as_func(data)(mids), dtype=float)
            np.add.at(b, edges.ravel(), np.repeat(0.5 * q * lengths, 2))
    return A, b


def _assemble_1d(problem: DarcyProblem):
    mesh: LineMesh = problem.mesh
    n = mesh.count
    h = np.diff(mesh.nodes)
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])

    k = np.asarray(problem.coefficient(mids[:, None]), dtype=float)
    if np.any(~(k > 0) | ~np.isfinite(k)):
        j = int(np.argmax(~(k > 0) | ~np.isfinite(k)))
        raise NumericalError(f"coefficient sample at element {j} is not positive: {k[j]}")

    w = k / h
    diag = np.zeros(n + 1)
    np.add.at(diag, np.arange(n), w)
    np.add.at(diag, np.arange(1, n + 1), w)
    A = sp.diags([-w, diag, -w], offsets=[-1, 0, 1], format="coo")

    b = np.zeros(n + 1)
    f = np.asarray(_as_func(problem.source)(mids[:, None]), dtype=float)
    np.add.at(b, np.arange(n), 0.5 * f * h)
    np.add.at(b, np.arange(1, n + 1), 0.5 * f * h)

    for face, data in problem.neumann.items():
        node = mesh.face_nodes(face)[0]
        coord = mesh.nodes[node : node + 1][:, None]
        b[node] += float(np.asarray(_as_func(data)(coord))[0])
    return A, b


def pressure_rel_error(p_ref: PressureSolution, p_test: PressureSolution) -> float:
    """Relative L2 distance between two pressures, on the reference mesh.

    Uses the edge-midpoint rule per reference triangle (exact for the P1
    integrand); the test pressure is evaluated by P1 interpolation.
    """
    if p_ref.mesh.dim == 1:
        nodes = p_ref.mesh.nodes
        g = 0.5 / np.sqrt(3.0)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        h = np.diff(nodes)
        pts = np.concatenate([mids - g * h, mids + g * h])
        wts = np.concatenate([0.5 * h, 0.5 * h])
        ref_vals = p_ref.interpolate(pts)
        test_vals = p_test.interpolate(pts)
        num = float(np.sum(wts * (ref_vals - test_vals) ** 2))
        den = float(np.sum(wts * ref_vals**2))
    else:
        tri = p_ref.mesh
        tris = tri.triangles
        corners = tri.nodes[tris]
        vals = p_ref.values[tris]
        areas = tri.areas()
        num = den = 0.0
        for a, bb in ((0, 1), (1, 2), (2, 0)):
            pts = 0.5 * (corners[:, a] + corners[:, bb])
            ref_vals = 0.5 * (vals[:, a] + vals[:, bb])
            test_vals = p_test.interpolate(pts)
            w = areas / 3.0
            num += float(np.sum(w * (ref_vals - test_vals) ** 2))
            den += float(np.sum(w * ref_vals**2))
    if den == 0.0:
        raise ValueError("reference pressure has zero norm")
    return float(np.sqrt(num / den))


def write_pressure_text(solution: PressureSolution, sink) -> None:
    """Nodal pressure in the field-file grammar (header lines, then values).

    The counts are node counts and the values are nodal pressures in
    row-major order; nodes removed by holes appear as nan.  Unlike
    coefficient fields, pressure values may be zero or negative.
    """
    mesh = solution.mesh
    if mesh.dim == 1:
        header = [f"1 {mesh.n_nodes}", f"{mesh.bounds[0]:.17g} {mesh.bounds[1]:.17g}"]
    else:
        nx, ny = mesh.counts
        (x0, x1), (y0, y1) = mesh.bounds
        header = [f"2 {nx + 1} {ny + 1}", f"{x0:.17g} {x1:.17g} {y0:.17g} {y1:.17g}"]
    lines = header + [f"{v:.17g}" for v in solution.values]
    _write_text(sink, "\n".join(lines) + "\n")
