"""Continuous-Galerkin P1 pressure solver for -div(K grad p) = f.

The 2D mesh is a structured triangulation: each rectangular cell is split
along its lower-left to upper-right diagonal, which keeps assembly and point
location deterministic.  The coefficient is sampled at element centroids
(one-point quadrature), so a continuous surrogate is consumed directly, with
no projection onto the mesh.  On this mesh the P1 stiffness matrix is
exactly a 5-point stencil: each right triangle couples only the ends of its
two legs, so the matrix is written straight into CSR from the per-axis node
coordinates, and centroids, areas and faces are read off those coordinates
too.  In 1D the elements are intervals with linear basis functions and the
reduced tridiagonal system is solved by LAPACK's ``dptsv``.

Every 2D system is solved by CG, which is ``scipy.sparse.linalg.cg``,
preconditioned by one symmetric multigrid V(2,2) cycle (MGCG, Tatebe
1993).  Halving the grid counts (on stretched cells, only along the narrow
axis) gives the coarse P1 spaces; the coarse operators are Galerkin
products PᵀAP, which follow coefficient jumps algebraically (Alcouffe,
Brandt, Dendy & Painter 1981); damped Jacobi smooths, and the coarsest
level is LU-factorized.  A system that is already coarsest-sized is solved
by that factorization, in one CG iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .blas import use_one_blas_thread
from .errors import NumericalError
from .geometry import Mesh, as_points, build_mesh, check_inside, grid_index
from .io import write_grid_values

# the one triangle each face edge belongs to, indexed into the
# (row, column, lower/upper) triangle grid
_FACE_OWNER = {
    "left": (slice(None), 0, 1),
    "right": (slice(None), -1, 0),
    "bottom": (0, slice(None), 0),
    "top": (-1, slice(None), 1),
}

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
    """Structured triangle mesh of a rectangle, possibly with disk holes.

    It is its cell mesh, whose node grid it shares, and the mask of the
    triangles the holes leave.
    """

    cells: Mesh
    tri_kept: np.ndarray  # mask into the full 2*nx*ny triangle list

    dim = 2

    @property
    def counts(self) -> tuple[int, ...]:
        return self.cells.counts

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return self.cells.bounds

    @property
    def n_nodes(self) -> int:
        return self.cells.n_nodes

    @property
    def nodes(self) -> np.ndarray:
        return self.cells.nodes

    @property
    def faces(self) -> tuple[str, ...]:
        return self.cells.faces

    def face_nodes(self, face: str) -> np.ndarray:
        return self.cells.face_nodes(face)

    @cached_property
    def triangles(self) -> np.ndarray:
        """(n_tri, 3) kept triangles: per cell (00, 10, 11), then (00, 11, 01)."""
        nx, ny = self.counts
        n00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).reshape(-1, 1, 1)
        corners = n00 + np.array([[0, 1, nx + 2], [0, nx + 2, nx + 1]])
        return self._kept(corners.reshape(-1, 3))

    def centroids(self) -> np.ndarray:
        return self._kept(_full_centroids(*self.cells.edges))

    def areas(self) -> np.ndarray:
        xs, ys = self.cells.edges
        cell = 0.5 * (np.diff(xs) * np.diff(ys)[:, None])
        return self._kept(np.repeat(cell.ravel(), 2))

    def _kept(self, full: np.ndarray) -> np.ndarray:
        """The kept triangles' rows of an array over all 2*nx*ny triangles."""
        return full if self.tri_kept.all() else full[self.tri_kept]


def _full_centroids(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Centroids of all 2*nx*ny triangles, in the order of ``triangulate``.

    Each coordinate is summed as ((a + b) + c) / 3 over the corners in
    triangle order, as ``nodes[triangles].mean(axis=1)`` does, so the two
    agree bit for bit.
    """
    xa, xb, ya, yb = xs[:-1], xs[1:], ys[:-1, None], ys[1:, None]
    out = np.empty((ya.size, xa.size, 2, 2))
    # lower triangle (00, 10, 11), upper triangle (00, 11, 01)
    out[:, :, 0, 0] = ((xa + xb) + xb) / 3
    out[:, :, 0, 1] = ((ya + ya) + yb) / 3
    out[:, :, 1, 0] = ((xa + xb) + xa) / 3
    out[:, :, 1, 1] = ((ya + yb) + yb) / 3
    return out.reshape(-1, 2)


def line_mesh(n: int, bounds) -> Mesh:
    """The 1D mesh of n elements over bounds (lo, hi), for the 1D solver."""
    return build_mesh(1, n, bounds)


def triangulate(nx: int, ny: int, bounds, holes=()) -> Triangulation:
    """Triangulate an nx-by-ny rectangle grid with a fixed diagonal.

    ``holes`` is a sequence of (cx, cy, radius) disks; triangles whose
    centroids fall inside a disk are removed, and the resulting staircase
    boundary is left to the natural (no-flow) boundary condition.
    """
    cells = build_mesh(2, (nx, ny), bounds)
    kept = np.ones(2 * nx * ny, dtype=bool)
    if holes:
        cent = _full_centroids(*cells.edges)
        for cx, cy, r in holes:
            kept &= (cent[:, 0] - cx) ** 2 + (cent[:, 1] - cy) ** 2 > r**2
        if not np.any(kept):
            raise ValueError("holes remove every triangle")
    return Triangulation(cells=cells, tri_kept=kept)


@dataclass(frozen=True)
class DarcyProblem:
    """Mesh, coefficient, source and named-face boundary data.

    Faces listed in neither ``dirichlet`` nor ``neumann`` get homogeneous
    Neumann (no-flow) conditions; at least one Dirichlet face is required
    for well-posedness.
    """

    mesh: Triangulation | Mesh
    coefficient: Callable[[np.ndarray], np.ndarray]
    dirichlet: Mapping[str, float | Callable]
    neumann: Mapping[str, float | Callable] = field(default_factory=dict)
    source: float | Callable = 0.0

    def __post_init__(self):
        faces = self.mesh.faces
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

    mesh: Triangulation | Mesh
    values: np.ndarray
    diagnostics: dict
    system: tuple = field(repr=False, default=None)

    def interpolate(self, points) -> np.ndarray:
        if self.mesh.dim == 1:
            pts = as_points(points, 1)
            nodes = self.mesh.edges[0]
            check_inside(pts, nodes[:1], nodes[-1:])
            return np.interp(pts[:, 0], nodes, self.values)
        return _interp_p1(self.mesh, self.values, points)

    def boundary_reaction(self, face: str) -> float:
        """Discrete flux through a face: sum of A p - b over its nodes."""
        A, b = self.system
        vals = np.where(np.isfinite(self.values), self.values, 0.0)
        residual = A @ vals - b
        return float(residual[self.mesh.face_nodes(face)].sum())


def _interp_p1(tri: Triangulation, values: np.ndarray, points) -> np.ndarray:
    pts = as_points(points, 2)
    nx, ny = tri.counts
    (x0, x1), (y0, y1) = tri.bounds
    dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
    iy, ix = np.divmod(grid_index(pts, tri.cells.edges), nx)
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
    return lambda pts, v=float(value): np.full(len(pts), v)


def solve_darcy(problem: DarcyProblem) -> PressureSolution:
    """Assemble and solve the P1 system for the pressure, on one BLAS thread.

    The matrix is the 5-point stencil of ``_assemble_2d`` in 2D and the
    tridiagonal matrix of ``_assemble_1d`` in 1D; ``system`` holds it in
    CSR, with the load vector, before Dirichlet nodes are removed.  2D
    systems are solved by ``scipy.sparse.linalg.cg`` preconditioned by one
    multigrid V(2,2) cycle, stopped by :class:`NumericalError` at its first
    non-finite iterate; 1D systems by LAPACK ``dptsv``.  CG's dot products
    and norms take other bits on another count of BLAS threads, so OpenBLAS
    is first put on one thread (:func:`fieldfit.blas.use_one_blas_thread`)
    and left there, and the pressures do not depend on the caller's count.
    ``diagnostics`` holds ``method`` ("cg" in 2D, "direct" in 1D, "none"
    without free nodes), ``iterations``, ``levels`` (multigrid levels, 1 for
    a direct solve) and ``residual`` (relative, of the reduced system).
    """
    use_one_blas_thread()
    mesh = problem.mesh
    A, b = _assemble_1d(problem) if mesh.dim == 1 else _assemble_2d(problem)
    # a node is active when a kept element touches it, i.e. its row is stored
    active = np.diff(A.indptr) > 0

    x = np.zeros(mesh.n_nodes)
    dir_mask = np.zeros(mesh.n_nodes, dtype=bool)
    for face, data in problem.dirichlet.items():
        nodes = mesh.face_nodes(face)
        nodes = nodes[active[nodes]]
        x[nodes] = np.asarray(_as_func(data)(mesh.nodes[nodes]), dtype=float)
        dir_mask[nodes] = True
    if not np.any(dir_mask):
        raise NumericalError("no Dirichlet nodes: the system is singular")

    free = active & ~dir_mask
    rhs = b - A @ x
    Aff = A[free][:, free]
    bf = rhs[free]

    n_free = int(free.sum())
    if n_free == 0:
        method, iterations, levels, rel_res = "none", 0, 0, 0.0
    else:
        if mesh.dim == 1:
            _, _, xf, info = lapack.dptsv(Aff.diagonal(), Aff.diagonal(1), bf)
            if info != 0:
                raise NumericalError(f"tridiagonal solve failed: LAPACK dptsv info={info}")
            method, iterations, levels = "direct", 1, 1
        else:
            extent = [hi - lo for lo, hi in mesh.bounds]
            hierarchy, coarsest = _multigrid(Aff, mesh.counts, extent, free)
            # dtype given, so cg need not run a V-cycle on zeros to find it
            vcycle = spla.LinearOperator(
                Aff.shape, matvec=lambda r: _vcycle(hierarchy, coarsest, r), dtype=float
            )
            steps = []

            def step(xk):  # a breakdown (a 0/0 step) makes every later iterate NaN too
                steps.append(xk)
                if not np.isfinite(xk).all():
                    raise NumericalError(f"CG did not converge: iterate {len(steps)} is not finite")

            xf, info = spla.cg(
                Aff, bf, rtol=_CG_RTOL, atol=0.0, maxiter=n_free, M=vcycle, callback=step
            )
            if info != 0:
                raise NumericalError(f"preconditioned CG did not converge in {n_free} iterations")
            method, iterations, levels = "cg", len(steps), len(hierarchy) + 1
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
        system=(A, b),
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


def _sample(problem: DarcyProblem, points, element: str):
    """Coefficient and source at the elements' quadrature points.

    Raises :class:`NumericalError` naming the first ``element`` whose
    coefficient is not a finite positive number.
    """
    k = np.asarray(problem.coefficient(points), dtype=float)
    bad = ~((k > 0) & np.isfinite(k))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise NumericalError(f"coefficient sample at {element} {j} is not positive: {k[j]}")
    return k, np.asarray(_as_func(problem.source)(points), dtype=float)


def _assemble_2d(problem: DarcyProblem):
    """P1 stiffness matrix as a 5-point stencil in CSR, and the load vector.

    With the coefficient sampled once per triangle, a right triangle with
    legs dx and dy couples only the two ends of each leg: by k dy / (2 dx)
    along its x-leg and k dx / (2 dy) along its y-leg, while its hypotenuse
    coupling is exactly zero.  So an x-edge of the mesh collects the lower
    triangle of the cell above it and the upper triangle of the cell below
    it, and a y-edge the upper triangle of the cell to its right and the
    lower triangle of the cell to its left.  Removed triangles carry k = 0;
    a zero coupling and the row of a node without kept triangles are not
    stored.  Each row holds its south, west, centre, east and north
    entries, in column order.
    """
    mesh: Triangulation = problem.mesh
    nx, ny = mesh.counts
    xs, ys = mesh.cells.edges
    cent = mesh.centroids()

    k, f = _sample(problem, cent, "triangle")

    # per cell (row j, column i): [..., 0] lower triangle, [..., 1] upper
    kt = _per_cell(mesh, k)
    dx, dy = np.diff(xs), np.diff(ys)[:, None]
    leg_x = dy / (2.0 * dx)
    leg_y = dx / (2.0 * dy)
    wx = np.zeros((ny + 1, nx))  # x-edge from node (i, j) to (i + 1, j)
    wx[:-1] += kt[..., 0] * leg_x
    wx[1:] += kt[..., 1] * leg_x
    wy = np.zeros((ny, nx + 1))  # y-edge from node (i, j) to (i, j + 1)
    wy[:, 1:] += kt[..., 0] * leg_y
    wy[:, :-1] += kt[..., 1] * leg_y

    n = mesh.n_nodes
    stencil = np.zeros((ny + 1, nx + 1, 5))
    stencil[1:, :, 0] = -wy
    stencil[:, 1:, 1] = -wx
    stencil[:, :-1, 3] = -wx
    stencil[:-1, :, 4] = -wy
    stencil[..., 2] = -stencil.sum(axis=2)
    stencil = stencil.reshape(n, 5)
    stored = stencil != 0.0
    cols = np.arange(n)[:, None] + np.array([-(nx + 1), -1, 0, 1, nx + 1])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
    A = sp.csr_matrix((stencil[stored], cols[stored], indptr), shape=(n, n))

    # each triangle sends a third of its source integral to each corner
    share = _per_cell(mesh, f * mesh.areas() / 3.0)
    both = share[..., 0] + share[..., 1]
    b = np.zeros((ny + 1, nx + 1))
    b[:-1, :-1] += both
    b[1:, 1:] += both
    b[:-1, 1:] += share[..., 0]
    b[1:, :-1] += share[..., 1]
    b = b.ravel()

    for face, data in problem.neumann.items():
        nodes = mesh.face_nodes(face)
        on = mesh.tri_kept.reshape(ny, nx, 2)[_FACE_OWNER[face]]
        lo, hi = nodes[:-1][on], nodes[1:][on]
        if lo.size == 0:
            continue
        mids = 0.5 * (mesh.nodes[lo] + mesh.nodes[hi])
        lengths = np.linalg.norm(mesh.nodes[hi] - mesh.nodes[lo], axis=1)
        flux = 0.5 * np.asarray(_as_func(data)(mids), dtype=float) * lengths
        b[lo] += flux
        b[hi] += flux
    return A, b


def _per_cell(mesh: Triangulation, values: np.ndarray) -> np.ndarray:
    """Per-kept-triangle values on the (ny, nx, 2) grid of all triangles, 0 elsewhere."""
    nx, ny = mesh.counts
    if not mesh.tri_kept.all():
        full = np.zeros(mesh.tri_kept.size)
        full[mesh.tri_kept] = values
        values = full
    return values.reshape(ny, nx, 2)


def _assemble_1d(problem: DarcyProblem):
    mesh: Mesh = problem.mesh
    (n,), (x,) = mesh.counts, mesh.edges
    h = np.diff(x)
    mids = 0.5 * (x[:-1] + x[1:])

    k, f = _sample(problem, mids[:, None], "element")

    w = k / h
    diag = np.zeros(n + 1)
    diag[:-1] += w
    diag[1:] += w
    A = sp.diags([-w, diag, -w], offsets=[-1, 0, 1], format="csr")

    b = np.zeros(n + 1)
    half = 0.5 * f * h
    b[:-1] += half
    b[1:] += half

    for face, data in problem.neumann.items():
        node = mesh.face_nodes(face)
        b[node] += float(np.asarray(_as_func(data)(mesh.nodes[node]))[0])
    return A, b


def pressure_rel_error(p_ref: PressureSolution, p_test: PressureSolution) -> float:
    """Relative L2 distance between two pressures, on the reference mesh.

    Uses the edge-midpoint rule per reference triangle (exact for the P1
    integrand); the test pressure is evaluated by P1 interpolation.
    """
    if p_ref.mesh.dim == 1:
        nodes = p_ref.mesh.edges[0]
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
    write_grid_values(sink, [n + 1 for n in mesh.counts], mesh.bounds, solution.values)
