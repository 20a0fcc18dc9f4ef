"""Structured 1D/2D cell meshes, half-open boxes and grid location.

Cells are congruent axis-aligned intervals (1D) or rectangles (2D), indexed
row-major with the x index fastest: ``index = iy * nx + ix``.  Every grid of
the package takes its per-axis edges from one rule, :func:`uniform_edges`:
fitted cells, partition boxes and the Darcy meshes, whose nodes are the
tensor grid of a :class:`Mesh`'s edges.  Boxes carry a per-axis half-open
flag on the upper face so that a point lying on a face shared by two boxes
belongs to exactly one of them.

Point arrays are shaped by one rule, :func:`as_points`, and subdomain
dispatch, staircase lookup and P1 interpolation locate points by one
search over per-axis edges, :func:`grid_index`, under that half-open rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def as_points(points, dim: int) -> np.ndarray:
    """Points as an (N, dim) float array; a 1D input is one point or N scalars."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :] if pts.size == dim else pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points of shape {np.shape(points)} are not points of dim {dim}")
    return pts


def grid_points(axes) -> np.ndarray:
    """The points of the tensor grid on 1D or 2D coordinates, row-major with x fastest."""
    if len(axes) == 1:
        return axes[0][:, None]
    out = np.empty((len(axes[1]), len(axes[0]), 2))
    out[..., 0], out[..., 1] = axes[0], np.reshape(axes[1], (-1, 1))
    return out.reshape(-1, 2)


def uniform_edges(counts, bounds) -> tuple[np.ndarray, ...]:
    """Per-axis edges of ``counts[k]`` equal cells over ``bounds[k]``.

    Edge i is ``lo + (hi - lo) * i / n``, and the last edge is exactly ``hi``,
    so a point on the closed upper face lies inside the grid.
    """
    edges = tuple(lo + (hi - lo) * np.arange(n + 1) / n for n, (lo, hi) in zip(counts, bounds))
    for e, (_, hi) in zip(edges, bounds):
        e[-1] = hi
    return edges


def check_inside(pts: np.ndarray, lo, hi) -> None:
    """Raise ``ValueError`` naming the first (N, dim) point outside [lo, hi] or not finite."""
    # an axis's min and max are NaN if one of its coordinates is, and then fail
    if pts.size and not all(a <= x.min() and x.max() <= b for a, b, x in zip(lo, hi, pts.T)):
        j = int(np.argmin(np.all((pts >= lo) & (pts <= hi), axis=1)))
        raise ValueError(f"point index {j} = {pts[j].tolist()} lies outside the grid's box")


def grid_index(points, edges) -> np.ndarray:
    """Row-major index (x fastest) of the grid cell holding each point.

    ``edges`` holds one ascending array of cell edges per axis.  Cells are
    half-open, [e_i, e_i+1), except that the outer upper face belongs to the
    last cell: the rule of a partition's boxes.  A point outside the grid or
    with a non-finite coordinate raises ``ValueError`` naming its index.
    """
    pts = as_points(points, len(edges))
    check_inside(pts, [e[0] for e in edges], [e[-1] for e in edges])
    index = np.zeros(pts.shape[0], dtype=np.intp)
    for k in reversed(range(len(edges))):
        e, x, n = edges[k], pts[:, k], len(edges[k]) - 1
        if n == 1:
            continue
        # guess each cell from uniform edges and search only where the guess is wrong
        cell = np.minimum(((x - e[0]) * (n / (e[-1] - e[0]))).astype(np.intp), n - 1)
        miss = np.flatnonzero((x < e[cell]) | ((x >= e[cell + 1]) & (cell < n - 1)))
        cell[miss] = np.minimum(np.searchsorted(e, x[miss], side="right") - 1, n - 1)
        index *= n
        index += cell
    return index


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with optionally open upper faces.

    ``open_hi[k] = True`` excludes points with ``x[k] == hi[k]``; the lower
    faces are always closed.  Membership is therefore deterministic on shared
    internal faces of a decomposition.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    open_hi: tuple[bool, ...]

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.open_hi)):
            raise ValueError("lo, hi and open_hi must have equal length")
        if not all(lo < hi for lo, hi in zip(self.lo, self.hi)):
            raise ValueError(f"degenerate box: lo={self.lo} hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an (n, dim) array of points."""
        pts = as_points(points, self.dim)
        mask = np.ones(pts.shape[0], dtype=bool)
        for k in range(self.dim):
            mask &= pts[:, k] >= self.lo[k]
            if self.open_hi[k]:
                mask &= pts[:, k] < self.hi[k]
            else:
                mask &= pts[:, k] <= self.hi[k]
        return mask

    def clamp(self, point: np.ndarray) -> np.ndarray:
        """Project a point onto the closed box."""
        return np.clip(np.asarray(point, dtype=float), self.lo, self.hi)


# each named face of a mesh: (axis, end), the end an index into that axis's edges
FACES = {"left": (0, 0), "right": (0, -1), "bottom": (1, 0), "top": (1, -1)}


@dataclass(frozen=True)
class Mesh:
    """Uniform structured mesh of cells over an axis-aligned box.

    The cell edges along each axis are :func:`uniform_edges`; their tensor
    grid is the mesh's node grid, numbered row-major with x fastest.
    """

    dim: int
    counts: tuple[int, ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.counts) != self.dim or len(self.bounds) != self.dim:
            raise ValueError("counts/bounds do not match dim")
        if any(n < 1 for n in self.counts):
            raise ValueError(f"cell counts must be >= 1, got {self.counts}")
        if not all(math.isfinite(v) for lo, hi in self.bounds for v in (lo, hi, hi - lo)):
            raise ValueError(f"bounds and their extents must be finite: {self.bounds}")
        if any(b[0] >= b[1] for b in self.bounds):
            raise ValueError(f"inverted or degenerate bounds: {self.bounds}")

    @property
    def n_cells(self) -> int:
        return math.prod(self.counts)

    @property
    def cell_size(self) -> tuple[float, ...]:
        return tuple((b[1] - b[0]) / n for n, b in zip(self.counts, self.bounds))

    @property
    def h(self) -> float:
        """Maximum element diameter: cell length in 1D, cell diagonal in 2D."""
        return float(np.linalg.norm(self.cell_size))

    @property
    def cell_measure(self) -> float:
        return float(np.prod(self.cell_size))

    @property
    def n_nodes(self) -> int:
        return math.prod(n + 1 for n in self.counts)

    @cached_property
    def edges(self) -> tuple[np.ndarray, ...]:
        """Per-axis cell edges, the node coordinates along each axis."""
        return uniform_edges(self.counts, self.bounds)

    @cached_property
    def nodes(self) -> np.ndarray:
        """(n_nodes, dim) node coordinates, row-major with x fastest."""
        return grid_points(self.edges)

    @property
    def faces(self) -> tuple[str, ...]:
        return tuple(f for f, (axis, _) in FACES.items() if axis < self.dim)

    def face_nodes(self, face: str) -> np.ndarray:
        """Indices of the nodes on a named face, ascending."""
        if face not in self.faces:
            raise ValueError(f"unknown face {face!r}; expected one of {self.faces}")
        axis, end = FACES[face]
        grid = np.arange(self.n_nodes).reshape([n + 1 for n in reversed(self.counts)])
        return np.take(grid, [end], axis=self.dim - 1 - axis).ravel()

    @cached_property
    def centroids(self) -> np.ndarray:
        """(n_cells, dim) array of cell centroids in row-major cell order."""
        cells = zip(self.counts, self.bounds, self.cell_size)
        return grid_points([b[0] + (np.arange(n) + 0.5) * d for n, b, d in cells])

    @property
    def box(self) -> Box:
        """Closed box of the whole domain."""
        return Box(
            lo=tuple(b[0] for b in self.bounds),
            hi=tuple(b[1] for b in self.bounds),
            open_hi=(False,) * self.dim,
        )


def build_mesh(dim: int, counts, bounds) -> Mesh:
    """Build a structured mesh.

    ``counts`` is an int or tuple of ints per axis; ``bounds`` is a pair
    (x0, x1) in 1D or a pair of pairs ((x0, x1), (y0, y1)) in 2D.  A flat
    4-tuple (x0, x1, y0, y1) is also accepted in 2D.
    """
    if np.isscalar(counts):
        counts = (int(counts),)
    counts = tuple(int(n) for n in counts)
    b = np.asarray(bounds, dtype=float)
    if b.ndim == 1:
        if dim == 1 and b.size == 2:
            b = b[None, :]
        elif dim == 2 and b.size == 4:
            b = b.reshape(2, 2)
        else:
            raise ValueError(f"cannot interpret bounds {bounds} for dim={dim}")
    bounds_t = tuple((float(lo), float(hi)) for lo, hi in b)
    return Mesh(dim=dim, counts=counts, bounds=bounds_t)


def locate_many(points: np.ndarray, boxes) -> np.ndarray:
    """Index of the unique box containing each point, as an (n,) array.

    Relies on the half-open convention of the boxes; raises if a point is
    outside every box or claimed by more than one.
    """
    pts = np.asarray(points, dtype=float)
    owner = np.full(pts.shape[0], -1, dtype=int)
    claimed = np.zeros(pts.shape[0], dtype=bool)
    for i, b in enumerate(boxes):
        mask = b.contains_many(pts)
        dup = mask & claimed
        if np.any(dup):
            j = int(np.argmax(dup))
            raise ValueError(f"point index {j} claimed by boxes {owner[j]} and {i}")
        owner[mask] = i
        claimed |= mask
    if not np.all(claimed):
        j = int(np.argmax(~claimed))
        raise ValueError(f"point index {j} = {pts[j].tolist()} lies outside all boxes")
    return owner
