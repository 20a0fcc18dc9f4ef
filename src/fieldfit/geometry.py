"""Structured 1D/2D cell meshes and half-open boxes.

Cells are congruent axis-aligned intervals (1D) or rectangles (2D), indexed
row-major with the x index fastest: ``index = iy * nx + ix``.  Boxes carry a
per-axis half-open flag on the upper face so that a point lying on a face
shared by two boxes belongs to exactly one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.dim == 1 else pts[None, :]
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


@dataclass(frozen=True)
class Mesh:
    """Uniform structured mesh of cells over an axis-aligned box."""

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
        if not all(math.isfinite(v) for b in self.bounds for v in b):
            raise ValueError(f"bounds must be finite: {self.bounds}")
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

    @cached_property
    def centroids(self) -> np.ndarray:
        """(n_cells, dim) array of cell centroids in row-major cell order."""
        axes = [
            b[0] + (np.arange(n) + 0.5) * d
            for n, b, d in zip(self.counts, self.bounds, self.cell_size)
        ]
        if self.dim == 1:
            return axes[0][:, None]
        xg, yg = np.meshgrid(axes[0], axes[1], indexing="xy")
        return np.column_stack([xg.ravel(), yg.ravel()])

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
