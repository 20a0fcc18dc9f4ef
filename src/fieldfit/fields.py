"""Cellwise-constant coefficient fields on structured meshes.

A field is a strictly positive value per mesh cell.  Subdomain slices carry
the cells whose centroids fall in a half-open box, which is all a local
regression needs; the built-in generators provide the deterministic test
fields used by the experiments and the test suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .geometry import Box, Mesh, build_mesh, grid_index


@dataclass(frozen=True)
class FieldData:
    """Strictly positive cellwise values in row-major cell order."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel().copy()
        if vals.shape[0] != self.mesh.n_cells:
            raise ValueError(
                f"field has {vals.shape[0]} values but mesh has {self.mesh.n_cells} cells"
            )
        bad = ~(vals > 0) | ~np.isfinite(vals)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ValueError(f"field value at cell {j} is not positive: {vals[j]}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.mesh.dim} {self.mesh.counts} {self.mesh.bounds}".encode())
        h.update(" ".join(f"{v:.17g}" for v in self.values).encode())
        return h.hexdigest()

    def piecewise_eval(self, points) -> np.ndarray:
        """Staircase evaluation: the value of the (half-open) cell containing each point."""
        return self.values[grid_index(points, self.mesh.edges)]

    def cells(self, box: Box, cell_indices) -> "SubdomainField":
        """The slice of the given cells, ascending, owned by ``box``."""
        return SubdomainField(
            box=box,
            cell_indices=cell_indices,
            centroids=self.mesh.centroids[cell_indices],
            values=self.values[cell_indices],
            cell_size=self.mesh.cell_size,
        )

    def whole(self) -> "SubdomainField":
        return self.cells(self.mesh.box, np.arange(self.mesh.n_cells))


@dataclass(frozen=True)
class SubdomainField:
    """The slice of a field owned by one subdomain."""

    box: Box
    cell_indices: np.ndarray  # global cell indices, ascending
    centroids: np.ndarray  # (n, dim)
    values: np.ndarray  # (n,)
    cell_size: tuple[float, ...]

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def cell_measure(self) -> float:
        return float(np.prod(self.cell_size))


def relative_l2_error(sub: SubdomainField, evaluate) -> float:
    """Relative L2 misfit between cell data and a continuous evaluator.

    Both norms use the midpoint rule on every cell:
    sqrt(sum_T |T| (K*(x_T) - K_T)^2) / sqrt(sum_T |T| K_T^2).
    """
    num, den = l2_misfit_parts(sub, evaluate(sub.centroids))
    return float(np.sqrt(num / den))


def l2_misfit_parts(sub: SubdomainField, approx):
    """Squared misfit and squared data norm, both by the midpoint rule.

    ``approx`` holds the reconstruction at the cell centroids.
    """
    diff2 = (np.asarray(approx, dtype=float) - sub.values) ** 2
    num = float(np.sum(sub.cell_measure * diff2))
    den = float(sub.cell_measure * np.sum(sub.values**2))
    return num, den


# ---------------------------------------------------------------------------
# deterministic test fields


def step_field_1d(n_cells: int = 64) -> FieldData:
    """Two-plateau step on [0, 0.03125]: 1e-4 left of 0.015625, 1e-1 right."""
    mesh = build_mesh(1, n_cells, (0.0, 0.03125))
    x = mesh.centroids[:, 0]
    values = np.where(x < 0.015625, 1e-4, 1e-1)
    return FieldData(mesh=mesh, values=values)


def box_field_2d(nx: int = 32, ny: int = 32) -> FieldData:
    """High-contrast blocks on a low background over the unit square."""
    mesh = build_mesh(2, (nx, ny), ((0.0, 1.0), (0.0, 1.0)))
    x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
    values = np.full(mesh.n_cells, 1e-3)
    values[(x > 0.125) & (x < 0.4375) & (y > 0.5) & (y < 0.84375)] = 1e-1
    values[(x > 0.5625) & (x < 0.90625) & (y > 0.125) & (y < 0.46875)] = 1.0
    values[(x > 0.09375) & (x < 0.34375) & (y > 0.09375) & (y < 0.28125)] = 1e-2
    return FieldData(mesh=mesh, values=values)


def smooth_field_2d(nx: int = 32, ny: int = 32) -> FieldData:
    """Smoothly varying positive field built from a fixed trig mixture."""
    mesh = build_mesh(2, (nx, ny), ((0.0, 1.0), (0.0, 1.0)))
    x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
    g = (
        0.9 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        + 0.6 * np.cos(3 * np.pi * x + 1.3) * np.sin(np.pi * y + 0.4)
        + 0.4 * np.sin(5 * np.pi * x * y + 0.9)
    )
    return FieldData(mesh=mesh, values=np.exp(g) * 1e-2)
