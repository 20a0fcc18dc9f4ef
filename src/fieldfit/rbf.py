"""Gaussian RBF dictionaries, Shepard-normalized features, and local surrogates.

A dictionary is an ordered list of (center, width) pairs defining Gaussian
bases exp(-||x - c||^2 / (2 sigma^2)).  Shepard normalization rescales the
basis evaluations at each point so they sum to one, which turns the expansion
into a partition-of-unity blend bounded by the coefficient range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Box

# chunk rows so the (chunk, M, dim) distance workspace stays under ~64 MB
_CHUNK_BYTES = 64 * 2**20
# shepard_eval works in row blocks whose (rows, M) weights take about 8 MB
_EVAL_BLOCK_BYTES = 8 * 2**20


def _as_points(points, dim: int | None = None) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :] if dim is None or pts.size == dim else pts[:, None]
    return pts


@dataclass(frozen=True)
class RbfDictionary:
    """Ordered Gaussian basis set on one subdomain.

    ``generations[m]`` records the adaptive round that created entry m (0 for
    the initial dictionary).  Entries are append-only: extending a dictionary
    never reorders existing ones.
    """

    centers: np.ndarray  # (M, dim)
    widths: np.ndarray  # (M,)
    generations: np.ndarray = field(default=None)  # (M,) int

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        widths = np.atleast_1d(np.asarray(self.widths, dtype=float))
        if widths.size == 1 and centers.shape[0] > 1:
            widths = np.full(centers.shape[0], widths[0])
        if centers.shape[0] != widths.shape[0]:
            raise ValueError("centers and widths length mismatch")
        if centers.shape[0] == 0:
            raise ValueError("dictionary must contain at least one entry")
        if np.any(widths <= 0):
            m = int(np.argmax(widths <= 0))
            raise ValueError(f"width of entry {m} is not positive: {widths[m]}")
        gens = self.generations
        gens = np.zeros(centers.shape[0], dtype=int) if gens is None else np.asarray(gens, dtype=int)
        if gens.shape[0] != centers.shape[0]:
            raise ValueError("generations length mismatch")
        for name, arr in (("centers", centers), ("widths", widths), ("generations", gens)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def extended(self, new_centers, new_widths, generation: int) -> "RbfDictionary":
        """New dictionary with entries appended after the existing ones."""
        nc = np.atleast_2d(np.asarray(new_centers, dtype=float))
        nw = np.atleast_1d(np.asarray(new_widths, dtype=float))
        return RbfDictionary(
            centers=np.vstack([self.centers, nc]),
            widths=np.concatenate([self.widths, nw]),
            generations=np.concatenate([self.generations, np.full(nc.shape[0], generation, dtype=int)]),
        )

    def log_features(self, points) -> np.ndarray:
        """Exponents -||x - c||^2 / (2 sigma^2) as an (N, M) array."""
        pts = _as_points(points, self.dim)
        if pts.shape[1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[1]}, dictionary has dim {self.dim}")
        n, m = pts.shape[0], len(self)
        out = np.empty((n, m))
        chunk = max(1, _CHUNK_BYTES // (8 * m * self.dim))
        inv = 1.0 / (2.0 * self.widths**2)
        for s in range(0, n, chunk):
            diff = pts[s : s + chunk, None, :] - self.centers[None, :, :]
            out[s : s + chunk] = -np.einsum("nmd,nmd->nm", diff, diff) * inv[None, :]
        return out


def _shifted_weights(points, dictionary: RbfDictionary) -> np.ndarray:
    """Gaussian weights exp(l - max l) per row, l the log-features.

    Each row holds at least one entry equal to 1, so rows far from every
    center still normalize exactly when every raw Gaussian underflows.
    """
    log_phi = dictionary.log_features(points)
    return np.exp(log_phi - log_phi.max(axis=1, keepdims=True))


def shepard_features(points, dictionary: RbfDictionary) -> np.ndarray:
    """Shepard-normalized weights at the given points; each row sums to one."""
    w = _shifted_weights(points, dictionary)
    w /= w.sum(axis=1, keepdims=True)
    return w


def shepard_eval(points, dictionary: RbfDictionary, beta) -> np.ndarray:
    """Evaluate sum_m beta_m w_m(x) with w the Shepard weights.

    The result at every point lies in [min(beta), max(beta)].  Points are
    taken in blocks of rows, so memory stays bounded however many there
    are.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != len(dictionary):
        raise ValueError(
            f"coefficient length {beta.shape} does not match dictionary size {len(dictionary)}"
        )
    pts = _as_points(points, dictionary.dim)
    out = np.empty(pts.shape[0])
    rows = max(1, _EVAL_BLOCK_BYTES // (8 * len(dictionary)))
    for s in range(0, pts.shape[0], rows):
        w = _shifted_weights(pts[s : s + rows], dictionary)
        denom = w.sum(axis=1)
        if not np.all(np.isfinite(denom)) or np.any(denom <= 0):
            raise FloatingPointError("Shepard denominator degenerate")
        out[s : s + rows] = (w @ beta) / denom
    return out


@dataclass(frozen=True)
class LocalSurrogate:
    """Fitted coefficients plus dictionary; evaluable at any point.

    When ``log_transform`` is set the regression was done on log-values and
    evaluation exponentiates the blended result, so the surrogate is positive
    everywhere.
    """

    dictionary: RbfDictionary
    beta: np.ndarray
    log_transform: bool = True

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).copy()
        if beta.shape[0] != len(self.dictionary):
            raise ValueError("coefficient length does not match dictionary size")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    def evaluate(self, points) -> np.ndarray:
        vals = shepard_eval(points, self.dictionary, self.beta)
        return np.exp(vals) if self.log_transform else vals


def centroid_dictionary(centroids, sigma: float) -> RbfDictionary:
    """One basis per cell, centered at the centroid, common width."""
    c = np.atleast_2d(np.asarray(centroids, dtype=float))
    return RbfDictionary(centers=c, widths=np.full(c.shape[0], float(sigma)))


def lattice_dictionary(box: Box, g: int, sigma: float) -> RbfDictionary:
    """Uniform g^dim lattice of centers over a box at (k + 1/2)/g positions."""
    if g < 1:
        raise ValueError(f"lattice resolution must be >= 1, got {g}")
    axes = [
        box.lo[k] + (np.arange(g) + 0.5) * (box.hi[k] - box.lo[k]) / g
        for k in range(box.dim)
    ]
    if box.dim == 1:
        centers = axes[0][:, None]
    else:
        xg, yg = np.meshgrid(axes[0], axes[1], indexing="xy")
        centers = np.column_stack([xg.ravel(), yg.ravel()])
    return RbfDictionary(centers=centers, widths=np.full(centers.shape[0], float(sigma)))
