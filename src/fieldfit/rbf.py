"""Gaussian RBF dictionaries, Shepard-normalized features, and local surrogates.

A dictionary is an ordered list of (center, width) pairs defining Gaussian
bases exp(-||x - c||^2 / (2 sigma^2)).  Shepard normalization rescales the
basis evaluations at each point so they sum to one, which turns the expansion
into a partition-of-unity blend bounded by the coefficient range.

Evaluation sums each point only over the centres whose weight can reach
2^-53 of the largest weight at that point, found per square tile of a grid
fixed by the dictionary, so a surrogate costs about as much to evaluate as
its local density of centres, and each point's value is independent of the
other points evaluated with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Box

# Exponents and weights are computed in row blocks whose (rows, M) float64
# array takes about 1 MB, so a block and its one scratch array stay small.
# Evaluating 25,000 points against 562 mixed-width centres took 81 ms with
# 1 MB blocks, 83 ms with 256 KB and 120 ms with 8 MB blocks (2-core Xeon
# VM, numpy 2.4, medians of 5).
_EVAL_BLOCK_BYTES = 2**20
# shepard_eval bins points into square tiles whose side is this many times
# the largest width, on a grid anchored at the centres' minimum corner.  In
# the same measurement, sides 1, 2, 4 and 8 and a single tile took 81, 70,
# 81, 126 and 222 ms for 25,000 points and 11.6, 5.0, 2.4, 2.0 and 2.9 ms
# for 256 points: smaller tiles prune more, but each tile costs a fixed set
# of array calls, which dominates small batches such as a residual's.
_TILE_SIDE_WIDTHS = 4.0
# log of the factor below the row maximum from which a weight can no longer
# change a sum: ln 2^53, plus 2 for the rounding of the tile bounds
_DROP_LOG_MARGIN = 53.0 * np.log(2.0) + 2.0


def _as_points(points, dim: int) -> np.ndarray:
    """Points as an (N, dim) float array; a 1D input is one point or N scalars."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :] if pts.size == dim else pts[:, None]
    if pts.shape[1] != dim:
        raise ValueError(f"points have dim {pts.shape[1]}, dictionary has dim {dim}")
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
        out = np.empty((pts.shape[0], len(self)))
        return _exponents(pts, self.centers, -1.0 / (2.0 * self.widths**2), out)


def _exponents(pts, centers, neg_inv, out) -> np.ndarray:
    """Fill ``out`` (N, M) with ``neg_inv * ||x - c||^2``, ``neg_inv`` = -1/(2 sigma^2).

    The squared distance is accumulated in place one coordinate at a time,
    in row blocks with one block-sized scratch array, so no (N, M, dim)
    difference array is formed.  Each entry sums its squares in coordinate
    order and is then scaled, so its value does not depend on N or on the
    block size.
    """
    n, m = out.shape
    rows = max(1, _EVAL_BLOCK_BYTES // (8 * m))
    scratch = np.empty((min(rows, n), m)) if centers.shape[1] > 1 else None
    for s in range(0, n, rows):
        block, p = out[s : s + rows], pts[s : s + rows]
        np.subtract.outer(p[:, 0], centers[:, 0], out=block)
        np.square(block, out=block)
        for k in range(1, centers.shape[1]):
            tmp = scratch[: block.shape[0]]
            np.subtract.outer(p[:, k], centers[:, k], out=tmp)
            np.square(tmp, out=tmp)
            block += tmp
        block *= neg_inv
    return out


def shepard_features(points, dictionary: RbfDictionary) -> np.ndarray:
    """Shepard-normalized weights at the given points; each row sums to one.

    The weights are exp(l - max l) per row, l the log-features, so every row
    holds an entry equal to 1 and normalizes exactly even where every raw
    Gaussian underflows.
    """
    w = dictionary.log_features(points)
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _tiles(pts, dictionary: RbfDictionary):
    """Group points by square tile of a grid fixed by the dictionary alone.

    Returns the point order that makes each tile's points contiguous, the
    tile boundaries in that order, and each tile's closed box (lo, hi),
    widened by a few ulps so that every point lies inside its tile's box
    despite the rounding of its tile index.  Tile indices are clipped so a
    tile key fits in int64; a clipped tile's box reaches to infinity on the
    clipped side, so its points are summed against every centre.
    """
    dim = pts.shape[1]
    side = _TILE_SIDE_WIDTHS * float(dictionary.widths.max())
    anchor = dictionary.centers.min(axis=0)
    limit = 2 ** (62 // dim - 1)
    with np.errstate(over="ignore"):
        q = np.floor((pts - anchor) / side)
    np.clip(q, -limit, limit, out=q)
    idx = q.astype(np.int64) + limit
    key = idx[:, 0]
    for k in range(1, dim):
        key = key * (2 * limit + 1) + idx[:, k]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1], [True]]))
    t = q[order[starts[:-1]]]
    pad = 2.0**-40 * (np.abs(anchor) + (np.abs(t) + 1.0) * side)
    lo = np.where(t == -limit, -np.inf, anchor + t * side - pad)
    hi = np.where(t == limit, np.inf, anchor + (t + 1.0) * side + pad)
    return order, starts, lo, hi


def _kept_centres(lo, hi, centers, neg_inv) -> np.ndarray:
    """(T, M) mask of the centres that can reach some point of each tile.

    For x in the box [lo, hi] and centre m, l_m(x) = neg_inv_m ||x - c_m||^2
    lies between lower_m (farthest corner) and upper_m (nearest point), and
    the row maximum is at least L = max_m lower_m.  A centre with upper_m <
    L - (53 ln 2 + ln M + 2) has weight exp(l_m - max l) < 2^-53 / (e^2 M)
    at every point of the box, so all dropped centres together stay below
    2^-53 of the row's largest weight, which is 1.  The centre that attains
    a row's maximum is always kept.
    """
    near = np.zeros((lo.shape[0], centers.shape[0]))
    far = np.zeros_like(near)
    for k in range(centers.shape[1]):
        below = np.subtract.outer(lo[:, k], centers[:, k])  # > 0: centre left of the box
        above = np.subtract.outer(centers[:, k], hi[:, k]).T  # > 0: centre right of it
        near += np.maximum(np.maximum(below, above), 0.0) ** 2
        far += np.maximum(-below, -above) ** 2
    floor = (far * neg_inv).max(axis=1) - (_DROP_LOG_MARGIN + np.log(centers.shape[0]))
    return near * neg_inv >= floor[:, None]


def shepard_eval(points, dictionary: RbfDictionary, beta) -> np.ndarray:
    """Evaluate sum_m beta_m w_m(x) with w the Shepard weights.

    The result at every point lies in [min(beta), max(beta)].  Points are
    binned into tiles of a grid that depends on the dictionary only, and
    each tile is summed over the centres whose weight can reach 2^-53 of the
    largest there, which changes no sum beyond rounding.  Weights are
    computed in row blocks of about ``_EVAL_BLOCK_BYTES``, so memory stays
    bounded however many points there are, and each point's sums are row
    reductions over its tile's centres: its value does not depend on the
    other points of the call.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != len(dictionary):
        raise ValueError(
            f"coefficient length {beta.shape} does not match dictionary size {len(dictionary)}"
        )
    pts = _as_points(points, dictionary.dim)
    out = np.empty(pts.shape[0])
    if pts.shape[0] == 0:
        return out
    if not np.all(np.isfinite(pts)):
        raise FloatingPointError("cannot evaluate at non-finite points")
    centers = dictionary.centers
    neg_inv = -1.0 / (2.0 * dictionary.widths**2)
    order, starts, lo, hi = _tiles(pts, dictionary)
    n_tiles = starts.shape[0] - 1
    tiles_per_mask = max(1, _EVAL_BLOCK_BYTES // (8 * len(dictionary)))
    for t0 in range(0, n_tiles, tiles_per_mask):
        group = slice(t0, t0 + tiles_per_mask)
        for t, mask in enumerate(_kept_centres(lo[group], hi[group], centers, neg_inv), start=t0):
            kept = np.flatnonzero(mask)
            c, ninv, b = centers[kept], neg_inv[kept], beta[kept]
            members = order[starts[t] : starts[t + 1]]
            rows = max(1, _EVAL_BLOCK_BYTES // (8 * kept.shape[0]))
            for s in range(0, members.shape[0], rows):
                sel = members[s : s + rows]
                w = _exponents(pts[sel], c, ninv, np.empty((sel.shape[0], kept.shape[0])))
                w -= w.max(axis=1, keepdims=True)
                np.exp(w, out=w)
                denom = w.sum(axis=1)
                if not np.all(np.isfinite(denom)):
                    raise FloatingPointError("Shepard denominator degenerate")
                w *= b
                out[sel] = w.sum(axis=1) / denom
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
