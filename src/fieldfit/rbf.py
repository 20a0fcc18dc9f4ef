"""Gaussian RBF dictionaries, Shepard-normalized features, and local surrogates.

A dictionary is an ordered list of (center, width) pairs defining Gaussian
bases exp(-||x - c||^2 / (2 sigma^2)).  Shepard normalization rescales the
basis evaluations at each point so they sum to one, which turns the expansion
into a partition-of-unity blend bounded by the coefficient range.

Evaluation factorizes each Gaussian per axis: per square tile of a grid
fixed by the dictionary, each group of equal-width centres is summed as a
table of x-factors contracted by GEMM with a table of coefficients over
the group's coordinate lattice, then multiplied point by point with a
table of y-factors, using only the coordinates whose centres can reach
2^-53 of the largest weight there.  A point costs about as many ``exp``
calls as its tile has coordinates per axis, and its value is independent
of the other points evaluated with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import one_blas_thread
from .geometry import Box, as_points, grid_points

# log_features computes exponents in row blocks whose (rows, M) float64
# array takes about 1 MB, so a block and its one scratch array stay small;
# shepard_eval bounds its per-tile (tiles, M) arrays the same way.
_EVAL_BLOCK_BYTES = 2**20
# shepard_eval bins points into square tiles whose side is this many times
# the largest width, on a grid anchored at the centres' minimum corner.  On
# one 25,000-point subdomain of the 16x16-lattice surrogate (mesh-transfer)
# sides 1, 2, 4 and 8 and a single tile took 49, 19, 11.8, 12.7 and 11.9 ms,
# and 27, 12, 4.5, 2.1 and 0.8 ms for 256 points; on the enriched 562-centre
# subdomain (box-adaptive) 93, 29, 21.9, 21.4 and 28.9 ms, and 45, 22, 8.6,
# 6.0 and 1.9 ms (2-core Xeon VM, numpy 2.4, OpenBLAS 0.3.31, minima of 25
# and 60 runs).  Smaller tiles prune more, but each tile costs a fixed set
# of array calls and at least one padded block.  Side 8 gains only on small
# batches, and the tests' tile layouts are drawn for side 4.
_TILE_SIDE_WIDTHS = 4.0
# log of the factor below the row maximum from which a weight can no longer
# change a sum: ln 2^53, plus 2 for the rounding of the tile bounds
_DROP_LOG_MARGIN = 53.0 * np.log(2.0) + 2.0
# shepard_eval evaluates a tile's points in blocks of this many, the last
# one padded, so that every GEMM of a tile window has one shape: OpenBLAS
# gives a row other bits in A[lo:j+1] @ C than in A @ C, but not across
# products of one fixed shape.  On the 25,000-point subdomain above, blocks
# of 128, 256, 512, 1024 and 2048 took 19.5, 13.0, 11.2, 11.9 and 18.4 ms,
# and 2.1, 2.5, 3.2, 5.1 and 12.0 ms for 128 points.
_GEMM_ROWS = 512


def usable_widths(widths) -> np.ndarray:
    """Mask of the widths sigma > 0 whose -1/(2 sigma^2) is a finite negative number.

    A width so small that 2 sigma^2 underflows, or so large that sigma^2
    overflows, gives an exponent factor of -inf or -0.0, from which no
    Gaussian can be evaluated.
    """
    widths = np.asarray(widths, dtype=float)
    with np.errstate(all="ignore"):
        neg_inv = -1.0 / (2.0 * widths**2)
    return (widths > 0) & np.isfinite(neg_inv) & (neg_inv < 0)


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
        ok = np.isfinite(centers).all(axis=1) & usable_widths(widths)
        if not ok.all():
            m = int(np.argmin(ok))
            raise ValueError(
                f"entry {m} needs a finite centre and a width whose -1/(2 sigma^2) is a "
                f"finite negative number, got {centers[m]} and {widths[m]}"
            )
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
        pts = as_points(points, self.dim)
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


@dataclass(frozen=True)
class _AxisGroup:
    """Centres that share per-axis Gaussian factors, on sorted per-axis keys.

    In 2D a group holds the centres of one width: ``xs`` and ``ys`` are
    their distinct x and y coordinates.  In 1D the whole dictionary is one
    group whose x-keys are distinct (coordinate, width) pairs, and the
    y-axis is the single key 0 with factor 1.  ``nx`` and ``ny`` hold each
    key's -1/(2 sigma^2); ``table[i, 0, j]`` sums the coefficients and
    ``table[i, 1, j]`` counts the centres at keys (i, j).
    """

    xs: np.ndarray
    nx: np.ndarray
    ys: np.ndarray
    ny: np.ndarray
    table: np.ndarray


def _axis_groups(dictionary: RbfDictionary, beta) -> list[_AxisGroup]:
    """The dictionary's centres as groups with per-axis keys, ``beta`` summed into their tables."""
    centers, widths = dictionary.centers, dictionary.widths
    if dictionary.dim == 1:
        keys, ik = np.unique(np.column_stack([centers[:, 0], widths]), axis=0, return_inverse=True)
        ik = ik.reshape(-1)
        parts = [(np.arange(len(dictionary)), keys[:, 0], -1.0 / (2.0 * keys[:, 1] ** 2), ik,
                  np.zeros(1), np.zeros(1), np.zeros(len(dictionary), dtype=np.intp))]
    else:
        sigmas, gid = np.unique(widths, return_inverse=True)
        parts = []
        for g, sigma in enumerate(sigmas):
            members = np.flatnonzero(gid.reshape(-1) == g)
            xs, ix = np.unique(centers[members, 0], return_inverse=True)
            ys, iy = np.unique(centers[members, 1], return_inverse=True)
            neg_inv = -1.0 / (2.0 * sigma**2)
            parts.append((members, xs, np.full(xs.shape[0], neg_inv), ix.reshape(-1),
                          ys, np.full(ys.shape[0], neg_inv), iy.reshape(-1)))
    groups = []
    for members, xs, nx, ix, ys, ny, iy in parts:
        table = np.zeros((xs.shape[0], 2, ys.shape[0]))
        np.add.at(table, (ix, 0, iy), beta[members])
        np.add.at(table, (ix, 1, iy), 1.0)
        groups.append(_AxisGroup(xs, nx, ys, ny, table))
    return groups


def _floors(lo, hi, centers, neg_inv) -> np.ndarray:
    """Per tile, the exponent below which no centre can change a sum.

    For x in the box [lo, hi] and centre m, l_m(x) = neg_inv_m ||x - c_m||^2
    is at least lower_m (farthest corner), so the row maximum is at least
    L = max_m lower_m.  A centre whose exponent stays below L - (53 ln 2 +
    ln M + 2) on the box has weight exp(l_m - max l) < 2^-53 / (e^2 M) at
    every point of it, so all such centres together stay below 2^-53 of
    the row's largest weight.
    """
    far = np.zeros((lo.shape[0], centers.shape[0]))
    for k in range(centers.shape[1]):
        reach = np.maximum(np.subtract.outer(hi[:, k], centers[:, k]),
                           np.subtract.outer(centers[:, k], lo[:, k]).T)
        far += reach**2
    return (far * neg_inv).max(axis=1) - (_DROP_LOG_MARGIN + np.log(centers.shape[0]))


def _windows(keys, neg_inv, offsets, lo, hi, floor):
    """Per tile and group, the slice of sorted keys that can reach the tile.

    ``keys`` concatenates the groups' keys of one axis, each group's run
    starting at its entry of ``offsets``.  A key is dropped when its
    nearest distance to the tile along this axis alone puts every centre on
    it below ``floor``; the rest of a group's run is kept whole from its
    first kept key to its last.  A centre whose exponent reaches the floor
    somewhere in the tile passes on both axes, so the windows always hold
    the centre that attains a point's row maximum.  Returns (start, stop), each (T,
    groups), relative to the group's run; an empty window has stop <=
    start.
    """
    near = np.maximum(np.maximum(np.subtract.outer(lo, keys), -np.subtract.outer(hi, keys)), 0.0)
    keep = near * near * neg_inv >= floor[:, None]
    pos = np.arange(keys.shape[0])
    start = np.minimum.reduceat(np.where(keep, pos, keys.shape[0]), offsets, axis=1)
    stop = np.maximum.reduceat(np.where(keep, pos + 1, 0), offsets, axis=1)
    return start - offsets, stop - offsets


class _TileWindows:
    """The key windows of the groups that can reach one tile, laid out for blocks.

    The windows' x-keys (and y-keys) are concatenated, group g's run
    starting at ``xoff[g]`` (``yoff[g]``) with ``kx[g]`` (``ky[g]``) keys.
    ``slabs[g]`` is group g's table over its window as a contiguous
    (2 ky, kx) array, coefficient rows first.
    """

    def __init__(self, windows):
        self.xk = np.concatenate([g.xs[wx] for g, wx, _ in windows])
        self.xn = np.concatenate([g.nx[wx] for g, wx, _ in windows])[:, None]
        self.yk = np.concatenate([g.ys[wy] for g, _, wy in windows])
        self.yn = np.concatenate([g.ny[wy] for g, _, wy in windows])[:, None]
        self.kx = np.array([wx.stop - wx.start for _, wx, _ in windows])
        self.ky = np.array([wy.stop - wy.start for _, _, wy in windows])
        self.xoff = np.cumsum(self.kx) - self.kx
        self.yoff = np.cumsum(self.ky) - self.ky
        self.slabs = [
            np.ascontiguousarray(g.table[wx, :, wy].transpose(1, 2, 0)).reshape(-1, wx.stop - wx.start)
            for g, wx, wy in windows
        ]


def _blend_block(x, y, tw: _TileWindows):
    """(numerator, denominator) of the Shepard blend at one block of points.

    With per-axis exponents lx and ly, a centre's weight is exp(lx + ly - s)
    for the shift s = max over groups of (max lx + max ly), which bounds
    every exponent from above, so no weight exceeds 1.  Each group's
    x-factors exp(lx - max lx) are contracted by GEMM with its slab, and
    the product is multiplied by the y-factors exp(ly - (s - max lx)) and
    summed over the y-keys.  Every array has the block's points as its
    last axis and every block has ``_GEMM_ROWS`` points, so all reductions
    run along whole rows and each GEMM of a window has one shape: no
    point's sums depend on the other points of the block.
    """
    lx = np.subtract.outer(tw.xk, x)
    lx *= lx
    lx *= tw.xn
    ly = np.subtract.outer(tw.yk, y)
    ly *= ly
    ly *= tw.yn
    spans = list(zip(tw.xoff, tw.xoff + tw.kx, tw.yoff, tw.yoff + tw.ky))
    mx = []
    shift = np.full(x.shape[0], -np.inf)
    for x0, x1, y0, y1 in spans:
        mx.append(lx[x0:x1].max(axis=0))
        lx[x0:x1] -= mx[-1]
        np.maximum(shift, mx[-1] + ly[y0:y1].max(axis=0), out=shift)
    ex = np.exp(lx, out=lx)
    for (x0, x1, y0, y1), m in zip(spans, mx):
        ly[y0:y1] -= shift - m
    ey = np.exp(ly, out=ly)
    sums = np.zeros((2, x.shape[0]))
    prod = np.empty((2 * ey.shape[0], x.shape[0]))
    for (x0, x1, y0, y1), slab in zip(spans, tw.slabs):
        part = prod[2 * y0 : 2 * y1]
        np.dot(slab, ex[x0:x1], out=part)
        part = part.reshape(2, y1 - y0, -1)
        part *= ey[y0:y1]
        sums += part.sum(axis=1)
    return sums


def shepard_eval(points, dictionary: RbfDictionary, beta) -> np.ndarray:
    """Evaluate sum_m beta_m w_m(x) with w the Shepard weights.

    The result at every point lies in [min(beta), max(beta)].  Each Gaussian
    factorizes per axis, so the centres are grouped by width on their
    distinct x and y coordinates (in 1D the dictionary is one group), and
    the sums over a group are an x-factor table contracted by GEMM with a
    dense table of coefficients and presence counts, then multiplied with
    the y-factor table point by point.  Points are binned into tiles of a
    grid that depends on the dictionary only, and each tile uses only the
    keys whose centres can reach 2^-53 of the largest weight there, which
    changes no sum beyond rounding.  Where the shift bounding every
    exponent is not attained and the factored sums underflow, a point's
    row of :func:`shepard_features` is summed against ``beta``.  A tile's
    points are processed in padded blocks of ``_GEMM_ROWS`` on one BLAS
    thread, so memory stays bounded and each point's value does not depend
    on the other points of the call.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != len(dictionary):
        raise ValueError(
            f"coefficient length {beta.shape} does not match dictionary size {len(dictionary)}"
        )
    pts = as_points(points, dictionary.dim)
    out = np.empty(pts.shape[0])
    if pts.shape[0] == 0:
        return out
    if not np.all(np.isfinite(pts)):
        raise FloatingPointError("cannot evaluate at non-finite points")
    m = len(dictionary)
    neg_inv = -1.0 / (2.0 * dictionary.widths**2)
    order, starts, lo, hi = _tiles(pts, dictionary)
    if dictionary.dim == 1:
        # the y-axis of the one 1D group is the key 0, at which every point sits
        pts, lo, hi = (np.column_stack([a, np.zeros(a.shape[0])]) for a in (pts, lo, hi))
    groups = _axis_groups(dictionary, beta)
    # each axis's keys and factors of all groups, and where each group's run starts
    axes = [
        (np.concatenate(keys), np.concatenate(factors), np.cumsum([0] + [k.shape[0] for k in keys[:-1]]))
        for keys, factors in (
            ([g.xs for g in groups], [g.nx for g in groups]),
            ([g.ys for g in groups], [g.ny for g in groups]),
        )
    ]
    # a blend below this denominator could hold subnormal weights above
    # 2^-53 / (e^2 M) of it, so it is recomputed with the exact shift, row
    # by row, so that each value stays independent of the other points
    den_floor = np.finfo(float).tiny * np.exp(_DROP_LOG_MARGIN) * m
    n_tiles = starts.shape[0] - 1
    tiles_per_chunk = max(1, _EVAL_BLOCK_BYTES // (8 * m))
    with one_blas_thread():
        for t0 in range(0, n_tiles, tiles_per_chunk):
            chunk = slice(t0, t0 + tiles_per_chunk)
            floor = _floors(lo[chunk], hi[chunk], dictionary.centers, neg_inv)
            (x0, x1), (y0, y1) = (
                _windows(keys, factors, offsets, lo[chunk, k], hi[chunk, k], floor)
                for k, (keys, factors, offsets) in enumerate(axes)
            )
            for t in range(floor.shape[0]):
                tw = _TileWindows([
                    (groups[g], slice(x0[t, g], x1[t, g]), slice(y0[t, g], y1[t, g]))
                    for g in np.flatnonzero((x1[t] > x0[t]) & (y1[t] > y0[t]))
                ])
                sel = order[starts[t0 + t] : starts[t0 + t + 1]]
                n = sel.shape[0]
                # the tile's coordinates, padded to whole blocks with its first point
                q = np.empty((2, -(-n // _GEMM_ROWS) * _GEMM_ROWS))
                q[:, :n] = pts[sel].T
                q[:, n:] = q[:, :1]
                for s in range(0, n, _GEMM_ROWS):
                    num, den = _blend_block(q[0, s : s + _GEMM_ROWS], q[1, s : s + _GEMM_ROWS], tw)
                    part = sel[s : s + _GEMM_ROWS]
                    num, den = num[: part.shape[0]], den[: part.shape[0]]
                    exact = ~(den >= den_floor)
                    out[part] = np.divide(num, den, out=np.empty(part.shape[0]), where=~exact)
                    if np.any(exact):
                        w = shepard_features(pts[part[exact], : dictionary.dim], dictionary)
                        out[part[exact]] = (w * beta).sum(axis=1)
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
        if not np.all(np.isfinite(beta)):
            raise ValueError(f"coefficient of entry {np.argmin(np.isfinite(beta))} is not finite")
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
    centers = grid_points(axes)
    return RbfDictionary(centers=centers, widths=np.full(centers.shape[0], float(sigma)))
