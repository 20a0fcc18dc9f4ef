"""Gaussian RBF dictionaries, Shepard-normalized features, and local surrogates.

A dictionary is an ordered list of (center, width) pairs defining Gaussian
bases exp(-||x - c||^2 / (2 sigma^2)).  Shepard normalization rescales the
basis evaluations at each point so they sum to one, which turns the expansion
into a partition-of-unity blend bounded by the coefficient range.

Evaluation factorizes each Gaussian per axis: each group of equal-width
centres is summed as a table of x-factors contracted by GEMM with a table
of coefficients over the group's coordinate lattice, then multiplied point
by point with a table of y-factors.  Points run in input order in blocks
over every group's whole tables, so a point costs about as many ``exp``
calls as the dictionary has distinct coordinates per axis and width.  A
block's size depends only on the dictionary: as many points as keep its
per-axis tables near 1 MB, and at least 512.  So small dictionaries run in
few large blocks, and a point's value is independent of the other points
evaluated with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import use_one_blas_thread
from .geometry import Box, as_points, build_mesh

# log_features computes exponents in row blocks whose (rows, M) float64
# array takes about 1 MB, so a block and its one scratch array stay small;
# shepard_eval sizes its blocks' per-axis tables to the same budget
_EVAL_BLOCK_BYTES = 2**20
# log of the factor 2^53 e^2 by which shepard_eval's exact-row threshold
# exceeds M tiny, the most that its zeroed factors can weigh together
_DROP_LOG_MARGIN = 53.0 * np.log(2.0) + 2.0
# exponents below this give subnormal or zero factors, which are set to 0
_LOG_TINY = np.log(np.finfo(float).tiny)
# shepard_features sets weights below 2^-53 of their row's largest, whose
# shifted exponents lie below this, to exactly 0
_LOG_ROUNDOFF = -53.0 * np.log(2.0)
# shepard_eval evaluates points in blocks of _block_rows(tables), the last
# one padded, so that every GEMM of a group has one shape: OpenBLAS gives a
# row other bits in A[lo:j+1] @ C than in A @ C, but not across products
# of one fixed shape.  A block holds as many points as keep its per-axis
# tables within _EVAL_BLOCK_BYTES, and never fewer than this floor.  At
# 10^5 points the 22-key step1d surrogate took 20, 15, 12.4 and 12.6 ms in
# blocks of 512, 1024, 2048 and 4096 (4096 by the budget); at 25,000
# points a 16x16-lattice subdomain (mesh-transfer) took 6.8-7.8 ms at 512
# and 5.4-7.2 ms at 2048 (its budget), but 0.55-0.80 ms against 0.25-0.38
# for 128 points.  The whole-domain case-adaptive surrogate (224 x- and 99
# y-keys) gets 128 rows from the budget alone (it allows 251); at 32,768
# centroids it took 137-160 ms in blocks of 128 and 113-140 ms at this
# floor, with 256 in between and 1024 at 184-192 ms (2-core VM, OpenBLAS
# 0.3.31, one thread, minima of 9 calls over 3 runs after a warm-up).  No
# benchmarked workload reaches the floor: box-adaptive gets 512 by budget.
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
    Gaussian underflows.  A weight below 2^-53 of that entry is exactly 0:
    its products in a Gram matrix would be subnormals, which the CPU
    computes on a slow path.
    """
    w = dictionary.log_features(points)
    w -= w.max(axis=1, keepdims=True)
    # entries below the cut skip exp and keep their negative log, clipped to 0
    np.exp(w, out=w, where=w >= _LOG_ROUNDOFF)
    np.maximum(w, 0.0, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


class _AxisTables:
    """The dictionary's centres as groups that share per-axis Gaussian factors.

    In 2D a group holds the centres of one width on their distinct x and y
    coordinates, its keys.  In 1D the whole dictionary is one group whose
    x-keys are distinct (coordinate, width) pairs, and the y-axis is the
    single key 0 with factor 1.  The groups' sorted x-keys (y-keys) are
    concatenated in ``xk`` (``yk``), with each key's -1/(2 sigma^2) in the
    column ``xn`` (``yn``), and ``spans[g]`` = (x0, x1, y0, y1) is group g's
    run on each axis.  ``slabs[g]`` is group g's contiguous (2 ky, kx)
    table over its kx x-keys and ky y-keys: entry (j, i) sums the
    coefficients of its centres at keys (i, j), and entry (ky + j, i)
    counts them.
    """

    def __init__(self, dictionary: RbfDictionary, beta):
        centers, widths = dictionary.centers, dictionary.widths
        if dictionary.dim == 1:
            keys, ik = np.unique(np.column_stack([centers[:, 0], widths]), axis=0, return_inverse=True)
            parts = [(np.arange(len(dictionary)), keys[:, 0], -1.0 / (2.0 * keys[:, 1] ** 2),
                      ik.reshape(-1), np.zeros(1), np.zeros(1), np.zeros(len(dictionary), dtype=np.intp))]
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
        self.slabs = []
        for members, xs, _, ix, ys, _, iy in parts:
            slab = np.zeros((2, ys.shape[0], xs.shape[0]))
            np.add.at(slab[0], (iy, ix), beta[members])
            np.add.at(slab[1], (iy, ix), 1.0)
            self.slabs.append(slab.reshape(-1, xs.shape[0]))
        _, xk, xn, _, yk, yn, _ = zip(*parts)
        self.xk, self.yk = np.concatenate(xk), np.concatenate(yk)
        self.xn, self.yn = np.concatenate(xn)[:, None], np.concatenate(yn)[:, None]
        kx, ky = np.cumsum([0] + [k.shape[0] for k in xk]), np.cumsum([0] + [k.shape[0] for k in yk])
        self.spans = list(zip(kx[:-1], kx[1:], ky[:-1], ky[1:]))


def _block_rows(tables: _AxisTables) -> int:
    """Points per block of :func:`shepard_eval` over these tables.

    The largest power of two r whose per-axis tables, the (kx + 3 ky, r)
    float64 rows of x-factors, y-factors and GEMM products over all kx x-
    and ky y-keys, fit in ``_EVAL_BLOCK_BYTES``, and never fewer than
    ``_GEMM_ROWS``.  It depends on the dictionary alone, so every block of
    every call over one dictionary has one shape.
    """
    fit = _EVAL_BLOCK_BYTES // (8 * (tables.xk.shape[0] + 3 * tables.yk.shape[0]))
    return max(_GEMM_ROWS, 1 << max(fit.bit_length() - 1, 0))


def _blend_block(x, y, tables: _AxisTables):
    """(numerator, denominator) of the Shepard blend at one block of points.

    With per-axis exponents lx and ly, a centre's weight is exp(lx + ly - s)
    for the shift s = max over groups of (max lx + max ly), which bounds
    every exponent from above, so no weight exceeds 1.  Each group's
    x-factors exp(lx - max lx) are contracted by GEMM with its slab, and
    the product is multiplied by the y-factors exp(ly - (s - max lx)) and
    summed over the y-keys.  A shifted exponent below ln(tiny) becomes
    -inf, so its factor is exactly 0 instead of a subnormal, which ``exp``
    computes on a slow path; M such weights stay below M tiny, 2^-53 e^-2
    of any denominator that is not recomputed exactly.  Every array has the
    block's points as its last axis and every block over these tables has
    ``_block_rows(tables)`` points, so all reductions run along whole rows
    and each group's GEMM has one shape: no point's sums depend on the
    other points of the block.
    """
    lx = np.subtract.outer(tables.xk, x)
    lx *= lx
    lx *= tables.xn
    ly = np.subtract.outer(tables.yk, y)
    ly *= ly
    ly *= tables.yn
    mx = []
    shift = np.full(x.shape[0], -np.inf)
    for x0, x1, y0, y1 in tables.spans:
        mx.append(lx[x0:x1].max(axis=0))
        lx[x0:x1] -= mx[-1]
        np.maximum(shift, mx[-1] + ly[y0:y1].max(axis=0), out=shift)
    for (x0, x1, y0, y1), m in zip(tables.spans, mx):
        ly[y0:y1] -= shift - m
    for e in (lx, ly):
        np.copyto(e, -np.inf, where=e < _LOG_TINY)
    ex = np.exp(lx, out=lx)
    ey = np.exp(ly, out=ly)
    sums = np.zeros((2, x.shape[0]))
    prod = np.empty((2 * ey.shape[0], x.shape[0]))
    for (x0, x1, y0, y1), slab in zip(tables.spans, tables.slabs):
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
    the y-factor table point by point.  Where the shift bounding every
    exponent is not attained and the factored sums underflow, a point's
    row of :func:`shepard_features` is summed against ``beta``.  The points
    are processed in input order, in blocks of :func:`_block_rows` points
    (the last one padded) over every group's whole tables on one BLAS
    thread.  The block size depends on the dictionary alone, so memory
    stays bounded and each point's value does not depend on the other
    points of the call.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.shape[0] != len(dictionary):
        raise ValueError(
            f"coefficient length {beta.shape} does not match dictionary size {len(dictionary)}"
        )
    pts = as_points(points, dictionary.dim)
    n = pts.shape[0]
    out = np.empty(n)
    if n == 0:
        return out
    if not np.all(np.isfinite(pts)):
        raise FloatingPointError("cannot evaluate at non-finite points")
    tables = _AxisTables(dictionary, beta)
    rows = _block_rows(tables)
    # the coordinates padded to whole blocks with the first point; the
    # y-axis of the one 1D group is the key 0, at which every point sits
    q = np.zeros((2, -(-n // rows) * rows))
    q[: dictionary.dim, :n] = pts.T
    q[:, n:] = q[:, :1]
    # a blend below this denominator could hold subnormal weights above
    # 2^-53 / (e^2 M) of it, so it is recomputed with the exact shift, row
    # by row, so that each value stays independent of the other points
    den_floor = np.finfo(float).tiny * np.exp(_DROP_LOG_MARGIN) * len(dictionary)
    use_one_blas_thread()
    for s in range(0, n, rows):
        k = min(rows, n - s)
        num, den = _blend_block(q[0, s : s + rows], q[1, s : s + rows], tables)
        num, den = num[:k], den[:k]
        exact = ~(den >= den_floor)
        out[s : s + k] = np.divide(num, den, out=np.empty(k), where=~exact)
        if np.any(exact):
            idx = s + np.flatnonzero(exact)
            out[idx] = (shepard_features(pts[idx], dictionary) * beta).sum(axis=1)
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
    """Uniform g^dim lattice of centers over a box: the centroids of its g^dim equal cells."""
    centers = build_mesh(box.dim, (g,) * box.dim, tuple(zip(box.lo, box.hi))).centroids
    return RbfDictionary(centers=centers, widths=np.full(centers.shape[0], float(sigma)))
