"""Half-open domain decomposition, parallel fitting, and global surrogates.

Subdomains are equal axis-aligned boxes aligned with whole cells; internal
upper faces are open so every cell centroid belongs to exactly one box.
Local fits run independently per subdomain, so results do not depend on the
worker count or scheduling order.
"""

from __future__ import annotations

import ctypes
import io
import itertools
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .adaptive import AdaptiveConfig, RoundReport, fit_adaptive
from .blas import use_one_blas_thread
from .errors import DataError, FieldfitError
from .fields import FieldData, SubdomainField
from .geometry import Box, Mesh, as_points, build_mesh, grid_index, uniform_edges
from .geometry import locate_many  # noqa: F401 - the bench tracer wraps it under this module
from .io import _read_text, write_text
from .rbf import LocalSurrogate, RbfDictionary, centroid_dictionary, lattice_dictionary
from .rbf import usable_widths

SURROGATE_FORMAT = "fieldfit-surrogate"
SURROGATE_VERSION = 1


@dataclass(frozen=True)
class Partition:
    """Decomposition of a mesh into a (px, py) grid of half-open boxes, held as its shape."""

    mesh: Mesh
    shape: tuple[int, ...]

    @property
    def n_subdomains(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def edges(self) -> tuple[np.ndarray, ...]:
        """Per-axis edges of the boxes, the grid on which :func:`grid_index` finds owners."""
        return uniform_edges(self.shape, self.mesh.bounds)

    @cached_property
    def boxes(self) -> tuple[Box, ...]:
        """The boxes, x fastest; every upper face but the domain's own is open."""
        # per axis, each interval as (lo, hi, upper face open)
        spans = [
            [(e[i], e[i + 1], i < len(e) - 2) for i in range(len(e) - 1)]
            for e in map(np.ndarray.tolist, self.edges)
        ]
        return tuple(Box(*zip(*cell[::-1])) for cell in itertools.product(*spans[::-1]))

    def owned(self, points) -> list[np.ndarray]:
        """Each box's points, as ascending indices, from one :func:`grid_index` pass."""
        owner = grid_index(points, self.edges)
        return [np.flatnonzero(owner == i) for i in range(self.n_subdomains)]

    def subdomain_fields(self, data: FieldData) -> list[SubdomainField]:
        """Each box's cells: those whose centroids it owns."""
        return [data.cells(b, c) for b, c in zip(self.boxes, self.owned(data.mesh.centroids))]


def make_partition(mesh: Mesh, px: int, py: int = 1) -> Partition:
    """Split a mesh into px (by py) equal boxes of whole cells."""
    shape = (px,) if mesh.dim == 1 else (px, py)
    if mesh.dim == 1 and py != 1:
        raise ValueError("py must be 1 for a 1-D mesh")
    for n, p, axis in zip(mesh.counts, shape, "xy"):
        if p < 1:
            raise ValueError(f"p{axis} must be >= 1, got {p}")
        if n % p != 0:
            raise ValueError(f"p{axis}={p} does not divide n{axis}={n}")
    part = Partition(mesh=mesh, shape=shape)
    if not all(np.all(np.diff(e) > 0) for e in part.edges):
        raise ValueError(f"degenerate boxes: {shape} boxes over {mesh.bounds} collapse in rounding")
    return part


@dataclass(frozen=True)
class DictionarySpec:
    """Initial dictionary layout: one center per cell, or a g-lattice."""

    sigma: float
    lattice: int | None = None

    def __post_init__(self):
        if not usable_widths(self.sigma):
            raise ValueError(f"sigma must be > 0 with -1/(2 sigma^2) finite, got {self.sigma}")
        if self.lattice is not None and self.lattice < 1:
            raise ValueError(f"lattice resolution must be >= 1, got {self.lattice}")

    def build(self, sub: SubdomainField) -> RbfDictionary:
        if self.lattice is None:
            return centroid_dictionary(sub.centroids, self.sigma)
        return lattice_dictionary(sub.box, self.lattice, self.sigma)


@dataclass(frozen=True)
class GlobalSurrogate:
    """Per-subdomain surrogates assembled over a partition.

    Evaluation dispatches each point to its owning box, so the global field
    is positive everywhere but only piecewise continuous across internal
    subdomain faces.
    """

    partition: Partition
    locals: tuple[LocalSurrogate, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.locals) != self.partition.n_subdomains:
            raise ValueError("one local surrogate required per subdomain")

    def evaluate(self, points) -> np.ndarray:
        pts = as_points(points, self.partition.mesh.dim)
        out = np.empty(pts.shape[0])
        for loc, idx in zip(self.locals, self.partition.owned(pts)):
            if idx.size:
                out[idx] = loc.evaluate(pts[idx])
        return out


@dataclass(frozen=True)
class ParallelFitReport:
    """Timings and per-subdomain round histories from a parallel fit."""

    rounds: tuple[tuple[RoundReport, ...], ...]
    seconds: tuple[float, ...]
    total_seconds: float
    workers: int
    max_concurrent: int


def _release_free_heap():
    """Return the C heap's free pages to the system (glibc's ``malloc_trim``).

    Pool workers are forked, and a forked worker starts with the resident
    pages of its parent.  After an evaluation or a Darcy solve the parent's
    heap can hold tens of MB of freed blocks, which every worker would then
    carry: in the box benchmark the workers of the second fit started at
    93 MB of anonymous memory instead of 49 MB.  Where the C library has no
    ``malloc_trim`` this does nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def _fit_one(args):
    index, sub, spec, cfg = args
    t0 = time.perf_counter()
    try:
        surrogate, reports = fit_adaptive(sub, spec.build(sub), cfg)
    except FieldfitError as exc:
        # keep the class, so the CLI still maps it to its exit code
        raise type(exc)(f"subdomain {index}: {exc}") from exc
    except Exception as exc:  # noqa: BLE001 - annotate with the subdomain index
        raise RuntimeError(f"fit failed on subdomain {index}: {exc}") from exc
    return surrogate, tuple(reports), time.perf_counter() - t0


def fit_parallel(
    data: FieldData,
    partition: Partition,
    configs,
    spec,
    workers: int = 1,
    metadata: dict | None = None,
) -> tuple[GlobalSurrogate, ParallelFitReport]:
    """Fit every subdomain independently and assemble the global surrogate.

    ``configs`` and ``spec`` may be single values (broadcast) or sequences
    with one entry per subdomain.  Results are gathered by subdomain index
    and are identical for any worker count: OpenBLAS is put on one thread
    first (:func:`fieldfit.blas.use_one_blas_thread`) and left there, so
    every fit runs on one thread, in this process and in pool workers
    alike, and the fits are bit-identical in the calling process and in a
    worker.  Workers are forked explicitly: they start on one thread, and
    :func:`_release_free_heap` relies on a worker starting as a copy of
    this process.
    """
    n = partition.n_subdomains
    cfgs = _broadcast(configs, n, AdaptiveConfig, "configs")
    specs = _broadcast(spec, n, DictionarySpec, "spec")
    subs = partition.subdomain_fields(data)
    tasks = [(i, subs[i], specs[i], cfgs[i]) for i in range(n)]

    t0 = time.perf_counter()
    used = max(1, min(workers, n))
    use_one_blas_thread()
    if used == 1:
        results = [_fit_one(t) for t in tasks]
    else:
        _release_free_heap()
        with ProcessPoolExecutor(
            max_workers=used, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            results = list(pool.map(_fit_one, tasks))
    total = time.perf_counter() - t0

    # the serial loop and pool.map both return results in task order
    locals_, rounds, seconds = zip(*results)
    report = ParallelFitReport(
        rounds=rounds,
        seconds=seconds,
        total_seconds=total,
        workers=workers,
        max_concurrent=used,
    )
    meta = dict(metadata or {})
    meta.setdefault("field_checksum", data.checksum())
    return GlobalSurrogate(partition=partition, locals=locals_, metadata=meta), report


def _broadcast(value, n, klass, name):
    if isinstance(value, klass):
        return [value] * n
    values = list(value)
    if len(values) != n:
        raise ValueError(f"{name} has {len(values)} entries for {n} subdomains")
    return values


# ---------------------------------------------------------------------------
# serialization: a self-describing text format with lossless float round-trip


def save(surrogate: GlobalSurrogate, sink) -> None:
    """Write a surrogate as a version-tagged text document."""
    mesh = surrogate.partition.mesh
    lines = [f"{SURROGATE_FORMAT} {SURROGATE_VERSION}"]
    lines.append(f"dim {mesh.dim}")
    lines.append("counts " + " ".join(str(n) for n in mesh.counts))
    lines.append("bounds " + " ".join(f"{v:.17g}" for b in mesh.bounds for v in b))
    lines.append("grid " + " ".join(str(p) for p in surrogate.partition.shape))
    for key in sorted(surrogate.metadata):
        value = str(surrogate.metadata[key]).replace("\n", " ")
        lines.append(f"meta {key} {value}")
    for i, loc in enumerate(surrogate.locals):
        d = loc.dictionary
        lines.append(f"subdomain {i} entries {len(d)} log {int(loc.log_transform)}")
        for c, w, b, g in zip(d.centers, d.widths, loc.beta, d.generations):
            coords = " ".join(f"{v:.17g}" for v in c)
            lines.append(f"{coords} {w:.17g} {b:.17g} {int(g)}")
    lines.append("end")
    write_text(sink, lines)


def load(source) -> GlobalSurrogate:
    """Read a surrogate written by :func:`save`.

    Malformed or inconsistent input of any kind raises :class:`DataError`.
    """
    try:
        return _parse_surrogate(_read_text(source).splitlines())
    except (ValueError, IndexError) as exc:
        raise DataError(f"malformed surrogate file: {exc}") from exc


def _parse_surrogate(lines) -> GlobalSurrogate:
    pos = 0

    def next_line():
        nonlocal pos
        if pos >= len(lines):
            raise DataError("surrogate file truncated: unexpected end of input")
        line = lines[pos]
        pos += 1
        return line

    header = next_line().split()
    if len(header) != 2 or header[0] != SURROGATE_FORMAT:
        raise DataError(f"not a surrogate file (header {header!r})")
    if header[1] != str(SURROGATE_VERSION):
        raise DataError(f"unsupported surrogate format version {header[1]}")

    dim = int(_expect(next_line(), "dim")[0])
    counts = tuple(int(v) for v in _expect(next_line(), "counts"))
    flat = [float(v) for v in _expect(next_line(), "bounds")]
    bounds = tuple((flat[2 * k], flat[2 * k + 1]) for k in range(dim))
    grid = tuple(int(v) for v in _expect(next_line(), "grid"))
    if len(grid) != dim:
        raise ValueError(f"grid has {len(grid)} entries for dim {dim}")
    # every subdomain takes a line, so a grid larger than the file is cut off
    if math.prod(grid) > len(lines) - pos:
        raise DataError(
            f"surrogate file truncated: grid {grid} declares more subdomains "
            f"than the {len(lines) - pos} lines that follow"
        )

    metadata = {}
    line = next_line()
    while line.startswith("meta "):
        _, key, value = line.split(" ", 2)
        metadata[key] = value
        line = next_line()

    mesh = build_mesh(dim, counts, bounds)
    part = make_partition(mesh, *grid)
    locals_ = []
    for i in range(part.n_subdomains):
        toks = line.split()
        if not (len(toks) == 6 and toks[:3] == ["subdomain", str(i), "entries"]
                and toks[3].isdecimal() and toks[4] == "log" and toks[5] in ("0", "1")):
            expected = f"subdomain {i} entries <n> log <0|1>"
            raise DataError(f"malformed subdomain header, expected {expected!r}: {line!r}")
        n_entries = int(toks[3])
        if n_entries > len(lines) - pos:
            raise DataError(
                f"surrogate file truncated: subdomain {i} declares {n_entries} entries "
                f"but {len(lines) - pos} lines follow"
            )
        block = lines[pos : pos + n_entries]
        pos += n_entries
        if any(len(row.split()) != dim + 3 for row in block):
            raise DataError(f"malformed dictionary entry in subdomain {i}: not {dim + 3} fields")
        # the generation column is parsed as float with the rest, then as int
        flat = " ".join(block).split()
        try:
            table = np.array(flat, dtype=float).reshape(n_entries, dim + 3)
            gens = np.array(flat[dim + 2 :: dim + 3], dtype=int)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"malformed number in subdomain {i}: {exc}") from exc
        centers, widths, beta = table[:, :dim], table[:, dim], table[:, dim + 1]
        dictionary = RbfDictionary(centers=centers, widths=widths, generations=gens)
        log_flag = toks[5] == "1"
        locals_.append(LocalSurrogate(dictionary=dictionary, beta=beta, log_transform=log_flag))
        line = next_line()
    if line.strip() != "end":
        raise DataError(f"surrogate file missing end marker, found {line!r}")
    return GlobalSurrogate(partition=part, locals=tuple(locals_), metadata=metadata)


def _expect(line: str, key: str):
    toks = line.split()
    if not toks or toks[0] != key:
        raise ValueError(f"expected '{key}' line, got {line!r}")
    return toks[1:]


def dumps(surrogate: GlobalSurrogate) -> str:
    buf = io.StringIO()
    save(surrogate, buf)
    return buf.getvalue()


def loads(text: str) -> GlobalSurrogate:
    return load(io.StringIO(text))
