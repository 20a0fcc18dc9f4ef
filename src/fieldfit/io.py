"""Field-file parsing, SPE10 ingestion, and every text output.

The field file is a plain text format chosen for auditability: a header line
``dim nx [ny]``, a bounds line ``x0 x1 [y0 y1]``, then the cell values in
row-major order (y outer, x inner), whitespace separated.  SPE10 ingestion
reads the community-standard ``spe_perm.dat`` layout: kx, ky, kz blocks
stored consecutively, each holding 85 layers of 220 rows by 60 columns.

:func:`write_text` is the one function that opens an output file and the one
place that formats the ``# <provenance>`` line; surrogates, fields, pressures,
CSVs and reports are all written through it.
"""

from __future__ import annotations

import errno
import os

import numpy as np

from .errors import DataError
from .fields import FieldData
from .geometry import as_points, build_mesh

SPE10_NX = 60
SPE10_NY = 220
SPE10_LAYERS = 85
SPE10_LAYER_VALUES = SPE10_NX * SPE10_NY
SPE10_TOTAL_VALUES = 3 * SPE10_LAYERS * SPE10_LAYER_VALUES


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    try:
        with open(source) as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc


def write_text(sink, lines, provenance: str | None = None) -> None:
    """Write ``lines``, each ended by a newline, to an open file-like sink or a path.

    With a ``provenance`` the first line is ``# <provenance>``.
    """
    text = "\n".join([f"# {provenance}", *lines] if provenance else lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
        return
    try:
        with open(sink, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {sink}: {exc}") from exc


def check_writable(*sinks) -> None:
    """Raise the :class:`DataError` that writing to each path would, before any work.

    A command that writes its outputs last calls this first, so a missing
    or unwritable directory fails at once instead of after the whole
    computation.  ``None`` and open file-like sinks are skipped.
    """
    for sink in sinks:
        if sink is None or hasattr(sink, "write"):
            continue
        directory = os.path.dirname(os.path.abspath(sink))
        if os.path.isdir(sink):
            code = errno.EISDIR
        elif not os.path.isdir(directory):
            code = errno.ENOENT
        elif not os.access(directory, os.W_OK | os.X_OK):
            code = errno.EACCES
        else:
            continue
        exc = OSError(code, os.strerror(code), str(sink))
        raise DataError(f"cannot write {sink}: {exc}")


def read_field(source) -> FieldData:
    """Parse a field file into cell data plus its mesh."""
    tokens = _read_text(source).split()
    if len(tokens) < 2:
        raise DataError("field file too short to contain a header")
    try:
        dim = int(tokens[0])
    except ValueError as exc:
        raise DataError(f"malformed dimension token {tokens[0]!r}") from exc
    if dim not in (1, 2):
        raise DataError(f"dimension must be 1 or 2, got {dim}")
    n_counts = dim
    n_bounds = 2 * dim
    header_len = 1 + n_counts + n_bounds
    if len(tokens) < header_len:
        raise DataError("field file header truncated")
    try:
        counts = tuple(int(t) for t in tokens[1 : 1 + n_counts])
        bounds = [float(t) for t in tokens[1 + n_counts : header_len]]
    except ValueError as exc:
        raise DataError(f"malformed field header: {exc}") from exc
    try:
        mesh = build_mesh(dim, counts, bounds)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    raw = tokens[header_len:]
    if len(raw) != mesh.n_cells:
        raise DataError(
            f"field file has {len(raw)} values but the header implies {mesh.n_cells}"
        )
    return FieldData(mesh=mesh, values=_cell_values(raw, "field value at cell"))


def _cell_values(raw, label: str, offset: int = 0) -> np.ndarray:
    """Floats of the tokens ``raw``, each checked to be finite and positive.

    A token that is not a number, or a value that is not positive (the
    latter named by ``label``), is reported at its index plus ``offset``.
    """
    try:
        values = np.array(raw, dtype=float)
    except ValueError:
        values = np.empty(len(raw))
        for j, tok in enumerate(raw):
            try:
                values[j] = float(tok)
            except ValueError as exc:
                raise DataError(f"non-numeric value {tok!r} at offset {offset + j}") from exc
    bad = ~(values > 0) | ~np.isfinite(values)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise DataError(f"{label} {offset + j} is not positive: {raw[j]}")
    return values


def write_grid_values(sink, counts, bounds, values) -> None:
    """Write grid values in the field-file grammar read by :func:`read_field`.

    ``counts`` holds one count per axis, ``bounds`` one (lo, hi) pair per
    axis, and ``values`` the row-major values, x fastest.
    """
    write_text(
        sink,
        [
            " ".join(str(n) for n in (len(counts), *counts)),
            " ".join(f"{v:.17g}" for b in bounds for v in b),
            *(f"{v:.17g}" for v in values),
        ],
    )


def write_field(data: FieldData, sink) -> None:
    """Write a field in the grammar accepted by :func:`read_field`."""
    write_grid_values(sink, data.mesh.counts, data.mesh.bounds, data.values)


def read_spe10(source, layer: int) -> FieldData:
    """Extract the kx slice of one layer from an SPE10 permeability file.

    Values stay in native millidarcy on a 60x220 mesh with bounds
    [0, 60] x [0, 220] in grid units.
    """
    if not 0 <= layer < SPE10_LAYERS:
        raise DataError(f"layer must lie in [0, {SPE10_LAYERS}), got {layer}")
    tokens = _read_text(source).split()
    if len(tokens) != SPE10_TOTAL_VALUES:
        raise DataError(
            f"SPE10 permeability file must hold exactly {SPE10_TOTAL_VALUES} values "
            f"(kx, ky, kz of {SPE10_LAYERS} layers of {SPE10_NY}x{SPE10_NX}); "
            f"got {len(tokens)}"
        )
    start = layer * SPE10_LAYER_VALUES
    raw = tokens[start : start + SPE10_LAYER_VALUES]
    values = _cell_values(raw, "SPE10 value at token offset", start)
    mesh = build_mesh(2, (SPE10_NX, SPE10_NY), ((0.0, SPE10_NX), (0.0, SPE10_NY)))
    return FieldData(mesh=mesh, values=values)


def write_grid_csv(points, values, sink, provenance: str | None = None) -> None:
    """Write point/value rows as CSV with 17 significant digits.

    Points are (n, 1) or (n, 2), or a flat array of n 1D points; rows
    preserve the input ordering, so a row-major grid exports
    deterministically.
    """
    dim = np.shape(points)[1] if np.ndim(points) == 2 else 1
    pts = as_points(points, dim)
    vals = np.asarray(values, dtype=float).ravel()
    if pts.shape[0] != vals.shape[0]:
        raise ValueError(f"{pts.shape[0]} points but {vals.shape[0]} values")
    header = ",".join((*("x", "y")[:dim], "value"))
    rows = np.column_stack([pts, vals]).tolist()
    write_text(sink, [header, *(",".join(f"{v:.17g}" for v in row) for row in rows)], provenance)
