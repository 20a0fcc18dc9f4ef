"""Arbitrary text fed to the parsers: only FieldfitError may escape.

Three sources of text: unconstrained unicode, lines of tokens drawn from
the formats' own keywords and extreme numbers, and a valid field or
surrogate file with a few tokens or lines replaced.  The last two reach the
checks behind the headers, where plain random text rarely gets.
"""

import io as stdio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fieldfit.errors import DataError, FieldfitError
from fieldfit.fields import FieldData
from fieldfit.geometry import build_mesh
from fieldfit.io import read_field, read_spe10, write_field
from fieldfit.partition import GlobalSurrogate, dumps, loads, make_partition
from fieldfit.rbf import LocalSurrogate, centroid_dictionary

KEYWORDS = ["fieldfit-surrogate", "dim", "counts", "bounds", "grid", "meta", "subdomain",
            "entries", "log", "end", "1", "2", "0", "-1"]
NUMBERS = st.one_of(
    st.integers(-3, 10**15).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0x10", "1_0", "٣", "1.5e-320"]),
)
TOKEN = st.one_of(st.sampled_from(KEYWORDS), NUMBERS, st.text(max_size=4))
TOKEN_LINES = st.lists(st.lists(TOKEN, max_size=8).map(" ".join), max_size=12).map("\n".join)


def _valid_field_text():
    mesh = build_mesh(2, (2, 2), ((0.0, 1.0), (0.0, 1.0)))
    buf = stdio.StringIO()
    write_field(FieldData(mesh=mesh, values=np.array([1.0, 2.0, 3.0, 4.0])), buf)
    return buf.getvalue()


def _valid_surrogate_text():
    mesh = build_mesh(2, (2, 2), ((0.0, 1.0), (0.0, 1.0)))
    part = make_partition(mesh, 2, 1)
    locals_ = tuple(
        LocalSurrogate(centroid_dictionary(np.array([[0.25 + 0.5 * i, 0.5]]), 0.1), [0.5 * i])
        for i in range(2)
    )
    return dumps(GlobalSurrogate(partition=part, locals=locals_, metadata={"k": "v"}))


@st.composite
def mutated(draw, text):
    """``text`` with a few tokens replaced and lines dropped or repeated."""
    lines = [line.split(" ") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["token", "token", "drop", "repeat"]))
        if action == "token" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(TOKEN)
        elif action == "drop" and len(lines) > 1:
            del lines[i]
        elif action == "repeat":
            lines.insert(i, list(lines[i]))
    return "\n".join(" ".join(line) for line in lines) + "\n"


FIELD_TEXT = st.one_of(st.text(), TOKEN_LINES, mutated(_valid_field_text()))
SURROGATE_TEXT = st.one_of(st.text(), TOKEN_LINES, mutated(_valid_surrogate_text()))
FUZZ = settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


def _only_fieldfit_errors(parse, text):
    try:
        parse(text)
    except FieldfitError:
        pass


@FUZZ
@given(FIELD_TEXT)
def test_read_field_raises_only_fieldfit_errors(text):
    _only_fieldfit_errors(lambda t: read_field(stdio.StringIO(t)), text)


@FUZZ
@given(SURROGATE_TEXT)
def test_surrogate_loads_raises_only_fieldfit_errors(text):
    _only_fieldfit_errors(loads, text)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(st.text(), TOKEN_LINES), st.integers(-2, 90))
def test_read_spe10_raises_only_fieldfit_errors(text, layer):
    _only_fieldfit_errors(lambda t: read_spe10(stdio.StringIO(t), layer), text)


@pytest.mark.parametrize(
    "text, message",
    [
        # one line cannot hold 10^8 subdomains
        ("fieldfit-surrogate 1\ndim 1\ncounts 100000000\nbounds 0 1\ngrid 100000000\nend\n",
         "grid .* declares more subdomains"),
        ("fieldfit-surrogate 1\ndim 1\ncounts 2\nbounds 0 1\ngrid 1\n"
         "subdomain 0 entries 1000000000000 log 1\nend\n", "declares 1000000000000 entries"),
        ("fieldfit-surrogate 1\ndim 1\ncounts 2\nbounds nan 1\ngrid 1\n"
         "subdomain 0 entries 1 log 1\n0.5 0.1 0 0\nend\n", "finite"),
    ],
)
def test_oversized_or_nonfinite_surrogate_header_is_data_error(text, message):
    with pytest.raises(DataError, match=message):
        loads(text)


def test_surrogate_on_huge_mesh_loads_without_per_cell_arrays():
    text = _valid_surrogate_text().replace("counts 2 2", "counts 1000000000000 2")
    sur = loads(text)
    assert sur.partition.mesh.n_cells == 2 * 10**12
    assert sur.evaluate(np.array([[0.25, 0.5]]))[0] == pytest.approx(1.0)


def test_read_field_huge_counts_is_count_mismatch():
    # 10^10 x 10^10 cells overflowed int64 in the cell count
    with pytest.raises(DataError, match="100000000000000000000"):
        read_field(stdio.StringIO("2 10000000000 10000000000\n0 1 0 1\n1.0\n"))
