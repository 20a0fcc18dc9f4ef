import io as stdio

import numpy as np
import pytest

from fieldfit.errors import DataError
from fieldfit.fields import FieldData, box_field_2d, smooth_field_2d, step_field_1d
from fieldfit.geometry import Box, build_mesh
from fieldfit.partition import make_partition
from fieldfit.io import (
    SPE10_TOTAL_VALUES,
    read_field,
    read_spe10,
    write_field,
    write_grid_csv,
)


def test_two_cell_step_file():
    field = read_field(stdio.StringIO("1 2\n0 0.03125\n1e-4 1e-1\n"))
    assert field.mesh.n_cells == 2
    np.testing.assert_allclose(field.values, [1e-4, 1e-1])
    np.testing.assert_allclose(field.mesh.centroids[:, 0], [0.0078125, 0.0234375])


def test_single_cell_file():
    field = read_field(stdio.StringIO("2 1 1\n0 1 0 1\n42.0\n"))
    assert field.mesh.n_cells == 1
    assert field.values[0] == 42.0


def test_zero_value_rejected_with_index():
    with pytest.raises(DataError, match="cell 2"):
        read_field(stdio.StringIO("1 3\n0 1\n1.0 2.0 0.0\n"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 3\n0 1\n1.0 x 2.0\n", "non-numeric value 'x' at offset 1"),
        ("1 3\n0 1\n1.0 2.0 -3\n", "field value at cell 2 is not positive: -3"),
        ("1 3\n0 1\nnan 2.0 1.0\n", "field value at cell 0 is not positive: nan"),
    ],
    ids=["non-numeric", "negative", "nan"],
)
def test_bad_cell_value_message(text, message):
    with pytest.raises(DataError) as exc:
        read_field(stdio.StringIO(text))
    assert str(exc.value) == message


def test_count_mismatch_rejected():
    with pytest.raises(DataError, match="2 values"):
        read_field(stdio.StringIO("1 3\n0 1\n1.0 2.0\n"))


def test_malformed_header_rejected():
    with pytest.raises(DataError):
        read_field(stdio.StringIO("x 3\n0 1\n1 2 3\n"))
    with pytest.raises(DataError):
        read_field(stdio.StringIO("1 3\n1 0\n1 2 3\n"))


def test_field_roundtrip_identity(tmp_path):
    field = box_field_2d(8, 8)
    path = tmp_path / "field.txt"
    write_field(field, path)
    back = read_field(path)
    assert back.mesh == field.mesh
    np.testing.assert_array_equal(back.values, field.values)


def test_field_checksum_stable():
    a = step_field_1d(16)
    b = step_field_1d(16)
    assert a.checksum() == b.checksum()
    assert a.checksum() != box_field_2d(8, 8).checksum()


def test_piecewise_eval_staircase():
    field = read_field(stdio.StringIO("1 2\n0 1\n3.0 7.0\n"))
    vals = field.piecewise_eval(np.array([[0.1], [0.49], [0.5], [1.0]]))
    np.testing.assert_array_equal(vals, [3.0, 3.0, 7.0, 7.0])
    with pytest.raises(ValueError, match="index 0"):
        field.piecewise_eval(np.array([[1.5]]))


@pytest.mark.parametrize(
    "counts, bounds", [((12,), ((0.1, 0.7),)), ((6, 10), ((-0.3, 1.7), (0.2, 0.9)))]
)
def test_piecewise_eval_matches_floor_formula_inside_cells(counts, bounds):
    mesh = build_mesh(len(counts), counts, bounds)
    rng = np.random.default_rng(11)
    field = FieldData(mesh=mesh, values=rng.uniform(1, 2, mesh.n_cells))
    cells = rng.integers(0, mesh.n_cells, 4000)
    pts = mesh.centroids[cells] + rng.uniform(-0.49, 0.49, (4000, mesh.dim)) * mesh.cell_size
    idx = np.zeros(len(pts), dtype=int)
    stride = 1
    for k, ((lo, _), n, h) in enumerate(zip(mesh.bounds, mesh.counts, mesh.cell_size)):
        idx += stride * np.minimum((pts[:, k] - lo) / h, n - 1).astype(int)
        stride *= n
    np.testing.assert_array_equal(idx, cells)
    np.testing.assert_array_equal(field.piecewise_eval(pts), field.values[idx])


def test_subdomain_slicing_half_open():
    field = box_field_2d(4, 4)
    left, right = make_partition(field.mesh, 2).subdomain_fields(field)
    assert left.box == Box(lo=(0, 0), hi=(0.5, 1.0), open_hi=(True, False))
    assert left.n_cells == right.n_cells == 8
    assert np.all(left.centroids[:, 0] < 0.5)
    np.testing.assert_array_equal(left.values, field.values[left.cell_indices])


def test_generated_fields_positive():
    for field in (step_field_1d(), box_field_2d(), smooth_field_2d()):
        assert np.all(field.values > 0)


def test_field_data_rejects_nonpositive():
    mesh = build_mesh(1, 2, (0, 1))
    with pytest.raises(ValueError, match="cell 1"):
        FieldData(mesh=mesh, values=np.array([1.0, -2.0]))


# SPE10 fixtures are synthetic: full-size constant file built in memory


def _constant_spe10_text(value="1.0"):
    return (value + "\n") * SPE10_TOTAL_VALUES


def test_spe10_constant_layer():
    field = read_spe10(stdio.StringIO(_constant_spe10_text()), layer=0)
    assert field.mesh.counts == (60, 220)
    assert field.mesh.bounds == ((0.0, 60.0), (0.0, 220.0))
    assert field.values.shape == (13200,)
    np.testing.assert_array_equal(field.values, 1.0)


def test_spe10_token_count_arithmetic():
    assert SPE10_TOTAL_VALUES == 3 * 85 * 220 * 60


def test_spe10_short_file_fails_loudly():
    # a single pre-extracted layer must not be silently reshaped
    with pytest.raises(DataError, match="exactly"):
        read_spe10(stdio.StringIO("1.0\n" * 13200), layer=0)


def test_spe10_bad_token_reports_offset():
    tokens = ["1.0"] * SPE10_TOTAL_VALUES
    tokens[5] = "oops"
    with pytest.raises(DataError, match="offset 5"):
        read_spe10(stdio.StringIO(" ".join(tokens)), layer=0)


@pytest.mark.parametrize(
    "token, message",
    [
        ("oops", "non-numeric value 'oops' at offset 13205"),
        ("-1", "SPE10 value at token offset 13205 is not positive: -1"),
        ("inf", "SPE10 value at token offset 13205 is not positive: inf"),
    ],
    ids=["non-numeric", "negative", "inf"],
)
def test_spe10_bad_value_reports_file_offset(token, message):
    # layer 1 starts at token 13200, so the offset counts from the start of the file
    tokens = ["1.0"] * SPE10_TOTAL_VALUES
    tokens[13205] = token
    with pytest.raises(DataError) as exc:
        read_spe10(stdio.StringIO(" ".join(tokens)), layer=1)
    assert str(exc.value) == message


def test_spe10_layer_bounds():
    with pytest.raises(DataError):
        read_spe10(stdio.StringIO(_constant_spe10_text()), layer=85)


def test_grid_csv_2x2(tmp_path):
    mesh = build_mesh(2, (2, 2), ((0, 1), (0, 1)))
    path = tmp_path / "grid.csv"
    write_grid_csv(mesh.centroids, np.arange(1.0, 5.0), path, provenance="demo")
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "x,y,value"
    assert len(lines) == 6


def test_grid_csv_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    mesh = build_mesh(2, (3, 3), ((0, 1), (0, 1)))
    values = np.exp(rng.standard_normal(9) * 10)
    path = tmp_path / "grid.csv"
    write_grid_csv(mesh.centroids, values, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 2], values)
    np.testing.assert_array_equal(rows[:, :2], mesh.centroids)
    # a flat array is N 1D points, one row each
    write_grid_csv(np.array([0.1, 0.2, 0.3]), [1, 2, 3], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows, [[0.1, 1], [0.2, 2], [0.3, 3]])


def test_grid_csv_64x64_row_count(tmp_path):
    mesh = build_mesh(2, (64, 64), ((0, 1), (0, 1)))
    path = tmp_path / "grid.csv"
    write_grid_csv(mesh.centroids, np.ones(4096), path)
    assert len(path.read_text().splitlines()) == 4097
