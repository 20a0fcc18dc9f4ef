import numpy as np
import pytest

from fieldfit.geometry import Box, build_mesh, grid_index, locate_many


def test_mesh_32x32_unit_square():
    mesh = build_mesh(2, (32, 32), ((0, 1), (0, 1)))
    assert mesh.n_cells == 1024
    assert mesh.cell_size == (1 / 32, 1 / 32)
    assert mesh.h == pytest.approx(np.sqrt(2) / 32)


def test_mesh_single_cell_centroid():
    mesh = build_mesh(1, 1, (0, 1))
    assert mesh.n_cells == 1
    assert mesh.centroids[0, 0] == 0.5
    assert mesh.h == 1.0


def test_mesh_2x2_centroids():
    mesh = build_mesh(2, (2, 2), ((0, 1), (0, 1)))
    expected = {(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)}
    got = {tuple(c) for c in mesh.centroids}
    assert got == expected


def test_mesh_row_major_indexing():
    mesh = build_mesh(2, (3, 2), ((0, 3), (0, 2)))
    # cell (ix=2, iy=1) -> index 1*3+2 = 5
    np.testing.assert_allclose(mesh.centroids[5], [2.5, 1.5])


def test_mesh_errors():
    with pytest.raises(ValueError):
        build_mesh(2, (0, 4), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        build_mesh(1, 4, (1, 0))
    with pytest.raises(ValueError):
        build_mesh(3, (2, 2, 2), ((0, 1),) * 3)


def test_locate_half_open_split():
    boxes = (
        Box(lo=(0.0,), hi=(0.5,), open_hi=(True,)),
        Box(lo=(0.5,), hi=(1.0,), open_hi=(False,)),
    )
    np.testing.assert_array_equal(locate_many(np.array([[0.5], [0.25], [1.0]]), boxes), [1, 0, 1])
    with pytest.raises(ValueError):
        locate_many(np.array([[1.5]]), boxes)


def test_locate_global_upper_corner():
    boxes = (
        Box(lo=(0, 0), hi=(0.5, 1.0), open_hi=(True, False)),
        Box(lo=(0.5, 0), hi=(1.0, 1.0), open_hi=(False, False)),
    )
    np.testing.assert_array_equal(locate_many(np.array([[1.0, 1.0]]), boxes), [1])


def test_locate_partition_no_double_membership():
    rng = np.random.default_rng(7)
    boxes = []
    for j in range(2):
        for i in range(4):
            boxes.append(
                Box(
                    lo=(i / 4, j / 2),
                    hi=((i + 1) / 4, (j + 1) / 2),
                    open_hi=(i < 3, j < 1),
                )
            )
    pts = rng.random((100_000, 2))
    owner = locate_many(pts, boxes)
    # brute-force double membership check
    hits = np.zeros(len(pts), dtype=int)
    for b in boxes:
        hits += b.contains_many(pts).astype(int)
    assert np.all(hits == 1)
    counts = np.bincount(owner, minlength=8)
    assert counts.sum() == len(pts)
    assert np.all(counts > 0)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(lo=(0.0,), hi=(0.0,), open_hi=(False,))


def test_grid_index_is_a_search_per_axis_on_any_sorted_edges():
    rng = np.random.default_rng(2)
    edges = (np.cumsum(rng.uniform(0.01, 1.0, 41)), np.sort(rng.normal(size=9)))
    pts = np.column_stack([rng.uniform(e[0], e[-1], 5000) for e in edges])
    pts[:1000, 0] = rng.choice(edges[0], 1000)  # on the edges, outer faces included
    pts[1000:2000, 1] = rng.choice(edges[1], 1000)
    cells = [
        np.minimum(np.searchsorted(e, pts[:, k], side="right") - 1, len(e) - 2)
        for k, e in enumerate(edges)
    ]
    np.testing.assert_array_equal(grid_index(pts, edges), cells[1] * 40 + cells[0])
