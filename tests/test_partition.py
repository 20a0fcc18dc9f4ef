import io as stdio
import os
import re

import numpy as np
import pytest

from fieldfit import blas
from fieldfit.adaptive import AdaptiveConfig, fit_adaptive
from fieldfit.elastic_net import ElasticNetConfig
from fieldfit.errors import DataError
from fieldfit.fields import FieldData, box_field_2d, step_field_1d
from fieldfit.geometry import build_mesh, grid_index, locate_many
from fieldfit.partition import (
    DictionarySpec,
    GlobalSurrogate,
    dumps,
    fit_parallel,
    load,
    loads,
    make_partition,
    save,
)
from fieldfit.rbf import LocalSurrogate, centroid_dictionary
from oracles import shepard_direct

EN_2D = ElasticNetConfig(lam1=4.59e-4, lam2=1e-4, tol=1e-6, max_iters=2000)
PLAIN_CFG = AdaptiveConfig(m_max=0, elastic=EN_2D)


def _cell_owner(part):
    """Owning subdomain of every cell, from the subdomain slices."""
    field = FieldData(mesh=part.mesh, values=np.ones(part.mesh.n_cells))
    owner = np.full(part.mesh.n_cells, -1)
    for i, sub in enumerate(part.subdomain_fields(field)):
        owner[sub.cell_indices] = i
    return owner


def test_partition_1x1():
    mesh = build_mesh(2, (32, 32), ((0, 1), (0, 1)))
    part = make_partition(mesh, 1, 1)
    assert part.n_subdomains == 1
    assert np.all(_cell_owner(part) == 0)


def test_partition_2x2_equal_cells():
    mesh = build_mesh(2, (32, 32), ((0, 1), (0, 1)))
    part = make_partition(mesh, 2, 2)
    counts = np.bincount(_cell_owner(part))
    np.testing.assert_array_equal(counts, [256, 256, 256, 256])


def test_partition_2x1_shape():
    mesh = build_mesh(2, (32, 32), ((0, 1), (0, 1)))
    part = make_partition(mesh, 2, 1)
    counts = np.bincount(_cell_owner(part))
    np.testing.assert_array_equal(counts, [512, 512])
    assert part.boxes[0].hi[0] == 0.5
    assert part.boxes[0].open_hi == (True, False)
    assert part.boxes[1].open_hi == (False, False)


def test_partition_rejects_nondividing():
    mesh = build_mesh(2, (32, 32), ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="px=3"):
        make_partition(mesh, 3, 2)


def test_partition_rejects_boxes_that_collapse_in_rounding():
    mesh = build_mesh(1, 16, (1.0, 1.0 + 1e-15))
    with pytest.raises(ValueError, match="degenerate"):
        make_partition(mesh, 16)


def test_partition_boxes_cover_domain_once():
    mesh = build_mesh(2, (16, 16), ((0, 1), (0, 1)))
    part = make_partition(mesh, 4, 2)
    pts = np.random.default_rng(3).random((20000, 2))
    hits = sum(b.contains_many(pts).astype(int) for b in part.boxes)
    assert np.all(hits == 1)


def test_partition_centroid_map_matches_locate():
    mesh = build_mesh(2, (8, 8), ((0, 1), (0, 1)))
    part = make_partition(mesh, 2, 4)
    owner = locate_many(mesh.centroids, part.boxes)
    np.testing.assert_array_equal(owner, _cell_owner(part))


@pytest.mark.parametrize(
    "counts, bounds, grid",
    [
        ((12,), ((0.1, 0.7),), (1,)),
        ((12,), ((0.1, 0.7),), (3,)),
        ((16, 8), ((-0.3, 1.7), (0.2, 0.9)), (1, 1)),
        ((16, 8), ((-0.3, 1.7), (0.2, 0.9)), (2, 2)),
        ((16, 8), ((-0.3, 1.7), (0.2, 0.9)), (4, 2)),
        ((32, 32), ((0, 1), (0, 1)), (8, 8)),
    ],
    ids=["1", "3x1", "1x1", "2x2", "4x2", "8x8"],
)
def test_grid_owner_matches_locate_many(counts, bounds, grid):
    """Owners on the partition's edges agree with the box scan on faces, corners and interiors."""
    mesh = build_mesh(len(counts), counts, bounds)
    part = make_partition(mesh, *grid)
    rng = np.random.default_rng(5)
    box_edges = [
        np.unique([v for b in part.boxes for v in (b.lo[k], b.hi[k])]) for k in range(mesh.dim)
    ]
    # every corner: all combinations of box edges, outer faces included
    corners = np.stack(np.meshgrid(*box_edges, indexing="ij"), axis=-1).reshape(-1, mesh.dim)
    inside = rng.uniform([e[0] for e in box_edges], [e[-1] for e in box_edges], (20000, mesh.dim))
    # points on every box edge (in 2D, along every face line)
    faces = [inside[:500].copy() for _ in range(mesh.dim)]
    for k, pts in enumerate(faces):
        pts[:, k] = rng.choice(box_edges[k], 500)
    pts = np.vstack([corners, inside, *faces])
    owner = grid_index(pts, part.edges)
    np.testing.assert_array_equal(owner, locate_many(pts, part.boxes))
    # the fits' cells come from the same edges
    np.testing.assert_array_equal(_cell_owner(part), locate_many(mesh.centroids, part.boxes))


def test_evaluate_on_64_boxes_matches_direct_sums_box_by_box():
    """Every point takes the value of its own box's surrogate, on each of 64 boxes."""
    part = make_partition(build_mesh(2, (32, 32), ((0, 1), (0, 1))), 8, 8)
    rng = np.random.default_rng(11)
    locals_ = tuple(
        LocalSurrogate(centroid_dictionary(rng.uniform(b.lo, b.hi, (6, 2)), 0.05),
                       rng.normal(size=6))
        for b in part.boxes
    )
    sur = GlobalSurrogate(partition=part, locals=locals_)
    # random points, then every corner of the box grid, outer ones included
    corners = np.stack(np.meshgrid(*part.edges), axis=-1).reshape(-1, 2)
    pts = np.vstack([rng.random((20000, 2)), corners])
    values = sur.evaluate(pts)
    owner = locate_many(pts, part.boxes)
    assert np.all(np.bincount(owner, minlength=64) > 0)
    for i, loc in enumerate(locals_):
        d, sel = loc.dictionary, owner == i
        direct = np.exp(shepard_direct(pts[sel], d.centers, d.widths, loc.beta))
        np.testing.assert_allclose(values[sel], direct, rtol=1e-13, atol=0)


def _hand_surrogate_1d():
    """A 2-subdomain 1D surrogate with fixed coefficients, no fit."""
    part = make_partition(step_field_1d(16).mesh, 2)
    locals_ = tuple(
        LocalSurrogate(centroid_dictionary(np.linspace(b.lo[0], b.hi[0], 5)[:, None], 0.004),
                       np.linspace(-9.0, -2.0, 5) + i)
        for i, b in enumerate(part.boxes)
    )
    return GlobalSurrogate(partition=part, locals=locals_)


def test_flat_scalars_are_points_in_1d():
    sur = _hand_surrogate_1d()
    field = step_field_1d(16)
    x = np.array([0.001, 0.02, 0.03])
    np.testing.assert_array_equal(field.piecewise_eval(x), [1e-4, 0.1, 0.1])
    for evaluate in (sur.evaluate, sur.locals[0].evaluate):
        np.testing.assert_array_equal(evaluate(x), evaluate(x[:, None]))
        assert evaluate(x).shape == (3,)
    np.testing.assert_array_equal(sur.partition.boxes[0].contains_many(x), [True, False, False])


def test_points_on_the_closed_upper_face_are_inside():
    # 0.836 + (1.841 - 0.836) rounds to one ulp below 1.841, so the edge
    # formula alone puts the last edge short of the upper bound
    mesh = build_mesh(2, (8, 8), ((0.836, 1.841), (0.0, 1.0)))
    field = FieldData(mesh=mesh, values=np.arange(1.0, 65.0))
    part = make_partition(mesh, 2, 2)
    sur = GlobalSurrogate(partition=part, locals=tuple(
        LocalSurrogate(centroid_dictionary(sub.centroids, 0.1), np.log(sub.values))
        for sub in part.subdomain_fields(field)
    ))
    corner = [[1.841, 0.5], [1.841, 1.0]]
    np.testing.assert_array_equal(field.piecewise_eval(corner), [40.0, 64.0])
    np.testing.assert_array_equal(sur.evaluate(corner), sur.locals[3].evaluate(corner))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_points_raise_naming_the_index(bad):
    x = np.array([0.001, 0.02, bad])
    for evaluate in (_hand_surrogate_1d().evaluate, step_field_1d(16).piecewise_eval):
        with pytest.raises(ValueError, match="index 2"):
            evaluate(x)
    field = box_field_2d(4, 4)
    part = make_partition(field.mesh, 2, 2)
    surrogate, _ = fit_parallel(field, part, PLAIN_CFG, DictionarySpec(sigma=0.3))
    pts = np.array([[0.5, 0.5], [bad, 0.5]])
    for evaluate in (surrogate.evaluate, field.piecewise_eval):
        with pytest.raises(ValueError, match="index 1"):
            evaluate(pts)


def test_fit_parallel_1x1_matches_direct():
    field = box_field_2d(8, 8)
    part = make_partition(field.mesh, 1, 1)
    spec = DictionarySpec(sigma=0.13)
    surrogate, report = fit_parallel(field, part, PLAIN_CFG, spec)
    direct, _ = fit_adaptive(field.whole(), spec.build(field.whole()), PLAIN_CFG)
    np.testing.assert_array_equal(surrogate.locals[0].beta, direct.beta)
    assert len(report.rounds) == 1


def test_fit_parallel_constant_field():
    mesh = build_mesh(2, (8, 8), ((0, 1), (0, 1)))
    field = FieldData(mesh=mesh, values=np.full(64, 3.7))
    part = make_partition(mesh, 2, 2)
    surrogate, _ = fit_parallel(field, part, AdaptiveConfig(m_max=0), DictionarySpec(sigma=0.13))
    rng = np.random.default_rng(4)
    pts = rng.random((200, 2))
    np.testing.assert_allclose(surrogate.evaluate(pts), 3.7, rtol=1e-6)


def test_fit_parallel_worker_count_bit_identical():
    field = box_field_2d(16, 16)
    part = make_partition(field.mesh, 2, 2)
    spec = DictionarySpec(sigma=0.0625)
    s1, _ = fit_parallel(field, part, PLAIN_CFG, spec, workers=1)
    s4, _ = fit_parallel(field, part, PLAIN_CFG, spec, workers=4)
    for a, b in zip(s1.locals, s4.locals):
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.dictionary.centers, b.dictionary.centers)
    pts = np.random.default_rng(0).random((500, 2))
    np.testing.assert_array_equal(s1.evaluate(pts), s4.evaluate(pts))


def test_fit_parallel_leaves_caller_on_one_blas_thread():
    controls = blas._thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control found in this process")
    found = [get() for get, _ in controls]
    # a count above 1, so that the pin shows
    for _, set_ in controls:
        set_(2)
    try:
        field = box_field_2d(8, 8)
        part = make_partition(field.mesh, 2, 2)
        fit_parallel(field, part, PLAIN_CFG, DictionarySpec(sigma=0.13), workers=2)
        assert [get() for get, _ in controls] == [1] * len(controls)
    finally:
        for (_, set_), n in zip(controls, found):
            set_(n)


class _ThreadCountSpec(DictionarySpec):
    def build(self, sub):
        raise DataError(f"{len(os.listdir('/proc/self/task'))} threads")


def test_fit_parallel_workers_are_forked_on_one_thread():
    if not blas._thread_controls():
        pytest.skip("no OpenBLAS thread control found in this process")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads with")
    mesh = build_mesh(2, (4, 4), ((0, 1), (0, 1)))
    field = FieldData(mesh=mesh, values=np.ones(16))
    part = make_partition(mesh, 2, 1)
    # the spec is built in a worker forked after fit_parallel put OpenBLAS on one thread
    with pytest.raises(DataError, match="subdomain 0: 1 threads"):
        fit_parallel(field, part, PLAIN_CFG, _ThreadCountSpec(sigma=0.1), workers=2)


class _BrokenSpec(DictionarySpec):
    def build(self, sub):
        raise RuntimeError("boom")


def test_fit_parallel_failure_reports_subdomain_index():
    mesh = build_mesh(2, (4, 4), ((0, 1), (0, 1)))
    field = FieldData(mesh=mesh, values=np.ones(16))
    part = make_partition(mesh, 2, 1)
    specs = [DictionarySpec(sigma=0.1), _BrokenSpec(sigma=0.1)]
    with pytest.raises(RuntimeError, match="subdomain 1"):
        fit_parallel(field, part, PLAIN_CFG, specs)


class _BadDataSpec(DictionarySpec):
    def build(self, sub):
        raise DataError("bad cells")


@pytest.mark.parametrize("workers", [1, 2])
def test_fit_parallel_keeps_fieldfit_error_class(workers):
    mesh = build_mesh(2, (4, 4), ((0, 1), (0, 1)))
    field = FieldData(mesh=mesh, values=np.ones(16))
    part = make_partition(mesh, 2, 2)
    specs = [DictionarySpec(sigma=0.1)] * 3 + [_BadDataSpec(sigma=0.1)]
    with pytest.raises(DataError, match="subdomain 3: bad cells"):
        fit_parallel(field, part, PLAIN_CFG, specs, workers=workers)


def test_fit_parallel_broadcast_length_mismatch():
    mesh = build_mesh(2, (4, 4), ((0, 1), (0, 1)))
    field = FieldData(mesh=mesh, values=np.ones(16))
    part = make_partition(mesh, 2, 2)
    with pytest.raises(ValueError, match="2 entries for 4"):
        fit_parallel(field, part, [PLAIN_CFG, PLAIN_CFG], DictionarySpec(sigma=0.1))


def test_evaluate_preserves_order_and_positivity():
    field = box_field_2d(8, 8)
    part = make_partition(field.mesh, 2, 2)
    surrogate, _ = fit_parallel(field, part, PLAIN_CFG, DictionarySpec(sigma=0.13))
    pts = np.random.default_rng(1).random((333, 2))
    vals = surrogate.evaluate(pts)
    assert np.all(vals > 0)
    # each point's value equals its owning subdomain's local surrogate,
    # returned at the point's input position
    from fieldfit.geometry import locate_many

    owner = locate_many(pts, part.boxes)
    for i in range(part.n_subdomains):
        sel = owner == i
        np.testing.assert_array_equal(vals[sel], surrogate.locals[i].evaluate(pts[sel]))


def test_evaluate_out_of_domain_reports_index():
    field = box_field_2d(4, 4)
    part = make_partition(field.mesh, 1, 1)
    surrogate, _ = fit_parallel(field, part, PLAIN_CFG, DictionarySpec(sigma=0.3))
    pts = np.array([[0.5, 0.5], [1.5, 0.5]])
    with pytest.raises(ValueError, match="index 1"):
        surrogate.evaluate(pts)


def test_evaluate_centroids_close_to_data_after_fit():
    field = box_field_2d(8, 8)
    part = make_partition(field.mesh, 1, 1)
    cfg = AdaptiveConfig(m_max=0, elastic=ElasticNetConfig(tol=1e-12))
    surrogate, report = fit_parallel(field, part, cfg, DictionarySpec(sigma=0.05))
    vals = surrogate.evaluate(field.mesh.centroids)
    worst = report.rounds[0][-1].max_residual
    cell_area = field.mesh.cell_measure
    assert np.max((vals - field.values) ** 2 * cell_area) <= worst * (1 + 1e-9)


def test_per_subdomain_continuity_near_internal_face():
    field = box_field_2d(8, 8)
    part = make_partition(field.mesh, 2, 1)
    surrogate, _ = fit_parallel(field, part, PLAIN_CFG, DictionarySpec(sigma=0.13))
    ys = np.linspace(0.05, 0.95, 7)
    for eps in (1e-6, 1e-9):
        a = surrogate.evaluate(np.column_stack([np.full(7, 0.5 + eps), ys]))
        b = surrogate.evaluate(np.column_stack([np.full(7, 0.5 + 2 * eps), ys]))
        diff = np.max(np.abs(a - b))
        assert diff < 1e-3 if eps == 1e-6 else diff < 1e-6


def test_lattice_spec_build():
    field = box_field_2d(8, 8)
    sub = field.whole()
    d = DictionarySpec(sigma=0.1, lattice=4).build(sub)
    assert len(d) == 16
    d2 = DictionarySpec(sigma=0.1).build(sub)
    assert len(d2) == 64


def test_save_load_roundtrip_bit_identical():
    field = box_field_2d(8, 8)
    part = make_partition(field.mesh, 2, 2)
    surrogate, _ = fit_parallel(
        field, part, PLAIN_CFG, DictionarySpec(sigma=0.13), metadata={"config": "unit test"}
    )
    text = dumps(surrogate)
    back = loads(text)
    assert back.metadata["config"] == "unit test"
    assert back.metadata["field_checksum"] == field.checksum()
    pts = np.random.default_rng(2).random((1000, 2))
    np.testing.assert_array_equal(surrogate.evaluate(pts), back.evaluate(pts))
    for a, b in zip(surrogate.locals, back.locals):
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.dictionary.centers, b.dictionary.centers)
        np.testing.assert_array_equal(a.dictionary.widths, b.dictionary.widths)
        np.testing.assert_array_equal(a.dictionary.generations, b.dictionary.generations)


def test_save_load_1d_roundtrip(tmp_path):
    field = step_field_1d(16)
    part = make_partition(field.mesh, 2)
    cfg = AdaptiveConfig(
        k_top=1, m_max=3, eta=0.5, m_q=3,
        elastic=ElasticNetConfig(lam1=4.59e-4, lam2=4.64e-6),
    )
    surrogate, _ = fit_parallel(field, part, cfg, DictionarySpec(sigma=0.0019))
    path = tmp_path / "sur.txt"
    save(surrogate, path)
    back = load(path)
    pts = np.random.default_rng(3).uniform(0, 0.03125, (1000, 1))
    np.testing.assert_array_equal(surrogate.evaluate(pts), back.evaluate(pts))


def test_load_rejects_truncation_and_bad_header():
    field = box_field_2d(4, 4)
    part = make_partition(field.mesh, 1, 1)
    surrogate, _ = fit_parallel(field, part, PLAIN_CFG, DictionarySpec(sigma=0.3))
    text = dumps(surrogate)
    with pytest.raises(DataError, match="truncated"):
        loads("\n".join(text.splitlines()[: len(text.splitlines()) // 2]))
    with pytest.raises(DataError, match="not a surrogate"):
        loads("something else entirely\n")
    with pytest.raises(DataError, match="version"):
        loads(text.replace("fieldfit-surrogate 1", "fieldfit-surrogate 99", 1))


# the first dictionary entry: centre x, centre y, width, coefficient, generation
ENTRY = r"(?m)^([-+\w.]+) ([-+\w.]+) ([-+\w.]+) ([-+\w.]+) 0$"


@pytest.mark.parametrize(
    "old, new",
    [
        ("fieldfit-surrogate 1", "fieldfit-surrogate x"),
        ("grid 1 1", "grid 3 3"),
        ("grid 1 1", "grid 1 1 1"),
        ("meta config cfg", "meta k"),
        (ENTRY, r"\1 \2 \3 nan 0"),
        (ENTRY, r"\1 \2 \3 inf 0"),
        (ENTRY, r"inf \2 \3 \4 0"),
        (ENTRY, r"\1 nan \3 \4 0"),
        (ENTRY, r"\1 \2 nan \4 0"),
        (ENTRY, r"\1 \2 inf \4 0"),
        (ENTRY, r"\1 \2 1e200 \4 0"),
        (ENTRY, r"\1 \2 1e-200 \4 0"),
        (ENTRY, r"\1 \2 \3 \4 100000000000000000000"),
        (r"(?m)^(subdomain 0 entries \d+) log [01]$", r"\1 log 7"),
    ],
    ids=["version", "grid-divisor", "grid-arity", "meta-value", "beta-nan", "beta-inf",
         "centre-inf", "centre-nan", "width-nan", "width-inf", "width-square-overflows",
         "width-square-underflows", "generation-overflows", "log-flag"],
)
def test_load_malformed_input_is_data_error(old, new):
    field = box_field_2d(8, 8)
    part = make_partition(field.mesh, 1, 1)
    surrogate, _ = fit_parallel(
        field, part, PLAIN_CFG, DictionarySpec(sigma=0.3), metadata={"config": "cfg"}
    )
    text = dumps(surrogate)
    assert re.search(old, text)
    with pytest.raises(DataError):
        loads(re.sub(old, new, text, count=1))


def test_mesh_free_reuse_on_other_grids():
    field = box_field_2d(8, 8)
    part = make_partition(field.mesh, 1, 1)
    surrogate, _ = fit_parallel(field, part, PLAIN_CFG, DictionarySpec(sigma=0.13))
    coarse = build_mesh(2, (16, 16), ((0, 1), (0, 1))).centroids
    fine = build_mesh(2, (64, 64), ((0, 1), (0, 1))).centroids
    v16 = surrogate.evaluate(coarse)
    v64 = surrogate.evaluate(fine)
    assert v16.shape == (256,)
    assert v64.shape == (4096,)
    assert np.all(v16 > 0) and np.all(v64 > 0)
