import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import fieldfit
from fieldfit.darcy import (
    DarcyProblem,
    PressureSolution,
    line_mesh,
    pressure_rel_error,
    solve_darcy,
    triangulate,
    write_pressure_text,
)
from fieldfit.elastic_net import ElasticNetConfig
from fieldfit.errors import NumericalError
from fieldfit.fields import box_field_2d, relative_l2_error, smooth_field_2d, step_field_1d
from fieldfit.io import write_grid_values
from fieldfit.partition import DictionarySpec, fit_parallel, make_partition
from oracles import p1_assembly_2d


def _ones(p):
    return np.ones(np.atleast_2d(p).shape[0])


def _left_right(tri, coeff, **kw):
    return DarcyProblem(mesh=tri, coefficient=coeff, dirichlet={"left": 1.0, "right": 0.0}, **kw)


def test_unit_coefficient_linear_solution_exact():
    tri = triangulate(8, 8, ((0, 1), (0, 1)))
    sol = solve_darcy(_left_right(tri, _ones))
    np.testing.assert_allclose(sol.values, 1 - tri.nodes[:, 0], atol=1e-10)


def test_two_layer_series_exact_1d():
    mesh = line_mesh(8, (0, 1))
    k1, k2 = 1.0, 4.0
    prob = DarcyProblem(
        mesh=mesh,
        coefficient=lambda p: np.where(p[:, 0] < 0.5, k1, k2),
        dirichlet={"left": 1.0, "right": 0.0},
    )
    sol = solve_darcy(prob)
    # exact piecewise-linear series solution, interface value k1/(k1+k2)
    q = 1.0 / (0.5 / k1 + 0.5 / k2)
    x = mesh.edges[0]
    exact = np.where(x < 0.5, 1 - q * x / k1, q * (1 - x) / k2)
    np.testing.assert_allclose(sol.values, exact, atol=1e-12)
    assert sol.interpolate([0.5])[0] == pytest.approx(k1 / (k1 + k2), abs=1e-12)


def test_large_1d_system_solves_directly():
    # far above the coarsest 2D multigrid level; the tridiagonal system stays direct
    mesh = line_mesh(24_576, (0, 1))
    sol = solve_darcy(_left_right(mesh, _ones))
    assert sol.diagnostics["method"] == "direct"
    assert sol.diagnostics["residual"] <= 1e-12
    # the condition number grows like n^2 ~ 6e8, so nodal rounding reaches ~3e-11
    np.testing.assert_allclose(sol.values, 1 - mesh.edges[0], rtol=0, atol=1e-9)


def test_1d_tridiagonal_solve_matches_sparse_lu():
    field = step_field_1d()
    mesh = line_mesh(2**14, field.mesh.bounds[0])
    sol = solve_darcy(_left_right(mesh, field.piecewise_eval))
    assert (sol.diagnostics["method"], sol.diagnostics["iterations"]) == ("direct", 1)
    A, b = sol.system
    free = slice(1, -1)
    rhs = b - A @ np.where(np.arange(mesh.n_nodes) == 0, 1.0, 0.0)
    direct = spla.spsolve(A.tocsc()[free, free], rhs[free])
    err = np.linalg.norm(sol.values[free] - direct) / np.linalg.norm(direct)
    # both solves leave a 1e-14 residual; against a long-double solve of
    # this system, the tridiagonal solve is off by 6.1e-12 and SuperLU by
    # 1.7e-12, so the two agree to 6.8e-12
    assert sol.diagnostics["residual"] <= 1e-13
    assert err <= 1e-11


def _k_trig(p):
    return np.exp(2.0 * np.sin(p[:, 0] / 37.0) * np.cos(p[:, 1] / 53.0))


@pytest.mark.parametrize(
    "counts, bounds, holes, coefficient",
    [
        ((16, 16), ((0, 1), (0, 1)), (), box_field_2d().piecewise_eval),
        ((60, 220), ((0.0, 365.76), (0.0, 670.56)), (), _k_trig),
        ((200, 200), ((0, 1), (0, 1)), ((0.5, 0.5, 0.15),), box_field_2d().piecewise_eval),
    ],
)
def test_stencil_matches_element_assembly(counts, bounds, holes, coefficient):
    tri = triangulate(*counts, bounds, holes=holes)
    (x0, x1), (y0, y1) = tri.bounds
    problem = DarcyProblem(
        mesh=tri,
        coefficient=coefficient,
        dirichlet={"left": 1.0, "right": 0.0},
        neumann={"top": lambda p: np.sin(p[:, 0] / (x1 - x0)), "bottom": 0.25},
        source=lambda p: 1.0 + p[:, 1] / (y1 - y0),
    )
    A, b = solve_darcy(problem).system
    A_ref, b_ref = p1_assembly_2d(problem)
    eps = np.finfo(float).eps
    assert np.count_nonzero(A.data) == A.nnz
    A_ref.eliminate_zeros()
    assert A_ref.nnz == A.nnz
    assert abs(A - A_ref).max() <= 4 * eps * abs(A_ref).max()
    assert np.max(np.abs(b - b_ref)) <= 4 * eps * np.max(np.abs(b_ref))


@pytest.mark.parametrize(
    "counts, bounds, holes",
    [
        ((200, 200), ((0, 1), (0, 1)), ((0.5, 0.5, 0.15), (0.1, 0.9, 0.2))),
        ((60, 220), ((0.0, 365.76), (0.0, 670.56)), ((100.0, 300.0, 60.0),)),
        ((1000, 10), ((-1.3, 2.7), (0.1, 0.35)), ((0.7, 0.2, 0.05),)),
        ((7, 3), ((0.3, 0.7), (-2.0, 5.0)), ()),
    ],
)
def test_geometry_matches_gather_formulas(counts, bounds, holes):
    tri = triangulate(*counts, bounds, holes=holes)
    p = tri.nodes[tri.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    assert np.array_equal(tri.centroids(), p.mean(axis=1))
    assert np.array_equal(tri.areas(), 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]))
    (x0, x1), (y0, y1) = tri.bounds
    x, y = tri.nodes[:, 0], tri.nodes[:, 1]
    on = {"left": x == x0, "right": x == x1, "bottom": y == y0, "top": y == y1}
    for face, mask in on.items():
        assert np.array_equal(tri.face_nodes(face), np.flatnonzero(mask))
    line = line_mesh(counts[0], bounds[0])
    assert line.nodes.shape == (counts[0] + 1, 1)
    for face, end in (("left", x0), ("right", x1)):
        assert np.array_equal(line.face_nodes(face), np.flatnonzero(line.nodes[:, 0] == end))
    with pytest.raises(ValueError, match="unknown face"):
        line.face_nodes("top")


@pytest.mark.parametrize(
    "build", [lambda n, b: line_mesh(n, b[0]), lambda n, b: triangulate(n, n, b)], ids=["line", "tri"]
)
@pytest.mark.parametrize(
    "n, bounds",
    [
        (0, ((0, 1), (0, 1))),
        (4, ((1, 0), (0, 1))),
        (4, ((0, 0), (0, 1))),
        (4, ((0, np.inf), (0, 1))),
        (4, ((np.nan, 1), (0, 1))),
        (4, ((-1e308, 1e308), (0, 1))),
    ],
    ids=["no-cells", "inverted", "degenerate", "infinite", "nan", "overflowing-extent"],
)
def test_meshes_reject_bad_counts_and_bounds(build, n, bounds):
    with pytest.raises(ValueError):
        build(n, bounds)


def test_manufactured_solution_second_order():
    def source(p):
        return 2 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    errs, hs = [], []
    for n in (8, 16, 32, 64):
        tri = triangulate(n, n, ((0, 1), (0, 1)))
        prob = DarcyProblem(
            mesh=tri,
            coefficient=_ones,
            dirichlet={"left": 0.0, "right": 0.0, "top": 0.0, "bottom": 0.0},
            source=source,
        )
        sol = solve_darcy(prob)
        exact = np.sin(np.pi * tri.nodes[:, 0]) * np.sin(np.pi * tri.nodes[:, 1])
        ref = PressureSolution(mesh=tri, values=exact, diagnostics={}, system=sol.system)
        errs.append(pressure_rel_error(ref, sol))
        hs.append(1.0 / n)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_stiffness_matrix_symmetric():
    field = box_field_2d(8, 8)
    tri = triangulate(16, 16, ((0, 1), (0, 1)))
    sol = solve_darcy(_left_right(tri, field.piecewise_eval))
    A, _ = sol.system
    asym = abs(A - A.T).max()
    assert asym <= 1e-12 * abs(A).max()


def test_flux_balance_left_right():
    field = box_field_2d()
    tri = triangulate(32, 32, ((0, 1), (0, 1)))
    sol = solve_darcy(_left_right(tri, field.piecewise_eval))
    inflow = sol.boundary_reaction("left")
    outflow = sol.boundary_reaction("right")
    assert abs(inflow + outflow) <= 1e-8 * max(abs(inflow), abs(outflow))


def test_pressure_rel_error_identity_and_scaling():
    tri = triangulate(8, 8, ((0, 1), (0, 1)))
    sol = solve_darcy(_left_right(tri, _ones))
    assert pressure_rel_error(sol, sol) == pytest.approx(0.0, abs=1e-14)
    eps = 1e-3
    scaled = PressureSolution(
        mesh=tri, values=(1 + eps) * sol.values, diagnostics={}, system=sol.system
    )
    assert pressure_rel_error(sol, scaled) == pytest.approx(eps, rel=1e-10)


def test_pressure_rel_error_1d_closed_form():
    # p_ref = 1 - x on [0, 1] and p_test = p_ref + c: |c| / sqrt(1/3) = |c| sqrt(3)
    ref_mesh, test_mesh = line_mesh(16, (0, 1)), line_mesh(5, (0, 1))
    ref = PressureSolution(mesh=ref_mesh, values=1.0 - ref_mesh.edges[0], diagnostics={})
    for c in (1e-3, -0.25):
        test = PressureSolution(mesh=test_mesh, values=1.0 - test_mesh.edges[0] + c, diagnostics={})
        assert pressure_rel_error(ref, test) == pytest.approx(abs(c) * np.sqrt(3.0), rel=1e-12)


def test_pressure_rel_error_zero_norm_rejected():
    tri = triangulate(4, 4, ((0, 1), (0, 1)))
    sol = solve_darcy(_left_right(tri, _ones))
    zero = PressureSolution(mesh=tri, values=np.zeros_like(sol.values), diagnostics={}, system=sol.system)
    with pytest.raises(ValueError):
        pressure_rel_error(zero, sol)


def test_nonpositive_coefficient_rejected():
    tri = triangulate(4, 4, ((0, 1), (0, 1)))
    prob = _left_right(tri, lambda p: np.atleast_2d(p)[:, 0] - 0.5)
    with pytest.raises(NumericalError, match="triangle"):
        solve_darcy(prob)


def test_cg_that_cannot_converge_is_numerical_error(monkeypatch):
    # a preconditioner that returns zeros gives CG no direction to move in
    monkeypatch.setattr("fieldfit.darcy._vcycle", lambda levels, coarsest, r, k=0: np.zeros_like(r))
    tri = triangulate(8, 8, ((0, 1), (0, 1)))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="did not converge"):
        solve_darcy(_left_right(tri, _ones))


def test_cg_breakdown_stops_at_first_non_finite_iterate(monkeypatch):
    # the zero preconditioner makes the first step 0/0, so every iterate is NaN
    calls = []

    def zero_vcycle(levels, coarsest, r, k=0):
        calls.append(k)
        return np.zeros_like(r)

    monkeypatch.setattr("fieldfit.darcy._vcycle", zero_vcycle)
    tri = triangulate(128, 128, ((0, 1), (0, 1)))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="did not converge"):
        solve_darcy(_left_right(tri, _ones))
    assert 1 <= len(calls) <= 2


def test_no_dirichlet_rejected():
    tri = triangulate(4, 4, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="Dirichlet"):
        DarcyProblem(mesh=tri, coefficient=_ones, dirichlet={})


def test_overlapping_boundary_sets_rejected():
    tri = triangulate(4, 4, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="both"):
        DarcyProblem(
            mesh=tri, coefficient=_ones,
            dirichlet={"left": 1.0}, neumann={"left": 0.5},
        )


def test_neumann_flux_changes_solution():
    tri = triangulate(16, 16, ((0, 1), (0, 1)))
    base = solve_darcy(DarcyProblem(mesh=tri, coefficient=_ones, dirichlet={"left": 0.0}))
    pushed = solve_darcy(
        DarcyProblem(
            mesh=tri, coefficient=_ones, dirichlet={"left": 0.0}, neumann={"right": 1.0}
        )
    )
    # unit influx over the right face against K=1 gives p = x
    np.testing.assert_allclose(pushed.values, tri.nodes[:, 0], atol=1e-9)
    np.testing.assert_allclose(base.values, 0.0, atol=1e-12)


def test_holes_solve_and_mesh_free_surrogate_eval():
    field = box_field_2d(8, 8)
    part = make_partition(field.mesh, 1, 1)
    cfg_en = ElasticNetConfig(lam1=4.59e-4, lam2=1e-4, tol=1e-6, max_iters=2000)
    from fieldfit.adaptive import AdaptiveConfig

    surrogate, _ = fit_parallel(
        field, part, AdaptiveConfig(m_max=0, elastic=cfg_en), DictionarySpec(sigma=0.13)
    )
    tri = triangulate(32, 32, ((0, 1), (0, 1)), holes=((0.5, 0.5, 0.15),))
    assert tri.triangles.shape[0] < 2 * 32 * 32
    sol = solve_darcy(_left_right(tri, surrogate.evaluate))
    active = np.isfinite(sol.values)
    assert np.sum(~active) > 0
    assert np.all(np.isfinite(sol.values[active]))
    # flux balance still holds with the hole present
    inflow = sol.boundary_reaction("left")
    outflow = sol.boundary_reaction("right")
    assert abs(inflow + outflow) <= 1e-8 * max(abs(inflow), abs(outflow))


def test_holed_mesh_interpolates_finite_on_kept_triangles():
    # an edge midpoint a kept triangle shares with a removed one must not
    # pick up the removed triangle's inactive (NaN) corner
    tri = triangulate(32, 32, ((0, 1), (0, 1)), holes=((0.5, 0.5, 0.15),))
    sol = solve_darcy(_left_right(tri, _ones))
    assert pressure_rel_error(sol, sol) == 0.0
    corners = tri.nodes[tri.triangles]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        assert np.all(np.isfinite(sol.interpolate(0.5 * (corners[:, a] + corners[:, b]))))
    assert np.isnan(sol.interpolate([[0.5, 0.5]])[0])


def _reduced_direct_solve(sol, faces):
    """spsolve on the reduced system that solve_darcy handed to multigrid."""
    A, b = sol.system
    A = A.tocsr()
    active = np.isfinite(sol.values)
    fixed = np.zeros_like(active)
    for face in faces:
        fixed[sol.mesh.face_nodes(face)] = True
    fixed &= active
    free = active & ~fixed
    rhs = b - A @ np.where(fixed, sol.values, 0.0)
    return free, spla.spsolve(A[free][:, free].tocsc(), rhs[free])


@pytest.mark.parametrize(
    "counts, holes",
    [((160, 160), ()), ((129, 77), ()), ((60, 220), ()), ((200, 200), ((0.5, 0.5, 0.15),))],
)
def test_multigrid_cg_matches_direct_solve(counts, holes):
    field = box_field_2d()
    tri = triangulate(*counts, ((0, 1), (0, 1)), holes=holes)
    sol = solve_darcy(_left_right(tri, field.piecewise_eval))
    assert sol.diagnostics["method"] == "cg"
    assert sol.diagnostics["levels"] >= 2
    assert sol.diagnostics["residual"] <= 1e-10
    free, direct = _reduced_direct_solve(sol, ("left", "right"))
    np.testing.assert_allclose(sol.values[free], direct, rtol=0, atol=1e-9)
    inflow = sol.boundary_reaction("left")
    outflow = sol.boundary_reaction("right")
    assert abs(inflow + outflow) <= 1e-8 * max(abs(inflow), abs(outflow))


def test_multigrid_iterations_do_not_grow_with_the_mesh():
    field = box_field_2d()
    its = {
        n: solve_darcy(_left_right(triangulate(n, n, ((0, 1), (0, 1))), field.piecewise_eval))
        .diagnostics["iterations"]
        for n in (64, 256)
    }
    assert its[256] <= 1.5 * its[64]


@pytest.mark.parametrize("counts", [(3000, 2), (1000, 10)])
def test_stretched_cells_keep_iterations_low(counts):
    # halving both axes of 1000x10 cells takes 569 CG iterations; halving
    # only the narrow axis takes 14, as on square cells
    field = box_field_2d()
    sol = solve_darcy(_left_right(triangulate(*counts, ((0, 1), (0, 1))), field.piecewise_eval))
    assert sol.diagnostics["levels"] >= 2
    assert sol.diagnostics["iterations"] <= 30


def test_coarsest_sized_system_is_one_direct_step():
    field = box_field_2d()
    sol = solve_darcy(_left_right(triangulate(16, 16, ((0, 1), (0, 1))), field.piecewise_eval))
    assert (sol.diagnostics["levels"], sol.diagnostics["iterations"]) == (1, 1)


def test_multigrid_solve_leaves_no_cyclic_garbage():
    # a hierarchy that refers to itself waits for the cyclic collector and
    # holds every level's operators until then
    problem = _left_right(triangulate(160, 160, ((0, 1), (0, 1))), box_field_2d().piecewise_eval)
    gc.collect()
    gc.disable()
    try:
        solve_darcy(problem)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_field_rel_error_exact_and_scaled():
    field = box_field_2d(4, 4)
    sub = field.whole()
    assert relative_l2_error(sub, field.piecewise_eval) == 0.0
    delta = 1e-3
    assert relative_l2_error(sub, lambda p: field.piecewise_eval(p) * (1 + delta)) == pytest.approx(
        delta, rel=1e-12
    )


def test_field_rel_error_uniform_lattice_magnitude():
    # (g, sigma) = (16, 0.0625) on the smooth 32x32 field lands within an
    # order of magnitude of the 2.28e-3 scale reported for this dictionary
    field = smooth_field_2d()
    part = make_partition(field.mesh, 1, 1)
    from fieldfit.adaptive import AdaptiveConfig

    cfg = AdaptiveConfig(
        m_max=0, elastic=ElasticNetConfig(lam1=4.59e-4, lam2=1e-4, tol=1e-6, max_iters=3000)
    )
    surrogate, _ = fit_parallel(field, part, cfg, DictionarySpec(sigma=0.0625, lattice=16))
    err = relative_l2_error(field.whole(), surrogate.evaluate)
    assert 2.28e-4 <= err <= 2.28e-2


def test_interpolate_rejects_outside_points():
    tri = triangulate(4, 4, ((0, 1), (0, 1)))
    sol = solve_darcy(_left_right(tri, _ones))
    with pytest.raises(ValueError):
        sol.interpolate(np.array([[1.2, 0.5]]))
    line = solve_darcy(_left_right(line_mesh(8, (0, 1)), _ones))
    with pytest.raises(ValueError, match="point index 1"):
        line.interpolate([0.5, 2.0, -1.0])
    with pytest.raises(ValueError, match="point index 0"):
        line.interpolate([np.nan])
    inside = np.linspace(0.0, 1.0, 13)
    expected = np.interp(inside, line.mesh.edges[0], line.values)
    np.testing.assert_array_equal(line.interpolate(inside), expected)


def test_interpolate_rejects_flat_vector_of_two_points():
    tri = triangulate(4, 4, ((0, 1), (0, 1)))
    sol = solve_darcy(_left_right(tri, _ones))
    np.testing.assert_array_equal(sol.interpolate(np.array([0.25, 0.5])), sol.interpolate([[0.25, 0.5]]))
    with pytest.raises(ValueError):
        sol.interpolate(np.array([0.25, 0.5, 0.75, 0.5]))


def test_1d_pressure_text_is_the_field_grammar():
    mesh = line_mesh(7, (0.25, 1.5))
    problem = DarcyProblem(
        mesh=mesh, coefficient=lambda p: 1.0 + p[:, 0] ** 2, dirichlet={"left": 1.0, "right": -0.5}
    )
    sol = solve_darcy(problem)
    text, header = io.StringIO(), io.StringIO()
    write_pressure_text(sol, text)
    write_grid_values(header, [8], [(0.25, 1.5)], [])
    lines = text.getvalue().splitlines()
    assert lines[:2] == header.getvalue().splitlines() == ["1 8", "0.25 1.5"]
    np.testing.assert_array_equal(np.array(lines[2:], dtype=float), sol.values)


_SOLVE_128 = """
import sys
import numpy as np
from fieldfit.darcy import DarcyProblem, solve_darcy, triangulate
from fieldfit.fields import box_field_2d
data = box_field_2d()
tri = triangulate(128, 128, data.mesh.bounds)
problem = DarcyProblem(mesh=tri, coefficient=data.piecewise_eval, dirichlet={"left": 1.0, "right": 0.0})
np.save(sys.argv[1], solve_darcy(problem).values)
"""


def test_2d_pressures_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 128^2 has 16,641 nodes, enough for OpenBLAS to split a dot product
    # between threads when it may
    src = str(Path(fieldfit.__file__).resolve().parents[1])
    pressures = []
    for threads in ("1", "2"):
        out = tmp_path / f"p{threads}.npy"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", _SOLVE_128, str(out)], env=env, check=True, timeout=120)
        pressures.append(np.load(out))
    np.testing.assert_array_equal(*pressures)
