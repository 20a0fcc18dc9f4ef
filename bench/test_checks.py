"""Tests of the workload checks on fieldfit outputs: a right output passes,
a perturbed one fails its operation.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses

import numpy as np
import pytest

from fieldfit import adaptive, darcy, elastic_net, fields, geometry, partition, rbf

import workloads

LAM1, LAM2 = 4.59e-4, 1e-4


@pytest.fixture(scope="module")
def small_fit():
    data = fields.box_field_2d(8, 8)
    part = partition.make_partition(data.mesh, 2, 2)
    cfg = adaptive.AdaptiveConfig(m_max=0, elastic=elastic_net.ElasticNetConfig(lam1=LAM1, lam2=LAM2))
    sur, _ = partition.fit_parallel(data, part, cfg, partition.DictionarySpec(sigma=0.125))
    return data, sur


def _perturbed(sur, index, delta):
    loc = sur.locals[index]
    beta = loc.beta.copy()
    beta[0] += delta
    locals_ = list(sur.locals)
    locals_[index] = rbf.LocalSurrogate(loc.dictionary, beta, loc.log_transform)
    return dataclasses.replace(sur, locals=tuple(locals_))


def _failed(rnd):
    return {op for op, why in rnd.ops.items() if why}


def _round(*ops):
    rnd = workloads.Round()
    rnd.ops.update({op: None for op in ops})
    return rnd


def test_owners_agree_with_fieldfit(small_fit):
    _, sur = small_fit
    pts = np.random.default_rng(0).uniform(0, 1, (2000, 2))
    pts[:10] = 0.5  # on the shared faces
    np.testing.assert_array_equal(
        workloads.owners(pts, sur.partition.boxes), geometry.locate_many(pts, sur.partition.boxes)
    )


def test_evaluation_check_rejects_perturbed_value_and_beta(small_fit):
    _, sur = small_fit
    pts = np.random.default_rng(1).uniform(0, 1, (3000, 2))
    values = sur.evaluate(pts)
    rnd = _round("good", "value", "beta")
    workloads.check_evaluation(rnd, "good", sur, pts, values)
    bad = values.copy()
    bad[123] *= 1 + 1e-8
    workloads.check_evaluation(rnd, "value", sur, pts, bad)
    workloads.check_evaluation(rnd, "beta", sur, pts, _perturbed(sur, 2, 1e-6).evaluate(pts))
    assert _failed(rnd) == {"value", "beta"}


def test_kkt_check_rejects_perturbed_beta(small_fit):
    data, sur = small_fit
    rnd = _round("good", "beta")
    for op, s in (("good", sur), ("beta", _perturbed(sur, 1, 1e-6))):
        centroids, values = workloads.subdomain_cells(data, s.partition.boxes[1])
        workloads.check_kkt(rnd, op, centroids, np.log(values), s.locals[1], LAM1, LAM2)
    assert _failed(rnd) == {"beta"}


def test_shepard_bounds_check_rejects_value_above_bound(small_fit):
    _, sur = small_fit
    pts = np.random.default_rng(2).uniform(0, 1, (500, 2))
    values = sur.evaluate(pts)
    rnd = _round(*(f"fit[{i}]" for i in range(4)))
    ops = list(rnd.ops)
    workloads.check_shepard_bounds(rnd, ops, sur, pts, values)
    assert not _failed(rnd)
    owner = workloads.owners(pts, sur.partition.boxes)
    j = int(np.flatnonzero(owner == 3)[0])
    values[j] = np.exp(sur.locals[3].beta.max()) * 1.001
    workloads.check_shepard_bounds(rnd, ops, sur, pts, values)
    assert _failed(rnd) == {"fit[3]"}


def test_pressure_check_rejects_out_of_range_and_unbalanced(small_fit):
    data, _ = small_fit
    tri = darcy.triangulate(16, 16, data.mesh.bounds)
    sol = darcy.solve_darcy(
        darcy.DarcyProblem(mesh=tri, coefficient=data.piecewise_eval, dirichlet=workloads.LEFT_RIGHT)
    )
    rnd = _round("good", "range", "flux")
    workloads.check_pressure(rnd, "good", sol)
    workloads.check_pressure(rnd, "range", dataclasses.replace(sol, values=sol.values * 1.01))
    interior = sol.values.copy()
    free = (tri.nodes[:, 0] > 0) & (tri.nodes[:, 0] < 1)
    interior[free] *= 0.99  # stays in [0, 1] but no longer balances
    workloads.check_pressure(rnd, "flux", dataclasses.replace(sol, values=interior))
    assert _failed(rnd) == {"range", "flux"}
