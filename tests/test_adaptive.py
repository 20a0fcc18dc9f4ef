import numpy as np
import pytest

from fieldfit.adaptive import (
    DEFAULT_OFFSETS_1D,
    AdaptiveConfig,
    enrich,
    fit_adaptive,
    mark,
    reports_to_csv,
    residual_indicators,
)
from fieldfit.elastic_net import ElasticNetConfig
from fieldfit.fields import box_field_2d, step_field_1d
from fieldfit.partition import make_partition
from fieldfit.rbf import LocalSurrogate, RbfDictionary, centroid_dictionary, shepard_features

STEP_ELASTIC = ElasticNetConfig(lam1=4.59e-4, lam2=4.64e-6)


def _constant_surrogate(value, dim=1):
    center = np.zeros((1, dim)) + 0.5
    d = RbfDictionary(centers=center, widths=np.array([0.3]))
    return LocalSurrogate(dictionary=d, beta=np.array([value]), log_transform=False)


def test_residual_zero_on_exact_fit():
    field = step_field_1d(4)
    sur = _constant_surrogate(1e-1)
    cell = 3  # right plateau
    sub = field.whole()
    assert residual_indicators(sur.evaluate(sub.centroids), sub)[cell] == 0.0


def test_residual_constant_mismatch_midpoint():
    # constant mismatch d on a cell of area A gives A*d^2 with one point
    field = box_field_2d(4, 4)
    sur = _constant_surrogate(0.5, dim=2)
    cell = 5
    area = field.mesh.cell_measure
    d = 0.5 - field.values[cell]
    sub = field.whole()
    got = residual_indicators(sur.evaluate(sub.centroids), sub)[cell]
    assert got == pytest.approx(area * d * d, rel=1e-12)


def test_step_residuals_peak_at_jump():
    # brute-force residuals of a two-basis fit of the raw step values: the
    # two cells flanking the jump carry the largest indicators.  (Under the
    # log pipeline the shrinkage bias of the high plateau outranks the tiny
    # absolute misfit of the low-side flank cell.)
    from fieldfit.elastic_net import fit

    field = step_field_1d(16)
    sub = field.whole()
    d = centroid_dictionary(np.array([[0.0078125], [0.0234375]]), 0.0019)
    W = shepard_features(sub.centroids, d)
    res = fit(W, sub.values, STEP_ELASTIC)
    sur = LocalSurrogate(dictionary=d, beta=res.beta, log_transform=False)
    r = residual_indicators(sur.evaluate(sub.centroids), sub)
    # midpoint rule per cell: |T| (K*(centroid) - K_T)^2
    brute = field.mesh.cell_measure * (sur.evaluate(field.mesh.centroids) - field.values) ** 2
    np.testing.assert_allclose(r, brute, rtol=1e-12)
    top_two = set(int(i) for i in np.argsort(-r)[:2])
    assert top_two == {7, 8}


def test_mark_empty_when_all_zero():
    assert mark(np.zeros(10), 3).size == 0


def test_mark_unique_max():
    r = np.array([0.0, 2.0, 1.0])
    np.testing.assert_array_equal(mark(r, 1), [1])


def test_mark_tie_prefers_lower_index():
    r = np.array([1.0, 3.0, 1.0, 3.0, 0.5])
    np.testing.assert_array_equal(mark(r, 3), [1, 3, 0])


def test_mark_rejects_oversized_ktop():
    with pytest.raises(ValueError):
        mark(np.ones(3), 4)


def test_enrich_three_fresh_centers():
    field = step_field_1d(8)
    sub = field.whole()
    d = centroid_dictionary(sub.centroids, 0.002)
    centers, widths = enrich(d, [3], sub, eta=0.5, offsets=DEFAULT_OFFSETS_1D)
    assert centers.shape == (3, 1)
    np.testing.assert_allclose(widths, 0.001)
    dx = sub.cell_size[0]
    x_t = sub.centroids[3, 0]
    np.testing.assert_allclose(sorted(centers[:, 0]), [x_t - dx / 4, x_t, x_t + dx / 4])


def test_enrich_drops_dictionary_duplicates():
    field = step_field_1d(8)
    sub = field.whole()
    d = centroid_dictionary(sub.centroids, 0.002)
    centers, widths = enrich(d, [3], sub, eta=0.5, offsets=DEFAULT_OFFSETS_1D)
    d2 = d.extended(centers, widths, generation=1)
    # same cell re-marked with a dictionary already holding the offsets at
    # the same parent width: the narrower tie-break parent makes the new
    # candidates fresh, but forcing the old width reproduces duplicates
    again, again_w = enrich(d2, [3], sub, eta=0.5, offsets=DEFAULT_OFFSETS_1D)
    assert again.shape[0] == 3
    assert np.all(again_w < widths.min())
    # identical-width candidates are dropped
    d3 = d2.extended(again, again_w, generation=2)
    forced, _ = enrich(d3, [3], sub, eta=1.0 - 1e-16, offsets=DEFAULT_OFFSETS_1D)
    assert forced.shape[0] == 0 or np.all(forced[:, 0] != sub.centroids[3, 0])


def test_enrich_nearest_entry_ties_go_to_the_narrowest_then_oldest():
    sub = box_field_2d(4, 4).whole()
    cells = [int(np.flatnonzero((sub.centroids == c).all(axis=1))[0])
             for c in ([0.375, 0.375], [0.875, 0.875])]
    # four entries at exactly 0.125 from the first centroid: the oldest is
    # the widest, and two equally narrow ones come after it; the narrowest
    # entry of all is farther away, and alone nearest to the second centroid
    d = RbfDictionary(
        centers=[[0.25, 0.375], [0.5, 0.375], [0.375, 0.5], [0.375, 0.25], [0.875, 0.75]],
        widths=[0.04, 0.02, 0.01, 0.01, 0.005],
        generations=[0, 1, 2, 3, 4],
    )
    _, widths = enrich(d, cells, sub, eta=0.5, offsets=((0.0, 0.0),))
    np.testing.assert_array_equal(widths, [0.005, 0.0025])


def test_enrich_clamps_into_box():
    field = step_field_1d(4)
    sub = field.whole()
    d = centroid_dictionary(sub.centroids, 0.002)
    centers, _ = enrich(d, [0, 3], sub, eta=0.5, offsets=DEFAULT_OFFSETS_1D)
    assert np.all(centers[:, 0] >= sub.box.lo[0])
    assert np.all(centers[:, 0] <= sub.box.hi[0])


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(k_top=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(eta=1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(m_q=2).offsets_for_dim(1)  # default offsets need m_q=3
    AdaptiveConfig(m_q=2, offsets=((0.0,), (0.25,)))
    with pytest.raises(ValueError):
        AdaptiveConfig(offsets=((0.0,),))


def test_constant_field_stops_immediately():
    field = step_field_1d(8)
    const = type(field)(mesh=field.mesh, values=np.full(8, 2.5))
    sub = const.whole()
    cfg = AdaptiveConfig(k_top=1, m_max=30, eps_tol=1e-12, elastic=ElasticNetConfig())
    sur, reports = fit_adaptive(sub, centroid_dictionary(sub.centroids, 0.002), cfg)
    assert len(reports) == 1
    assert reports[0].added == 0
    assert reports[0].max_residual < 1e-12
    np.testing.assert_allclose(sur.evaluate(sub.centroids), 2.5, rtol=1e-10)


def test_step_adaptive_concentrates_near_jump_and_decreases():
    field = step_field_1d(16)
    sub = field.whole()
    cfg = AdaptiveConfig(k_top=1, m_max=6, eta=0.5, m_q=3, elastic=STEP_ELASTIC, max_rounds=10)
    sur, reports = fit_adaptive(sub, centroid_dictionary(sub.centroids, 0.0019), cfg)
    errs = [r.rel_l2 for r in reports]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    added = sur.dictionary.centers[sur.dictionary.generations > 0, 0]
    assert added.size == 6
    assert np.all(np.abs(added - 0.015625) < 2 * sub.cell_size[0])


def test_m_max_caps_added_bases():
    # k_top * m_q = 3 per round, so the second batch is cut from 3 to 1
    field = step_field_1d(16)
    sub = field.whole()
    cfg = AdaptiveConfig(k_top=1, m_max=4, eta=0.5, m_q=3, elastic=STEP_ELASTIC, max_rounds=10)
    sur, reports = fit_adaptive(sub, centroid_dictionary(sub.centroids, 0.0019), cfg)
    assert int((sur.dictionary.generations > 0).sum()) == 4
    assert [r.added for r in reports] == [0, 3, 4]


def test_round_report_centers_arithmetic():
    field = step_field_1d(16)
    sub = field.whole()
    cfg = AdaptiveConfig(k_top=2, m_max=12, eta=0.5, m_q=3, elastic=STEP_ELASTIC, max_rounds=3)
    _, reports = fit_adaptive(sub, centroid_dictionary(sub.centroids, 0.0019), cfg)
    assert [r.centers for r in reports] == [16, 22, 28]
    assert [r.added for r in reports] == [0, 6, 12]


def test_new_widths_strictly_below_parents():
    field = step_field_1d(16)
    sub = field.whole()
    cfg = AdaptiveConfig(k_top=2, m_max=12, eta=0.5, m_q=3, elastic=STEP_ELASTIC, max_rounds=3)
    sur, _ = fit_adaptive(sub, centroid_dictionary(sub.centroids, 0.0019), cfg)
    d = sur.dictionary
    for g in range(1, int(d.generations.max()) + 1):
        assert d.widths[d.generations == g].max() < d.widths[d.generations < g].max()


def test_reports_deterministic_modulo_seconds():
    field = step_field_1d(16)
    sub = field.whole()
    cfg = AdaptiveConfig(k_top=1, m_max=6, eta=0.5, m_q=3, elastic=STEP_ELASTIC, max_rounds=5)
    d0 = centroid_dictionary(sub.centroids, 0.0019)
    _, rep_a = fit_adaptive(sub, d0, cfg)
    _, rep_b = fit_adaptive(sub, d0, cfg)
    for a, b in zip(rep_a, rep_b):
        assert (a.round, a.centers, a.added) == (b.round, b.centers, b.added)
        assert (a.max_residual, a.rel_l2, a.abs_l2, a.objective) == (
            b.max_residual, b.rel_l2, b.abs_l2, b.objective,
        )
        assert (a.iterations, a.converged) == (b.iterations, b.converged)
        assert a.converged and a.iterations >= 1


def test_reports_csv_columns(tmp_path):
    field = step_field_1d(8)
    sub = field.whole()
    cfg = AdaptiveConfig(k_top=1, m_max=3, eta=0.5, m_q=3, elastic=STEP_ELASTIC)
    _, reports = fit_adaptive(sub, centroid_dictionary(sub.centroids, 0.0019), cfg)
    path = tmp_path / "rounds.csv"
    reports_to_csv(reports, path, provenance="cfg-echo")
    lines = path.read_text().splitlines()
    assert lines[0] == "# cfg-echo"
    assert lines[1] == "round,centers,max_RT,rel_L2,objective,seconds"
    assert len(lines) == 2 + len(reports)


def test_box_field_error_decreasing_three_rounds():
    field = box_field_2d()
    sub = field.whole()
    cfg = AdaptiveConfig(
        k_top=204, m_max=1224, eta=0.5, m_q=3, max_rounds=3,
        elastic=ElasticNetConfig(lam1=4.59e-4, lam2=1e-4, tol=1e-6, max_iters=3000),
        offsets=((0.0, 0.0), (-0.25, 0.0), (0.25, 0.0)),
    )
    _, reports = fit_adaptive(sub, centroid_dictionary(sub.centroids, 0.031), cfg)
    errs = [r.rel_l2 for r in reports]
    assert len(errs) == 3
    assert all(b < a for a, b in zip(errs, errs[1:]))


def _step_run():
    sub = step_field_1d(16).whole()
    cfg = AdaptiveConfig(k_top=1, m_max=6, eta=0.5, m_q=3, elastic=STEP_ELASTIC, max_rounds=10)
    return sub, cfg, centroid_dictionary(sub.centroids, 0.0019)


def _box_subdomain_run():
    field = box_field_2d()
    sub = make_partition(field.mesh, 2, 2).subdomain_fields(field)[0]
    cfg = AdaptiveConfig(
        k_top=51, m_max=306, eta=0.5, m_q=3, max_rounds=3,
        elastic=ElasticNetConfig(lam1=4.59e-4, lam2=1e-4, tol=1e-6, max_iters=4000),
        offsets=((0.0, 0.0), (-0.25, 0.0), (0.25, 0.0)),
    )
    return sub, cfg, centroid_dictionary(sub.centroids, 0.031)


@pytest.mark.parametrize("run", [_step_run, _box_subdomain_run], ids=["step1d", "box-sub0"])
def test_report_matches_surrogate_evaluation(run):
    # the loop scores rounds from exp(W beta) on its own design; evaluating
    # the returned surrogate at the centroids must give the same figures
    sub, cfg, d0 = run()
    sur, reports = fit_adaptive(sub, d0, cfg)
    assert reports[-1].added > 0
    approx = sur.evaluate(sub.centroids)
    measure = float(np.prod(sub.cell_size))
    residuals = measure * (approx - sub.values) ** 2
    rel_l2 = np.sqrt(residuals.sum() / (measure * np.sum(sub.values**2)))
    last = reports[-1]
    assert last.max_residual == pytest.approx(residuals.max(), rel=1e-12, abs=0.0)
    assert last.rel_l2 == pytest.approx(rel_l2, rel=1e-12, abs=0.0)
    assert last.abs_l2 == pytest.approx(np.sqrt(residuals.sum()), rel=1e-12, abs=0.0)
