import numpy as np
import pytest

import fieldfit.adaptive as adaptive
from fieldfit.adaptive import AdaptiveConfig, enrich, fit_adaptive, mark, residual_indicators
from fieldfit.elastic_net import (
    GAP_RTOL,
    ElasticNetConfig,
    duality_gap,
    fit,
    fit_log_field,
    objective_value,
    soft_threshold,
)
from fieldfit.fields import FieldData, box_field_2d, step_field_1d
from fieldfit.geometry import build_mesh
from fieldfit.partition import make_partition
from fieldfit.rbf import LocalSurrogate, centroid_dictionary, shepard_features
from oracles import elastic_net_objective, prox_gradient_elastic_net

# oracle objective for the fixed 8x8 instance below, computed once with
# prox_gradient_elastic_net (kkt_tol=1e-12) and frozen
ORACLE_8X8_OBJECTIVE = 1.3720329345548663
# the solver settings of the box-field and 1D step experiments
BOX_ELASTIC = ElasticNetConfig(lam1=4.59e-4, lam2=1e-4, tol=1e-6, max_iters=4000)
STEP_ELASTIC = ElasticNetConfig(lam1=4.59e-4, lam2=4.64e-6)


def _instance_8x8():
    rng = np.random.default_rng(20240817)
    return rng.standard_normal((8, 8)), rng.standard_normal(8)


def test_soft_threshold_dead_zone():
    assert soft_threshold(0.5, 1.0) == 0.0


def test_soft_threshold_positive():
    assert soft_threshold(2.0, 1.0) == 1.0


def test_soft_threshold_negative():
    assert soft_threshold(-2.0, 0.5) == -1.5


def test_soft_threshold_rejects_negative_lambda():
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)


def test_identity_unregularized_returns_targets():
    y = np.array([0.3, -1.2, 2.0])
    res = fit(np.eye(3), y, ElasticNetConfig())
    np.testing.assert_allclose(res.beta, y, atol=1e-12)
    assert res.converged


def test_full_shrinkage_above_critical_lambda():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((10, 4))
    y = rng.standard_normal(10)
    lam_max = np.max(np.abs(W.T @ y))
    res = fit(W, y, ElasticNetConfig(lam1=lam_max * 1.0001))
    np.testing.assert_array_equal(res.beta, 0.0)
    assert res.active_set_size == 0


def test_frozen_oracle_instance():
    W, y = _instance_8x8()
    res = fit(W, y, ElasticNetConfig(lam1=0.3, lam2=0.2))
    assert abs(res.objective - ORACLE_8X8_OBJECTIVE) <= 1e-8


def test_objective_monotone_over_sweeps():
    rng = np.random.default_rng(2)
    W = rng.standard_normal((15, 12))
    y = rng.standard_normal(15)
    res = fit(W, y, ElasticNetConfig(lam1=0.05, lam2=0.01))
    hist = res.objective_history
    assert np.all(np.diff(hist) <= 1e-10 * np.maximum(1.0, np.abs(hist[:-1])))


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(50):
        m = int(rng.integers(1, 18))
        n = int(rng.integers(m + 3, 21))
        W = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        lam1 = float(rng.uniform(0, 1))
        lam2 = float(rng.uniform(0, 1))
        res = fit(W, y, ElasticNetConfig(lam1=lam1, lam2=lam2))
        beta_oracle = prox_gradient_elastic_net(W, y, lam1, lam2)
        obj_oracle = elastic_net_objective(W, y, beta_oracle, lam1, lam2)
        assert abs(res.objective - obj_oracle) <= 1e-8
        assert np.max(np.abs(res.beta - beta_oracle)) <= 1e-6


def test_lasso_proximal_point_path():
    # lam2 = 0 runs the Newton steps inside the proximal-point loop, which
    # the lam2 ~ U(0, 1) draws above never reach
    rng = np.random.default_rng(78)
    for _ in range(30):
        m = int(rng.integers(1, 18))
        n = int(rng.integers(m + 3, 21))
        W = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        lam1 = float(rng.uniform(0, 1))
        cfg = ElasticNetConfig(lam1=lam1)
        res = fit(W, y, cfg)
        assert res.converged
        assert duality_gap(W, y, res.beta, cfg) <= GAP_RTOL * res.objective
        beta_oracle = prox_gradient_elastic_net(W, y, lam1, 0.0)
        obj_oracle = elastic_net_objective(W, y, beta_oracle, lam1, 0.0)
        # the certificate allows an excess of GAP_RTOL; the oracle stops on
        # its own subgradient test, and beta is unique for n > m
        assert res.objective <= obj_oracle + GAP_RTOL * res.objective
        assert np.max(np.abs(res.beta - beta_oracle)) <= 1e-5
    # more columns than rows: no strong convexity, certificate only
    for _ in range(10):
        n = int(rng.integers(3, 20))
        m = int(rng.integers(n, 40))
        W = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        cfg = ElasticNetConfig(lam1=float(rng.uniform(0.01, 1)))
        res = fit(W, y, cfg)
        assert res.converged
        assert duality_gap(W, y, res.beta, cfg) <= GAP_RTOL * res.objective


def test_sparsity_nonincreasing_in_lam1():
    # active-set monotonicity in lam1 is typical rather than guaranteed
    # (strongly correlated designs can re-activate coordinates), so the
    # check runs on fixed well-conditioned draws
    rng = np.random.default_rng(12)
    for _ in range(5):
        W = rng.standard_normal((18, 8))
        y = rng.standard_normal(18)
        sizes = [
            fit(W, y, ElasticNetConfig(lam1=lam1, lam2=0.1)).active_set_size
            for lam1 in (0.0, 0.25, 0.5, 1.0, 2.0)
        ]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_kkt_conditions_at_solution():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(m, 20))
        W = rng.standard_normal((n, m))
        y = rng.standard_normal(n)
        lam1, lam2 = float(rng.uniform(0.01, 0.5)), float(rng.uniform(0, 0.5))
        beta = fit(W, y, ElasticNetConfig(lam1=lam1, lam2=lam2)).beta
        grad = W.T @ (W @ beta - y)
        for g, b in zip(grad, beta):
            if b == 0.0:
                assert abs(g) <= lam1 + 1e-6
            else:
                assert abs(g + lam1 * np.sign(b) + lam2 * b) <= 1e-6


def test_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(8)
    W = rng.standard_normal((12, 6))
    y = rng.standard_normal(12)
    cfg = ElasticNetConfig(lam1=0.1, lam2=0.05)
    cold = fit(W, y, cfg)
    warm = fit(W, y, cfg, beta0=cold.beta)
    np.testing.assert_allclose(warm.beta, cold.beta, atol=1e-9)
    assert warm.iterations <= cold.iterations


def test_fit_errors():
    with pytest.raises(ValueError):
        fit(np.array([[1.0, np.nan]]), np.array([1.0]), ElasticNetConfig())
    with pytest.raises(ValueError):
        fit(np.eye(3), np.ones(2), ElasticNetConfig())
    with pytest.raises(ValueError):
        ElasticNetConfig(lam1=-1.0)


def test_nonconvergence_is_flagged_not_fatal():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((10, 5))
    y = rng.standard_normal(10)
    # the lasso's proximal-point loop and the plain Elastic Net path
    for lam2 in (0.0, 0.01):
        res = fit(W, y, ElasticNetConfig(lam1=0.01, lam2=lam2, max_iters=1))
        assert not res.converged
        assert res.iterations == 1


def test_fit_log_field_constant_e_single_basis():
    # Shepard with one basis is a column of ones; log(e) = 1 everywhere
    W = np.ones((5, 1))
    values = np.full(5, np.e)
    res = fit_log_field(values, W, ElasticNetConfig())
    np.testing.assert_allclose(res.beta, [1.0], atol=1e-12)
    np.testing.assert_allclose(np.exp(W @ res.beta), np.e)


def test_fit_log_field_rejects_nonpositive_with_index():
    W = np.ones((3, 1))
    with pytest.raises(ValueError, match="cell 1"):
        fit_log_field(np.array([1.0, 0.0, 2.0]), W, ElasticNetConfig())


def test_fit_log_field_two_value_targets():
    W = np.eye(2)
    res = fit_log_field(np.array([1e-4, 1e-1]), W, ElasticNetConfig())
    np.testing.assert_allclose(res.beta, [-4 * np.log(10), -np.log(10)], atol=1e-10)


def test_objective_value_matches_history():
    rng = np.random.default_rng(21)
    W = rng.standard_normal((9, 4))
    y = rng.standard_normal(9)
    cfg = ElasticNetConfig(lam1=0.2, lam2=0.3)
    res = fit(W, y, cfg)
    assert objective_value(W, y, res.beta, cfg) == pytest.approx(res.objective, rel=1e-12)


def test_enriched_step_design_is_certified():
    # round 1 of the adaptive 1D step run: the three enriched columns are
    # almost collinear with their parent, so the Gram matrix is singular to
    # working precision
    sub = step_field_1d(16).whole()
    d0 = centroid_dictionary(sub.centroids, 0.0019)
    cfg = ElasticNetConfig(lam1=4.59e-4, lam2=4.64e-6)
    first = fit_log_field(sub.values, shepard_features(sub.centroids, d0), cfg)
    surrogate = LocalSurrogate(dictionary=d0, beta=first.beta, log_transform=True)
    marked = mark(residual_indicators(surrogate.evaluate(sub.centroids), sub), 1)
    centers, widths = enrich(d0, marked, sub, eta=0.5, offsets=adaptive.DEFAULT_OFFSETS_1D)
    d1 = d0.extended(centers, widths, generation=1)
    assert len(d1) == 19

    W = shepard_features(sub.centroids, d1)
    y = np.log(sub.values)
    res = fit_log_field(sub.values, W, cfg, beta0=np.concatenate([first.beta, np.zeros(3)]))
    assert res.converged
    assert res.iterations <= 20_000
    hist = res.objective_history
    assert res.objective == hist[-1] and hist[-1] <= hist[-2]

    # the Gram matrix is singular to working precision, and the certified
    # fit must be at least as good as the oracle's on it
    beta_oracle = prox_gradient_elastic_net(W, y, cfg.lam1, cfg.lam2)
    assert res.objective <= elastic_net_objective(W, y, beta_oracle, cfg.lam1, cfg.lam2) + 1e-10

    grad = W.T @ (W @ res.beta - y)
    for g, b in zip(grad, res.beta):
        if b == 0.0:
            assert abs(g) <= cfg.lam1 + 1e-10
        else:
            assert abs(g + cfg.lam1 * np.sign(b) + cfg.lam2 * b) <= 1e-10


def test_duality_gap_bounds_suboptimality():
    import fieldfit.elastic_net as en

    W, y = _instance_8x8()
    for lam1, lam2 in ((0.3, 0.2), (0.3, 0.0), (0.0, 0.2)):
        cfg = ElasticNetConfig(lam1=lam1, lam2=lam2)
        beta = prox_gradient_elastic_net(W, y, lam1, lam2)
        p_star = elastic_net_objective(W, y, beta, lam1, lam2)
        assert -1e-12 <= en.duality_gap(W, y, beta, cfg) <= 1e-6
        # weak duality: the gap never understates the excess objective
        for b in (np.zeros(8), beta + 0.01):
            excess = elastic_net_objective(W, y, b, lam1, lam2) - p_star
            assert en.duality_gap(W, y, b, cfg) >= excess - 1e-12 > 0
    assert en.duality_gap(W, y, np.zeros(8), ElasticNetConfig()) == np.inf


def _kkt_violation(W, y, beta, lam1, lam2):
    grad = W.T @ (W @ beta - y)
    return float(np.max(np.where(
        beta != 0.0,
        np.abs(grad + lam1 * np.sign(beta) + lam2 * beta),
        np.maximum(np.abs(grad) - lam1, 0.0),
    )))


def test_box_round0_design_is_certified():
    # the 1x1 round-0 design of the box experiment: one centroid basis per
    # cell, 1024 x 1024, certified within the 4000-iteration cap
    sub = box_field_2d().whole()
    W = shepard_features(sub.centroids, centroid_dictionary(sub.centroids, 0.031))
    y = np.log(sub.values)
    res = fit(W, y, BOX_ELASTIC)
    assert res.converged
    assert duality_gap(W, y, res.beta, BOX_ELASTIC) <= 1e-12 * res.objective
    assert _kkt_violation(W, y, res.beta, BOX_ELASTIC.lam1, BOX_ELASTIC.lam2) <= 1e-10
    hist = res.objective_history
    assert len(hist) == res.iterations and np.all(np.diff(hist) <= 0.0)


def test_collinear_least_squares_is_certified_and_exact():
    # a constant field on one 4 x 4 subdomain of an 8 x 8 mesh with wide,
    # strongly overlapping kernels: plain least squares on a nearly
    # singular 16 x 16 design
    mesh = build_mesh(2, (8, 8), ((0, 1), (0, 1)))
    field = FieldData(mesh=mesh, values=np.full(64, 3.7))
    sub = make_partition(mesh, 2, 2).subdomain_fields(field)[0]
    d = centroid_dictionary(sub.centroids, 0.13)
    W = shepard_features(sub.centroids, d)
    assert W.shape == (16, 16)
    res = fit_log_field(sub.values, W, ElasticNetConfig())
    assert res.converged and res.iterations == 1
    surrogate = LocalSurrogate(dictionary=d, beta=res.beta, log_transform=True)
    pts = np.random.default_rng(5).uniform(0.0, 0.5, (200, 2))
    np.testing.assert_allclose(surrogate.evaluate(pts), 3.7, rtol=1e-12)


def _box16_design(index):
    data = box_field_2d(16, 16)
    sub = make_partition(data.mesh, 2, 2).subdomain_fields(data)[index]
    return shepard_features(sub.centroids, centroid_dictionary(sub.centroids, 0.13)), np.log(sub.values)


@pytest.mark.parametrize("index", [0, 3])
def test_ill_conditioned_least_squares_is_certified(index):
    # condition number 2e10; subdomain 3 is constant and fits exactly
    W, y = _box16_design(index)
    assert np.linalg.cond(W) > 1e10
    assert fit(W, y, ElasticNetConfig()).converged


def test_truncated_least_squares_is_not_certified(monkeypatch):
    W, y = _box16_design(0)
    exact = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: exact(a, b, rcond=1e-6))
    res = fit(W, y, ElasticNetConfig())
    assert res.iterations == 1 and not res.converged


def _recorded_fits(monkeypatch, sub, initial, cfg):
    """(W, log-values, result) of every fit the adaptive loop makes."""
    fits = []

    def recording(values, W, config, beta0=None):
        res = fit_log_field(values, W, config, beta0=beta0)
        fits.append((W, np.log(values), res))
        return res

    monkeypatch.setattr(adaptive, "fit_log_field", recording)
    fit_adaptive(sub, initial, cfg)
    return fits


def test_adaptive_designs_certified_in_few_newton_steps(monkeypatch):
    # the 12 designs of the 2x2 box benchmark (rounds 0-2 per subdomain) and
    # the rounds of the adaptive 1D step run; proximal gradient needed 260
    # to 3,510 iterations on them
    box = box_field_2d()
    box_cfg = AdaptiveConfig(
        k_top=51, m_q=3, eta=0.5, m_max=306, max_rounds=3, elastic=BOX_ELASTIC,
        offsets=((0.0, 0.0), (-0.25, 0.0), (0.25, 0.0)),
    )
    runs = []
    for sub in make_partition(box.mesh, 2, 2).subdomain_fields(box):
        fits = _recorded_fits(monkeypatch, sub, centroid_dictionary(sub.centroids, 0.031), box_cfg)
        assert [W.shape for W, _, _ in fits] == [(256, 256), (256, 409), (256, 562)]
        runs += [(fit_, BOX_ELASTIC) for fit_ in fits]
    step = step_field_1d(16).whole()
    step_cfg = AdaptiveConfig(k_top=1, m_max=6, eta=0.5, m_q=3, max_rounds=10, elastic=STEP_ELASTIC)
    fits = _recorded_fits(monkeypatch, step, centroid_dictionary(step.centroids, 0.0019), step_cfg)
    assert [W.shape for W, _, _ in fits] == [(16, 16), (16, 19), (16, 22)]
    runs += [(fit_, STEP_ELASTIC) for fit_ in fits]

    for (W, y, res), cfg in runs:
        assert res.converged and 1 <= res.iterations <= 25
        assert duality_gap(W, y, res.beta, cfg) <= GAP_RTOL * res.objective
