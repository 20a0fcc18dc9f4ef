"""Tests of the benchmark's reference checks: each accepts a right answer and
rejects a wrong one.

    python3 -m pytest bench/test_reference.py -q
"""

import numpy as np
import pytest

import reference
from reference import EVAL_RTOL, KKT_TOL


def _dictionary(rng, m, dim):
    return rng.uniform(0.0, 1.0, (m, dim)), rng.uniform(0.05, 0.2, m)


def test_shepard_direct_matches_hand_formula():
    centers = np.array([[0.0], [1.0]])
    widths = np.array([0.5, 0.25])
    beta = np.array([2.0, -1.0])
    x = np.array([[0.3], [0.9]])
    g0 = np.exp(-x[:, 0] ** 2 / (2 * 0.5**2))
    g1 = np.exp(-(x[:, 0] - 1.0) ** 2 / (2 * 0.25**2))
    expected = (2.0 * g0 - 1.0 * g1) / (g0 + g1)
    np.testing.assert_allclose(reference.shepard_direct(x, centers, widths, beta), expected, rtol=1e-14)


def test_shepard_direct_survives_underflow():
    # every unshifted Gaussian underflows at x = 50; the blend is still beta of the nearer one
    centers = np.array([[0.0], [1.0]])
    widths = np.array([0.01, 0.01])
    out = reference.shepard_direct(np.array([[50.0]]), centers, widths, np.array([3.0, 7.0]))
    assert out[0] == pytest.approx(7.0)


def test_shepard_direct_rejects_perturbed_value():
    rng = np.random.default_rng(0)
    centers, widths = _dictionary(rng, 30, 2)
    beta = rng.normal(size=30)
    pts = rng.uniform(0.0, 1.0, (200, 2))
    W = reference.shepard_design(pts, centers, widths)
    values = W @ beta
    ref = reference.shepard_direct(pts, centers, widths, beta)
    assert np.max(np.abs(values - ref) / np.abs(ref)) <= EVAL_RTOL
    values[17] *= 1 + 1e-8
    assert np.max(np.abs(values - ref) / np.abs(ref)) > EVAL_RTOL


def test_shepard_design_rows_sum_to_one():
    rng = np.random.default_rng(1)
    centers, widths = _dictionary(rng, 12, 2)
    W = reference.shepard_design(rng.uniform(0.0, 1.0, (50, 2)), centers, widths)
    np.testing.assert_allclose(W.sum(axis=1), 1.0, rtol=1e-14)
    assert np.all(W >= 0)


def _orthonormal_problem(rng, n, m, lam1, lam2):
    """W with orthonormal columns, where the Elastic Net minimizer is closed-form."""
    W, _ = np.linalg.qr(rng.normal(size=(n, m)))
    y = rng.normal(size=n)
    z = W.T @ y
    beta = np.sign(z) * np.maximum(np.abs(z) - lam1, 0.0) / (1.0 + lam2)
    return W, y, beta


def test_kkt_accepts_exact_minimizer_and_rejects_perturbed_beta():
    rng = np.random.default_rng(2)
    lam1, lam2 = 0.3, 0.1
    W, y, beta = _orthonormal_problem(rng, 40, 12, lam1, lam2)
    assert np.any(beta == 0) and np.any(beta != 0)
    assert reference.kkt_violation(W, y, beta, lam1, lam2) <= KKT_TOL

    moved = beta.copy()
    j = int(np.flatnonzero(beta)[0])
    moved[j] += 1e-6
    assert reference.kkt_violation(W, y, moved, lam1, lam2) > KKT_TOL

    woken = beta.copy()
    woken[int(np.flatnonzero(beta == 0)[0])] = 1e-6
    assert reference.kkt_violation(W, y, woken, lam1, lam2) > KKT_TOL


def test_duality_gap_vanishes_only_at_the_minimizer():
    rng = np.random.default_rng(3)
    for lam1, lam2 in ((0.3, 0.1), (0.3, 0.0), (0.0, 0.1)):
        W, y, beta = _orthonormal_problem(rng, 40, 12, lam1, lam2)
        assert abs(reference.rel_duality_gap(W, y, beta, lam1, lam2)) <= 1e-12
        moved = beta + 1e-3
        assert reference.rel_duality_gap(W, y, moved, lam1, lam2) > 1e-8


def test_duality_gap_refuses_plain_least_squares():
    with pytest.raises(ValueError):
        reference.rel_duality_gap(np.eye(2), np.ones(2), np.ones(2), 0.0, 0.0)
