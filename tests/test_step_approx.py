import os
import subprocess
import sys

import numpy as np
import pytest

import fieldfit
from fieldfit.step_approx import (
    StepInterfaceSpec,
    error_grid,
    heaviside,
    l1_error,
    logistic_profile,
    two_center_shepard,
)

E1 = np.array([1.0, 0.0])


def test_spec_validation():
    with pytest.raises(ValueError, match="unit"):
        StepInterfaceSpec(v=np.array([1.0, 1.0]), b=0.0, c=1.0, sigma=0.1)
    with pytest.raises(ValueError, match="c \\+ b"):
        StepInterfaceSpec(v=E1, b=-2.0, c=1.0, sigma=0.1)
    with pytest.raises(ValueError, match="sigma"):
        StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=0.0)


def test_gamma_reduces_to_minus_one_for_centered_interface():
    spec = StepInterfaceSpec(v=E1, b=0.0, c=0.7, sigma=0.1)
    assert spec.gamma == -1.0
    np.testing.assert_allclose(spec.gamma * spec.c * spec.v, [-0.7, 0.0])


def test_heaviside_half_maximum():
    np.testing.assert_array_equal(heaviside([-1.0, 0.0, 2.0]), [0.0, 0.5, 1.0])


def test_logistic_profile_at_zero():
    spec = StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=1.0)
    assert logistic_profile(spec, 0.0) == 0.5


def test_logistic_profile_limits():
    spec = StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=0.3)
    assert logistic_profile(spec, 50.0) == pytest.approx(1.0, abs=1e-12)
    assert logistic_profile(spec, -50.0) == pytest.approx(0.0, abs=1e-12)


def test_logistic_profile_analytic_point():
    spec = StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=1.0)
    assert logistic_profile(spec, 1.0) == pytest.approx(1 / (1 + np.exp(-2)), rel=1e-14)


def test_two_center_on_interface_gives_half():
    spec = StepInterfaceSpec(v=np.array([0.6, 0.8]), b=0.25, c=1.3, sigma=0.2)
    rng = np.random.default_rng(0)
    # points on the hyperplane <v, x> + b = 0
    t = rng.uniform(-2, 2, 50)
    base = -spec.b * spec.v
    tang = np.array([-spec.v[1], spec.v[0]])
    pts = base[None, :] + t[:, None] * tang[None, :]
    np.testing.assert_allclose(two_center_shepard(spec, pts), 0.5, atol=1e-12)


def test_two_center_matches_logistic_everywhere():
    rng = np.random.default_rng(42)
    for _ in range(20):
        theta = rng.uniform(0, 2 * np.pi)
        v = np.array([np.cos(theta), np.sin(theta)])
        c = rng.uniform(0.3, 2.0)
        b = rng.uniform(-0.2, 0.5)
        if c + b <= 0.05:
            b = 0.1 - c + 0.2
        sigma = rng.uniform(0.05, 1.0)
        spec = StepInterfaceSpec(v=v, b=b, c=c, sigma=sigma)
        pts = rng.uniform(-2, 2, (1000, 2))
        y = pts @ v + b
        np.testing.assert_allclose(
            two_center_shepard(spec, pts), logistic_profile(spec, y), atol=1e-12
        )


def test_two_center_one_dimensional_points():
    # with a 1-vector normal a flat array is N points on the line, not one point
    spec = StepInterfaceSpec(v=np.array([1.0]), b=0.0, c=1.0, sigma=0.5)
    x = np.array([-0.5, 0.0, 0.5])
    values = two_center_shepard(spec, x)
    assert values.shape == (3,)
    np.testing.assert_allclose(values, logistic_profile(spec, x), atol=1e-15)
    np.testing.assert_array_equal(values, two_center_shepard(spec, x[:, None]))


def test_l1_error_unit_case():
    spec = StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=1.0)
    res = l1_error(spec)
    assert res.analytic == pytest.approx(np.log(2.0), rel=1e-15)
    assert res.numeric == pytest.approx(np.log(2.0), rel=1e-9)


def test_l1_error_vanishes_with_width():
    errs = [
        l1_error(StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=s)).numeric
        for s in (0.2, 0.1, 0.05)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-3


def test_l1_error_grid_matches_analytic():
    for c, sigma, b, numeric, analytic, rel in error_grid((0.5, 1, 2), (0.05, 0.1, 0.2)):
        assert rel <= 1e-6
        assert analytic == pytest.approx(np.log(2) * sigma**2 / c, rel=1e-15)


def test_l1_error_scaling_law():
    base = l1_error(StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=0.1)).numeric
    doubled = l1_error(StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=0.2)).numeric
    assert doubled / base == pytest.approx(4.0, rel=1e-6)


def test_l1_error_halves_symmetric():
    res = l1_error(StepInterfaceSpec(v=E1, b=0.3, c=0.9, sigma=0.15))
    assert res.lower_half == pytest.approx(res.upper_half, rel=1e-8)
    assert res.lower_half + res.upper_half == pytest.approx(res.numeric, rel=1e-15)


def test_rate_without_finite_truncation_is_rejected():
    # rate 2e-300: the tail bound would hold only outside an interval wider than any float
    with pytest.raises(ValueError, match="no finite truncation"):
        StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=1e150)
    spec = StepInterfaceSpec(v=E1, b=0.0, c=1.0, sigma=1e100)
    assert np.isfinite(spec.truncation)


def test_import_leaves_slow_scipy_modules_unloaded():
    # each is slow to import: only l1_error needs scipy.integrate, only
    # logistic_profile scipy.special, and nothing scipy.spatial
    src = os.path.dirname(os.path.dirname(fieldfit.__file__))
    code = (
        "import sys, fieldfit.cli; "
        "print(*(m in sys.modules for m in ('scipy.integrate', 'scipy.special', 'scipy.spatial')))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "False"]
