import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldfit import rbf
from fieldfit.geometry import Box, build_mesh
from fieldfit.partition import GlobalSurrogate, make_partition
from fieldfit.rbf import (
    _EVAL_BLOCK_BYTES,
    LocalSurrogate,
    RbfDictionary,
    centroid_dictionary,
    lattice_dictionary,
    shepard_eval,
    shepard_features,
)
from oracles import shepard_direct

# the three-basis configuration used for the normalization illustrations
EXAMPLE3 = RbfDictionary(
    centers=np.array([[0.3, 0.3], [0.7, 0.4], [0.5, 0.75]]),
    widths=np.array([0.10, 0.15, 0.07]),
)


def _raw(points, dictionary):
    """Unnormalized Gaussian values phi_m(x_j)."""
    return np.exp(dictionary.log_features(points))


def _single(sigma, center):
    return RbfDictionary(centers=np.atleast_2d(center), widths=np.array([sigma]))


def test_gaussian_at_center():
    assert _raw([[0.2, 0.4]], _single(0.1, [0.2, 0.4]))[0, 0] == 1.0


def test_gaussian_at_one_and_two_sigma():
    d = _single(0.1, [0.0])
    assert _raw([[0.1]], d)[0, 0] == pytest.approx(np.exp(-0.5), rel=1e-14)
    assert _raw([[0.2]], d)[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-14)


def test_gaussian_rejects_bad_width():
    with pytest.raises(ValueError):
        _single(0.0, [0.0])


def test_single_point_at_center_gives_one():
    d = RbfDictionary(centers=np.array([[0.5]]), widths=np.array([0.2]))
    values = _raw(np.array([[0.5]]), d)
    assert values.shape == (1, 1)
    assert values[0, 0] == 1.0


def test_point_on_center_column_is_one():
    values = _raw(np.array([[0.3, 0.3]]), EXAMPLE3)
    assert values[0, 0] == 1.0
    assert np.all(values[0, 1:] < 1.0)


def test_raw_entries_in_unit_interval():
    rng = np.random.default_rng(3)
    pts = rng.random((40, 2))
    values = _raw(pts, EXAMPLE3)
    assert np.all(values > 0)
    assert np.all(values <= 1)


def test_normalize_single_column():
    d = RbfDictionary(centers=np.array([[0.2]]), widths=np.array([0.05]))
    w = shepard_features(np.linspace(0, 1, 9)[:, None], d)
    np.testing.assert_allclose(w, 1.0)


def test_normalize_symmetric_row():
    d = RbfDictionary(centers=np.array([[0.25], [0.75]]), widths=np.array([0.2, 0.2]))
    w = shepard_features(np.array([[0.5]]), d)
    np.testing.assert_allclose(w, [[0.5, 0.5]])


def test_normalize_rows_sum_to_one():
    rng = np.random.default_rng(11)
    pts = rng.random((50, 2))
    w = shepard_features(pts, EXAMPLE3)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w >= 0)
    assert np.all(w <= 1)


def test_normalize_survives_underflow_with_exponents():
    # probe so far from both narrow kernels that raw values underflow to 0
    d = RbfDictionary(centers=np.array([[0.0], [0.1]]), widths=np.array([0.001, 0.001]))
    assert np.all(_raw(np.array([[50.0]]), d) == 0.0)
    w = shepard_features(np.array([[50.0]]), d)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_shepard_eval_constant_coefficients():
    rng = np.random.default_rng(5)
    pts = rng.random((30, 2))
    vals = shepard_eval(pts, EXAMPLE3, np.full(3, 4.2))
    np.testing.assert_allclose(vals, 4.2, atol=1e-12)


def test_shepard_eval_single_basis():
    d = RbfDictionary(centers=np.array([[0.3]]), widths=np.array([0.1]))
    vals = shepard_eval(np.linspace(0, 1, 7)[:, None], d, [2.5])
    np.testing.assert_allclose(vals, 2.5)


def test_shepard_eval_bounded_by_coefficients():
    beta = np.array([3.0, -1.0, 0.5])
    xs = np.linspace(0, 1, 100)
    grid = np.array([[x, y] for x in xs for y in xs])
    vals = shepard_eval(grid, EXAMPLE3, beta)
    assert np.all(vals >= beta.min() - 1e-12)
    assert np.all(vals <= beta.max() + 1e-12)


def test_shepard_eval_length_mismatch():
    with pytest.raises(ValueError):
        shepard_eval(np.array([[0.5, 0.5]]), EXAMPLE3, [1.0, 2.0])


def test_shepard_eval_row_blocks_match_halves_and_direct_sum():
    rng = np.random.default_rng(11)
    m = 300
    d = RbfDictionary(centers=rng.random((m, 2)), widths=rng.uniform(0.03, 0.1, m))
    beta = rng.standard_normal(m)
    rows = _EVAL_BLOCK_BYTES // (8 * m)
    # two full blocks and a partial third; the first half is one block
    pts = rng.random((2 * rows + 7, 2))
    whole = shepard_eval(pts, d, beta)
    halves = np.concatenate([shepard_eval(pts[:rows], d, beta), shepard_eval(pts[rows:], d, beta)])
    np.testing.assert_array_equal(whole, halves)
    np.testing.assert_allclose(whole, shepard_direct(pts, d.centers, d.widths, beta), rtol=0, atol=1e-13)


def _mixed_width_dictionary(rng, m, dim, lo=0.0, hi=1.0):
    """m random centres in [lo, hi]^dim with widths over two decades."""
    return RbfDictionary(
        centers=lo + (hi - lo) * rng.random((m, dim)),
        widths=(hi - lo) * 10.0 ** rng.uniform(-3.0, -1.0, m),
    )


def _blocks(points, d):
    """GEMM row blocks of shepard_eval on this batch over dictionary d."""
    rows = rbf._block_rows(rbf._AxisTables(d, np.zeros(len(d))))
    return -(-len(points) // rows)


@pytest.mark.parametrize("dim, m, n", [(1, 250, 6000), (2, 600, 20000)])
def test_shepard_eval_is_pointwise(dim, m, n):
    rng = np.random.default_rng(17 + dim)
    d = _mixed_width_dictionary(rng, m, dim)
    beta = rng.standard_normal(m)
    pts = rng.uniform(-0.2, 1.2, (n, dim))
    assert _blocks(pts, d) >= 2
    batch = shepard_eval(pts, d, beta)
    for j in rng.choice(n, 60, replace=False):
        np.testing.assert_array_equal(shepard_eval(pts[j : j + 1], d, beta), batch[j : j + 1])
    np.testing.assert_array_equal(shepard_eval(pts[::-1], d, beta), batch[::-1])


def test_global_surrogate_evaluate_is_pointwise():
    rng = np.random.default_rng(23)
    part = make_partition(build_mesh(2, (8, 8), ((0.0, 1.0), (0.0, 1.0))), 2, 2)
    locals_ = tuple(
        LocalSurrogate(
            dictionary=_mixed_width_dictionary(rng, 300, 2, box.lo[0], box.hi[0]).extended(
                box.lo[0] + 0.5 * rng.random((100, 2)), np.full(100, 0.01), generation=1
            ),
            beta=rng.standard_normal(400),
        )
        for box in part.boxes
    )
    sur = GlobalSurrogate(partition=part, locals=locals_)
    pts = rng.random((20000, 2))
    batch = sur.evaluate(pts)
    for j in rng.choice(pts.shape[0], 60, replace=False):
        np.testing.assert_array_equal(sur.evaluate(pts[j]), batch[j : j + 1])


def _assert_pointwise(pts, d, beta, rng, probes=60):
    batch = shepard_eval(pts, d, beta)
    for j in rng.choice(pts.shape[0], min(probes, pts.shape[0]), replace=False):
        np.testing.assert_array_equal(shepard_eval(pts[j : j + 1], d, beta), batch[j : j + 1])
    np.testing.assert_array_equal(shepard_eval(pts[::-1], d, beta), batch[::-1])
    return batch


def test_unattained_shift_bound_is_finished_exactly():
    # the nearest x-key and the nearest y-key near (0, 0) and (1, 1) belong
    # to different centres, so the per-axis bound of the row maximum is
    # 5000 above it and every factored weight underflows
    d = RbfDictionary(centers=np.array([[0.0, 1.0], [1.0, 0.0]]), widths=np.array([0.01, 0.01]))
    beta = np.array([2.0, -3.0])
    rng = np.random.default_rng(29)
    pts = np.vstack([0.02 * rng.random((40, 2)), 1.0 - 0.02 * rng.random((40, 2))])
    got = _assert_pointwise(pts, d, beta, rng)
    assert np.all(np.isfinite(got))
    assert np.all(got >= beta.min()) and np.all(got <= beta.max())
    # both centres' exponents are near -5000, whose rounding (9e-13) moves
    # the ratio of two comparable weights, and so the blend, by about as much
    # in any summation, direct or not
    atol = np.spacing(np.abs(d.log_features(pts)).max()) * np.ptp(beta)
    np.testing.assert_allclose(got, shepard_direct(pts, d.centers, d.widths, beta), rtol=0, atol=atol)


def test_exact_rows_in_early_blocks_leave_later_blocks_whole():
    # every point near (0, 0) is finished exactly, in each of three blocks
    d = RbfDictionary(centers=np.array([[0.0, 1.0], [1.0, 0.0]]), widths=np.array([0.01, 0.01]))
    beta = np.array([2.0, -3.0])
    rows = rbf._block_rows(rbf._AxisTables(d, beta))
    rng = np.random.default_rng(47)
    pts = 0.02 * rng.random((2 * rows + 5, 2))
    assert _blocks(pts, d) == 3
    got = _assert_pointwise(pts, d, beta, rng)
    singles = [shepard_eval(pts[s : s + rows], d, beta) for s in range(0, pts.shape[0], rows)]
    np.testing.assert_array_equal(got, np.concatenate(singles))


def test_mixed_width_1d_matches_direct_sum():
    # shared coordinates with other widths, and one centre twice
    rng = np.random.default_rng(31)
    xs = np.concatenate([np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 11), [0.5, 0.5]])
    widths = np.concatenate([np.full(21, 0.05), np.full(11, 0.01), [0.002, 0.002]])
    d = RbfDictionary(centers=xs[:, None], widths=widths)
    beta = rng.standard_normal(len(d))
    pts = rng.uniform(-0.3, 1.3, (3000, 1))
    got = _assert_pointwise(pts, d, beta, rng)
    np.testing.assert_allclose(got, shepard_direct(pts, d.centers, d.widths, beta), rtol=0, atol=1e-13)


def test_lattice_eval_is_pointwise_across_gemm_blocks():
    box = Box(lo=(0.0, 0.0), hi=(0.5, 0.5), open_hi=(False, False))
    d = lattice_dictionary(box, 16, 0.031).extended(
        [[0.11, 0.2], [0.13, 0.2], [0.11, 0.3]], [0.0155] * 3, generation=1
    )
    rng = np.random.default_rng(37)
    beta = rng.standard_normal(len(d))
    pts = np.vstack([0.016 + 0.12 * rng.random((4 * rbf._GEMM_ROWS, 2)), rng.random((500, 2)) * 0.5])
    assert _blocks(pts, d) >= 3
    got = _assert_pointwise(pts, d, beta, rng)
    np.testing.assert_allclose(got, shepard_direct(pts, d.centers, d.widths, beta), rtol=0, atol=1e-13)


def test_small_1d_dictionary_is_pointwise_across_large_blocks():
    # 16 cells' centroids and six narrower centres, about the step1d
    # surrogate: 22 x-keys, so its blocks are far larger than the floor
    xs = np.concatenate([(np.arange(16) + 0.5) / 512, [0.0151, 0.0154, 0.0156, 0.0158, 0.0161, 0.03]])
    widths = np.concatenate([np.full(16, 0.0019), np.full(6, 0.00095)])
    d = RbfDictionary(centers=xs[:, None], widths=widths)
    rng = np.random.default_rng(43)
    beta = rng.standard_normal(len(d))
    rows = rbf._block_rows(rbf._AxisTables(d, beta))
    assert rows > rbf._GEMM_ROWS
    pts = rng.uniform(-0.005, 0.036, (3 * rows + 77, 1))
    assert _blocks(pts, d) == 4
    got = _assert_pointwise(pts, d, beta, rng)
    np.testing.assert_allclose(got, shepard_direct(pts, d.centers, d.widths, beta), rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "kx, ky, rows",
    [
        (22, 1, 4096),  # step1d: 22 (coordinate, width) keys and the 1D y-key 0
        (16, 16, 2048),  # one mesh-transfer subdomain
        (224, 99, 512),  # the whole-domain case-adaptive surrogate: the floor
    ],
)
def test_block_rows_follow_the_tables(kx, ky, rows):
    x = np.linspace(0.0, 1.0, kx)
    centers = x[:, None] if ky == 1 else np.column_stack([x, np.arange(kx) % ky / ky])
    tables = rbf._AxisTables(RbfDictionary(centers=centers, widths=0.05), np.zeros(kx))
    assert (tables.xk.shape[0], tables.yk.shape[0]) == (kx, ky)
    assert rbf._block_rows(tables) == rows


def test_narrow_widths_cost_whole_blocks(monkeypatch):
    # sigma = 0.002 cells, about the SPE10 preset's ratio of width to cell
    xs = np.arange(20) + 0.5
    centroids = np.array([[x, y] for x in xs for y in xs])
    d = centroid_dictionary(centroids, 0.002)
    beta = np.random.default_rng(41).standard_normal(len(d))
    pts = np.vstack([centroids, centroids + [0.3, 0.0]])
    calls = []
    blend = rbf._blend_block

    def counted(*args):
        calls.append(1)
        return blend(*args)

    monkeypatch.setattr(rbf, "_blend_block", counted)
    got = shepard_eval(pts, d, beta)
    assert len(calls) <= _blocks(pts, d)
    np.testing.assert_allclose(got, shepard_direct(pts, d.centers, d.widths, beta), rtol=0, atol=1e-13)


@st.composite
def dictionaries(draw):
    """Random dictionaries: 1-400 centres, dim 1 or 2, widths over 2 decades."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, dim = draw(st.integers(1, 400)), draw(st.sampled_from([1, 2]))
    scale = 10.0 ** draw(st.floats(-3.0, 1.0))
    sigma_min = scale * 10.0 ** draw(st.floats(-3.0, -1.0))
    d = RbfDictionary(
        centers=scale * rng.random((m, dim)) + draw(st.floats(-10.0, 10.0)),
        widths=sigma_min * 10.0 ** rng.uniform(0.0, 2.0, m),
    )
    return d, rng.standard_normal(m), rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dictionaries())
def test_pruned_eval_matches_direct_sum(case):
    d, beta, rng = case
    grow = 10.0 * d.widths.max()
    lo, hi = d.centers.min(axis=0) - grow, d.centers.max(axis=0) + grow
    pts = lo + (hi - lo) * rng.random((500, d.dim))
    got = shepard_eval(pts, d, beta)
    np.testing.assert_allclose(got, shepard_direct(pts, d.centers, d.widths, beta), rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dictionaries())
def test_pruned_eval_far_away_stays_bounded(case):
    d, beta, rng = case
    # 40 widths beyond the centres' box every raw Gaussian underflows
    reach = 40.0 * d.widths.max() + (d.centers.max(axis=0) - d.centers.min(axis=0)).max()
    direction = rng.standard_normal((200, d.dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = d.centers.mean(axis=0) + direction * reach * 10.0 ** rng.uniform(0.0, 3.0, (200, 1))
    assert np.all(_raw(pts, d) == 0.0)
    got = shepard_eval(pts, d, beta)
    slack = 1e-14 * np.abs(beta).max()
    assert np.all(np.isfinite(got))
    assert np.all(got >= beta.min() - slack) and np.all(got <= beta.max() + slack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shepard_eval_rejects_non_finite_points(bad):
    pts = np.array([[0.5, 0.5], [0.2, bad]])
    with pytest.raises(FloatingPointError):
        shepard_eval(pts, EXAMPLE3, [1.0, 2.0, 3.0])


def test_shepard_eval_empty_batch():
    out = shepard_eval(np.empty((0, 2)), EXAMPLE3, [1.0, 2.0, 3.0])
    assert out.shape == (0,)


def test_partition_of_unity_random_dictionaries():
    rng = np.random.default_rng(42)
    for _ in range(5):
        m = rng.integers(2, 51)
        d = RbfDictionary(
            centers=rng.random((m, 2)),
            widths=rng.uniform(0.01, 0.3, m),
        )
        pts = rng.random((1000, 2))
        w = shepard_features(pts, d)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-10)


def test_shift_covariance():
    rng = np.random.default_rng(9)
    pts = rng.random((20, 2))
    shift = np.array([0.37, -0.81])
    base = _raw(pts, EXAMPLE3)
    shifted_dict = RbfDictionary(centers=EXAMPLE3.centers + shift, widths=EXAMPLE3.widths)
    shifted = _raw(pts + shift, shifted_dict)
    np.testing.assert_allclose(shifted, base, atol=1e-14)


def test_dictionary_append_preserves_order():
    d = centroid_dictionary(np.array([[0.1], [0.9]]), 0.2)
    d2 = d.extended(np.array([[0.5]]), np.array([0.05]), generation=1)
    assert len(d2) == 3
    np.testing.assert_array_equal(d2.centers[:2], d.centers)
    np.testing.assert_array_equal(d2.generations, [0, 0, 1])


def test_dictionary_rejects_bad_width():
    with pytest.raises(ValueError, match="entry 1"):
        RbfDictionary(centers=np.array([[0.0], [1.0]]), widths=np.array([0.1, -0.1]))


def test_lattice_dictionary_positions():
    box = Box(lo=(0.0, 0.0), hi=(1.0, 1.0), open_hi=(False, False))
    d = lattice_dictionary(box, 2, 0.1)
    got = {tuple(c) for c in d.centers}
    assert got == {(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)}


def test_local_surrogate_positive_with_log_transform():
    d = centroid_dictionary(np.array([[0.25], [0.75]]), 0.2)
    s = LocalSurrogate(dictionary=d, beta=np.array([-9.0, -2.0]), log_transform=True)
    vals = s.evaluate(np.linspace(0, 1, 33)[:, None])
    assert np.all(vals > 0)
    assert np.all(vals <= np.exp(-2.0) + 1e-12)
