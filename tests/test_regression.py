import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import rankdata

from wristkin import (
    DataPoints,
    DegenerateDataError,
    PoleError,
    RationalQuadricSurface,
    fit_report,
    linear_regression,
    load_surface,
    reference_surface,
    save_surface,
    spearman_rho,
    standardized_residuals,
)
from wristkin.regression import _average_ranks, quadric_range


class TestSurfaceEvaluate:
    def test_constant_surface(self):
        s = RationalQuadricSurface([5.0, 0, 0, 0, 0, 0], [0.0] * 5)
        assert s.evaluate(0.3, -0.7) == 5.0
        assert np.allclose(s.evaluate(np.linspace(-1, 1, 7), np.zeros(7)), 5.0)

    def test_simple_ratio(self):
        # numerator 1, denominator 1 + x at (1, 0) -> 0.5
        s = RationalQuadricSurface([1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0])
        assert s.evaluate(1.0, 0.0) == 0.5

    def test_pole_raises(self):
        s = RationalQuadricSurface([1.0, 0, 0, 0, 0, 0], [-1.0, 0, 0, 0, 0])
        with pytest.raises(PoleError):
            s.evaluate(1.0, 0.0)

    def test_pole_free_grid(self):
        s = reference_surface()
        assert s.is_pole_free((math.radians(85), math.radians(95)),
                              (math.radians(-10), math.radians(30)))

    def test_pole_between_grid_nodes(self):
        # denominator 1 - 2x changes sign at x = 0.5, which no even grid
        # over [0, 1] samples
        s = RationalQuadricSurface([1.0, 0, 0, 0, 0, 0], [-2.0, 0, 0, 0, 0])
        assert not s.is_pole_free((0.0, 1.0), (0.0, 1.0))
        assert s.is_pole_free((0.0, 0.49), (0.0, 1.0))

    def test_coefficient_round_trip(self, rng):
        a = rng.uniform(-10, 10, 11)
        s = RationalQuadricSurface.from_coefficients(a)
        assert np.array_equal(s.coefficients, a)
        assert np.array_equal(s.numerator, a[0::2])
        assert np.array_equal(s.denominator, a[1::2])

    @given(st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_numerator_scaling(self, k, seed):
        rng = np.random.default_rng(seed)
        s = RationalQuadricSurface(rng.uniform(-2, 2, 6), rng.uniform(-0.1, 0.1, 5))
        scaled = RationalQuadricSurface(k * s.numerator, s.denominator)
        x, y = rng.uniform(-1, 1, 2)
        assert scaled.evaluate(x, y) == pytest.approx(k * s.evaluate(x, y), rel=1e-12)


def _quadric(c, x, y):
    return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * y * y + c[5] * x * y


def _quadric_grad(c, x, y):
    return np.array([c[1] + 2 * c[3] * x + c[5] * y, c[2] + 2 * c[4] * y + c[5] * x])


def _oracle_min(c, x_range, y_range):
    """Least value of the quadric c over the box: a 101 x 101 grid, then
    L-BFGS-B polishes from the best grid node in 2-D and from the best node
    of each edge along that edge. A minimum inside the box makes the quadric
    convex, so the 2-D polish reaches it; one inside an edge makes the
    edge's restriction convex, so that edge's polish reaches it."""
    box = np.array([x_range, y_range])
    grid_x, grid_y = np.meshgrid(np.linspace(*x_range, 101), np.linspace(*y_range, 101),
                                 indexing="ij")
    grid = _quadric(c, grid_x, grid_y)
    best = float(grid.min())
    for cells, free in ((np.s_[:, :], [True, True]), (np.s_[0], [False, True]),
                        (np.s_[-1], [False, True]), (np.s_[:, 0], [True, False]),
                        (np.s_[:, -1], [True, False])):
        k = np.argmin(grid[cells])
        start = np.array([grid_x[cells].flat[k], grid_y[cells].flat[k]])

        def point(p, start=start, free=free):
            out = start.copy()
            out[free] = p
            return out

        result = minimize(
            lambda p: _quadric(c, *point(p)),
            start[free],
            jac=lambda p: _quadric_grad(c, *point(p))[free],
            method="L-BFGS-B",
            bounds=box[free],
            options={"ftol": 0.0, "gtol": 1e-14, "maxiter": 500},
        )
        best = min(best, float(result.fun))
    return best


def _assert_matches_oracle(rows, x_range, y_range):
    lo, hi = quadric_range(np.array(rows), x_range, y_range)
    for c, row_lo, row_hi in zip(np.array(rows), lo, hi):
        want_lo = _oracle_min(c, x_range, y_range)
        want_hi = -_oracle_min(-c, x_range, y_range)
        scale = max(1.0, abs(want_lo), abs(want_hi))
        assert abs(row_lo - want_lo) <= 1e-9 * scale
        assert abs(row_hi - want_hi) <= 1e-9 * scale


_COEFF = st.one_of(st.just(0.0), st.floats(-100.0, 100.0))
_INTERVAL = st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 10.0)).map(
    lambda t: (t[0], t[0] + t[1])
)


class TestQuadricRange:
    @given(st.lists(st.lists(_COEFF, min_size=6, max_size=6), min_size=1, max_size=3),
           _INTERVAL, _INTERVAL)
    @settings(max_examples=100, deadline=None)
    def test_matches_polished_grid_oracle(self, rows, x_range, y_range):
        # hypothesis floats: zeros, tiny and extreme coefficients, empty boxes
        _assert_matches_oracle(rows, x_range, y_range)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_on_random_quadrics(self, seed):
        # well-scaled quadrics, each of c3, c4, c5 zero with probability 1/4,
        # half of them with their stationary point moved inside the box
        rng = np.random.default_rng(seed)
        x0, y0 = rng.uniform(-10, 10, 2)
        x_range, y_range = (x0, x0 + rng.uniform(0, 10)), (y0, y0 + rng.uniform(0, 10))
        rows = rng.normal(0, 10, (int(rng.integers(1, 4)), 6))
        rows[:, 3:] *= rng.random((len(rows), 3)) < 0.75
        for c in rows[rng.random(len(rows)) < 0.5]:
            px, py = rng.uniform(x_range[0], x_range[1]), rng.uniform(y_range[0], y_range[1])
            c[1], c[2] = -2 * c[3] * px - c[5] * py, -2 * c[4] * py - c[5] * px
        _assert_matches_oracle(rows, x_range, y_range)

    @pytest.mark.parametrize("c, x_range, y_range, want", [
        # linear: extremes at corners
        ([1.0, 2.0, -1.0, 0.0, 0.0, 0.0], (-1.0, 1.0), (0.0, 2.0), (-3.0, 3.0)),
        # (x + y)^2: singular Hessian, minimum along a line
        ([0.0, 0.0, 0.0, 1.0, 1.0, 2.0], (-1.0, 1.0), (0.0, 2.0), (0.0, 9.0)),
        # bowl with its minimum -1 inside the box at (0.25, 0.5)
        ([-0.625, -0.75, -1.125, 1.0, 1.0, 0.5], (0.0, 1.0), (0.0, 1.0), (-1.0, 0.0)),
        # the same box given as (hi, lo) ranges
        ([-0.625, -0.75, -1.125, 1.0, 1.0, 0.5], (1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)),
        # saddle x^2 - y^2: both extremes inside edges, at (0, 2) and (+-1, 0)
        ([0.0, 0.0, 0.0, 1.0, -1.0, 0.0], (-1.0, 1.0), (-1.0, 2.0), (-4.0, 1.0)),
    ])
    def test_hand_values(self, c, x_range, y_range, want):
        lo, hi = quadric_range([c], x_range, y_range)
        assert (lo[0], hi[0]) == want


class TestReferenceSurface:
    def test_anchor_at_origin_exact(self):
        assert reference_surface().evaluate(0.0, 0.0) == 18.0

    def test_published_coefficients(self):
        s = reference_surface()
        assert s.coefficients[6] == 2563.09  # a7, x^2 numerator term
        assert s.coefficients[1] == -10.60  # a2, x denominator term
        assert np.array_equal(
            s.numerator, [18.00, -290.93, -29.46, 2563.09, 37.01, -606.53]
        )
        assert np.array_equal(s.denominator, [-10.60, -2.23, 94.62, 2.12, -25.75])

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "surface.json"
        save_surface(reference_surface(), path)
        again = load_surface(path)
        assert np.array_equal(again.numerator, reference_surface().numerator)
        assert np.array_equal(again.denominator, reference_surface().denominator)


class TestFitReport:
    def test_perfect_fit(self, rng):
        s = RationalQuadricSurface(rng.uniform(-2, 2, 6), rng.uniform(-0.05, 0.05, 5))
        x, y = rng.uniform(-1, 1, (2, 30))
        z = s.evaluate(x, y)
        report = fit_report(s, DataPoints(x, y, z))
        assert report.sse == 0.0
        assert report.rmse == 0.0
        assert report.r_squared == 1.0
        assert report.r == 1.0
        assert np.array_equal(report.standardized_residuals, np.zeros(30))

    def test_two_point_arithmetic(self):
        # z = (1, 2), zhat = (0, 2): SSE = 1, RMSE = sqrt(0.5)
        s = RationalQuadricSurface([0.0, 0, 2.0, 0, 0, 0], [0.0] * 5)  # zhat = 2y
        pts = DataPoints([0.0, 0.0], [0.0, 1.0], [1.0, 2.0])
        report = fit_report(s, pts)
        assert report.sse == pytest.approx(1.0, abs=1e-15)
        assert report.rmse == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert report.n == 2

    def test_against_streaming_sum_oracle(self, rng):
        for _ in range(25):
            s = RationalQuadricSurface(rng.uniform(-3, 3, 6), rng.uniform(-0.05, 0.05, 5))
            n = int(rng.integers(5, 200))
            x, y = rng.uniform(-1, 1, (2, n))
            z = np.asarray(s.evaluate(x, y)) + rng.normal(0, 1.0, n)
            report = fit_report(s, DataPoints(x, y, z))
            zhat = np.asarray(s.evaluate(x, y))
            sse = math.fsum((zi - zhi) ** 2 for zi, zhi in zip(z, zhat))
            zbar = math.fsum(z) / n
            sst = math.fsum((zi - zbar) ** 2 for zi in z)
            assert abs(report.sse - sse) < 1e-10 * max(1.0, sse)
            assert abs(report.r_squared - (1.0 - sse / sst)) < 1e-10
            assert abs(report.rmse**2 * n - report.sse) < 1e-10 * max(1.0, sse)

    def test_degenerate_constant_observations(self):
        s = reference_surface()
        pts = DataPoints([0.0, 0.1, 0.2], [0.0, 0.0, 0.0], [3.0, 3.0, 3.0])
        with pytest.raises(DegenerateDataError):
            fit_report(s, pts)

    def test_r_squared_flag(self, rng):
        # a wildly wrong surface fits worse than the mean: raw value < 0
        s = RationalQuadricSurface([1000.0, 0, 0, 0, 0, 0], [0.0] * 5)
        x, y = rng.uniform(-1, 1, (2, 20))
        z = rng.normal(0, 1, 20)
        report = fit_report(s, DataPoints(x, y, z))
        assert report.r_squared < 0.0

    def test_r_squared_decreases_under_perturbation(self, rng):
        x, y = rng.uniform(-1, 1, (2, 40))
        base = RationalQuadricSurface([1.0, 2.0, -1.0, 0, 0, 0], [0.0] * 5)
        z = np.asarray(base.evaluate(x, y))
        perfect = fit_report(base, DataPoints(x, y, z))
        nudged = RationalQuadricSurface([1.01, 2.0, -1.0, 0, 0, 0], [0.0] * 5)
        worse = fit_report(nudged, DataPoints(x, y, z))
        assert perfect.r_squared == 1.0
        assert worse.r_squared < 1.0


class TestStandardizedResiduals:
    def test_two_point_hand_value(self):
        out = standardized_residuals([1.0, -1.0])
        assert np.allclose(out, [0.7071067811865475, -0.7071067811865475], atol=1e-12)

    def test_four_point_hand_value(self):
        # mean 0, sample sd sqrt(6)
        out = standardized_residuals([0.0, 3.0, -3.0, 0.0])
        expect = 3.0 / math.sqrt(6.0)
        assert np.allclose(out, [0.0, expect, -expect, 0.0], atol=1e-12)
        assert expect == pytest.approx(1.22474, abs=1e-5)

    def test_constant_residuals_degenerate(self):
        with pytest.raises(DegenerateDataError):
            standardized_residuals([2.5, 2.5, 2.5])

    def test_unit_sample_sd_when_centered(self, rng):
        eps = rng.normal(0, 3, 101)
        eps = eps - eps.mean()
        out = standardized_residuals(eps)
        assert out.std(ddof=1) == pytest.approx(1.0, abs=1e-10)


class TestSpearman:
    def test_perfect_antitone(self):
        x = np.arange(10.0)
        assert spearman_rho(x, -3.0 * x + 7.0) == -1.0

    def test_identical_series_exact_one(self, rng):
        x = rng.uniform(-5, 5, 31)
        assert spearman_rho(x, x) == 1.0

    def test_hand_rank_difference_oracle(self):
        # d = rank(x) - rank(y) = (-2, 1, 1); 1 - 6*sum(d^2)/(n(n^2-1)) = -0.5
        assert spearman_rho([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == pytest.approx(-0.5)

    def test_ties_use_average_ranks(self):
        # x ranks: (1.5, 1.5, 3); y increasing
        rho = spearman_rho([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        # hand Pearson of ranks (1.5,1.5,3) vs (1,2,3): cov=0.75, sx=sqrt(1.5/2)... -> 0.866
        assert rho == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateDataError):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, 25)
        y = rng.uniform(-5, 5, 25)
        base = spearman_rho(x, y)
        assert spearman_rho(np.exp(x / 5.0), y) == pytest.approx(base, abs=1e-12)
        assert spearman_rho(x, y**3) == pytest.approx(base, abs=1e-12)


def _rank_inputs(seed):
    """Seeded arrays of lengths 2 to 3 000: many ties, -0.0 beside 0.0, +-inf."""
    rng = np.random.default_rng(seed)
    for n in [*range(2, 12), 50, 333, 1000, 2001, 3000]:
        yield rng.integers(-3, 4, n).astype(float)
        yield rng.integers(0, max(2, n // 4), n).astype(float)
        signed_zeros = rng.normal(size=n)
        signed_zeros[rng.random(n) < 0.4] = 0.0
        signed_zeros[rng.random(n) < 0.3] = -0.0
        yield signed_zeros
        infs = rng.integers(-2, 3, n).astype(float)
        infs[rng.random(n) < 0.2] = np.inf
        infs[rng.random(n) < 0.2] = -np.inf
        yield infs
        yield rng.normal(size=n)


class TestAverageRanks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_rankdata(self, seed):
        for values in _rank_inputs(seed):
            assert np.array_equal(_average_ranks(values), rankdata(values)), values

    def test_nan_propagates(self):
        assert np.isnan(_average_ranks(np.array([3.0, np.nan, 1.0]))).all()
        with pytest.raises(DegenerateDataError):
            spearman_rho([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0])
        assert math.isnan(linear_regression([1.0, 2.0, 3.0], [np.nan, 2.0, 3.0]).rho)


class TestLinearRegression:
    def test_exact_line(self):
        x = np.linspace(-2, 3, 17)
        fit = linear_regression(x, 2.0 * x + 1.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.rho == 1.0

    def test_constant_y(self):
        x = np.linspace(0, 1, 9)
        fit = linear_regression(x, np.full(9, 4.5))
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.intercept == pytest.approx(4.5)
        assert math.isnan(fit.rho)

    def test_known_slope_with_noise(self, rng):
        x = rng.uniform(-1, 1, 100)
        y = -0.8 * x + rng.normal(0, 0.01, 100)
        fit = linear_regression(x, y)
        assert abs(fit.slope - (-0.8)) < 0.01
        assert fit.rho < -0.99

    def test_constant_x_degenerate(self):
        with pytest.raises(DegenerateDataError):
            linear_regression([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestDataPoint:
    """Validation of the DataPoints record: finiteness, shapes."""

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="point 0: data point fields must be finite"):
            DataPoints([math.nan, 0.0], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="point 1"):
            DataPoints([0.0, 0.0], [0.0, 0.0], [1.0, math.inf])

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="one length"):
            DataPoints([0.0, 1.0], [0.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="one length"):
            DataPoints(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_columns_are_frozen_copies(self):
        x = np.array([0.0, 1.0])
        points = DataPoints(x, [0.0, 0.0], [1.0, 2.0])
        x[0] = 5.0
        assert points.x[0] == 0.0
        with pytest.raises(ValueError):
            points.z[0] = 3.0
