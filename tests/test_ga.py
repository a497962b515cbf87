import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wristkin import (
    DataPoints,
    DegenerateDataError,
    GAConfig,
    RationalQuadricSurface,
    SyntheticConfig,
    derive_joint_series,
    fit_surface,
    fitness,
    subject_split,
    synthesize_sessions,
    to_data_points,
)
import wristkin.ga as ga
from wristkin.ga import (
    GENE_BOUND,
    INIT_WIDTH,
    MUTATION_SIGMA_FINAL_FRAC,
    MUTATION_SIGMA_FRAC,
    PENALTY_DENOMINATOR_TOL,
    POLE_PENALTY_WEIGHT,
    POLISH_EVERY,
    _box,
    _equal_rows,
    _initial_genes,
    _offspring,
    _Preconditioner,
    _Problem,
    _step_arrays,
)
from wristkin.regression import fit_report, quadric_design

PROTOCOL_X = (math.pi / 2 - 0.0873, math.pi / 2 + 0.0873)
PROTOCOL_Y = (-0.1745, 0.5236)
ROOT = Path(__file__).resolve().parents[1]

TRUTH = RationalQuadricSurface([21.0, 2.0, -25.0, 0.0, 12.0, 1.5], [0.0, 0.08, 0.0, 0.05, 0.0])


def criterion_6_points(seed: int = 2026, noise: float = 1.35) -> DataPoints:
    """The acceptance suite's criterion-6 fit set: 9 of 25 synthetic
    subjects at 1.35 mm noise, 18 009 points; ``seed`` seeds the cohort
    and its split. Criterion 7's is seed 99 without noise."""
    sessions = synthesize_sessions(SyntheticConfig(
        ground_truth=TRUTH, n_subjects=25, seed=seed, noise_sigma_mm=noise))
    fit_sessions, _ = subject_split(sessions, 9, seed=seed)
    return to_data_points([derive_joint_series(s) for s in fit_sessions])


def planar_points(rng, n=300, noise=0.0):
    truth = RationalQuadricSurface([10.0, 2.0, -1.0, 0, 0, 0], [0.0] * 5)
    x = rng.uniform(*PROTOCOL_X, n)
    y = rng.uniform(*PROTOCOL_Y, n)
    z = np.asarray(truth.evaluate(x, y))
    if noise:
        z = z + rng.normal(0, noise, n)
    return truth, x, y, DataPoints(x, y, z)


class TestFitness:
    def test_exact_surface_scores_zero(self, rng):
        truth, x, y, data = planar_points(rng, 120)
        assert fitness(truth.coefficients, data) <= 1e-9

    def test_mean_predictor_scores_sst(self, rng):
        _, x, y, data = planar_points(rng, 120)
        z = data.z
        coefficients = RationalQuadricSurface([z.mean(), 0, 0, 0, 0, 0], [0.0] * 5).coefficients
        sst = float(np.sum((z - z.mean()) ** 2))
        assert fitness(coefficients, data) == pytest.approx(sst, rel=1e-12)

    def test_pole_inside_grid_is_penalized(self):
        # denominator 1 - 3.9996*x + 3.9996*x^2 dips to 1e-4 at x = 0.5,
        # between the data points at x = 0 and 1, so SSE stays 0 while the
        # grid picks up the near-pole
        surface = RationalQuadricSurface(
            [1.0, 0.5, 0, 0, 0, 0], [-3.9996, 0, 3.9996, 0, 0]
        )
        x = np.array([0.0] * 10 + [1.0] * 10)
        y = np.linspace(-1, 1, 20)
        z = np.asarray(surface.evaluate(x, y))
        data = DataPoints(x, y, z)
        value = fitness(surface.coefficients, data)
        assert value >= POLE_PENALTY_WEIGHT

    def test_sign_change_between_data_points_is_penalized(self):
        # denominator 1 - 2x changes sign at x = 0.5, between the data at
        # x = 0 and 1, where the fit is exact (SSE 0)
        surface = RationalQuadricSurface([1.0, 0, 0, 0, 0, 0], [-2.0, 0, 0, 0, 0])
        x = np.array([0.0] * 10 + [1.0] * 10)
        y = np.linspace(0, 1, 20)
        data = DataPoints(x, y, np.asarray(surface.evaluate(x, y)))
        assert fitness(surface.coefficients, data) >= POLE_PENALTY_WEIGHT

    def test_batch_kernel_matches_oracle(self, rng):
        # every row of every batch size 1..20 against math.fsum of
        # (z - surface.evaluate)^2 plus the documented pole penalty
        n = 5000
        x = rng.uniform(*PROTOCOL_X, n)
        y = rng.uniform(*PROTOCOL_Y, n)
        y[0], y[1] = PROTOCOL_Y[1], 0.5
        truth = RationalQuadricSurface([21.0, 2.0, -25.0, 0.0, 12.0, 1.5],
                                       [0.0, 0.08, 0.0, 0.05, 0.0])
        z = np.asarray(truth.evaluate(x, y)) + rng.normal(0, 1.35, n)
        data = DataPoints(x, y, z)
        genes = np.empty((20, 11))
        genes[:, 0::2] = rng.uniform(-30, 30, (20, 6))
        # |den - 1| <= 0.05 * (|x| + |y| + x^2 + y^2 + |xy|) < 0.3 on the
        # data box: no penalty
        genes[:, 1::2] = rng.uniform(-0.05, 0.05, (20, 5))
        # denominator 1 - a*y, linear, reaching 5e-4 at the largest y
        margin = 5e-4
        genes[5, 1::2] = [0.0, -(1.0 - margin) / PROTOCOL_Y[1], 0.0, 0.0, 0.0]
        # (1 - 2y) / (1 - 2y): 0 / 0 at the sample y = 0.5
        genes[13] = RationalQuadricSurface(
            [1.0, 0, -2.0, 0, 0, 0], [0, -2.0, 0, 0, 0]
        ).coefficients

        def oracle(row):
            if row == 13:
                return math.inf
            pred = RationalQuadricSurface.from_coefficients(genes[row]).evaluate(x, y)
            sse = math.fsum((z - pred) ** 2)
            if row != 5:
                return sse
            least = 1.0 - (1.0 - margin) / PROTOCOL_Y[1] * PROTOCOL_Y[1]
            return sse + POLE_PENALTY_WEIGHT * (2.0 - least / PENALTY_DENOMINATOR_TOL)

        want = np.array([oracle(row) for row in range(20)])
        problem = _Problem.from_data(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in range(1, 21):
                rows = (np.arange(m) + 7 * m) % 20
                got = problem.fitness_many(genes[rows])
                assert got.shape == (m,)
                for row, value in zip(rows, got):
                    if row == 13:
                        assert value == math.inf
                    else:
                        assert abs(value - want[row]) <= 1e-12 * want[row], (m, row)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fitness(np.zeros(11), DataPoints([], [], []))

    def test_coefficient_shape_checked(self, rng):
        _, _, _, data = planar_points(rng, 20)
        for shape in ((10,), (12,), (1, 11)):
            with pytest.raises(ValueError, match="expected 11 coefficients"):
                fitness(np.zeros(shape), data)


def initial_state(problem, config):
    """The evaluated seeded population fit_surface starts from, unsorted."""
    genes = _initial_genes(config)
    return genes, problem.fitness_many(genes)


class TestStepGeneration:
    def test_no_op_operators_keep_multiset(self, rng, monkeypatch):
        monkeypatch.setattr(ga, "CROSSOVER_RATE", 0.0)
        monkeypatch.setattr(ga, "MUTATION_RATE", 0.0)
        _, _, _, data = planar_points(rng, 60)
        config = GAConfig(seed=3)
        problem = _Problem.from_data(data)
        genes, fits = initial_state(problem, config)
        out, _ = _step_arrays(genes, fits, problem, config, generation=0)
        assert np.array_equal(np.sort(genes, axis=0), np.sort(out, axis=0))

    def test_identical_population_fixed_point(self, rng, monkeypatch):
        monkeypatch.setattr(ga, "MUTATION_RATE", 0.0)
        _, _, _, data = planar_points(rng, 60)
        config = GAConfig(seed=5)
        problem = _Problem.from_data(data)
        genes = np.tile(np.linspace(-1, 1, 11), (config.population_size, 1))
        out, _ = _step_arrays(genes, problem.fitness_many(genes), problem, config, generation=7)
        for row in out:
            assert np.array_equal(row, genes[0])

    def test_determinism_replay(self, rng):
        _, _, _, data = planar_points(rng, 60)
        config = GAConfig(seed=11)
        problem = _Problem.from_data(data)

        def trajectory():
            genes, fits = initial_state(problem, config)
            states = []
            for g in range(40):
                genes, fits = _step_arrays(genes, fits, problem, config, generation=g)
                states.append(genes.tobytes())
            return states

        assert trajectory() == trajectory()

    def test_bounds_and_monotone_best(self, rng):
        _, _, _, data = planar_points(rng, 80, noise=0.5)
        config = GAConfig(seed=2, generations=300)
        problem = _Problem.from_data(data)
        genes, fits = initial_state(problem, config)
        best = math.inf
        for g in range(300):
            genes, fits = _step_arrays(genes, fits, problem, config, generation=g)
            assert fits.min() <= best + 1e-12
            best = fits.min()
            assert np.abs(genes).max() <= GENE_BOUND
            # reused values belong to the genes they are attached to
            assert np.allclose(fits, problem.fitness_many(genes), rtol=1e-9, atol=0)


class TestOperators:
    def test_crossover_takes_complementary_parent_genes(self, rng, monkeypatch):
        monkeypatch.setattr(ga, "CROSSOVER_RATE", 1.0)
        monkeypatch.setattr(ga, "MUTATION_RATE", 0.0)
        config = GAConfig(population_size=5, seed=6)
        parents = rng.uniform(-10, 10, (5, 11))
        children = _offspring(parents, config, generation=3)
        used = []
        for c0, c1 in (children[0:2], children[2:4]):
            matches = [
                (i, j) for i in range(5) for j in range(5) if i != j
                and np.all(((c0 == parents[i]) & (c1 == parents[j]))
                           | ((c0 == parents[j]) & (c1 == parents[i])))
            ]
            assert len(matches) == 2  # (i, j) and (j, i)
            used.extend(matches[0])
        (unpaired,) = set(range(5)) - set(used)
        assert np.array_equal(children[4], parents[unpaired])
        # crossover happened: some child mixes genes of both its parents
        assert not any(np.array_equal(c, p) for c in children[:4] for p in parents)

    def test_mutation_moves_every_gene_within_bounds(self, rng, monkeypatch):
        monkeypatch.setattr(ga, "CROSSOVER_RATE", 0.0)
        monkeypatch.setattr(ga, "MUTATION_RATE", 1.0)
        config = GAConfig(seed=8)
        lo, hi = -GENE_BOUND, GENE_BOUND
        parents = rng.uniform(-10, 10, (config.population_size, 11))
        parents[0] = hi - 0.01
        parents[1] = lo + 0.01
        children = _offspring(parents, config, generation=0)
        # every child gene differs from the same gene of every parent
        assert np.all(children[:, None, :] != parents[None, :, :])
        assert children.min() == lo and children.max() == hi

    def test_equal_rows_is_bitwise(self):
        bits = np.zeros((5, 11), dtype=np.uint64)
        bits[0, 0] = 3  # same weighted sum as row 1: 3 * 1 == 1 * 3
        bits[1, 1] = 1
        bits[2] = bits[0]
        bits[3, 0] = 1 << 63  # -0.0, equal to row 4's 0.0 as a float
        same = _equal_rows(bits.view(float))
        expected = np.eye(5, dtype=bool)
        expected[0, 2] = expected[2, 0] = True
        assert np.array_equal(same, expected)


class TestFitSurface:
    def test_recovers_noiseless_plane(self, rng):
        truth, x, y, data = planar_points(rng, 300)
        surface, report = fit_surface(data, GAConfig(seed=0, generations=4000))
        pred = np.asarray(surface.evaluate(x, y))
        true_z = np.asarray(truth.evaluate(x, y))
        assert math.sqrt(np.mean((pred - true_z) ** 2)) < 0.1
        assert report.rmse < 0.1

    def test_noise_floor(self, rng):
        _, _, _, data = planar_points(rng, 300, noise=1.0)
        _, report = fit_surface(data, GAConfig(seed=0, generations=4000))
        assert 0.7 <= report.rmse <= 1.5

    def test_identical_seeds_identical_output(self, rng):
        _, _, _, data = planar_points(rng, 100)
        config = GAConfig(seed=21, generations=1500)
        s1, r1 = fit_surface(data, config)
        s2, r2 = fit_surface(data, config)
        assert np.array_equal(s1.coefficients, s2.coefficients)
        assert r1.rmse == r2.rmse

    def test_result_is_pole_free_on_data_box(self, rng):
        _, x, y, data = planar_points(rng, 300, noise=0.3)
        surface, _ = fit_surface(data, GAConfig(seed=4, generations=1500))
        assert surface.is_pole_free((x.min(), x.max()), (y.min(), y.max()))

    def test_needs_enough_points(self, rng):
        _, _, _, data = planar_points(rng, 10)
        with pytest.raises(ValueError):
            fit_surface(data, GAConfig(seed=0))

    def test_degenerate_inputs_rejected(self, rng):
        z = rng.normal(0, 1, 30)
        data = DataPoints(np.full(30, 1.5), np.linspace(0, 1, 30), z)
        with pytest.raises(DegenerateDataError):
            fit_surface(data, GAConfig(seed=0))

    @pytest.mark.parametrize("column, centre, spread, name", [
        (1, 0.17, 1e-13, "beta4 (y)"),
        (0, 1.5, 1e-9, "beta3 (x)"),
        (2, 20.0, 1e-12, "d2 (z)"),
    ], ids=["y spread 1e-13", "x spread 1e-9", "z spread 1e-12"])
    def test_near_constant_column_rejected_up_front(self, rng, monkeypatch, column, centre,
                                                     spread, name):
        _, x, y, data = planar_points(rng, 400, noise=0.1)
        columns = [x, y, data.z]
        columns[column] = centre + rng.uniform(0.0, spread, 400)

        def no_search(*args):
            raise AssertionError("the GA started on a near-constant column")

        monkeypatch.setattr("wristkin.ga._Preconditioner", no_search)
        with pytest.raises(DegenerateDataError, match=rf"^{re.escape(name)} values are nearly"):
            fit_surface(DataPoints(*columns), GAConfig(seed=0, generations=2000))

    def test_small_relative_spread_still_fits(self, rng):
        _, x, y, _ = planar_points(rng, 400)
        z = 20.0 * (1.0 + rng.uniform(0.0, 1e-6, 400))
        surface, report = fit_surface(DataPoints(x, y, z), GAConfig(seed=0, generations=300))
        assert np.isfinite(surface.coefficients).all()
        assert report.rmse < 1e-5


def record_polishes(patch, results: list) -> None:
    """Patch ga._polish so that each call appends (problem, result) to results."""
    polish = ga._polish

    def recording_polish(problem, genes):
        result = polish(problem, genes)
        results.append((problem, result))
        return result

    patch.setattr(ga, "_polish", recording_polish)


@pytest.fixture(scope="module")
def criterion_6_fit():
    """criterion_6_points fitted with the default GAConfig(seed=11), with
    every polish recorded and the generations run counted."""
    data = criterion_6_points()
    run = {"data": data, "polishes": [], "generations": 0}
    step = ga._step_arrays

    def counting_step(*args):
        run["generations"] += 1
        return step(*args)

    with pytest.MonkeyPatch.context() as patch:
        record_polishes(patch, run["polishes"])
        patch.setattr(ga, "_step_arrays", counting_step)
        run["surface"], run["report"] = fit_surface(data, GAConfig(seed=11))
    return run


def plain_scaled_gradient(surface: RationalQuadricSurface, data: DataPoints) -> np.ndarray:
    """|J_i . r| / (|J_i| |r|) for each plain coefficient a1..a11, J being
    the Jacobian of the residuals z - surface."""
    num = surface.numerator_values(data.x, data.y)
    den = surface.denominator_values(data.x, data.y)
    design = quadric_design(data.x, data.y)
    r = data.z - num / den
    jac = np.empty((len(data), 11))
    jac[:, 0::2] = -design / den[:, None]
    jac[:, 1::2] = (num / den**2)[:, None] * design[:, 1:]
    return np.abs(jac.T @ r) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(r))


class TestPolish:
    def test_noiseless_rational_truth_recovered(self, rng):
        x = rng.uniform(*PROTOCOL_X, 2000)
        y = rng.uniform(*PROTOCOL_Y, 2000)
        data = DataPoints(x, y, np.asarray(TRUTH.evaluate(x, y)))
        surface, _ = fit_surface(data, GAConfig(seed=3, generations=1000))
        gx, gy = (g.ravel() for g in np.meshgrid(np.linspace(*PROTOCOL_X, 40),
                                                 np.linspace(*PROTOCOL_Y, 40)))
        for px, py in ((x, y), (gx, gy)):
            want = np.asarray(TRUTH.evaluate(px, py))
            assert np.abs(surface.evaluate(px, py) - want).max() <= 1e-9 * np.abs(want).max()

    def test_sse_at_most_polynomial_and_each_polish(self, criterion_6_fit):
        data, report = criterion_6_fit["data"], criterion_6_fit["report"]
        # the best quadric polynomial, in closed form: denominator 0 is feasible
        design = quadric_design(data.x, data.y)
        numerator = np.linalg.lstsq(design, data.z, rcond=None)[0]
        polynomial = RationalQuadricSurface(numerator, [0.0] * 5)
        assert report.sse <= fit_report(polynomial, data).sse
        # the linearized start and at least one GA best, each polished to a
        # certified result that the returned surface does not exceed
        polishes = criterion_6_fit["polishes"]
        assert len(polishes) >= 2
        pre = _Preconditioner(data.x, data.y, data.z)
        for problem, (genes, _) in polishes:
            assert problem.margin(genes[None, 1::2])[0] >= PENALTY_DENOMINATOR_TOL
            polished = RationalQuadricSurface.from_coefficients(pre.decode(genes))
            assert report.sse <= fit_report(polished, data).sse * (1 + 1e-12)

    def test_scaled_gradient_vanishes_at_result(self, criterion_6_fit):
        data, surface = criterion_6_fit["data"], criterion_6_fit["surface"]
        pre = _Preconditioner(data.x, data.y, data.z)
        (problem, kept), = {genes.tobytes(): (problem, genes)
                            for problem, (genes, _) in criterion_6_fit["polishes"]
                            if np.array_equal(pre.decode(genes), surface.coefficients)}.values()
        # the margin constraint is inactive at this optimum ...
        assert problem.margin(kept[None, 1::2])[0] > 10 * PENALTY_DENOMINATOR_TOL
        # ... so it is stationary
        assert plain_scaled_gradient(surface, data).max() < 1e-6

    def test_every_polish_is_certified_where_the_optimum_nears_a_pole(self, monkeypatch):
        # on cohort seed 7 the unconstrained polish from either start walks
        # into a denominator sign change over the data box
        results = []
        record_polishes(monkeypatch, results)
        data = criterion_6_points(seed=7)
        surface, _ = fit_surface(data, GAConfig(seed=7))
        assert len(results) >= 2
        for problem, (genes, _) in results:
            assert problem.margin(genes[None, 1::2])[0] >= PENALTY_DENOMINATOR_TOL
        assert surface.is_pole_free(*_box(data.x, data.y))

    def test_stop_fires_before_cap(self, criterion_6_fit):
        generations = criterion_6_fit["generations"]
        assert 0 < generations < GAConfig().generations
        assert generations % POLISH_EVERY == 0
        # the linearized start, then one polish every POLISH_EVERY generations
        assert len(criterion_6_fit["polishes"]) == 1 + generations // POLISH_EVERY

    def test_exact_fit_stops_at_the_rounding_floor(self, monkeypatch):
        # criterion 7's noiseless data: the linearized start already fits
        # to the rounding floor, where later polishes only trade last digits
        results = []
        record_polishes(monkeypatch, results)
        fit_surface(criterion_6_points(seed=99, noise=0.0), GAConfig(seed=12))
        assert len(results) <= 2

    def test_fit_independent_of_blas_threads(self):
        # prints the point count, each polish's SSE and the coefficients
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_ga import criterion_6_points\n"
            "import wristkin.ga as ga\n"
            "polish = ga._polish\n"
            "def printing_polish(problem, genes):\n"
            "    result = polish(problem, genes)\n"
            "    print(result[1].hex())\n"
            "    return result\n"
            "ga._polish = printing_polish\n"
            "data = criterion_6_points()\n"
            "print(len(data))\n"
            "surface, _ = ga.fit_surface(data, ga.GAConfig(seed=11))\n"
            "print(surface.coefficients.tobytes().hex())\n"
        )
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(ROOT / "tests")],
                env=dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS=threads,
                         OMP_NUM_THREADS=threads),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for threads in ("1", "2")
        ]
        outputs = []
        for done in runs:
            out, err = done.communicate(timeout=120)
            assert done.returncode == 0, err
            outputs.append(out.split())
        # enough points that OpenBLAS splits its long reductions across threads
        assert int(outputs[0][0]) >= 18_000
        assert len(outputs[0]) >= 4  # the count, two polishes, the coefficients
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("seed, noise", [(0, 0.0), (1, 0.5), (2, 0.5)])
    def test_rank_deficient_cohort(self, seed, noise):
        # every sample on one ellipse: the quadric design has rank 5
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 2.0 * math.pi, 400)
        x = math.pi / 2 + 0.08 * np.cos(t)
        y = 0.17 + 0.3 * np.sin(t)
        z = np.asarray(TRUTH.evaluate(x, y)) + rng.normal(0.0, noise, 400)
        pre = _Preconditioner(x, y, z)
        assert np.array_equal(pre.Mn, np.eye(6))  # the rank-deficient branch
        try:
            surface, report = fit_surface(DataPoints(x, y, z),
                                          GAConfig(seed=seed, generations=500))
        except DegenerateDataError:
            return
        assert surface.is_pole_free(*_box(x, y))
        assert report.rmse < 2.0 * noise + 1e-6


class TestPreconditioner:
    def test_documented_coefficient_maps(self, rng):
        _, x, y, data = planar_points(rng, 200, noise=0.5)
        pre = _Preconditioner(x, y, data.z)
        design = quadric_design(pre.u, pre.v)
        assert not np.array_equal(pre.Mn, np.eye(6))  # the full-rank branch
        for got, want in ((design @ pre.Mn, pre.num_basis),
                          (design[:, 1:] @ pre.Md, pre.den_basis)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestGAConfig:
    def test_population_minimum(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=3)

    def test_sigma_anneals(self):
        config = GAConfig()
        assert config.mutation_sigma(0) == pytest.approx(
            MUTATION_SIGMA_FRAC * 2 * INIT_WIDTH
        )
        assert config.mutation_sigma(config.generations - 1) == pytest.approx(
            MUTATION_SIGMA_FINAL_FRAC * 2 * INIT_WIDTH
        )
        assert config.mutation_sigma(10) < config.mutation_sigma(1)
