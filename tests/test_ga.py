import math

import numpy as np
import pytest

from wristkin import (
    Chromosome,
    DataPoints,
    DegenerateDataError,
    GAConfig,
    RationalQuadricSurface,
    fit_surface,
    fitness,
    initial_population,
    step_generation,
)
from wristkin.ga import (
    INIT_WIDTH,
    MUTATION_SIGMA_FINAL_FRAC,
    MUTATION_SIGMA_FRAC,
    POLE_PENALTY_WEIGHT,
)

PROTOCOL_X = (math.pi / 2 - 0.0873, math.pi / 2 + 0.0873)
PROTOCOL_Y = (-0.1745, 0.5236)


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
        chrom = Chromosome(truth.coefficients)
        assert fitness(chrom, data, GAConfig()) <= 1e-9

    def test_mean_predictor_scores_sst(self, rng):
        _, x, y, data = planar_points(rng, 120)
        z = data.z
        chrom = Chromosome(
            RationalQuadricSurface([z.mean(), 0, 0, 0, 0, 0], [0.0] * 5).coefficients
        )
        sst = float(np.sum((z - z.mean()) ** 2))
        assert fitness(chrom, data, GAConfig()) == pytest.approx(sst, rel=1e-12)

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
        value = fitness(Chromosome(surface.coefficients), data, GAConfig())
        assert value >= POLE_PENALTY_WEIGHT

    def test_sign_change_between_data_points_is_penalized(self):
        # denominator 1 - 2x changes sign at x = 0.5, between the data at
        # x = 0 and 1, where the fit is exact (SSE 0)
        surface = RationalQuadricSurface([1.0, 0, 0, 0, 0, 0], [-2.0, 0, 0, 0, 0])
        x = np.array([0.0] * 10 + [1.0] * 10)
        y = np.linspace(0, 1, 20)
        data = DataPoints(x, y, np.asarray(surface.evaluate(x, y)))
        assert fitness(Chromosome(surface.coefficients), data, GAConfig()) >= POLE_PENALTY_WEIGHT

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fitness(Chromosome(np.zeros(11)), DataPoints([], [], []), GAConfig())


class TestStepGeneration:
    def test_no_op_operators_keep_multiset(self, rng):
        _, _, _, data = planar_points(rng, 60)
        config = GAConfig(crossover_rate=0.0, mutation_rate=0.0, seed=3)
        pop = initial_population(config)
        out = step_generation(pop, data, config, generation=0)
        before = np.sort(np.stack([c.genes for c in pop]), axis=0)
        after = np.sort(np.stack([c.genes for c in out]), axis=0)
        assert np.array_equal(before, after)

    def test_identical_population_fixed_point(self, rng):
        _, _, _, data = planar_points(rng, 60)
        config = GAConfig(mutation_rate=0.0, seed=5)
        genes = np.linspace(-1, 1, 11)
        pop = [Chromosome(genes.copy()) for _ in range(config.population_size)]
        out = step_generation(pop, data, config, generation=7)
        for c in out:
            assert np.array_equal(c.genes, genes)

    def test_determinism_replay(self, rng):
        _, _, _, data = planar_points(rng, 60)
        config = GAConfig(seed=11)

        def trajectory():
            pop = initial_population(config)
            states = []
            for g in range(40):
                pop = step_generation(pop, data, config, generation=g)
                states.append(np.stack([c.genes for c in pop]).tobytes())
            return states

        assert trajectory() == trajectory()

    def test_population_size_checked(self, rng):
        _, _, _, data = planar_points(rng, 60)
        config = GAConfig(seed=1)
        with pytest.raises(ValueError):
            step_generation([Chromosome(np.zeros(11))], data, config, 0)

    def test_bounds_and_monotone_best(self, rng):
        _, _, _, data = planar_points(rng, 80, noise=0.5)
        config = GAConfig(seed=2, generations=300)
        pop = initial_population(config)
        lo, hi = config.coefficient_bounds
        best = math.inf
        for g in range(300):
            pop = step_generation(pop, data, config, generation=g)
            fits = [c.fitness for c in pop]
            assert min(fits) <= best + 1e-12
            best = min(fits)
            genes = np.stack([c.genes for c in pop])
            assert genes.min() >= lo and genes.max() <= hi


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
        assert surface.is_pole_free(
            (x.min(), x.max()), (y.min(), y.max()), min_magnitude=1e-6
        )

    def test_needs_enough_points(self, rng):
        _, _, _, data = planar_points(rng, 10)
        with pytest.raises(ValueError):
            fit_surface(data, GAConfig(seed=0))

    def test_degenerate_inputs_rejected(self, rng):
        z = rng.normal(0, 1, 30)
        data = DataPoints(np.full(30, 1.5), np.linspace(0, 1, 30), z)
        with pytest.raises(DegenerateDataError):
            fit_surface(data, GAConfig(seed=0))


class TestGAConfig:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.2)
        with pytest.raises(ValueError):
            GAConfig(mutation_rate=-0.1)

    def test_population_minimum(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=3)

    def test_bounds_interval(self):
        with pytest.raises(ValueError):
            GAConfig(coefficient_bounds=(5.0, 5.0))

    def test_sigma_anneals(self):
        config = GAConfig()
        assert config.mutation_sigma(0) == pytest.approx(
            MUTATION_SIGMA_FRAC * 2 * INIT_WIDTH
        )
        assert config.mutation_sigma(config.generations - 1) == pytest.approx(
            MUTATION_SIGMA_FINAL_FRAC * 2 * INIT_WIDTH
        )
        assert config.mutation_sigma(10) < config.mutation_sigma(1)
