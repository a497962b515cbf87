"""Real-coded simple genetic algorithm for fitting the rational surface.

Minimizes the (weighted) sum of squared errors of a
:class:`~wristkin.regression.RationalQuadricSurface` on observed
(beta3, beta4, d2) points, with a pole penalty that keeps the denominator
bounded away from zero over the whole bounding box of the data. The penalty
reads the denominator's exact range over that box
(:func:`~wristkin.regression.quadric_range`), so it also catches a sign
change or near-zero between data points.

Operators: uniform crossover between randomly paired parents, per-gene
Gaussian mutation whose sigma anneals geometrically over the generation
budget, and elitist truncation of parents plus offspring. Every random
draw comes from a numpy SeedSequence keyed by (config.seed, generation,
substream index), so runs are bit-reproducible and the per-individual
substreams could be evaluated in parallel without changing results.

:func:`fit_surface` searches a numerically preconditioned version of the
problem: inputs are standardized, observations are normalized, and the
chromosome genes parameterize the surface in a data-orthonormalized
polynomial basis (QR of the design matrix). The best chromosome is mapped
back to plain (beta3, beta4) coefficients algebraically, so the returned
surface is exactly the function the winning chromosome encodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.linalg import solve_triangular

from .errors import DegenerateDataError
from .regression import (
    DataPoints,
    FitReport,
    RationalQuadricSurface,
    fit_report,
    quadric_design,
    quadric_range,
)

# the pole penalty grows from POLE_PENALTY_WEIGHT to twice it as the least
# denominator magnitude over the data box falls from this to zero
PENALTY_DENOMINATOR_TOL = 1e-3
POLE_PENALTY_WEIGHT = 1e6
# numerator / denominator gene slots initialize uniformly in +-these widths
# (denominator near zero: a polynomial-regression start that the rational
# part refines)
INIT_WIDTH = 10.0
INIT_DENOMINATOR_WIDTH = 0.1
# mutation sigma anneals geometrically between these fractions of the
# initialization width 2 * INIT_WIDTH across the generation budget
MUTATION_SIGMA_FRAC = 0.05
MUTATION_SIGMA_FINAL_FRAC = 1e-6
# the run stops once the best penalized fitness has improved by less than
# STALL_TOLERANCE (mm^2) for STALL_GENERATIONS consecutive generations
STALL_GENERATIONS = 500
STALL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GAConfig:
    """Hyperparameters. Defaults: population 20, crossover 0.85, mutation
    0.005 per gene, up to 20000 generations, genes clipped to [-5000, 5000].

    Initialization widths, the mutation-sigma schedule, the stall stop and
    the pole-penalty weight are the module constants.
    """

    population_size: int = 20
    crossover_rate: float = 0.85
    mutation_rate: float = 0.005
    generations: int = 20000
    coefficient_bounds: tuple[float, float] = (-5000.0, 5000.0)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover_rate {self.crossover_rate} outside [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate {self.mutation_rate} outside [0, 1]")
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        lo, hi = self.coefficient_bounds
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(
                f"coefficient_bounds must be a non-empty interval, got {self.coefficient_bounds}"
            )
        if self.generations < 1:
            raise ValueError("generations must be >= 1")

    def mutation_sigma(self, generation: int) -> float:
        """Annealed per-gene mutation sigma at a given generation."""
        width = 2.0 * INIT_WIDTH
        sigma0 = MUTATION_SIGMA_FRAC * width
        sigma1 = MUTATION_SIGMA_FINAL_FRAC * width
        if self.generations <= 1:
            return sigma0
        t = min(max(generation, 0), self.generations - 1) / (self.generations - 1)
        return sigma0 * (sigma1 / sigma0) ** t


@dataclass
class Chromosome:
    """Eleven genes mapping onto surface coefficients (a1..a11), plus the
    cached penalized fitness (mm^2, lower is better; None = not evaluated)."""

    genes: np.ndarray
    fitness: float | None = None

    def __post_init__(self):
        genes = np.array(self.genes, dtype=float)
        if genes.shape != (11,):
            raise ValueError(f"expected 11 genes, got {genes.shape}")
        self.genes = genes


class _Problem:
    """Fitness machinery over an arbitrary linear parameterization.

    Predictions are (num_basis @ g_num) / (1 + den_basis @ g_den) where
    g_num are the even gene slots (0,2,..) and g_den the odd ones. The
    denominator is the quadric with constant 1 and non-constant
    coefficients ``den_map @ g_den`` over the inputs, whose data range is
    ``box`` ((lo, hi) per input). For the raw parameterization the bases
    are the quadric design columns and ``den_map`` the identity, making
    genes the plain surface coefficients.
    """

    def __init__(self, num_basis, den_basis, den_map, box, z, w):
        self.num_basis = num_basis
        self.den_basis = den_basis
        self.den_map = den_map
        self.box = box
        self.z = np.asarray(z, dtype=float)
        self.w = np.asarray(w, dtype=float)

    @classmethod
    def from_data(cls, data: DataPoints) -> "_Problem":
        design = quadric_design(data.x, data.y)
        return cls(
            num_basis=design,
            den_basis=design[:, 1:],
            den_map=np.eye(5),
            box=_box(data.x, data.y),
            z=data.z,
            w=data.w,
        )

    def fitness_many(self, genes: np.ndarray) -> np.ndarray:
        """Penalized SSE for each row of an (m, 11) gene matrix."""
        g_num = genes[:, 0::2]  # (m, 6)
        g_den = genes[:, 1::2]  # (m, 5)
        num = self.num_basis @ g_num.T  # (n, m)
        den = 1.0 + self.den_basis @ g_den.T
        with np.errstate(divide="ignore", invalid="ignore"):
            eps = self.z[:, None] - num / den
            sse = self.w @ np.square(eps)
        sse = np.where(np.isfinite(sse), sse, np.inf)
        coeffs = np.hstack([np.ones((genes.shape[0], 1)), g_den @ self.den_map.T])
        lo, hi = quadric_range(coeffs, *self.box)
        # least |denominator| over the box; 0 when it changes sign there
        margin = np.maximum(np.maximum(lo, -hi), 0.0)
        penalty = np.where(margin < PENALTY_DENOMINATOR_TOL,
                           POLE_PENALTY_WEIGHT * (2.0 - margin / PENALTY_DENOMINATOR_TOL), 0.0)
        return sse + penalty

    def fitness_one(self, genes: np.ndarray) -> float:
        return float(self.fitness_many(genes.reshape(1, -1))[0])


def _box(x: np.ndarray, y: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Bounding box ((x lo, x hi), (y lo, y hi)) of the inputs."""
    return (float(x.min()), float(x.max())), (float(y.min()), float(y.max()))


def fitness(chromosome: Chromosome, data: DataPoints, config: GAConfig) -> float:
    """Penalized fitness of a single chromosome (SSE + pole penalty, mm^2).
    The penalty depends on no field of ``config``."""
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    return _Problem.from_data(data).fitness_one(chromosome.genes)


def _generation_stream(seed: int, generation: int, substream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0, generation, substream))
    )


def _init_stream(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, 0)))


def _step_arrays(
    genes: np.ndarray,
    fitnesses: np.ndarray,
    problem: _Problem,
    config: GAConfig,
    generation: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One generation on raw arrays; the best survivor comes first."""
    pop = genes.shape[0]
    lo, hi = config.coefficient_bounds
    sigma = config.mutation_sigma(generation)

    pairing = _generation_stream(config.seed, generation, 0)
    order = pairing.permutation(pop)

    offspring = np.empty_like(genes)
    streams = [_generation_stream(config.seed, generation, 1 + j) for j in range(pop)]
    for k in range(pop // 2):
        ia, ib = order[2 * k], order[2 * k + 1]
        pa, pb = genes[ia], genes[ib]
        lead = streams[2 * k]
        crossed = lead.random() < config.crossover_rate
        swap = lead.random(11) < 0.5
        if crossed:
            offspring[2 * k] = np.where(swap, pb, pa)
            offspring[2 * k + 1] = np.where(swap, pa, pb)
        else:
            offspring[2 * k] = pa
            offspring[2 * k + 1] = pb
    if pop % 2:
        offspring[pop - 1] = genes[order[pop - 1]]

    for j in range(pop):
        stream = streams[j]
        mutate = stream.random(11) < config.mutation_rate
        noise = stream.normal(0.0, sigma, 11)
        offspring[j] = np.where(mutate, offspring[j] + noise, offspring[j])
    np.clip(offspring, lo, hi, out=offspring)

    # fitness is a pure function of the genes: offspring identical to a
    # current individual (common once the population converges) reuse its
    # value instead of re-evaluating
    known = {genes[i].tobytes(): fitnesses[i] for i in range(pop)}
    child_fitness = np.empty(pop)
    fresh = []
    for j in range(pop):
        cached = known.get(offspring[j].tobytes())
        if cached is None:
            fresh.append(j)
        else:
            child_fitness[j] = cached
    if fresh:
        child_fitness[fresh] = problem.fitness_many(offspring[fresh])

    all_genes = np.concatenate([genes, offspring], axis=0)
    all_fitness = np.concatenate([fitnesses, child_fitness])
    ranked = np.argsort(all_fitness, kind="stable")
    # elitist truncation preferring distinct genomes: offspring that merely
    # duplicate a survivor must not crowd out worse-but-distinct parents
    # (no-op operators leave the population unchanged as a multiset)
    keep: list[int] = []
    seen: set[bytes] = set()
    skipped: list[int] = []
    for idx in ranked:
        key = all_genes[idx].tobytes()
        if key in seen:
            skipped.append(idx)
            continue
        seen.add(key)
        keep.append(idx)
        if len(keep) == pop:
            break
    for idx in skipped:
        if len(keep) == pop:
            break
        keep.append(idx)
    keep_idx = np.array(keep)
    return all_genes[keep_idx].copy(), all_fitness[keep_idx].copy()


def step_generation(
    population: list[Chromosome],
    data: DataPoints,
    config: GAConfig,
    generation: int,
) -> list[Chromosome]:
    """Advance one generation: random pairing, uniform crossover, Gaussian
    mutation, then elitist truncation of parents plus offspring.

    Truncation prefers distinct genomes so duplicate offspring cannot
    crowd out worse-but-distinct parents; duplicates refill the population
    only when fewer distinct genomes than population_size exist. All
    randomness is a pure function of (config.seed, generation), so
    replaying a generation index reproduces it exactly. Returns the
    survivors with fitness filled in, best individual first.
    """
    if len(population) != config.population_size:
        raise ValueError(
            f"population size {len(population)} != config.population_size {config.population_size}"
        )
    problem = _Problem.from_data(data)
    genes = np.stack([c.genes for c in population])
    fitnesses = np.array(
        [
            c.fitness if c.fitness is not None else problem.fitness_one(c.genes)
            for c in population
        ]
    )
    new_genes, new_fitness = _step_arrays(genes, fitnesses, problem, config, generation)
    return [Chromosome(g, float(f)) for g, f in zip(new_genes, new_fitness)]


def _initial_genes(config: GAConfig) -> np.ndarray:
    rng = _init_stream(config.seed)
    pop = config.population_size
    genes = np.empty((pop, 11))
    genes[:, 0::2] = rng.uniform(-INIT_WIDTH, INIT_WIDTH, (pop, 6))
    genes[:, 1::2] = rng.uniform(-INIT_DENOMINATOR_WIDTH, INIT_DENOMINATOR_WIDTH, (pop, 5))
    return genes


def initial_population(config: GAConfig) -> list[Chromosome]:
    """Seeded random chromosomes; numerator slots span +-INIT_WIDTH,
    denominator slots +-INIT_DENOMINATOR_WIDTH (unevaluated)."""
    return [Chromosome(g) for g in _initial_genes(config)]


class _Preconditioner:
    """Affine input/output standardization plus QR orthonormalization.

    The GA searches genes g such that predictions of the normalized
    observation are (Bn @ g_num) / (1 + Bd @ g_den), with Bn/Bd having
    orthonormal columns (scaled to unit RMS) over the data. When the data
    design is numerically rank-deficient (e.g. all samples on one conic)
    the orthonormalization is skipped and genes parameterize the
    standardized-input quadrics directly. ``decode`` maps the winning
    genes to plain surface coefficients in the original (x, y, z) units.
    """

    def __init__(self, x, y, z):
        self.mx, self.sx = float(x.mean()), float(x.std())
        self.my, self.sy = float(y.mean()), float(y.std())
        self.mz, self.sz = float(z.mean()), float(z.std())
        self.u = (x - self.mx) / self.sx
        self.v = (y - self.my) / self.sy
        self.zn = (z - self.mz) / self.sz
        design = quadric_design(self.u, self.v)
        qn, rn = np.linalg.qr(design)
        qd, rd = np.linalg.qr(design[:, 1:])
        full_rank = (
            np.abs(np.diag(rn)).min() > 1e-8 * np.abs(np.diag(rn)).max()
            and np.abs(np.diag(rd)).min() > 1e-8 * np.abs(np.diag(rd)).max()
        )
        if full_rank:
            scale = math.sqrt(x.size)
            self.num_basis = qn * scale
            self.den_basis = qd * scale
            # coefficient maps: design @ Mn == num_basis, design[:,1:] @ Md == den_basis
            self.Mn = solve_triangular(rn, np.eye(6)) * scale
            self.Md = solve_triangular(rd, np.eye(5)) * scale
        else:
            self.num_basis = design
            self.den_basis = design[:, 1:]
            self.Mn = np.eye(6)
            self.Md = np.eye(5)

    def decode(self, genes: np.ndarray) -> np.ndarray:
        """Genes in the preconditioned basis -> plain a1..a11 coefficients."""
        cn = self.Mn @ genes[0::2]  # standardized-input numerator quadric
        cd = np.concatenate(([1.0], self.Md @ genes[1::2]))  # with constant 1
        # expand quadrics in u=(x-mx)/sx, v=(y-my)/sy into quadrics in x, y
        num_xy = _substitute_affine(cn, 1.0 / self.sx, -self.mx / self.sx,
                                    1.0 / self.sy, -self.my / self.sy)
        den_xy = _substitute_affine(cd, 1.0 / self.sx, -self.mx / self.sx,
                                    1.0 / self.sy, -self.my / self.sy)
        # undo observation normalization: z = mz + sz * (num/den)
        num_xy = self.sz * num_xy + self.mz * den_xy
        c0 = den_xy[0]
        if c0 == 0.0:
            raise DegenerateDataError("fitted denominator vanishes at the origin")
        num_xy /= c0
        den_xy /= c0
        out = np.empty(11)
        out[0::2] = num_xy
        out[1::2] = den_xy[1:]
        return out


def _substitute_affine(c: np.ndarray, ax: float, bx: float, ay: float, by: float) -> np.ndarray:
    """Coefficients of q(ax*x + bx, ay*y + by) for a quadric q with
    coefficients c over (1, u, v, u^2, v^2, u*v)."""
    c1, cu, cv, cuu, cvv, cuv = c
    return np.array(
        [
            c1 + cu * bx + cv * by + cuu * bx * bx + cvv * by * by + cuv * bx * by,
            cu * ax + 2.0 * cuu * ax * bx + cuv * ax * by,
            cv * ay + 2.0 * cvv * ay * by + cuv * ay * bx,
            cuu * ax * ax,
            cvv * ay * ay,
            cuv * ax * ay,
        ]
    )


def fit_surface(
    data: DataPoints, config: GAConfig = GAConfig()
) -> tuple[RationalQuadricSurface, FitReport]:
    """Fit the eleven coefficients to data by minimizing penalized SSE.

    Requires at least 20 points with non-degenerate x, y and z. Runs up to
    config.generations generations of the preconditioned GA with the
    stall-based early stop, then returns the best surface (in plain
    coefficients, verified pole-free on the data's bounding box) and its
    FitReport on the same data.
    """
    if len(data) < 20:
        raise ValueError(f"need at least 20 data points, got {len(data)}")
    x, y, z, w = data.x, data.y, data.z, data.w
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DegenerateDataError("x or y values are all identical")
    if np.ptp(z) == 0.0:
        raise DegenerateDataError("observations are all identical")

    pre = _Preconditioner(x, y, z)
    problem = _Problem(
        num_basis=pre.num_basis,
        den_basis=pre.den_basis,
        den_map=pre.Md,
        box=_box(pre.u, pre.v),
        z=pre.zn,
        w=w,
    )

    genes = _initial_genes(config)
    fitnesses = problem.fitness_many(genes)
    order = np.argsort(fitnesses, kind="stable")
    genes, fitnesses = genes[order], fitnesses[order]

    # the GA minimizes normalized-z SSE; keep the documented mm^2 stall
    # tolerance by rescaling it
    stall_tol = STALL_TOLERANCE / (pre.sz * pre.sz)
    best = float(fitnesses[0])
    stall = 0
    for g in range(config.generations):
        genes, fitnesses = _step_arrays(genes, fitnesses, problem, config, g)
        new_best = float(fitnesses[0])
        if best - new_best < stall_tol:
            stall += 1
        else:
            stall = 0
        best = new_best
        if stall >= STALL_GENERATIONS:
            break

    surface = RationalQuadricSurface.from_coefficients(pre.decode(genes[0]))
    if not surface.is_pole_free(*_box(x, y)):
        raise DegenerateDataError("fitted surface has a near-pole inside the data domain")
    return surface, fit_report(surface, data)
