"""Real-coded simple genetic algorithm for fitting the rational surface.

Minimizes the sum of squared errors of a
:class:`~wristkin.regression.RationalQuadricSurface` on observed
(beta3, beta4, d2) points, with a pole penalty that keeps the denominator
bounded away from zero over the whole bounding box of the data. The penalty
reads the denominator's exact range over that box
(:func:`~wristkin.regression.quadric_range`), so it also catches a sign
change or near-zero between data points.

Operators: uniform crossover between randomly paired parents, per-gene
Gaussian mutation whose sigma anneals geometrically over the generation
budget, and elitist truncation of parents plus offspring. Each generation
draws from one numpy stream keyed by (config.seed, generation), so runs
are bit-reproducible and any generation can be replayed from its index.

:func:`fit_surface` searches a numerically preconditioned version of the
problem: inputs are standardized, observations are normalized, and the
chromosome genes parameterize the surface in a data-orthonormalized
polynomial basis (QR of the design matrix). One engine runs the search:
``_Problem.fitness_many`` scores a (population_size, 11) gene matrix and
``_step_arrays`` advances it one generation; the public :func:`fitness`
is one row of that kernel.

The GA is the global search; a Levenberg-Marquardt polish (:func:`_polish`)
finishes each fit in the same gene basis. It runs first from the
linearized least-squares solution, then from the GA's best every
POLISH_EVERY generations and at the generation cap, and the GA stops as
soon as a polish no longer lowers the best polished SSE, or the best is an
exact fit at the rounding floor. Every accepted
polish iterate keeps the denominator's exact margin over the data box at
least PENALTY_DENOMINATOR_TOL. The returned surface is the lowest-SSE
polished result whose decoded surface is pole-free on the data's box (the
GA's best when none is), mapped back to plain (beta3, beta4) coefficients
algebraically, so it is exactly the function its genes encode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

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
# each offspring pair is crossed with probability CROSSOVER_RATE, each gene
# mutated with probability MUTATION_RATE, and every gene clipped to
# +-GENE_BOUND
CROSSOVER_RATE = 0.85
MUTATION_RATE = 0.005
GENE_BOUND = 5000.0
# mutation sigma anneals geometrically between these fractions of the
# initialization width 2 * INIT_WIDTH across the generation budget
MUTATION_SIGMA_FRAC = 0.05
MUTATION_SIGMA_FINAL_FRAC = 1e-6
# every POLISH_EVERY generations, and at the generation cap, the GA's best
# is polished; the GA stops once a polish fails to lower the best polished
# SSE by more than STOP_TOLERANCE relative
POLISH_EVERY = 250
STOP_TOLERANCE = 1e-9
# a best polished SSE at or below this fraction of the normalized
# observations' sum of squares is an exact fit at the rounding floor, where
# further polishes only trade last digits: the GA stops
EXACT_FIT_TOLERANCE = 1e-24
# Levenberg-Marquardt polish: initial damping, cap on trial steps, and the
# relative SSE decrease at or below which it has converged
POLISH_LAMBDA = 1e-3
POLISH_TRIALS = 100
POLISH_TOLERANCE = 1e-15
# fit_surface rejects an input column whose spread (max - min) is at most
# this fraction of its largest magnitude: nearly constant, it cannot be fitted
SPREAD_TOL = 1e-8


@dataclass(frozen=True)
class GAConfig:
    """Hyperparameters: population 20, up to 20000 generations, and the
    seed of every random draw.

    ``generations`` is a cap: the run stops earlier once a polish of the
    GA's best no longer lowers the best polished SSE. The operator rates
    and gene bound, initialization widths, the mutation-sigma schedule,
    the polish and its stop rule, and the pole-penalty weight are the
    module constants. GENE_BOUND clips the preconditioned genes, not the
    plain coefficients; in paper-protocol fits (9 subjects, 1.35 mm noise)
    the largest |gene| was about 10, so it has not bound.
    """

    population_size: int = 20
    generations: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
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

    def __init__(self, num_basis, den_basis, den_map, box, z):
        # contiguous (k, n) transposes, so both fitness products stream rows
        self.num_basis_t = np.ascontiguousarray(np.transpose(num_basis))
        self.den_basis_t = np.ascontiguousarray(np.transpose(den_basis))
        self.den_map = den_map
        self.box = box
        self.z = np.asarray(z, dtype=float)

    @classmethod
    def from_data(cls, data: DataPoints) -> "_Problem":
        design = quadric_design(data.x, data.y)
        return cls(
            num_basis=design,
            den_basis=design[:, 1:],
            den_map=np.eye(5),
            box=_box(data.x, data.y),
            z=data.z,
        )

    def fitness_many(self, genes: np.ndarray) -> np.ndarray:
        """Penalized SSE for each row of an (m, 11) gene matrix."""
        g_den = np.ascontiguousarray(genes[:, 1::2])  # (m, 5)
        num = np.ascontiguousarray(genes[:, 0::2]) @ self.num_basis_t  # (m, n)
        den = g_den @ self.den_basis_t
        den += 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(num, den, out=num)
            np.subtract(self.z, num, out=num)
            np.square(num, out=num)
            sse = np.einsum("mn->m", num)
        sse[~np.isfinite(sse)] = np.inf
        margin = self.margin(g_den)
        penalty = np.where(margin < PENALTY_DENOMINATOR_TOL,
                           POLE_PENALTY_WEIGHT * (2.0 - margin / PENALTY_DENOMINATOR_TOL), 0.0)
        return sse + penalty

    def margin(self, g_den: np.ndarray) -> np.ndarray:
        """Least |denominator| over the box for each row of an (m, 5)
        matrix of denominator genes; 0 where the denominator changes sign
        there."""
        coeffs = np.hstack([np.ones((g_den.shape[0], 1)), g_den @ self.den_map.T])
        lo, hi = quadric_range(coeffs, *self.box)
        return np.maximum(np.maximum(lo, -hi), 0.0)

    # The polish contracts over the n points with np.einsum, which sums in
    # one fixed order and never through BLAS, so its result does not depend
    # on the BLAS thread count.

    def residuals(self, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residuals z - num / den of one gene vector, with num and den."""
        num = np.einsum("kn,k->n", self.num_basis_t, genes[0::2])
        den = np.einsum("kn,k->n", self.den_basis_t, genes[1::2])
        den += 1.0
        return self.z - num / den, num, den

    def certified_sse(self, genes: np.ndarray) -> float:
        """SSE of one gene vector; inf unless it is finite and its
        denominator margin over the box is at least PENALTY_DENOMINATOR_TOL."""
        # a near-singular polish step can make genes huge enough to overflow
        with np.errstate(over="ignore", invalid="ignore"):
            if not (np.isfinite(genes).all()
                    and self.margin(genes[None, 1::2])[0] >= PENALTY_DENOMINATOR_TOL):
                return math.inf
            r, _, _ = self.residuals(genes)
            return float(np.einsum("n,n->", r, r))

    def normal_equations(self, genes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J^T J, J^T r) of the residuals at one gene vector, J being the
        analytic Jacobian in gene order."""
        r, num, den = self.residuals(genes)
        jac_t = np.empty((11, r.size))
        scale = 1.0 / den
        np.multiply(self.num_basis_t, -scale, out=jac_t[0::2])
        np.multiply(self.den_basis_t, scale * (num / den), out=jac_t[1::2])
        return np.einsum("in,jn->ij", jac_t, jac_t), np.einsum("in,n->i", jac_t, r)

    def linearized_start(self) -> np.ndarray | None:
        """Genes solving z * (1 + den_basis @ g_den) - num_basis @ g_num = 0
        in least squares (Loeb 1957; Sanathanan & Koerner 1963):
        one 11-column solve of the normal equations. None when singular."""
        a_t = np.empty((11, self.z.size))
        a_t[0::2] = self.num_basis_t
        np.multiply(self.den_basis_t, -self.z, out=a_t[1::2])
        try:
            return np.linalg.solve(np.einsum("in,jn->ij", a_t, a_t),
                                   np.einsum("in,n->i", a_t, self.z))
        except np.linalg.LinAlgError:
            return None


def _box(x: np.ndarray, y: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Bounding box ((x lo, x hi), (y lo, y hi)) of the inputs."""
    return (float(x.min()), float(x.max())), (float(y.min()), float(y.max()))


def fitness(coefficients, data: DataPoints) -> float:
    """Penalized SSE (mm^2) of plain coefficients a1..a11: one fitness_many row."""
    genes = np.asarray(coefficients, dtype=float)
    if genes.shape != (11,):
        raise ValueError(f"expected 11 coefficients, got shape {genes.shape}")
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    return float(_Problem.from_data(data).fitness_many(genes[None, :])[0])


def _generation_stream(seed: int, generation: int) -> np.random.Generator:
    """The one stream a generation draws from, in this order: the pairing
    permutation (pop,), crossover flags (pop // 2,), the swap mask
    (pop // 2, 11), the mutation mask (pop, 11), then normal noise for the
    mutated genes only, in row-major order."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0, generation)))
    )


def _equal_rows(genes: np.ndarray) -> np.ndarray:
    """(n, n) mask of gene rows that are equal bit for bit."""
    bits = genes.view(np.uint64)
    # equal rows have equal weighted sums of their bit patterns (mod 2^64);
    # only pairs whose sums match are then compared gene by gene
    key = bits @ np.arange(1, 2 * bits.shape[1], 2, dtype=np.uint64)
    same = key[:, None] == key
    i, j = np.nonzero(same)
    same[i, j] = (bits[i] == bits[j]).all(axis=1)
    return same


def _offspring(genes: np.ndarray, config: GAConfig, generation: int) -> np.ndarray:
    """Unevaluated children of one generation: parents in pairing order,
    pair k in rows (2k, 2k + 1) after uniform crossover (an odd
    population's last parent passes through unpaired), then Gaussian
    mutation clipped to +-GENE_BOUND."""
    pop = genes.shape[0]
    half = pop // 2
    rng = _generation_stream(config.seed, generation)
    offspring = genes[rng.permutation(pop)]
    pairs = offspring[:2 * half].reshape(half, 2, 11)  # a view into offspring
    crossed = rng.random(half) < CROSSOVER_RATE
    swap = (rng.random((half, 11)) < 0.5) & crossed[:, None]
    pairs[...] = np.where(swap[:, None, :], pairs[:, ::-1], pairs)
    mutate = rng.random((pop, 11)) < MUTATION_RATE
    offspring[mutate] += rng.normal(0.0, config.mutation_sigma(generation),
                                    np.count_nonzero(mutate))
    return np.clip(offspring, -GENE_BOUND, GENE_BOUND, out=offspring)


def _step_arrays(
    genes: np.ndarray,
    fitnesses: np.ndarray,
    problem: _Problem,
    config: GAConfig,
    generation: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One generation: :func:`_offspring`, then elitist truncation of
    parents plus offspring preferring distinct genomes, best survivor
    first. All randomness is a pure function of (config.seed, generation),
    so replaying a generation index reproduces it exactly."""
    pop = genes.shape[0]
    offspring = _offspring(genes, config, generation)

    # offspring identical to a current individual (common once the
    # population converges) reuse the first such parent's value instead of
    # being evaluated again. A row's value can differ in its last digits
    # between batch and single evaluation (BLAS treats a batch's leftover
    # rows differently), so the cache keeps the value a genome was first
    # given; it does not make values independent of the batch.
    all_genes = np.concatenate([genes, offspring], axis=0)
    same = _equal_rows(all_genes)
    match = same[pop:, :pop]
    fresh = ~match.any(axis=1)
    child_fitness = fitnesses[match.argmax(axis=1)]
    if fresh.any():
        child_fitness[fresh] = problem.fitness_many(offspring[fresh])

    all_fitness = np.concatenate([fitnesses, child_fitness])
    ranked = np.argsort(all_fitness, kind="stable")
    # elitist truncation preferring distinct genomes: offspring that merely
    # duplicate a survivor must not crowd out worse-but-distinct parents
    # (no-op operators leave the population unchanged as a multiset);
    # duplicates refill only when fewer than pop distinct genomes exist
    repeat = same[np.ix_(ranked, ranked)].argmax(axis=1) < np.arange(ranked.size)
    keep = np.concatenate([ranked[~repeat], ranked[repeat]])[:pop]
    return all_genes[keep], all_fitness[keep]


def _initial_genes(config: GAConfig) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, 0)))
    pop = config.population_size
    genes = np.empty((pop, 11))
    genes[:, 0::2] = rng.uniform(-INIT_WIDTH, INIT_WIDTH, (pop, 6))
    genes[:, 1::2] = rng.uniform(-INIT_DENOMINATOR_WIDTH, INIT_DENOMINATOR_WIDTH, (pop, 5))
    return genes


def _polish(problem: _Problem, genes: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Levenberg-Marquardt (Moré 1978) from one gene vector; (genes, SSE),
    or None when the start is not certified (:meth:`_Problem.certified_sse`).

    Each trial step solves (J^T J + lam * diag(J^T J)) step = -J^T r; lam
    is divided by 10 after an accepted step and multiplied by 10 after a
    rejected one. A step is rejected unless it is certified and lowers the
    SSE, so every accepted iterate is certified; a singular damped system
    is a rejected step. Stops once an accepted step lowers the SSE by at
    most POLISH_TOLERANCE relative, or after POLISH_TRIALS trial steps.
    """
    sse = problem.certified_sse(genes)
    if sse == math.inf:
        return None
    lam = POLISH_LAMBDA
    jtj = None
    for _ in range(POLISH_TRIALS):
        if jtj is None:
            jtj, jtr = problem.normal_equations(genes)
        try:
            trial = genes + np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -jtr)
            trial_sse = problem.certified_sse(trial)
        except np.linalg.LinAlgError:
            trial_sse = math.inf
        if not trial_sse < sse:
            lam *= 10.0
            continue
        converged = sse - trial_sse <= POLISH_TOLERANCE * sse
        genes, sse, lam, jtj = trial, trial_sse, lam / 10.0, None
        if converged:
            break
    return genes, sse


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
            # coefficient maps: design @ Mn == num_basis, design[:,1:] @ Md == den_basis.
            # Kept in Fortran order: the products with them pick their BLAS
            # kernel by layout, and a C-ordered map moves the fit's last digit
            self.Mn = np.asfortranarray(np.linalg.inv(rn)) * scale
            self.Md = np.asfortranarray(np.linalg.inv(rd)) * scale
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
    """Fit the eleven coefficients to data by minimizing SSE with the
    denominator kept away from zero over the data's bounding box.

    Requires at least 20 points, and x, y and z columns whose spread
    exceeds SPREAD_TOL of their largest magnitude. Polishes the linearized
    start, then runs the preconditioned GA, polishing its best every
    POLISH_EVERY generations and at the config.generations cap, and stops
    once such a polish fails to lower the best polished SSE by more than
    STOP_TOLERANCE relative, or the best polished SSE is at most
    EXACT_FIT_TOLERANCE of the normalized observations' sum of squares.
    Returns the lowest-SSE polished surface that is pole-free on the data's
    bounding box, else the GA's best if that is, in plain coefficients,
    with its FitReport on the same data.
    Raises DegenerateDataError when no candidate is pole-free.
    """
    if len(data) < 20:
        raise ValueError(f"need at least 20 data points, got {len(data)}")
    x, y, z = data.x, data.y, data.z
    for name, column in (("beta3 (x)", x), ("beta4 (y)", y), ("d2 (z)", z)):
        spread = float(np.ptp(column))
        if spread <= SPREAD_TOL * float(np.abs(column).max()):
            raise DegenerateDataError(
                f"{name} values are nearly constant: spread {spread:.3g}, "
                f"at most {SPREAD_TOL:g} of their largest magnitude"
            )

    pre = _Preconditioner(x, y, z)
    problem = _Problem(
        num_basis=pre.num_basis,
        den_basis=pre.den_basis,
        den_map=pre.Md,
        box=_box(pre.u, pre.v),
        z=pre.zn,
    )

    genes = _initial_genes(config)
    fitnesses = problem.fitness_many(genes)
    order = np.argsort(fitnesses, kind="stable")
    genes, fitnesses = genes[order], fitnesses[order]

    polished = []  # (genes, SSE) of each certified polish, in the order run

    def polish(start) -> float:
        result = None if start is None else _polish(problem, start)
        if result is None:
            return math.inf
        polished.append(result)
        return result[1]

    exact = EXACT_FIT_TOLERANCE * float(np.einsum("n,n->", pre.zn, pre.zn))
    best = polish(problem.linearized_start())
    for g in range(config.generations):
        genes, fitnesses = _step_arrays(genes, fitnesses, problem, config, g)
        if (g + 1) % POLISH_EVERY and g + 1 < config.generations:
            continue
        sse = polish(genes[0])
        if min(best, sse) <= exact or (math.isfinite(best)
                                        and not best - sse > STOP_TOLERANCE * best):
            break
        best = sse

    box = _box(x, y)
    ranked = [result[0] for result in sorted(polished, key=lambda result: result[1])]
    for candidate in [*ranked, genes[0]]:
        surface = RationalQuadricSurface.from_coefficients(pre.decode(candidate))
        if surface.is_pole_free(*box):
            return surface, fit_report(surface, data)
    raise DegenerateDataError("fitted surface has a near-pole inside the data domain")
