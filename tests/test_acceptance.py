"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The whole gate takes a few seconds on a 2-vCPU machine: the GA fits of
criteria 6 and 7 stop after a few hundred generations once their polished
best repeats, and criterion 10's 5 000 logged generations take about 2 s.
"""

import math
import time

import numpy as np

from wristkin import (
    DataPoints,
    GAConfig,
    JointState,
    RationalQuadricSurface,
    SubjectParams,
    SyntheticConfig,
    compose_chain,
    derive_joint_series,
    fit_report,
    fit_surface,
    forward_kinematics,
    inverse_kinematics,
    link_transforms,
    lowess,
    reference_surface,
    spearman_rho,
    subject_split,
    synthesize_sessions,
    to_data_points,
    validation_stats,
)
from wristkin.cli import run
from wristkin.ga import GENE_BOUND, _initial_genes, _Problem, _step_arrays

from test_lowess import lowess_oracle

TRUTH = RationalQuadricSurface(
    numerator=[21.0, 2.0, -25.0, 0.0, 12.0, 1.5],
    denominator=[0.0, 0.08, 0.0, 0.05, 0.0],
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_fk_ik_round_trip():
    rng = np.random.default_rng(1)
    n = 10_000
    t3 = rng.uniform(math.radians(-20), math.radians(20), n)
    t4 = rng.uniform(math.radians(-85), math.radians(85), n)
    d2 = rng.uniform(-50.0, 50.0, n)
    a4 = rng.uniform(80.0, 120.0, n)
    start = time.perf_counter()
    worst = 0.0
    for i in range(n):
        subject = SubjectParams(a4=a4[i])
        state = JointState(theta3=t3[i], theta4=t4[i], d2=d2[i])
        back = inverse_kinematics(forward_kinematics(state, subject), subject)
        worst = max(
            worst,
            abs(back.theta3 - t3[i]),
            abs(back.theta4 - t4[i]),
            abs(back.d2 - d2[i]),
        )
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-9 and elapsed < 1.0,
        f"10k round trips, max coordinate error {worst:.2e} (<1e-9), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_closed_form_consistency():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        state = JointState(
            theta3=rng.uniform(-1.2, 1.2),
            theta4=rng.uniform(-1.5, 1.5),
            d2=rng.uniform(-60.0, 60.0),
        )
        subject = SubjectParams(a4=rng.uniform(80.0, 120.0))
        closed = forward_kinematics(state, subject).as_matrix()
        product = compose_chain(link_transforms(state, subject)).as_matrix()
        worst = max(worst, float(np.abs(closed - product).max()))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst < 1e-12 and elapsed < 1.0,
        f"1000 states, max elementwise gap {worst:.2e} (<1e-12), {elapsed:.2f}s (<1s)",
    )


def test_criterion_03_published_surface_anchor():
    value = reference_surface().evaluate(0.0, 0.0)
    _report(3, value == 18.0, f"evaluate(reference, 0, 0) = {value!r} (== 18.0 exactly)")


def test_criterion_04_statistic_identities():
    rng = np.random.default_rng(4)
    worst_rmse_gap = 0.0
    worst_r2_gap = 0.0
    for _ in range(1000):
        surface = RationalQuadricSurface(
            rng.uniform(-3, 3, 6), rng.uniform(-0.05, 0.05, 5)
        )
        n = int(rng.integers(3, 60))
        x, y = rng.uniform(-1, 1, (2, n))
        z = np.asarray(surface.evaluate(x, y)) + rng.normal(0, 1.0, n)
        report = fit_report(surface, DataPoints(x, y, z))
        worst_rmse_gap = max(worst_rmse_gap, abs(report.rmse**2 * n - report.sse))
        zhat = np.asarray(surface.evaluate(x, y))
        sse = math.fsum((zi - hi) ** 2 for zi, hi in zip(z, zhat))
        zbar = math.fsum(z) / n
        sst = math.fsum((zi - zbar) ** 2 for zi in z)
        worst_r2_gap = max(worst_r2_gap, abs(report.r_squared - (1.0 - sse / sst)))
    # perfect fit: exact R^2 of 1
    x, y = rng.uniform(-1, 1, (2, 25))
    base = RationalQuadricSurface([2.0, 1.0, -1.0, 0, 0, 0], [0.0] * 5)
    z = np.asarray(base.evaluate(x, y))
    perfect = fit_report(base, DataPoints(x, y, z))
    _report(
        4,
        worst_rmse_gap < 1e-10 and worst_r2_gap < 1e-10 and perfect.r_squared == 1.0,
        f"1000 datasets: |rmse^2*n - sse| <= {worst_rmse_gap:.1e} (<1e-10), "
        f"|r2 - (1-sse/sst)| <= {worst_r2_gap:.1e} (<1e-10), perfect fit r2 == 1.0",
    )


def test_criterion_05_spearman_sanity():
    config = SyntheticConfig(ground_truth=TRUTH, n_subjects=1, seed=5, noise_sigma_mm=0.0)
    series = derive_joint_series(synthesize_sessions(config)[0])
    rho = spearman_rho(series.beta4, series.d2)
    x = np.asarray(series.beta4)
    self_rho = spearman_rho(x, x)
    _report(
        5,
        rho <= -0.9 and self_rho == 1.0,
        f"d2 vs beta4 rho = {rho:.4f} (<= -0.9), rho(x, x) = {self_rho!r} (== 1.0)",
    )


def _synthesize_cohort(noise: float, seed: int):
    config = SyntheticConfig(
        ground_truth=TRUTH, n_subjects=25, seed=seed, noise_sigma_mm=noise
    )
    return synthesize_sessions(config)


def test_criterion_06_ga_recovery_with_noise():
    sessions = _synthesize_cohort(noise=1.35, seed=2026)
    fit_sessions, val_sessions = subject_split(sessions, 9, seed=2026)
    fit_points = to_data_points([derive_joint_series(s) for s in fit_sessions])
    start = time.perf_counter()
    surface, _ = fit_surface(fit_points, GAConfig(seed=11))
    elapsed = time.perf_counter() - start
    val_points = to_data_points([derive_joint_series(s) for s in val_sessions])
    held_out = fit_report(surface, val_points)
    summary = validation_stats(surface, val_sessions)
    ok = (
        held_out.rmse <= 2.0
        and held_out.r_squared >= 0.85
        and abs(summary.pooled_mean) <= 0.5
        and elapsed < 120.0
    )
    _report(
        6,
        ok,
        f"held-out rmse {held_out.rmse:.3f} (<=2.0), r2 {held_out.r_squared:.3f} (>=0.85), "
        f"pooled mean {summary.pooled_mean:+.3f} (|.|<=0.5), fit {elapsed:.0f}s (<120s)",
    )


def test_criterion_07_noiseless_pipeline_identity():
    sessions = _synthesize_cohort(noise=0.0, seed=99)
    fit_sessions, _ = subject_split(sessions, 9, seed=99)
    fit_points = to_data_points([derive_joint_series(s) for s in fit_sessions])
    surface, _ = fit_surface(fit_points, GAConfig(seed=12))
    all_points = to_data_points([derive_joint_series(s) for s in sessions])
    pooled = fit_report(surface, all_points)
    summary = validation_stats(surface, sessions)
    worst_pct = max(s.pct_error for s in summary.subjects)
    _report(
        7,
        pooled.rmse < 0.2 and worst_pct < 2.0,
        f"pooled rmse {pooled.rmse:.4f} (<0.2), worst subject pct error "
        f"{worst_pct:.4f}% (<2%) over all 25 subjects",
    )


def test_criterion_08_fit_determinism(tmp_path):
    from wristkin import save_surface

    surface_path = tmp_path / "truth.json"
    save_surface(TRUTH, surface_path)
    data_dir = tmp_path / "data"
    rc = run(
        ["synth", "--subjects", "3", "--seed", "8", "--out", str(data_dir),
         "--cycles", "2", "--duration", "6", "--noise-sigma", "0.5",
         "--surface", str(surface_path)]
    )
    assert rc == 0
    outs = []
    for name in ("fit_a", "fit_b"):
        out = tmp_path / name
        rc = run(["fit", "--data", str(data_dir), "--out", str(out),
                  "--seed", "13", "--generations", "1200"])
        assert rc == 0
        outs.append(out)
    same_surface = (outs[0] / "surface.json").read_bytes() == (outs[1] / "surface.json").read_bytes()
    same_report = (outs[0] / "fit_report.json").read_bytes() == (outs[1] / "fit_report.json").read_bytes()
    _report(
        8,
        same_surface and same_report,
        "two identical `fit` runs: surface.json and fit_report.json byte-identical",
    )


def test_criterion_09_lowess_correctness():
    x = np.linspace(-2.0, 3.0, 120)
    y = -1.5 * x + 0.25
    affine_gap = float(np.abs(lowess(x, y, frac=1.0, iterations=0) - y).max())
    rng = np.random.default_rng(9)
    xs = np.sort(rng.uniform(0, 4 * math.pi, 200))
    ys = np.sin(xs) + rng.normal(0, 0.3, 200)
    mine = lowess(xs, ys, frac=0.3, iterations=3)
    oracle = lowess_oracle(xs, ys, frac=0.3, iterations=3)
    oracle_gap = float(np.abs(mine - oracle).max())
    _report(
        9,
        affine_gap < 1e-9 and oracle_gap < 1e-8,
        f"affine reproduction {affine_gap:.1e} (<1e-9), "
        f"oracle agreement {oracle_gap:.1e} (<1e-8) on 200-point noisy series",
    )


def test_criterion_10_ga_convergence_log():
    rng = np.random.default_rng(10)
    x = rng.uniform(1.45, 1.70, 120)
    y = rng.uniform(-0.2, 0.55, 120)
    z = np.asarray(TRUTH.evaluate(x, y)) + rng.normal(0, 0.5, 120)
    data = DataPoints(x, y, z)
    config = GAConfig(seed=10, generations=5000)
    problem = _Problem.from_data(data)
    genes = _initial_genes(config)
    fitnesses = problem.fitness_many(genes)
    best_log = []
    bound_violations = 0
    for generation in range(5000):
        genes, fitnesses = _step_arrays(genes, fitnesses, problem, config, generation)
        best_log.append(float(fitnesses.min()))
        if np.abs(genes).max() > GENE_BOUND:
            bound_violations += 1
    increases = sum(1 for a, b in zip(best_log, best_log[1:]) if b > a)
    _report(
        10,
        increases == 0 and bound_violations == 0,
        f"5000 logged generations: {increases} fitness increases (0 allowed), "
        f"{bound_violations} bound violations (0 allowed), "
        f"best fitness {best_log[0]:.3e} -> {best_log[-1]:.3e}",
    )
