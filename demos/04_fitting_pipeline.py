"""The full estimation pipeline at desk scale.

Nine synthetic subjects fit the offset surface with the genetic
algorithm; sixteen held-out subjects validate it. Mirrors the intended
workflow on real tracking data: synthesize (or load) sessions, derive
joint series through the inverse kinematics, fit, then judge the fit on
subjects the optimizer never saw.

The fit uses the default GAConfig: the genetic algorithm searches, a
Levenberg-Marquardt polish finishes, and the search stops once the
polished best repeats, so the whole script takes a few seconds.
"""

import time

import numpy as np

from wristkin import (
    GAConfig,
    RationalQuadricSurface,
    SyntheticConfig,
    derive_joint_series,
    fit_report,
    fit_surface,
    lowess,
    standardized_residuals,
    subject_split,
    synthesize_sessions,
    to_data_points,
    validation_stats,
)

truth = RationalQuadricSurface(
    numerator=[21.0, 2.0, -25.0, 0.0, 12.0, 1.5],
    denominator=[0.0, 0.08, 0.0, 0.05, 0.0],
)
NOISE = 1.35

print(f"synthesizing 25 subjects (noise sigma = {NOISE} mm)...")
sessions = synthesize_sessions(
    SyntheticConfig(ground_truth=truth, n_subjects=25, seed=2026, noise_sigma_mm=NOISE)
)
fit_sessions, val_sessions = subject_split(sessions, n_fit=9, seed=2026)
fit_points = to_data_points([derive_joint_series(s) for s in fit_sessions])
print(f"fit set: {len(fit_sessions)} subjects, {len(fit_points)} samples")

print("\nfitting the surface with the genetic algorithm...")
start = time.perf_counter()
surface, train_report = fit_surface(fit_points, GAConfig(seed=11))
print(f"done in {time.perf_counter() - start:.1f}s")
print(f"training fit: RMSE = {train_report.rmse:.3f} mm, R^2 = {train_report.r_squared:.3f}")
print(f"fitted numerator:   {np.round(surface.numerator, 3)}")
print(f"fitted denominator: {np.round(surface.denominator, 3)}")

print("\n--- held-out validation (16 unseen subjects) ---")
val_points = to_data_points([derive_joint_series(s) for s in val_sessions])
held_out = fit_report(surface, val_points)
print(f"held-out RMSE = {held_out.rmse:.3f} mm (noise floor {NOISE} mm), "
      f"R^2 = {held_out.r_squared:.3f}")

summary = validation_stats(surface, val_sessions)
print(f"pooled residual: {summary.pooled_mean:+.3f} +- {summary.pooled_sd:.3f} mm")
worst = max(summary.subjects, key=lambda s: abs(s.mean_residual))
print(f"worst subject bias: {worst.subject_id} at {worst.mean_residual:+.3f} mm "
      f"({worst.pct_error:.2f}% error)")

print("\n--- residual diagnostics (first fit subject) ---")
series = derive_joint_series(fit_sessions[0])
predicted = np.asarray(surface.evaluate(series.beta3, series.beta4))
residual = series.d2 - predicted
std_res = standardized_residuals(residual)
smooth = lowess(np.arange(std_res.size, dtype=float), std_res, frac=2 / 3, iterations=3)
print(f"standardized residuals: mean {std_res.mean():+.3f}, sd {std_res.std(ddof=1):.3f}")
print(f"LOWESS trend stays near zero: max |trend| = {np.abs(smooth).max():.3f}")
