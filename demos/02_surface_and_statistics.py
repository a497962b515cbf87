"""The rational quadric offset surface and the fit statistics around it.

The surface predicts the prismatic offset d2 (mm) from the coupled wrist
angles x = beta3 and y = beta4 (radians). This script evaluates the
shipped reference surface, scores a deliberately imperfect surface with
fit_report, and demonstrates the smaller statistical tools (standardized
residuals, Spearman rank correlation, ordinary least squares, LOWESS).
"""

import math

import numpy as np

from wristkin import (
    DataPoints,
    RationalQuadricSurface,
    fit_report,
    linear_regression,
    lowess,
    reference_surface,
    spearman_rho,
    standardized_residuals,
)

rng = np.random.default_rng(0)

print("--- the shipped reference surface ---")
ref = reference_surface()
print(f"numerator coefficients:   {ref.numerator}")
print(f"denominator coefficients: {ref.denominator}")
print(f"value at the (0, 0) anchor: {ref.evaluate(0.0, 0.0)} mm")
neutral = ref.evaluate(math.pi / 2, 0.0)
print(f"value at neutral posture (beta3 = 90 deg, beta4 = 0): {neutral:.3f} mm")

print("\nacross the flexion-extension range at neutral deviation:")
for beta4_deg in (-10, 0, 10, 20, 30):
    v = ref.evaluate(math.pi / 2, math.radians(beta4_deg))
    print(f"  beta4 = {beta4_deg:+3d} deg -> d2_hat = {v:7.3f} mm")

print("\n--- scoring a surface against observations ---")
truth = RationalQuadricSurface(
    numerator=[21.0, 2.0, -25.0, 0.0, 12.0, 1.5],
    denominator=[0.0, 0.08, 0.0, 0.05, 0.0],
)
x = rng.uniform(math.pi / 2 - 0.0873, math.pi / 2 + 0.0873, 400)
y = rng.uniform(math.radians(-10), math.radians(30), 400)
z = np.asarray(truth.evaluate(x, y)) + rng.normal(0, 1.0, 400)
data = DataPoints(x, y, z)

report = fit_report(truth, data)
print(f"n = {report.n}, SSE = {report.sse:.2f} mm^2, RMSE = {report.rmse:.3f} mm")
print(f"R = {report.r:.4f}, R^2 = {report.r_squared:.4f}")
print(f"first five standardized residuals: {np.round(report.standardized_residuals[:5], 3)}")

print("\nstandardized residuals by hand for (0, 3, -3, 0):")
print(f"  {standardized_residuals([0.0, 3.0, -3.0, 0.0])}")

print("\n--- monotone association between d2 and flexion ---")
rho = spearman_rho(y, z)
ols = linear_regression(y, z)
print(f"Spearman rho(d2, beta4) = {rho:.3f} (negative: the offset shrinks in flexion)")
print(f"OLS: d2 ~ {ols.slope:.2f} mm/rad * beta4 + {ols.intercept:.2f} mm")

print("\n--- LOWESS smoothing of a noisy series ---")
xs = np.linspace(0, 4 * math.pi, 250)
noisy = np.sin(xs) + rng.normal(0, 0.3, 250)
smooth = lowess(xs, noisy, frac=0.25, iterations=3)
raw_rmse = math.sqrt(np.mean((noisy - np.sin(xs)) ** 2))
smooth_rmse = math.sqrt(np.mean((smooth - np.sin(xs)) ** 2))
print(f"rmse vs the underlying sine: raw {raw_rmse:.3f} -> smoothed {smooth_rmse:.3f}")
