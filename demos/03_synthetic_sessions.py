"""Synthetic tracking sessions: generation, files, and joint derivation.

Each synthetic subject performs smooth flexion-extension cycles (neutral
-> extension -> flexion -> neutral) with a small coupled deviation
sinusoid; the prismatic offset follows a ground-truth surface plus
optional noise. The protocol is fixed: 10 deg extension to 30 deg flexion,
a 5 deg deviation, a4 in [90, 110] mm and 50 Hz sampling; a config sets
the cohort size, seed, cycles, duration and noise. Sessions serialize to a CSV of sensor-frame poses plus a
JSON metadata file, and reload byte-identically.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from wristkin import (
    RationalQuadricSurface,
    SyntheticConfig,
    derive_joint_series,
    load_session,
    save_session,
    subject_split,
    synthesize_sessions,
    validation_stats,
)
from wristkin.sessions import EXTENSION_MAX, FLEXION_MAX

truth = RationalQuadricSurface(
    numerator=[21.0, 2.0, -25.0, 0.0, 12.0, 1.5],
    denominator=[0.0, 0.08, 0.0, 0.05, 0.0],
)
config = SyntheticConfig(
    ground_truth=truth,
    n_subjects=6,
    seed=7,
    cycles_per_subject=10,
    duration_s=40.0,
    noise_sigma_mm=0.8,
)
sessions = synthesize_sessions(config)
print(f"generated {len(sessions)} subjects, {len(sessions[0])} samples each\n")

print("--- protocol structure of subject 00 ---")
series = derive_joint_series(sessions[0])
beta4_deg = np.degrees(series.beta4)
print(f"beta4 starts at {beta4_deg[0]:+.3f} deg and first moves to {beta4_deg[1]:+.3f} deg (extension)")
print(f"beta4 range: [{beta4_deg.min():+.2f}, {beta4_deg.max():+.2f}] deg "
      f"(target [-{math.degrees(EXTENSION_MAX):.0f}, +{math.degrees(FLEXION_MAX):.0f}])")
print(f"observed d2 range: [{series.d2.min():.2f}, {series.d2.max():.2f}] mm")

print("\n--- file round trip ---")
with tempfile.TemporaryDirectory() as tmp:
    data = Path(tmp) / "subject_00.csv"
    meta = Path(tmp) / "subject_00.meta.json"
    save_session(sessions[0], data, meta)
    print(f"wrote {data.stat().st_size} bytes of samples, {meta.stat().st_size} bytes of metadata")
    loaded = load_session(data, meta)
    save_session(loaded, Path(tmp) / "again.csv", Path(tmp) / "again.meta.json")
    identical = (Path(tmp) / "again.csv").read_bytes() == data.read_bytes()
    print(f"load -> save reproduces the file byte-identically: {identical}")

print("\n--- subject split and per-subject validation ---")
fit_set, val_set = subject_split(sessions, n_fit=2, seed=3)
print(f"fit subjects:        {[s.subject.subject_id for s in fit_set]}")
print(f"validation subjects: {[s.subject.subject_id for s in val_set]}")

summary = validation_stats(truth, val_set)
print(f"\nthe generating surface on its own noisy data "
      f"(noise sigma = {config.noise_sigma_mm} mm):")
print(f"pooled residual: {summary.pooled_mean:+.3f} +- {summary.pooled_sd:.3f} mm over {summary.n_total} samples")
print(f"{'subject':<12} {'n':>5} {'mean':>8} {'sd':>7} {'pct':>6} {'q1':>7} {'median':>7} {'q3':>7}")
for s in summary.subjects:
    print(
        f"{s.subject_id:<12} {s.n:>5} {s.mean_residual:>+8.3f} {s.sd_residual:>7.3f} "
        f"{s.pct_error:>6.2f} {s.q1:>+7.3f} {s.median:>+7.3f} {s.q3:>+7.3f}"
    )
