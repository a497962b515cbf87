"""LOWESS against an independently written tricube/local-linear oracle.

The oracle predates the library implementation in spirit and structure:
it loops per point, rebuilds distances from scratch, and solves every
local weighted fit with np.polyfit (SVD least squares) instead of closed
2x2 normal equations.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wristkin import lowess
from wristkin.regression import LOWESS_BLOCK


def lowess_oracle(x, y, frac, iterations):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    r = max(2, min(n, math.ceil(frac * n)))
    est = np.zeros(n)
    delta = np.ones(n)
    for _ in range(iterations + 1):
        for i in range(n):
            d = np.abs(x - x[i])
            h = np.sort(d)[r - 1]
            if h <= 0.0:
                h = np.finfo(float).tiny
            with np.errstate(over="ignore"):  # |d| / tiny overflows to inf
                tri = (1.0 - np.clip(d / h, 0.0, 1.0) ** 3) ** 3
            weights = tri * delta
            if weights.sum() <= 0.0:
                est[i] = y[i]
                continue
            if np.ptp(x[weights > 0.0]) == 0.0:  # one x in the window: singular
                est[i] = float(weights @ y) / weights.sum()
                continue
            slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(weights))
            est[i] = slope * x[i] + intercept
        resid = y - est
        s = float(np.median(np.abs(resid)))
        if s == 0.0:
            break
        delta = np.clip(resid / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta**2) ** 2
    return est


class TestLowess:
    def test_constant_data(self):
        x = np.linspace(0, 5, 40)
        y = np.full(40, 3.25)
        assert np.allclose(lowess(x, y), 3.25, atol=1e-12)

    def test_affine_reproduction_full_window(self):
        x = np.linspace(-1, 2, 50)
        y = 2.0 * x + 1.0
        out = lowess(x, y, frac=1.0, iterations=0)
        assert np.abs(out - y).max() < 1e-9

    def test_matches_oracle_on_noisy_sine(self, rng):
        x = np.sort(rng.uniform(0, 4 * math.pi, 200))
        y = np.sin(x) + rng.normal(0, 0.3, 200)
        for frac, iterations in ((0.3, 0), (0.3, 3), (0.5, 2), (1.0, 1)):
            mine = lowess(x, y, frac=frac, iterations=iterations)
            ref = lowess_oracle(x, y, frac=frac, iterations=iterations)
            assert np.abs(mine - ref).max() < 1e-8, (frac, iterations)

    def test_smooths_noise(self, rng):
        x = np.linspace(0, 4 * math.pi, 300)
        clean = np.sin(x)
        y = clean + rng.normal(0, 0.25, 300)
        out = lowess(x, y, frac=0.2, iterations=2)
        raw_err = np.sqrt(np.mean((y - clean) ** 2))
        smooth_err = np.sqrt(np.mean((out - clean) ** 2))
        assert smooth_err < 0.5 * raw_err

    def test_robust_to_outliers(self, rng):
        # noise keeps median |residual| > 0 so the bisquare reweighting
        # actually engages (with exact zeros the classic recipe stops early)
        x = np.linspace(0, 10, 120)
        y = 0.5 * x + rng.normal(0, 0.05, 120)
        y[60] += 50.0
        smoothed = lowess(x, y, frac=0.4, iterations=3)
        assert abs(smoothed[60] - 0.5 * x[60]) < 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lowess([0.0, 1.0, 2.0], [0.0, 1.0])

    def test_frac_out_of_range(self):
        x = [0.0, 1.0, 2.0]
        with pytest.raises(ValueError):
            lowess(x, x, frac=0.0)
        with pytest.raises(ValueError):
            lowess(x, x, frac=1.5)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            lowess([0.0, 1.0], [0.0, 1.0])

    def test_negative_iterations(self):
        x = [0.0, 1.0, 2.0]
        with pytest.raises(ValueError):
            lowess(x, x, iterations=-1)


def _straddling_sizes():
    """For offsets -1, 0 and +1, the least n >= 300 that is k * rows + offset
    with k >= 2, rows being lowess's block row count at that n."""
    def rows(n):
        return max(1, LOWESS_BLOCK // n)
    return [next(n for n in itertools.count(300)
                 if (n - offset) % rows(n) == 0 and (n - offset) // rows(n) >= 2)
            for offset in (-1, 0, 1)]


_BYTES_SCRIPT = """
import hashlib
import numpy as np
from wristkin import lowess
x = np.arange(2000, dtype=float)
y = np.sin(x / 50.0) + np.random.default_rng(3).normal(0.0, 0.3, 2000)
print(hashlib.sha256(lowess(x, y).tobytes()).hexdigest())
"""


class TestLowessKernel:
    """The blocked kernel's edges: block boundaries, input order, ties,
    empty and singular windows, memory and BLAS-thread independence."""

    @pytest.mark.parametrize("n", _straddling_sizes())
    def test_matches_oracle_across_block_boundaries(self, n, rng):
        x = np.sort(rng.uniform(0.0, 4 * math.pi, n))
        y = np.sin(x) + rng.normal(0.0, 0.3, n)
        assert np.abs(lowess(x, y, frac=0.3, iterations=1)
                      - lowess_oracle(x, y, frac=0.3, iterations=1)).max() < 1e-8

    def test_unsorted_x_gives_permuted_result(self, rng):
        x = rng.uniform(-3.0, 3.0, 400)
        y = x**2 + rng.normal(0.0, 0.2, 400)
        perm = rng.permutation(400)
        sorted_out = lowess(x, y, frac=0.25)
        assert np.abs(lowess(x[perm], y[perm], frac=0.25) - sorted_out[perm]).max() < 1e-12
        assert np.abs(sorted_out - lowess_oracle(x, y, 0.25, 3)).max() < 1e-8

    def test_window_of_ties_is_its_mean(self, rng):
        # r = 6 and every x value six times: each window is its own tie
        # group, half-width 0, so each estimate is the group's mean
        values = rng.uniform(-500.0, 500.0, 10)
        x = np.repeat(values, 6)[rng.permutation(60)]
        y = rng.normal(0.0, 5.0, 60)
        means = {v: y[x == v].mean() for v in values}
        out = lowess(x, y, frac=0.1, iterations=0)
        assert np.abs(out - [means[v] for v in x]).max() < 1e-12
        assert np.abs(lowess(x, y, frac=0.1) - lowess_oracle(x, y, 0.1, 3)).max() < 1e-8

    def test_window_with_no_weight_keeps_y(self, rng):
        # an isolated five-point cluster that no line fits: after the plain
        # pass every robustness weight in its windows is zero
        x = np.concatenate([np.arange(100.0), 1000.0 + np.arange(5.0)])
        y = np.concatenate([0.5 * np.arange(100.0) + rng.normal(0.0, 0.01, 100),
                            [100.0, -100.0, 100.0, -100.0, 100.0]])
        frac = 4.5 / x.size
        out = lowess(x, y, frac=frac, iterations=1)
        assert np.array_equal(out[100:], y[100:])
        assert np.abs(out - lowess_oracle(x, y, frac, 1)).max() < 1e-8

    def test_singular_window_is_weighted_mean(self, rng):
        # pairs of equal x, r = 3: the third nearest sits at distance h, so
        # it weighs 0 and each window is its pair, a singular system
        x = np.repeat(np.arange(20.0), 2)
        y = rng.normal(0.0, 1.0, 40)
        out = lowess(x, y, frac=2.5 / 40, iterations=0)
        assert np.abs(out - np.repeat(y.reshape(20, 2).mean(axis=1), 2)).max() < 1e-12
        assert np.abs(lowess(x, y, frac=2.5 / 40) - lowess_oracle(x, y, 2.5 / 40, 3)).max() < 1e-8

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_memory_stays_bounded(self, n):
        x = np.arange(n, dtype=float)
        y = np.sin(x / 50.0) + np.random.default_rng(3).normal(0.0, 0.3, n)
        lowess(x[:50], y[:50])  # first-call set-up inside numpy is not the kernel's
        tracemalloc.start()
        try:
            lowess(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MB at {n} points"

    def test_bytes_do_not_depend_on_blas_threads(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=pythonpath)
            done = subprocess.run([sys.executable, "-c", _BYTES_SCRIPT], env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
            digests.add(done.stdout.strip())
        assert len(digests) == 1
