"""Rational quadric surface regression and its goodness-of-fit statistics.

The surface predicts the wrist translation offset d2 (mm) from the coupled
wrist angles x = beta3 and y = beta4 (radians):

    zhat = (a1 + a3*x + a5*y + a7*x^2 + a9*y^2 + a11*x*y)
         / (1  + a2*x + a4*y + a6*x^2 + a8*y^2 + a10*x*y)

Odd-indexed coefficients form the numerator, even-indexed ones the
denominator (whose constant term is pinned to 1). The module also carries
the residual statistics used to judge a fit (SSE, RMSE, standardized
residuals, R, R^2), classic robust LOWESS smoothing, Spearman rank
correlation, and ordinary least squares — everything the downstream
validation and reporting steps consume. Observations travel as one
:class:`DataPoints` record of (x, y, z, w) columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.stats import rankdata

from .errors import DegenerateDataError, PoleError, SchemaError
from .transforms import _flagged

# evaluation refuses denominators smaller than this
POLE_EVAL_TOL = 1e-9
# a surface is considered pole-free on a box when the denominator magnitude
# stays at or above this everywhere in it
POLE_FREE_TOL = 1e-6

NUM_COEFFS = 11


def quadric_design(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Columns (1, x, y, x^2, y^2, x*y) for a batch of points; shape (n, 6)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    one = np.ones_like(x)
    return np.stack([one, x, y, x * x, y * y, x * y], axis=-1)


def quadric_range(c, x_range, y_range) -> tuple[np.ndarray, np.ndarray]:
    """Exact (min, max) over the box x_range x y_range of each quadric row
    of ``c`` (m, 6), coefficients over (1, x, y, x^2, y^2, x*y); two (m,)
    arrays.

    A quadric reaches its extremes over an axis-aligned box at one of nine
    candidates: the four corners, the stationary point of each edge
    restriction and the interior stationary point. Each candidate is
    clipped into the box, so all are real box points; a flat direction
    (zero x^2 or y^2 coefficient, singular Hessian) sends its candidate to
    a corner, since the extremes then also lie on the boundary.
    """
    c = np.asarray(c, dtype=float)
    x0, x1 = sorted(map(float, x_range))
    y0, y1 = sorted(map(float, y_range))
    c0, cx, cy, cxx, cyy, cxy = c.T
    # stationary coordinates num / den, one row each: x on the edges y = y0
    # and y = y1, y on the edges x = x0 and x = x1, the interior point's x, y
    det = 4.0 * cxx * cyy - cxy * cxy
    num = np.array([-(cx + cxy * y0), -(cx + cxy * y1), -(cy + cxy * x0),
                    -(cy + cxy * x1), cxy * cy - 2.0 * cyy * cx, cxy * cx - 2.0 * cxx * cy])
    den = np.array([2.0 * cxx, 2.0 * cxx, 2.0 * cyy, 2.0 * cyy, det, det])
    low = np.array([[x0], [x0], [y0], [y0], [x0], [y0]])
    high = np.array([[x1], [x1], [y1], [y1], [x1], [y1]])
    t = np.broadcast_to(low, num.shape).copy()
    with np.errstate(over="ignore"):
        np.divide(num, den, out=t, where=den != 0.0)
    t = np.minimum(np.maximum(t, low), high)
    # the nine candidates: corners, edge stationary points, interior point
    xs = np.empty((9, c.shape[0]))
    ys = np.empty_like(xs)
    xs[:4] = [[x0], [x0], [x1], [x1]]
    ys[:4] = [[y0], [y1], [y0], [y1]]
    xs[4:6], ys[4:6] = t[0:2], [[y0], [y1]]
    xs[6:8], ys[6:8] = [[x0], [x1]], t[2:4]
    xs[8], ys[8] = t[4], t[5]
    values = c0 + xs * (cx + cxx * xs + cxy * ys) + ys * (cy + cyy * ys)
    return values.min(axis=0), values.max(axis=0)


@dataclass(frozen=True)
class RationalQuadricSurface:
    """Eleven-coefficient rational quadric; numerator (a1,a3,a5,a7,a9,a11),
    denominator (a2,a4,a6,a8,a10) with implied constant 1."""

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        num = np.array(self.numerator, dtype=float)
        den = np.array(self.denominator, dtype=float)
        if num.shape != (6,):
            raise ValueError(f"numerator needs 6 coefficients, got {num.shape}")
        if den.shape != (5,):
            raise ValueError(f"denominator needs 5 coefficients, got {den.shape}")
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            raise ValueError("surface coefficients must be finite")
        num.flags.writeable = False
        den.flags.writeable = False
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def from_coefficients(cls, a: Sequence[float]) -> "RationalQuadricSurface":
        """Build from the flat vector (a1, a2, ..., a11)."""
        a = np.asarray(a, dtype=float)
        if a.shape != (NUM_COEFFS,):
            raise ValueError(f"expected {NUM_COEFFS} coefficients, got {a.shape}")
        return cls(numerator=a[0::2], denominator=a[1::2])

    @property
    def coefficients(self) -> np.ndarray:
        """Flat vector (a1, a2, ..., a11): numerator and denominator interleaved."""
        a = np.empty(NUM_COEFFS)
        a[0::2] = self.numerator
        a[1::2] = self.denominator
        return a

    def denominator_values(self, x, y) -> np.ndarray:
        """Denominator polynomial at (x, y) without any pole check."""
        return quadric_design(x, y) @ np.concatenate(([1.0], self.denominator))

    def numerator_values(self, x, y) -> np.ndarray:
        return quadric_design(x, y) @ self.numerator

    def evaluate(self, x, y):
        """Predicted z at (x, y); broadcasts over arrays.

        Raises PoleError if any evaluated denominator magnitude falls
        below 1e-9.
        """
        den = self.denominator_values(x, y)
        bad = np.abs(den) < POLE_EVAL_TOL
        if np.any(bad):
            where = np.argwhere(np.atleast_1d(bad)).ravel()[0]
            raise PoleError(
                f"denominator magnitude below {POLE_EVAL_TOL} at point index {where}"
            )
        out = self.numerator_values(x, y) / den
        if np.ndim(out) == 0:
            return float(out)
        return out

    def is_pole_free(self, x_range, y_range, min_magnitude: float = POLE_FREE_TOL) -> bool:
        """True when the denominator magnitude stays >= min_magnitude over
        the whole box given by the (lo, hi) ranges, decided exactly from
        the denominator's range (:func:`quadric_range`)."""
        lo, hi = quadric_range(np.concatenate(([1.0], self.denominator))[None], x_range, y_range)
        return bool(max(lo[0], -hi[0]) >= min_magnitude)


def reference_surface() -> RationalQuadricSurface:
    """The fitted reference surface shipped with the package.

    Coefficients were fitted to adult wrist tracking data with angles in
    radians (see README for the unit caveat); evaluate(0, 0) == 18.0 by
    construction.
    """
    return RationalQuadricSurface(
        numerator=[18.00, -290.93, -29.46, 2563.09, 37.01, -606.53],
        denominator=[-10.60, -2.23, 94.62, 2.12, -25.75],
    )


def save_surface(surface: RationalQuadricSurface, path) -> None:
    """Write the documented surface JSON (numerator/denominator/angle_unit)."""
    payload = {
        "numerator": [float(v) for v in surface.numerator],
        "denominator": [float(v) for v in surface.denominator],
        "angle_unit": "rad",
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_surface(path) -> RationalQuadricSurface:
    """Read a surface JSON file, validating the schema."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    for key, count in (("numerator", 6), ("denominator", 5)):
        vals = payload.get(key)
        if (
            not isinstance(vals, list)
            or len(vals) != count
            or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)
        ):
            raise SchemaError(f"{path}: '{key}' must be {count} finite numbers")
    if payload.get("angle_unit") != "rad":
        raise SchemaError(f"{path}: angle_unit must be 'rad'")
    return RationalQuadricSurface(payload["numerator"], payload["denominator"])


@dataclass(frozen=True)
class DataPoints:
    """Observations as columns: x = beta3 (rad), y = beta4 (rad), z = d2 (mm)
    and weights w (default 1). Construction requires 1-d columns of one
    length, finite values and positive weights, naming the first failing
    point; ``len`` is the number of points."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        x, y, z = (np.array(v, dtype=float) for v in (self.x, self.y, self.z))
        w = np.ones_like(x) if self.w is None else np.array(self.w, dtype=float)
        if x.ndim != 1 or not x.shape == y.shape == z.shape == w.shape:
            raise ValueError("x, y, z and w must be 1-d arrays of one length")
        if bad := _flagged(~(np.isfinite(x) & np.isfinite(y) & np.isfinite(z) & np.isfinite(w)),
                           "point"):
            raise ValueError(f"{bad[1]}data point fields must be finite")
        if bad := _flagged(w <= 0, "point"):
            raise ValueError(f"{bad[1]}weight must be positive, got {w[bad[0]]}")
        for name, value in (("x", x), ("y", y), ("z", z), ("w", w)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class FitReport:
    """Goodness-of-fit bundle for one surface on one dataset.

    r_squared is the raw 1 - SSE/SST value; it can fall outside [0, 1]
    for fits worse than the mean predictor (flagged by
    ``r_squared_out_of_range``, never clamped). ``r`` is the sample
    correlation between predictions and observations (nan when the
    predictions have zero variance).
    """

    sse: float
    rmse: float
    r: float
    r_squared: float
    residuals: np.ndarray
    standardized_residuals: np.ndarray
    n: int

    @property
    def r_squared_out_of_range(self) -> bool:
        return not 0.0 <= self.r_squared <= 1.0


def _pearson(u: np.ndarray, v: np.ndarray) -> float:
    du = u - u.mean()
    dv = v - v.mean()
    denom_sq = float(du @ du) * float(dv @ dv)
    if denom_sq == 0.0:
        return float("nan")
    # sqrt of the product (not product of sqrts) so corr(u, u) == 1.0 exactly
    return float(du @ dv) / math.sqrt(denom_sq)


def standardized_residuals(residuals) -> np.ndarray:
    """residual / sample-sd(residuals), the sd taken about the mean residual.

    Note the numerator is the raw residual, not the centered one, so the
    output mean is zero only when the residuals already average to zero.
    Raises DegenerateDataError when the residual sd is zero.
    """
    eps = np.asarray(residuals, dtype=float)
    if eps.ndim != 1 or eps.size < 2:
        raise ValueError("need at least two residuals")
    centered = eps - eps.mean()
    s = math.sqrt(float(centered @ centered) / (eps.size - 1))
    if s == 0.0:
        raise DegenerateDataError("residuals have zero variance")
    return eps / s


def fit_report(surface: RationalQuadricSurface, data: DataPoints) -> FitReport:
    """Evaluate ``surface`` on ``data`` and assemble the statistics.

    SSE and R^2 are weight-aware (weighted mean for the total sum of
    squares); RMSE is sqrt(SSE / n). Raises DegenerateDataError when all
    observations are identical (SST = 0). A perfect fit reports all-zero
    standardized residuals rather than failing on their zero variance.
    """
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    x, y, z, w = data.x, data.y, data.z, data.w
    zhat = np.atleast_1d(surface.evaluate(x, y))
    zbar = float(w @ z) / float(w.sum())
    sst = float(w @ (z - zbar) ** 2)
    if sst == 0.0:
        raise DegenerateDataError("all observations identical (SST = 0)")
    eps = z - zhat
    sse = float(w @ (eps * eps))
    n = len(data)
    rmse = math.sqrt(sse / n)
    r_squared = 1.0 - sse / sst
    r = _pearson(zhat, z)
    if n >= 2 and eps.std() > 0.0:
        std_res = standardized_residuals(eps)
    else:
        std_res = np.zeros(n)
    return FitReport(
        sse=sse,
        rmse=rmse,
        r=r,
        r_squared=r_squared,
        residuals=eps,
        standardized_residuals=std_res,
        n=n,
    )


def lowess(x, y, frac: float = 2.0 / 3.0, iterations: int = 3) -> np.ndarray:
    """Classic robust LOWESS (local linear fits, tricube distance weights).

    For each point the window half-width h_i is the r-th smallest of
    |x - x_i| with r = max(2, min(n, ceil(frac * n))); weights are
    tricube((|x - x_i| / h_i) clipped to [0, 1]). After the plain pass,
    ``iterations`` rounds of bisquare robustness reweighting are applied
    using delta = (1 - clip(e / (6 * median|e|), -1, 1)^2)^2; a round with
    median|e| == 0 stops early (the fit is already exact). Singular local
    systems fall back to the weighted mean.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 points")
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"frac must be in (0, 1], got {frac}")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    r = max(2, min(n, math.ceil(frac * n)))
    # r-th smallest |x - x_i| per point, computed row-wise to keep memory O(n)
    h = np.empty(n)
    for i in range(n):
        h[i] = np.partition(np.abs(x - x[i]), r - 1)[r - 1]
    h = np.where(h > 0.0, h, np.finfo(float).tiny)

    yest = np.zeros(n)
    delta = np.ones(n)
    for _ in range(iterations + 1):
        for i in range(n):
            u = np.clip(np.abs(x - x[i]) / h[i], 0.0, 1.0)
            weights = delta * (1.0 - u**3) ** 3
            sw = weights.sum()
            if sw <= 0.0:
                yest[i] = y[i]
                continue
            # weighted linear fit centered at x[i] for conditioning
            xc = x - x[i]
            swx = float(weights @ xc)
            swxx = float(weights @ (xc * xc))
            swy = float(weights @ y)
            swxy = float(weights @ (xc * y))
            det = sw * swxx - swx * swx
            if det <= 1e-12 * max(sw * swxx, 1e-300):
                yest[i] = swy / sw
            else:
                # intercept at xc = 0 is the estimate at x[i]
                yest[i] = (swxx * swy - swx * swxy) / det
        residual = y - yest
        s = float(np.median(np.abs(residual)))
        if s == 0.0:
            break
        delta = np.clip(residual / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta**2) ** 2
    return yest


def spearman_rho(x, y) -> float:
    """Spearman rank correlation (average ranks for ties).

    Pearson correlation of the two rank vectors, with the denominator
    computed as sqrt(sx2 * sy2) so rho(x, x) == 1.0 exactly. Raises
    DegenerateDataError when either rank vector has zero variance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    rho = _pearson(rankdata(x), rankdata(y))
    if math.isnan(rho):
        raise DegenerateDataError("rank variance is zero (constant input)")
    return rho


class LinearFit(NamedTuple):
    slope: float
    intercept: float
    rho: float


def linear_regression(x, y) -> LinearFit:
    """Ordinary least squares y = slope*x + intercept, plus Spearman rho.

    Raises DegenerateDataError when x has zero variance. rho is nan when
    the rank correlation is degenerate (e.g. constant y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    dx = x - x.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegenerateDataError("x has zero variance")
    slope = float(dx @ (y - y.mean())) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    try:
        rho = spearman_rho(x, y)
    except DegenerateDataError:
        rho = float("nan")
    return LinearFit(slope=slope, intercept=intercept, rho=rho)
