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
:class:`DataPoints` record of (x, y, z) columns.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDataError, PoleError, SchemaError
from .transforms import _flagged

# evaluation refuses denominators smaller than this
POLE_EVAL_TOL = 1e-9
# a surface is considered pole-free on a box when the denominator magnitude
# stays at or above this everywhere in it
POLE_FREE_TOL = 1e-6

NUM_COEFFS = 11
# lowess works through its (n, n) distance matrix in blocks of rows of at
# most this many elements
LOWESS_BLOCK = 1 << 16
# lowess's default smoothing span and robustness rounds
LOWESS_FRAC = 2.0 / 3.0
LOWESS_ITERATIONS = 3


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
        below 1e-9, or any prediction is not finite (huge coefficients
        overflow), naming the first such point.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            den = self.denominator_values(x, y)
            bad = np.abs(den) < POLE_EVAL_TOL
            if np.any(bad):
                where = np.argwhere(np.atleast_1d(bad)).ravel()[0]
                raise PoleError(
                    f"denominator magnitude below {POLE_EVAL_TOL} at point index {where}"
                )
            out = self.numerator_values(x, y) / den
        if not np.isfinite(out).all():
            where = np.argwhere(~np.isfinite(np.atleast_1d(out))).ravel()[0]
            raise PoleError(f"non-finite prediction at point index {where}")
        if np.ndim(out) == 0:
            return float(out)
        return out

    def is_pole_free(self, x_range, y_range) -> bool:
        """True when the denominator magnitude stays >= POLE_FREE_TOL over
        the whole box given by the (lo, hi) ranges, decided exactly from
        the denominator's range (:func:`quadric_range`)."""
        lo, hi = quadric_range(np.concatenate(([1.0], self.denominator))[None], x_range, y_range)
        return bool(max(lo[0], -hi[0]) >= POLE_FREE_TOL)


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
    _write_json(path, {
        "numerator": [float(v) for v in surface.numerator],
        "denominator": [float(v) for v in surface.denominator],
        "angle_unit": "rad",
    })


def _json_number(value, kind=(int, float)) -> bool:
    """Whether a decoded JSON value is a number (an integer, with
    ``kind=int``). JSON true/false decode to bool, an int subclass, and are
    no numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    """Whether a decoded JSON value is a number in the float range: not
    NaN or infinite, nor an integer too long for a float."""
    return _json_number(value) and abs(value) <= sys.float_info.max


def _finite_numbers(value, count: int) -> bool:
    """Whether a decoded JSON value is a list of ``count`` finite numbers."""
    return isinstance(value, list) and len(value) == count and all(map(_finite_number, value))


def _read_text(path) -> str:
    """The text of a UTF-8 file; other bytes are a SchemaError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _json_object(text: str, where) -> dict:
    """Decode a JSON document that must be an object; ``where`` names it in errors."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers syntax errors and integers past Python's digit
        # limit; RecursionError, nesting too deep for the decoder
        raise SchemaError(f"{where}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    return payload


def _write_json(path, payload) -> None:
    """Write the JSON file ``path`` in the package's one layout: indent 2, sorted keys."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _surface_from_payload(payload: dict, where) -> RationalQuadricSurface:
    """The surface of a decoded surface JSON object, validating the schema."""
    for key, count in (("numerator", 6), ("denominator", 5)):
        if not _finite_numbers(payload.get(key), count):
            raise SchemaError(f"{where}: '{key}' must be {count} finite numbers")
    if payload.get("angle_unit") != "rad":
        raise SchemaError(f"{where}: angle_unit must be 'rad'")
    return RationalQuadricSurface(payload["numerator"], payload["denominator"])


def load_surface(path) -> RationalQuadricSurface:
    """Read a surface JSON file, validating the schema."""
    return _surface_from_payload(_json_object(_read_text(path), path), path)


@dataclass(frozen=True)
class DataPoints:
    """Observations as columns: x = beta3 (rad), y = beta4 (rad) and
    z = d2 (mm). Construction requires 1-d columns of one length and finite
    values, naming the first failing point; ``len`` is the number of
    points."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x, y, z = (np.array(v, dtype=float) for v in (self.x, self.y, self.z))
        if x.ndim != 1 or not x.shape == y.shape == z.shape:
            raise ValueError("x, y and z must be 1-d arrays of one length")
        if bad := _flagged(~(np.isfinite(x) & np.isfinite(y) & np.isfinite(z)), "point"):
            raise ValueError(f"{bad[1]}data point fields must be finite")
        for name, value in (("x", x), ("y", y), ("z", z)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class FitReport:
    """Goodness-of-fit bundle for one surface on one dataset.

    r_squared is the raw 1 - SSE/SST value; it falls below 0 for fits
    worse than the mean predictor and is never clamped. ``r`` is the sample
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

    SSE, the total sum of squares and the mean use numpy's pairwise
    summation, not BLAS; RMSE is sqrt(SSE / n). Raises DegenerateDataError when all
    observations are identical (SST = 0). A perfect fit reports all-zero
    standardized residuals rather than failing on their zero variance.
    """
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    z = data.z
    zhat = np.atleast_1d(surface.evaluate(data.x, data.y))
    zbar = z.mean()
    sst = float(np.sum((z - zbar) ** 2))
    if sst == 0.0:
        raise DegenerateDataError("all observations identical (SST = 0)")
    eps = z - zhat
    sse = float(np.sum(eps * eps))
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


def _pair(x, y, min_points: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays, checked to be 1-d, of equal length and at
    least ``min_points`` long."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < min_points:
        raise ValueError(f"need at least {min_points} points")
    return x, y


def lowess(x, y, frac: float = LOWESS_FRAC, iterations: int = LOWESS_ITERATIONS) -> np.ndarray:
    """Classic robust LOWESS (local linear fits, tricube distance weights).

    For each point the window half-width h_i is the r-th smallest of
    |x - x_i| with r = max(2, min(n, ceil(frac * n))); weights are
    tricube((|x - x_i| / h_i) clipped to [0, 1]). After the plain pass,
    ``iterations`` rounds of bisquare robustness reweighting are applied
    using delta = (1 - clip(e / (6 * median|e|), -1, 1)^2)^2; a round with
    median|e| == 0 stops early (the fit is already exact). A window whose
    weights are all zero keeps y_i; singular local systems fall back to the
    weighted mean.

    The points are processed in blocks of rows of the (n, n) distance
    matrix, at most LOWESS_BLOCK elements each, so memory is
    O(n + LOWESS_BLOCK) however long the series. Each pass takes a block's
    windowed sums as one matrix product of its tricube weights with the
    robustness-weighted moment columns (1, x, x^2, y, x*y), x centred on
    its mean, and shifts them to each x_i.
    """
    x, y = _pair(x, y, 3)
    n = x.size
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"frac must be in (0, 1], got {frac}")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    r = max(2, min(n, math.ceil(frac * n)))
    rows = max(1, LOWESS_BLOCK // n)
    blocks = [slice(i, min(i + rows, n)) for i in range(0, n, rows)]
    # two (rows, n) work arrays, reused by every block of every pass
    work = np.empty((rows, n))
    cube = np.empty((rows, n))

    def distances(b: slice) -> np.ndarray:
        """|x - x_i| for the rows i of block b, in ``work``."""
        d = work[: b.stop - b.start]
        np.subtract.outer(x[b], x, out=d)
        return np.abs(d, out=d)

    def tricube(b: slice) -> np.ndarray:
        """(1 - min(|x - x_i| / h_i, 1)^3)^3 for the rows i of block b, in
        ``work``."""
        u = distances(b)
        hb = h[b, None]
        # min(|x - x_i|, h_i) / h_i clips without overflowing at h_i = tiny
        np.minimum(u, hb, out=u)
        u /= hb
        t = cube[: u.shape[0]]
        np.multiply(u, u, out=t)
        t *= u
        np.subtract(1.0, t, out=t)
        np.multiply(t, t, out=u)
        u *= t
        return u

    # h_i is the r-th smallest |x - x_i|: one partition of each block's rows
    h = np.empty(n)
    for b in blocks:
        d = distances(b)
        d.partition(r - 1, axis=1)
        h[b] = d[:, r - 1]
    h = np.where(h > 0.0, h, np.finfo(float).tiny)

    xm = x - x.mean()
    moments = np.stack([np.ones(n), xm, xm * xm, y, xm * y], axis=1)
    yest = np.empty(n)
    delta = np.ones(n)
    for _ in range(iterations + 1):
        weighted = moments * delta[:, None]
        for b in blocks:
            s0, s1, s2, swy, sxy = (tricube(b) @ weighted).T
            # sums over (x - x_i) from the sums over the centred x
            c = xm[b]
            swx = s1 - c * s0
            swxx = s2 - 2.0 * c * s1 + c * c * s0
            swxy = sxy - c * swy
            det = s0 * swxx - swx * swx
            est = y[b].copy()
            mean = s0 > 0.0
            est[mean] = swy[mean] / s0[mean]
            # the intercept at x - x_i = 0 is the estimate at x_i
            line = det > 1e-12 * np.maximum(s0 * swxx, 1e-300)
            est[line] = (swxx * swy - swx * swxy)[line] / det[line]
            yest[b] = est
        residual = y - yest
        s = float(np.median(np.abs(residual)))
        if s == 0.0:
            break
        delta = np.clip(residual / (6.0 * s), -1.0, 1.0)
        delta = (1.0 - delta**2) ** 2
    return yest


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d float array, each tie group sharing its
    average rank; all NaN when ``a`` holds a NaN, so the NaN carries
    through to rho."""
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a)
    ordered = a[order]
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))  # -0.0 ties 0.0
    group = np.empty(a.size, dtype=np.intp)
    group[order] = np.cumsum(starts)
    # group g holds the sorted positions ends[g - 1] .. ends[g] - 1
    ends = np.append(np.flatnonzero(starts), a.size)
    return 0.5 * (ends[group] + ends[group - 1] + 1)


def spearman_rho(x, y) -> float:
    """Spearman rank correlation (average ranks for ties).

    Pearson correlation of the two rank vectors, with the denominator
    computed as sqrt(sx2 * sy2) so rho(x, x) == 1.0 exactly. Raises
    DegenerateDataError when either rank vector has zero variance.
    """
    x, y = _pair(x, y, 2)
    rho = _pearson(_average_ranks(x), _average_ranks(y))
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
    x, y = _pair(x, y, 2)
    dx = x - x.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegenerateDataError("x has zero variance")
    slope = float(dx @ (y - y.mean())) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    rho = _pearson(_average_ranks(x), _average_ranks(y))
    return LinearFit(slope=slope, intercept=intercept, rho=rho)
