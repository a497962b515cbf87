"""The benchmark's workloads: inputs built from a seed, the timed calls
into ``wristkin``, and each workload's correctness gate.

The program receives only what the seed builds: a ``SyntheticConfig``,
a ``GAConfig`` or CLI argv. Each workload owns a scratch directory inside
the checkout for the files it writes.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import OperationFailed
from wristkin import (
    GAConfig,
    PoleError,
    RationalQuadricSurface,
    SyntheticConfig,
    derive_joint_series,
    fit_report,
    fit_surface,
    linear_regression,
    load_session,
    load_surface,
    lowess,
    reference_surface,
    save_session,
    subject_split,
    synthesize_sessions,
    to_data_points,
    validation_stats,
)
from wristkin.cli import run as cli_run

# ground truth of paper-protocol, from the acceptance suite's GA
# criteria: a steep flexion slope that a fit can recover from 1.35 mm
# noise, pole-free on the protocol's angle box
TRUTH = RationalQuadricSurface(
    numerator=[21.0, 2.0, -25.0, 0.0, 12.0, 1.5],
    denominator=[0.0, 0.08, 0.0, 0.05, 0.0],
)
NOISE_MM = 1.35
# criterion-6 thresholds of the acceptance suite, applied to held-out subjects
MAX_HELDOUT_RMSE_MM = 2.0
MIN_HELDOUT_R2 = 0.85
MAX_POOLED_MEAN_MM = 0.5
D2_MATCH_MM = 1e-6


@dataclass(frozen=True)
class Size:
    """Cohort and fit sizes of one workload. A session lasts
    ``duration_s`` at 50 Hz, so 40 s gives 2 001 samples."""

    subjects: int
    duration_s: float
    cycles: int
    n_fit: int = 0
    generations: int = 0
    lowess_anchors: int = 0

    @property
    def samples_per_subject(self) -> int:
        return int(round(self.duration_s * 50.0)) + 1


@dataclass
class Output:
    """What an iteration hands to the loop and to its gate."""

    samples: int
    session_ms: list[float]
    heldout_rmse_mm: float
    data: dict
    # time the iteration spent in latency probes, kept out of wall_s
    untimed_s: float = 0.0


def _anchored_lowess(values: np.ndarray, anchors: int) -> tuple[np.ndarray, int]:
    """LOWESS of a series against its index on at most ``anchors`` evenly
    strided points, interpolated back to every index (as ``wristkin
    residuals`` does for long series)."""
    index = np.arange(values.size, dtype=float)
    if values.size <= anchors:
        return lowess(index, values), values.size
    picked = np.unique(np.linspace(0, values.size - 1, anchors).round().astype(int))
    smooth = lowess(index[picked], values[picked])
    return np.interp(index, index[picked], smooth), picked.size


def _save_and_load(rec, sessions, directory: Path):
    """Save every session, then load and derive each one; returns the
    file pairs, loaded sessions, joint series and per-session latency."""
    directory.mkdir(parents=True, exist_ok=True)
    pairs = []
    for s in sessions:
        data = directory / f"{s.subject.subject_id}.csv"
        meta = directory / f"{s.subject.subject_id}.meta.json"
        rec.call("sessions.save", save_session, s, data, meta)
        rec.count("sessions.csv_bytes_written", data.stat().st_size)
        pairs.append((data, meta))
    loaded, series, session_ms = [], [], []
    for data, meta in pairs:
        t0 = time.perf_counter()
        session = rec.call("sessions.load", load_session, data, meta)
        js = rec.call("sessions.derive", derive_joint_series, session)
        session_ms.append((time.perf_counter() - t0) * 1e3)
        rec.count("sessions.csv_bytes_read", data.stat().st_size)
        rec.count("sessions.samples", len(session))
        loaded.append(session)
        series.append(js)
    return pairs, loaded, series, session_ms


def _reload(rec, pairs, series, session_ms: list[float]) -> None:
    """Load and derive every saved session again: d2 must repeat bit for
    bit. The timings add to the run's session latencies."""
    for (data, meta), js in zip(pairs, series):
        t0 = time.perf_counter()
        again = derive_joint_series(load_session(data, meta))
        session_ms.append((time.perf_counter() - t0) * 1e3)
        rec.check("a reloaded session derives the same d2", np.array_equal(again.d2, js.d2),
                  data.name)


def pole_free_on(surface: RationalQuadricSurface, x: np.ndarray, y: np.ndarray) -> bool:
    """The surface evaluates at every (x, y) without a PoleError and its
    denominator keeps one sign there. The samples trace continuous wrist
    paths, so a sign change means a pole crossed between samples even
    when no sample lands on it."""
    try:
        values = surface.evaluate(x, y)
    except PoleError:
        return False
    den = surface.denominator_values(x, y)
    return bool(np.isfinite(values).all() and (np.all(den > 0) or np.all(den < 0)))


class _Workload:
    name = ""
    min_iterations = 1

    def __init__(self, size: Size, size_name: str, seed: int, workdir: Path):
        self.size = size
        self.size_name = size_name
        self.seed = seed
        self.dir = workdir
        self.first_rmse: float | None = None

    def prepare(self) -> None:
        """One-off input preparation that is not a protocol stage."""
        self.dir.mkdir(parents=True, exist_ok=True)

    def synthetic_config(self, ground_truth: RationalQuadricSurface) -> SyntheticConfig:
        return SyntheticConfig(
            ground_truth=ground_truth,
            n_subjects=self.size.subjects,
            seed=self.seed,
            cycles_per_subject=self.size.cycles,
            duration_s=self.size.duration_s,
            noise_sigma_mm=NOISE_MM,
        )

    def describe(self) -> dict:
        return {
            "subjects": self.size.subjects,
            "samples_per_subject": self.size.samples_per_subject,
            "noise_sigma_mm": NOISE_MM,
            "n_fit": self.size.n_fit,
            "ga_generations": self.size.generations,
            "ga_population": GAConfig().population_size,
            "lowess_anchors": self.size.lowess_anchors,
        }

    def check_repeat(self, rec, rmse: float) -> None:
        """Held-out RMSE is a pure function of the seed: every iteration of
        a run must reproduce the first one's value exactly."""
        if self.first_rmse is None:
            self.first_rmse = rmse
        else:
            rec.check("held-out RMSE repeats for the same seed", rmse == self.first_rmse,
                      f"{rmse!r} != {self.first_rmse!r}")


class PaperProtocol(_Workload):
    """Synthesize, save, load, derive, GA fit on the fit subjects, then
    validate, smooth and regress on the held-out ones."""

    name = "paper-protocol"

    def iterate(self, rec) -> Output:
        sessions = rec.call("sessions.synth", synthesize_sessions, self.synthetic_config(TRUTH))
        pairs, loaded, series, session_ms = _save_and_load(rec, sessions, self.dir / "sessions")
        by_session = {id(s): js for s, js in zip(loaded, series)}
        fit_sessions, val_sessions = subject_split(loaded, self.size.n_fit, seed=self.seed)

        fit_points = rec.call(
            "sessions.to_points", to_data_points, [by_session[id(s)] for s in fit_sessions]
        )
        rec.count("ga.fit_points", len(fit_points))
        config = GAConfig(seed=self.seed, generations=self.size.generations)
        surface, fitted = rec.call("ga.fit", fit_surface, fit_points, config)
        rec.count("ga.fit_sse_mm2", fitted.sse)

        val_series = [by_session[id(s)] for s in val_sessions]
        val_points = rec.call("sessions.to_points", to_data_points, val_series)
        held_out = rec.call("regression.fit_report", fit_report, surface, val_points)
        summary = rec.call("sessions.validation", validation_stats, surface, val_sessions)
        smooth, anchors = rec.call(
            "regression.lowess", _anchored_lowess, held_out.standardized_residuals,
            self.size.lowess_anchors,
        )
        rec.count("regression.lowess_points", anchors)
        for js in series:
            rec.call("regression.linreg", linear_regression, js.beta4, js.d2)
        return Output(
            samples=sum(len(s) for s in sessions),
            session_ms=session_ms,
            heldout_rmse_mm=held_out.rmse,
            data={"surface": surface, "held_out": held_out, "summary": summary,
                  "val_series": val_series, "smooth": smooth, "pairs": pairs,
                  "series": series},
        )

    def gate(self, out: Output, rec) -> None:
        d = out.data
        held_out, summary = d["held_out"], d["summary"]
        rec.check("held-out RMSE <= 2.0 mm", held_out.rmse <= MAX_HELDOUT_RMSE_MM,
                  f"{held_out.rmse:.4f}")
        rec.check("held-out R^2 >= 0.85", held_out.r_squared >= MIN_HELDOUT_R2,
                  f"{held_out.r_squared:.4f}")
        rec.check("|pooled held-out mean| <= 0.5 mm",
                  abs(summary.pooled_mean) <= MAX_POOLED_MEAN_MM, f"{summary.pooled_mean:+.4f}")
        x = np.concatenate([js.beta3 for js in d["val_series"]])
        y = np.concatenate([js.beta4 for js in d["val_series"]])
        rec.check("fitted surface pole-free on held-out data", pole_free_on(d["surface"], x, y))
        rec.check("LOWESS overlay finite", bool(np.isfinite(d["smooth"]).all()))
        # a full-size run fits one iteration, so the exact repeat of
        # held-out RMSE for a seed is checked across runs, by compare
        _reload(rec, d["pairs"], d["series"], out.session_ms)


class CohortIngest(_Workload):
    """A larger cohort through the per-sample paths only: synthesize, save,
    load, derive, validate against the reference surface, regress."""

    name = "cohort-ingest"

    def iterate(self, rec) -> Output:
        sessions = rec.call(
            "sessions.synth", synthesize_sessions, self.synthetic_config(reference_surface())
        )
        pairs, loaded, series, session_ms = _save_and_load(rec, sessions, self.dir / "sessions")
        summary = rec.call("sessions.validation", validation_stats, reference_surface(), loaded)
        for js in series:
            rec.call("regression.linreg", linear_regression, js.beta4, js.d2)
        residuals = np.concatenate([s.residuals for s in summary.subjects])
        return Output(
            samples=sum(len(s) for s in sessions),
            session_ms=session_ms,
            heldout_rmse_mm=float(np.sqrt(np.mean(residuals * residuals))),
            data={"sessions": sessions, "pairs": pairs, "loaded": loaded, "series": series,
                  "summary": summary},
        )

    def gate(self, out: Output, rec) -> None:
        d = out.data
        resaved = self.dir / "resaved"
        resaved.mkdir(parents=True, exist_ok=True)
        for session, (data, meta) in zip(d["loaded"], d["pairs"]):
            data2, meta2 = resaved / data.name, resaved / meta.name
            save_session(session, data2, meta2)
            rec.check(
                "re-saved session is byte-identical",
                data2.read_bytes() == data.read_bytes() and meta2.read_bytes() == meta.read_bytes(),
                data.name,
            )
        for memory, js in zip(d["sessions"], d["series"]):
            want = derive_joint_series(memory).d2
            got = js.d2
            ok = got.shape == want.shape and float(np.max(np.abs(got - want))) <= D2_MATCH_MM
            rec.check("d2 from files matches d2 from memory within 1e-6 mm", ok,
                      memory.subject.subject_id)
        summary = d["summary"]
        rec.check("|pooled residual mean| <= 0.5 mm",
                  abs(summary.pooled_mean) <= MAX_POOLED_MEAN_MM, f"{summary.pooled_mean:+.4f}")
        rec.check("pooled residual sd within 10% of the noise sd",
                  abs(summary.pooled_sd / NOISE_MM - 1.0) <= 0.1, f"{summary.pooled_sd:.4f}")
        _reload(rec, d["pairs"], d["series"], out.session_ms)
        self.check_repeat(rec, out.heldout_rmse_mm)


# `wristkin check` has no schema for validate_report.json (it exits 3),
# so that one output is left out of the check step
UNCHECKABLE = {"validate_report.json"}


class CliPipeline(_Workload):
    """``wristkin.cli.run`` in-process: synth -> fit -> predict -> validate
    -> residuals -> stats -> check, each subcommand reloading the files.

    The cohort is drawn from the CLI's built-in ground truth,
    ``reference_surface()``, which the GA recovers in a short budget:
    with 1 000 generations the held-out RMSE stays near the noise for
    every seed, while the steeper ``TRUTH`` needs about 6 000."""

    name = "cli-pipeline"
    # the gate compares the fit outputs of two iterations of one seed
    min_iterations = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.iteration = 0
        self.first_fit: dict[str, bytes] | None = None

    def _cli(self, rec, command: str, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = rec.call(f"cli.{command}", cli_run, [command, *argv])
        if code != 0:
            rec.count("cli.nonzero_exits", 1)
            rec.fail(f"wristkin {command} exited {code}: {err.getvalue().strip()}")
            raise OperationFailed(command)

    def _probe(self, rec, data: Path, session_ms: list[float]) -> float:
        """Time the library's load + derive of every session the CLI wrote.

        The CLI's sessions take about 25 ms each, and on a shared machine
        the CPU's speed can change for seconds at a time, so latency samples
        taken in one burst per iteration spread widely from run to run. Probing after every
        subcommand spreads them over the iteration; the caller keeps the
        probe time out of wall_s. Returns that time."""
        t_start = time.perf_counter()
        with rec.span("probe"):
            for csv_path in sorted(data.glob("subject_*.csv")):
                t0 = time.perf_counter()
                derive_joint_series(load_session(csv_path, csv_path.with_suffix(".meta.json")))
                session_ms.append((time.perf_counter() - t0) * 1e3)
        return time.perf_counter() - t_start

    def iterate(self, rec) -> Output:
        size = self.size
        base = self.dir / f"iteration-{self.iteration}"
        self.iteration += 1
        data, fit = base / "data", base / "fit"
        surface = str(fit / "surface.json")
        seed = str(self.seed)
        steps = [
            ("synth", data, ["--subjects", str(size.subjects), "--seed", seed,
                             "--cycles", str(size.cycles), "--duration", str(size.duration_s),
                             "--noise-sigma", str(NOISE_MM)]),
            ("fit", fit, ["--data", str(data), "--seed", seed, "--n-fit", str(size.n_fit),
                          "--generations", str(size.generations)]),
            ("predict", base / "predict", ["--surface", surface, "--data", str(data)]),
            ("validate", base / "validate", ["--surface", surface, "--data", str(data)]),
            ("residuals", base / "residuals", ["--surface", surface, "--data", str(data),
                                               "--lowess-max-points", str(size.lowess_anchors)]),
            ("stats", base / "stats", ["--data", str(data)]),
        ]
        session_ms: list[float] = []
        probe_s = 0.0
        for command, out_dir, argv in steps:
            self._cli(rec, command, [*argv, "--out", str(out_dir)])
            rec.count("cli.bytes_written", sum(p.stat().st_size for p in out_dir.iterdir()))
            probe_s += self._probe(rec, data, session_ms)
        outputs = sorted(p for p in base.rglob("*") if p.is_file() and p.name not in UNCHECKABLE)
        self._cli(rec, "check", [str(p) for p in outputs])
        samples = size.subjects * size.samples_per_subject
        rec.count("regression.lowess_points", min(samples, size.lowess_anchors))
        return Output(samples=samples, session_ms=session_ms, heldout_rmse_mm=math.nan,
                      data={"base": base}, untimed_s=probe_s)

    def gate(self, out: Output, rec) -> None:
        base = out.data["base"]
        fit_bytes = {name: (base / "fit" / name).read_bytes()
                     for name in ("surface.json", "fit_report.json")}
        if self.first_fit is None:
            self.first_fit = fit_bytes
        for name, blob in fit_bytes.items():
            rec.check(f"{name} byte-identical across runs of one seed",
                      blob == self.first_fit[name])

        # oracle for predict: the library's own load, derive and evaluate
        surface = load_surface(base / "fit" / "surface.json")
        fitted_on = set(json.loads((base / "fit" / "fit_manifest.json").read_text())
                        ["parameters"]["subjects_used"])
        rows = (base / "predict" / "predictions.csv").read_text().splitlines()[1:]
        by_subject: dict[str, list[list[str]]] = {}
        for row in rows:
            fields = row.split(",")
            by_subject.setdefault(fields[0], []).append(fields)
        held_out_sq = []
        pairs, series = [], []
        for csv_path in sorted((base / "data").glob("subject_*.csv")):
            t0 = time.perf_counter()
            meta_path = csv_path.with_suffix(".meta.json")
            js = derive_joint_series(load_session(csv_path, meta_path))
            out.session_ms.append((time.perf_counter() - t0) * 1e3)
            pairs.append((csv_path, meta_path))
            series.append(js)
            want = np.asarray(surface.evaluate(js.beta3, js.beta4), dtype=float)
            got = by_subject.get(csv_path.stem, [])
            ok = len(got) == want.size and bool(
                np.all(np.abs(np.array([float(f[5]) for f in got]) - want) <= 1e-9)
            )
            rec.check("predictions.csv matches the library's evaluation", ok, csv_path.stem)
            if ok and csv_path.stem not in fitted_on:
                held_out_sq.append((want - js.d2) ** 2)
        _reload(rec, pairs, series, out.session_ms)
        rec.check("held-out subjects present", bool(held_out_sq))
        if held_out_sq:
            out.heldout_rmse_mm = float(np.sqrt(np.mean(np.concatenate(held_out_sq))))
            self.check_repeat(rec, out.heldout_rmse_mm)
        shutil.rmtree(base, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperProtocol, CohortIngest, CliPipeline)}

# "full" is the measured size; "smoke" runs every workload in seconds for tests
SIZES = {
    "full": {
        "paper-protocol": Size(subjects=25, duration_s=40.0, cycles=10, n_fit=9,
                               generations=6000, lowess_anchors=2000),
        "cohort-ingest": Size(subjects=30, duration_s=40.0, cycles=10),
        "cli-pipeline": Size(subjects=10, duration_s=8.0, cycles=2, n_fit=5,
                             generations=1000, lowess_anchors=2000),
    },
    "smoke": {
        "paper-protocol": Size(subjects=8, duration_s=4.0, cycles=2, n_fit=5,
                               generations=6000, lowess_anchors=200),
        "cohort-ingest": Size(subjects=4, duration_s=4.0, cycles=2),
        "cli-pipeline": Size(subjects=3, duration_s=4.0, cycles=2, n_fit=1,
                             generations=60, lowess_anchors=200),
    },
}


def make(name: str, size_name: str, seed: int, workdir: Path) -> _Workload:
    return WORKLOADS[name](SIZES[size_name][name], size_name, seed, workdir)
