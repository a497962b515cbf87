"""Measuring loop, operation accounting and span tracing.

The benchmark times its own calls into the public functions of
``wristkin``; nothing inside the package is patched. Every call is one
operation. When tracing is on, each call also records one span (name,
start, end, parent span, run id); spans stay in memory until the run
ends. End-to-end numbers come from untraced iterations only.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from bootstrap import BLAS_THREAD_VARS, ROOT, SRC

# fresh-process imports timed for setup_s before the measured loop, and
# as many after it; the median of all is reported
SETUP_REPEATS = 2
# session_ms_tail is the highest whole percentile with this many sessions beyond it
TAIL_BEYOND = 10


class OperationFailed(Exception):
    """An operation failed and has already been counted."""


class Recorder:
    """Counts operations and failures; records spans while ``tracing``."""

    def __init__(self) -> None:
        self.tracing = False
        self.run_id = ""
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter() - self._t0,
                "end": None,
                "parent": self._open[-1] if self._open else None,
                "run_id": self.run_id,
            }
        )
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter() - self._t0

    def call(self, name: str, fn, *args, **kwargs):
        """One operation into the program, spanned as ``name`` when tracing."""
        self.attempted += 1
        with self.span(name):
            return fn(*args, **kwargs)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One output check; a false ``ok`` counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {name}" + (f" ({detail})" if detail else ""))

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Iteration:
    """What one pass of a workload produced, as the loop records it."""

    wall_s: float
    loop_s: float
    traced: bool
    samples: int
    session_ms: list[float]
    heldout_rmse_mm: float
    counts: dict[str, float] = field(default_factory=dict)
    layer_s: dict[str, float] = field(default_factory=dict)
    spans: int = 0


def _layer_seconds(spans: list[dict], run_id: str) -> tuple[dict[str, float], int]:
    """Summed duration per span name for one iteration, plus the time of
    the iteration's root span not covered by any layer span."""
    own = [(i, s) for i, s in enumerate(spans) if s["run_id"] == run_id]
    root_index, root = next((i, s) for i, s in own if s["parent"] is None)
    totals: dict[str, float] = {}
    covered = 0.0
    for i, s in own:
        if i == root_index:
            continue
        duration = s["end"] - s["start"]
        key = f"{s['name']}_s"
        totals[key] = totals.get(key, 0.0) + duration
        if s["parent"] == root_index:
            covered += duration
    totals["trace.unattributed_s"] = (root["end"] - root["start"]) - covered
    return totals, len(own)


def measure(workload, rec: Recorder, seconds: float, trace: bool) -> list[Iteration]:
    """Run the workload as a closed loop for about ``seconds``.

    Each iteration starts only when the previous one and its correctness
    gate have finished. The loop starts another iteration while at least
    half of one still fits before ``seconds``, and always runs the
    workload's ``min_iterations``; a traced run alternates untraced and
    traced iterations and runs at least one of each, so that it can report
    its own overhead.
    """
    done: list[Iteration] = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        rec.tracing = traced
        rec.run_id = f"{workload.name}/{k}"
        rec.counts = {}
        t0 = time.perf_counter()
        try:
            with rec.span("iteration"):
                out = workload.iterate(rec)
            wall = time.perf_counter() - t0 - out.untimed_s
            rec.tracing = False
            workload.gate(out, rec)
        except OperationFailed:
            break
        except Exception as exc:  # any error of the program is a failed operation
            rec.fail(f"{type(exc).__name__}: {exc}")
            break
        finally:
            rec.tracing = False
        it = Iteration(
            wall_s=wall,
            loop_s=time.perf_counter() - t0,
            traced=traced,
            samples=out.samples,
            session_ms=out.session_ms,
            heldout_rmse_mm=out.heldout_rmse_mm,
            counts=dict(rec.counts),
        )
        if traced:
            it.layer_s, it.spans = _layer_seconds(rec.spans, rec.run_id)
        done.append(it)
        k += 1
        elapsed = time.perf_counter() - start
        estimate = statistics.median(i.loop_s for i in done)
        need_more = len(done) < workload.min_iterations or (
            trace and not any(i.traced for i in done))
        if not need_more and elapsed + estimate / 2 > seconds:
            break
    return done


def measure_setup(workload) -> list[float]:
    """Times of SETUP_REPEATS x (fresh-process ``import wristkin`` plus
    the workload's one-off input preparation)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    totals = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wristkin"], env=env, check=True, cwd=ROOT)
        workload.prepare()
        totals.append(time.perf_counter() - t0)
    return totals


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples above it."""
    if n <= 2 * TAIL_BEYOND:
        return 50
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / n))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(iterations: list[Iteration], setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics from untraced iterations, plus their details."""
    plain = [i for i in iterations if not i.traced]
    walls = [i.wall_s for i in plain]
    sessions = [ms for i in plain for ms in i.session_ms]
    pct = tail_percentile(len(sessions))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "samples_per_s": (statistics.median(i.samples / i.wall_s for i in plain), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "heldout_rmse_mm": (statistics.median(i.heldout_rmse_mm for i in plain), "mm"),
        "session_ms_p50": (float(np.percentile(sessions, 50)), "ms"),
        "session_ms_tail": (float(np.percentile(sessions, pct)), "ms"),
    }
    q1, _, q3 = quartiles(walls)
    details = {
        "iterations": len(plain),
        "wall_s_q1": q1,
        "wall_s_q3": q3,
        "sessions_timed": len(sessions),
        "session_ms_tail_percentile": pct,
    }
    return metrics, details


def per_layer(iterations: list[Iteration], names: dict[str, str]) -> dict:
    """Per-layer metrics: medians over traced iterations; 0 for a layer
    the workload does not call."""
    traced = [i for i in iterations if i.traced]
    plain = [i for i in iterations if not i.traced]
    metrics = {}
    for name, unit in names.items():
        if name == "trace.wall_s":
            value = statistics.median(i.wall_s for i in traced)
        elif name == "trace.overhead_s":
            value = statistics.median(i.wall_s for i in traced) - statistics.median(
                i.wall_s for i in plain
            )
        elif name == "trace.spans":
            value = statistics.median(i.spans for i in traced)
        else:
            value = statistics.median(
                i.layer_s.get(name, i.counts.get(name, 0.0)) for i in traced
            )
        metrics[name] = (float(value), unit)
    return metrics


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git
    repository of its own (a repository around it is not asked)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:  # no git installed
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": workload.name,
        "size": workload.size_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **workload.describe(),
    }


def write_spans(path: Path, spans: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
