"""Smoke-size tests of the benchmark: metric names and units, the output
contract, and that every correctness gate fires on corrupted output.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bootstrap

bootstrap.pin_blas_threads()
bootstrap.use_checkout_source()

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from wristkin import RationalQuadricSurface, SchemaError  # noqa: E402

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(autouse=True)
def one_setup_repeat(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def _args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=SEED, seconds=0.5, trace=trace,
                              size="smoke", record=None)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units(workload, trace):
    record = run.run(_args(workload, trace))
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert values["trace.spans"] > 0
        layer = {"paper-protocol": "ga.fit_s", "cohort-ingest": "sessions.load_s",
                 "cli-pipeline": "cli.fit_s"}[workload]
        assert values[layer] > 0
        if workload != "paper-protocol":
            assert values["ga.fit_s"] == 0
    env = record["env"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads", "seed",
                "subjects", "ga_generations"):
        assert key in env
    assert set(env["blas_threads"].values()) == {"1"}


def test_command_prints_result_last(tmp_path):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cohort-ingest", "--seed", "1",
         "--seconds", "0.5", "--trace", "0", "--size", "smoke"],
        cwd=bootstrap.ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(bootstrap.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-protocol", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _iterate(name: str, tmp_path):
    workload = workloads.make(name, "smoke", SEED, tmp_path / name)
    workload.prepare()
    rec = harness.Recorder()
    return workload, rec, workload.iterate(rec)


def test_paper_gate_fires_on_pole_inside_heldout_box(tmp_path):
    workload, rec, out = _iterate("paper-protocol", tmp_path)
    workload.gate(out, rec)
    assert rec.failed == 0, rec.failures
    x = np.concatenate([js.beta3 for js in out.data["val_series"]])
    # denominator 1 - x / x0 changes sign at the middle of the held-out range
    # without vanishing at any sample
    x0 = float(np.median(x)) + 1e-7
    out.data["surface"] = RationalQuadricSurface(
        numerator=[20.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        denominator=[-1.0 / x0, 0.0, 0.0, 0.0, 0.0],
    )
    workload.gate(out, rec)
    assert any("pole-free" in f for f in rec.failures), rec.failures


def test_cohort_gate_fires_on_truncated_csv(tmp_path):
    workload, rec, out = _iterate("cohort-ingest", tmp_path)
    data, _ = out.data["pairs"][0]
    blob = data.read_bytes()
    data.write_bytes(blob[: len(blob) // 2])
    # the gate's reload then raises, which the measuring loop counts as a failure
    with pytest.raises(SchemaError):
        workload.gate(out, rec)
    assert any("byte-identical" in f for f in rec.failures), rec.failures


def test_cohort_gate_fires_on_d2_drift(tmp_path):
    workload, rec, out = _iterate("cohort-ingest", tmp_path)
    first = out.data["series"][0]
    drifted = type(first)(times=first.times, states=tuple(
        type(s)(theta3=s.theta3, theta4=s.theta4, d2=s.d2 + 1e-5) for s in first.states))
    out.data["series"][0] = drifted
    workload.gate(out, rec)
    assert any("1e-6 mm" in f for f in rec.failures), rec.failures


def test_cli_gate_fires_on_corrupted_outputs(tmp_path):
    workload, rec, out = _iterate("cli-pipeline", tmp_path)
    base = out.data["base"]
    keep = tmp_path / "kept"
    shutil.copytree(base, keep)
    workload.gate(out, rec)
    assert rec.failed == 0, rec.failures

    # a rerun of the same seed whose fit report differs, and whose
    # predictions file lost its tail
    shutil.copytree(keep, base)
    (base / "fit" / "fit_report.json").write_text("{}\n")
    predictions = base / "predict" / "predictions.csv"
    predictions.write_text("\n".join(predictions.read_text().splitlines()[:-5]) + "\n")
    workload.gate(out, rec)
    assert any("fit_report.json byte-identical" in f for f in rec.failures), rec.failures
    assert any("predictions.csv" in f for f in rec.failures), rec.failures

    with pytest.raises(harness.OperationFailed):
        workload._cli(rec, "check", [str(keep / "validate" / "validate_report.json")])
    assert rec.counts["cli.nonzero_exits"] == 1


def _record(workload: str, seed: int, value: float, failed: int = 0) -> dict:
    return {
        "env": {"workload": workload, "trace": 0, "seed": seed},
        "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                   "metrics": {"wall_s": {"value": value, "unit": "s"}}},
    }


@pytest.mark.parametrize(
    "base, new, failed, expected",
    [
        ([10.0 + 0.01 * i for i in range(10)], [8.0 + 0.01 * i for i in range(10)], 0, "gain"),
        ([10.0 + 0.01 * i for i in range(10)], [8.0 + 0.01 * i for i in range(10)], 1,
         "gain (void: more operations failed)"),
        ([10.0 + 0.01 * i for i in range(10)], [13.0 + 0.01 * i for i in range(10)], 0,
         "regression"),
        ([10.0 + 0.01 * i for i in range(10)], [10.0 + 0.01 * i for i in range(10)], 0,
         "within bound"),
        ([5.0, 15.0] * 5, [6.0, 16.0] * 5, 0, "unresolved"),
    ],
)
def test_compare_verdicts(base, new, failed, expected):
    a = [_record("w", i, v) for i, v in enumerate(base)]
    b = [_record("w", i, v, failed if i == 0 else 0) for i, v in enumerate(new)]
    lines = compare.compare(a, b, BENCHMARK)
    assert lines[1].rstrip().endswith(expected), lines


def test_compare_flags_heldout_rmse_that_does_not_repeat():
    def record(seed: int, rmse: float) -> dict:
        r = _record("w", seed, 10.0)
        r["result"]["metrics"]["heldout_rmse_mm"] = {"value": rmse, "unit": "mm"}
        return r

    base = [record(1, 1.5), record(1, 1.5000001), record(2, 1.4)]
    new = [record(1, 1.5), record(2, 1.4)]
    lines = compare.compare(base, new, BENCHMARK)
    failed = [line for line in lines if "REPEAT FAILED" in line]
    assert len(failed) == 1 and "seed 1" in failed[0] and "base" in failed[0], lines
