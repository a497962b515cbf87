"""Benchmark of wristkin: one workload, one seed, one run.

    python3 bench/run.py --workload paper-protocol --seed 1 --seconds 30 --trace 0
    python3 bench/run.py compare parent.jsonl change.jsonl

A run times a closed loop of the workload for about ``--seconds``, checks
every iteration's outputs, and prints each metric with its unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
``--record FILE`` also appends the run, with its environment, to a
result set that ``compare`` reads. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys

import bootstrap


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="run.py", description="Benchmark of wristkin.")
    parser.add_argument("--workload", required=True,
                        choices=("paper-protocol", "cohort-ingest", "cli-pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny cohort and GA budget, for tests")
    parser.add_argument("--record", help="append this run to a JSON-lines result set")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def run(args: argparse.Namespace) -> dict:
    """Set up, measure and check one workload; returns the run record."""
    import harness
    import workloads

    benchmark = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    workdir = bootstrap.ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, args.size, args.seed, workdir)
    rec = harness.Recorder()
    try:
        # a traced run reports no setup_s, so it prepares once untimed.
        # Otherwise set-up is timed before and after the loop, so that its
        # median spans the run and not one moment of the machine's speed
        if args.trace:
            workload.prepare()
        else:
            setup = harness.measure_setup(workload)
        iterations = harness.measure(workload, rec, args.seconds, bool(args.trace))
        setup_s = math.nan if args.trace else statistics.median(
            setup + harness.measure_setup(workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    details: dict = {}
    metrics: dict = {}
    if any(not i.traced for i in iterations):
        end_to_end, details = harness.end_to_end(iterations, setup_s)
        if not args.trace:
            metrics = end_to_end
    if args.trace and any(i.traced for i in iterations):
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = harness.per_layer(iterations, units)
        path = bootstrap.ROOT / ".bench_runs" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        harness.write_spans(path, rec.spans)
        details["spans_file"] = str(path.relative_to(bootstrap.ROOT))
    if not metrics:
        rec.fail("no iteration completed")
    details["fail_frac"] = rec.failed / max(rec.attempted, 1)
    details["wall_s_per_iteration"] = [i.wall_s for i in iterations if not i.traced]
    result = {
        "correct": rec.failed == 0,
        "attempted": max(rec.attempted, 1),
        "failed": rec.failed,
        "metrics": {name: {"value": _finite(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    env = harness.environment(workload, args.seed, args.seconds, bool(args.trace))
    return {"env": env, "result": result, "details": details, "failures": rec.failures[:20]}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    args = _parse(argv)
    bootstrap.pin_blas_threads()
    try:
        bootstrap.use_checkout_source()
    except bootstrap.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = run(args)
    for message in record["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("details " + json.dumps(record["details"], sort_keys=True))
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
