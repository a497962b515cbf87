"""Compare two result sets, for example a parent commit and a change.

A result set is the JSON-lines file that ``run.py --record`` appends to,
one line per run. For each workload and metric this prints both sides'
median and quartiles, the fraction of pairs the second side wins, and a
verdict by the rules of the benchmark's README:

- ``gain``: the second side wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the first side's
  quartile distance; void when the second side failed more operations;
- ``unresolved``: a side's run-to-run spread exceeds the metric's bound,
  and not every run of the second side beats every run of the first;
- ``regression``: the second median is worse by more than the bound;
- ``within bound`` otherwise; per-layer metrics have no bound and get
  ``no claim`` instead.

Runs pair up by seed when both sides hold the same seeds, else in order.
Held-out RMSE is a pure function of the seed, so runs of one seed on one
side must repeat it exactly; a mismatch prints ``REPEAT FAILED``. Across
the sides, the count of seeds whose value is identical is printed too:
all of them for two sets of the same code.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from bootstrap import ROOT
from harness import quartiles

GAIN_PAIR_SHARE = 0.9
# metrics that every run of one seed must repeat exactly
SEED_EXACT = ("heldout_rmse_mm",)


def load_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def metric_specs(benchmark: dict) -> dict[str, dict]:
    specs = {m["name"]: m for m in benchmark["per_layer"]}
    specs.update({m["name"]: m for m in benchmark["end_to_end"]})
    return specs


def _pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    base_seeds = [r["env"]["seed"] for r in base]
    new_seeds = [r["env"]["seed"] for r in new]
    if sorted(base_seeds) == sorted(new_seeds) and len(set(base_seeds)) == len(base_seeds):
        by_seed = {r["env"]["seed"]: r for r in new}
        return [(r, by_seed[r["env"]["seed"]]) for r in base]
    return list(zip(base, new))


def _value(record: dict, name: str):
    metric = record["result"]["metrics"].get(name)
    return None if metric is None else metric["value"]


def repeat_lines(base: list[dict], new: list[dict],
                 paired: list[tuple[dict, dict]]) -> list[str]:
    """Exact-repeat checks of the SEED_EXACT metrics, within each side and
    across the seed-paired runs of the two sides."""
    lines = []
    for name in SEED_EXACT:
        for side, records in (("base", base), ("new", new)):
            by_seed: dict[int, set] = {}
            for r in records:
                by_seed.setdefault(r["env"]["seed"], set()).add(repr(_value(r, name)))
            for seed, values in sorted(by_seed.items()):
                if len(values) > 1:
                    lines.append(f"  REPEAT FAILED: {name} of seed {seed} differs between "
                                 f"the {side} runs: {', '.join(sorted(values))}")
        same_seed = [(a, b) for a, b in paired if a["env"]["seed"] == b["env"]["seed"]]
        if same_seed and _value(same_seed[0][0], name) is not None:
            identical = sum(_value(a, name) == _value(b, name) for a, b in same_seed)
            lines.append(f"  {name}: identical on both sides for {identical} of "
                         f"{len(same_seed)} seeds")
    return lines


def verdict(spec: dict, base: list[float], new: list[float],
            pairs: list[tuple[float, float]], more_failures: bool) -> tuple[str, float]:
    lower = spec["better"] == "lower"

    def beats(b: float, a: float) -> bool:
        return b < a if lower else b > a

    wins = sum(beats(b, a) for a, b in pairs)
    share = wins / len(pairs) if pairs else 0.0
    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(new)
    if share >= GAIN_PAIR_SHARE and beats(mb, ma) and abs(mb - ma) > q3a - q1a:
        return ("gain (void: more operations failed)" if more_failures else "gain"), share
    bound = spec.get("bound")
    if bound is None:
        return "no claim", share
    scale = abs(ma) or 1.0
    spread = max((q3a - q1a) / scale, (q3b - q1b) / (abs(mb) or 1.0))
    all_better = all(beats(b, a) for b in new for a in base)
    if spread > bound and not all_better:
        return "unresolved", share
    worse_by = (mb - ma) / scale if lower else (ma - mb) / scale
    if worse_by > bound:
        return "regression", share
    return "within bound", share


def compare(base_records: list[dict], new_records: list[dict], benchmark: dict) -> list[str]:
    specs = metric_specs(benchmark)
    lines = []
    keys = sorted({(r["env"]["workload"], r["env"]["trace"]) for r in base_records + new_records})
    for workload, trace in keys:
        base = [r for r in base_records if (r["env"]["workload"], r["env"]["trace"]) == (workload, trace)]
        new = [r for r in new_records if (r["env"]["workload"], r["env"]["trace"]) == (workload, trace)]
        if not base or not new:
            lines.append(f"{workload} trace={trace}: only one side has runs; nothing to compare")
            continue
        failed = [sum(r["result"]["failed"] for r in side) for side in (base, new)]
        attempted = [sum(r["result"]["attempted"] for r in side) for side in (base, new)]
        lines.append(
            f"{workload} trace={trace}: runs {len(base)} vs {len(new)}, failed/attempted "
            f"{failed[0]}/{attempted[0]} vs {failed[1]}/{attempted[1]}"
        )
        paired = _pairs(base, new)
        lines.extend(repeat_lines(base, new, paired))
        for name in base[0]["result"]["metrics"]:
            if name not in specs:
                continue
            spec = specs[name]
            a = [r["result"]["metrics"][name]["value"] for r in base]
            b = [r["result"]["metrics"][name]["value"] for r in new]
            pairs = [(ra["result"]["metrics"][name]["value"], rb["result"]["metrics"][name]["value"])
                     for ra, rb in paired]
            label, share = verdict(spec, a, b, pairs, failed[1] > failed[0])
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"  {name:28s} {spec['unit']:6s} "
                f"{qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  ->  "
                f"{qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                f"won {share:.0%} of {len(pairs)}  {label}"
            )
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="result set of the reference side (parent)")
    parser.add_argument("new", type=Path, help="result set of the side under test (change)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for line in compare(load_records(args.base), load_records(args.new), benchmark):
        print(line)
    return 0
