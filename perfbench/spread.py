#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: one run per seed, then for each metric the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload phase-full --runs 10 [--first-seed 101] [--out F]

The unscaled (wall-time) figures of the same runs, from each run's record,
are summarised below the scaled ones. ``--out`` also writes every run's
values and the quartiles as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", type=Path, help="write the values and quartiles here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    wall_values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    record_path = ROOT / "perfbench" / "out" / f"result-{args.workload}-trace0.json"
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        walls.append(perf_counter() - t0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, {result['failed']} failed", file=sys.stderr)
        wall = json.loads(record_path.read_text())["wall_metrics"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            wall_values[name].append(wall[name]["value"])
        print(f"seed {seed} wall {walls[-1]:.1f}s " + " ".join(
            f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    print(f"{args.workload}: {args.runs} runs, wall per run {statistics.median(walls):.1f}s")
    summaries = {}
    for kind, table in (("scaled", values), ("wall", wall_values)):
        print(kind)
        summary = summaries[kind] = {}
        for m in spec["end_to_end"]:
            vals = table[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "values": vals}
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:16} median {med:12.6g} {m['unit']:4} spread {spread:7.2%} "
                  f"bound {m['bound']:.0%} {flag}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": [
            args.first_seed, args.first_seed + args.runs - 1], "wall_s": walls,
            "end_to_end": summaries["scaled"], "end_to_end_wall": summaries["wall"]},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
