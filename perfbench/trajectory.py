"""Summarize the untraced runs of one source version into a trajectory point.

    python3 perfbench/trajectory.py --label <name>

Reads perfbench/_out/results.jsonl, keeps the passing untraced runs made
with the source and benchmark versions of the most recent run, and writes
perfbench/BENCH_<label>.json: per workload and end-to-end metric, the run
count, median, quartiles and range, plus the environment.  Commit that file
as the next point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / abs(median) if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()

    runs = [json.loads(line) for line in (BENCH / "_out" / "results.jsonl").read_text().splitlines()]
    latest = runs[-1]["env"]
    runs = [
        r
        for r in runs
        if (r["env"]["src_digest"], r["env"].get("bench_digest")) == (latest["src_digest"], latest["bench_digest"])
        and not r["trace"]
        and r["failed"] == 0
    ]
    point = {"label": args.label, "env": latest, "workloads": {}}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        metrics = sorted({k for r in mine for k in r["end_to_end"]})
        point["workloads"][workload] = {
            "seconds": sorted({r["seconds"] for r in mine}),
            "seeds": [r["seed"] for r in mine],
            "metrics": {m: summarize([r["end_to_end"][m] for r in mine if m in r["end_to_end"]]) for m in metrics},
        }
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(BENCH.parent)} from {len(runs)} runs")


if __name__ == "__main__":
    main()
