"""Median and quartiles of every metric across logged benchmark runs.

    python3 bench/summarize.py [--log PATH] [--baseline PATH]

Reads the runs bench/run.py appended to .bench_results/runs.jsonl, groups
them by workload, trace mode and source digest, and prints for each
metric the number of runs, the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread, (q3 - q1) / median.
--baseline also writes that summary as JSON, the form bench/baseline.json
records.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(runs: list[dict]) -> dict:
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for run in runs:
        groups[(run["workload"], run["trace"], run["env"]["src_sha256"])].append(run)
    summary = {}
    for (workload, trace, digest), members in sorted(groups.items()):
        metrics = {}
        for name, first in members[0]["result"]["metrics"].items():
            values = [m["result"]["metrics"][name]["value"] for m in members]
            values = [v for v in values if v is not None]
            if not values:
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": first["unit"], "n": len(values), "median": median,
                             "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / abs(median) if median else None}
        summary[f"{workload}/trace={trace}/src={digest}"] = {
            "seeds": sorted(m["seed"] for m in members),
            "failed": sum(m["result"]["failed"] for m in members),
            "all_correct": all(m["result"]["correct"] for m in members),
            "env": members[-1]["env"],
            "metrics": metrics,
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", type=Path, default=ROOT / ".bench_results" / "runs.jsonl")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    runs = [json.loads(line) for line in args.log.read_text().splitlines() if line.strip()]
    summary = summarize(runs)
    for group, entry in summary.items():
        print(f"{group}  runs={len(entry['seeds'])} failed={entry['failed']} "
              f"correct={entry['all_correct']}")
        for name, m in entry["metrics"].items():
            spread = "" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:40s} {m['median']:>14.6g} [{m['q1']:.6g}, {m['q3']:.6g}] "
                  f"{m['unit']:6s} spread {spread}")
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
