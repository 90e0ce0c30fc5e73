#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics over repeated runs.

Runs bench/run.py once per workload and seed, one run at a time, at the
run_seconds of BENCHMARK.json, and reports for every workload and metric the
median over the runs and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. Beside the scaled ``wall_s`` it reports
the raw seconds of a pass (``wall_raw_s``) and the calibration loop's raw
time (``calibration_s``), which tracks the machine's speed.

``--seeds 1-10`` gives seeds 1 to 10, one run each; ``--seeds 0x10`` runs
seed 0 ten times, so the spread is noise alone, with no change of input.
With --compare, it also reports how far each median moved from an earlier
set, and the largest move of one seed's value between the sets; both must
stay within the bound. From the repository root:

    python3 bench/steadiness.py --seeds 1-10 --out bench/steadiness.json
    python3 bench/steadiness.py --seeds 1-10 --compare bench/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text):
    """'3' is seed 3, '1-10' seeds 1 to 10, '0x10' seed 0 ten times."""
    if "x" in text:
        seed, _, times = text.partition("x")
        return [int(seed)] * int(times)
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s"
                           % (workload, seed, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def by_seed(runs, name):
    seeds = {}
    for r in runs:
        seeds.setdefault(r["seed"], []).append(r["metrics"][name])
    return {seed: statistics.median(v) for seed, v in seeds.items()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--out", help="write the runs and the summary here as JSON")
    p.add_argument("--compare", help="an earlier --out file to compare the medians with")
    args = p.parse_args(argv)
    earlier = None
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as fh:
            earlier = json.load(fh)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    shown = {"wall_raw_s": None, "calibration_s": None}
    shown.update(bounds)
    runs = {}
    summary = {}
    context = None
    for workload in [w["name"] for w in spec["workloads"]]:
        runs[workload] = []
        for seed in args.seeds:
            detail, result = run_once(workload, seed, spec["run_seconds"])
            context = context or detail["context"]
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            metrics["wall_raw_s"] = detail["wall_raw_s"]
            metrics["calibration_s"] = detail["calibration"]["median_raw_s"]
            runs[workload].append({
                "seed": seed, "correct": result["correct"], "failed": result["failed"],
                "attempted": result["attempted"], "load_before": detail["context"]["load_before"],
                "metrics": metrics,
                "commands": {k: v["median_s"] for k, v in detail["commands"].items()},
            })
            print("%s seed %d: %s" % (workload, seed, json.dumps(metrics)), flush=True)
        summary[workload] = {}
        for name, bound in shown.items():
            values = [r["metrics"][name] for r in runs[workload]]
            s = spread(values)
            row = summary[workload][name] = {"median": statistics.median(values),
                                             "iqr_over_median": s}
            if bound is not None:
                row.update(bound=bound, within_bound=s <= bound, below_third_of_bound=s < bound / 3)
            if earlier is not None:
                sign = 1 if lower_better.get(name, True) else -1
                ratio = row["median"] / earlier["summary"][workload][name]["median"]
                row["worse_than_earlier"] = ratio ** sign - 1
                before = by_seed(earlier["runs"][workload], name)
                now = by_seed(runs[workload], name)
                row["same_seed_worst"] = max((now[k] / before[k]) ** sign - 1
                                             for k in now if k in before)
    print("%-14s %-14s %12s %8s %6s %8s %9s" % ("workload", "metric", "median", "spread", "bound",
                                                 "worse", "same-seed"))
    for workload, metrics in summary.items():
        for name, row in metrics.items():
            worse = row.get("worse_than_earlier")
            same = row.get("same_seed_worst")
            print("%-14s %-14s %12.4f %8.4f %6s %8s %9s%s"
                  % (workload, name, row["median"], row["iqr_over_median"],
                     "-" if "bound" not in row else "%.2f" % row["bound"],
                     "-" if worse is None else "%.4f" % worse,
                     "-" if same is None else "%.4f" % same,
                     "" if row.get("below_third_of_bound", True)
                     else "  (spread over a third of the bound)"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"context": context, "seconds": spec["run_seconds"],
                                 "seeds": args.seeds, "summary": summary, "runs": runs},
                                sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
