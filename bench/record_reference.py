#!/usr/bin/env python3
"""Record the reference output digests the benchmark compares against.

For every workload and seed, generates the input, runs one pass of the
workload's commands, checks the workload facts, and stores the exit codes
and sha256 digests of stdout and of the SVG files in bench/reference.json.
Run it from the repository root on a commit whose outputs are known good:

    python3 bench/record_reference.py --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from steadiness import seed_list


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("0"))
    args = p.parse_args(argv)
    spec = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(spec, "r", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    run.record_reference(names, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
