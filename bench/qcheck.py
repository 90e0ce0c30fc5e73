"""Run circlink's quotient_check on a family pair file, as a command would.

circlink has no subcommand for quotient_check, so the benchmark runs this
driver as its own process, from the repository root:

    PYTHONPATH=src python3 bench/qcheck.py pair.json

It prints the report as key-sorted JSON and exits 0 when every collapse
clause holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

from circlink import straighten
from circlink.family import FamilyPair


def main(argv) -> int:
    (path,) = argv
    with open(path, "r", encoding="utf-8") as fh:
        fp = FamilyPair.from_json(json.load(fh))
    report = straighten.quotient_check(fp)
    sys.stdout.write(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
