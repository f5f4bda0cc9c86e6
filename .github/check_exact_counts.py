#!/usr/bin/env python3
"""Check the benchmark's exact work counts against their pinned values.

usage (from the repository root):

    python3 .github/check_exact_counts.py

Runs every workload of `perfbench/run.py` at seed 1 with `--trace 1` and
compares each count named in `exact_counts.json` (next to this file) with
its pinned value. These counts are deterministic: the same tree gives the
same value on every host and every run, so any difference is a change in
the work the simulator does. A change that moves a count re-pins it in the
same diff and says why in CHANGES.md. Exits non-zero on any difference or
on a run with failed repetitions.
"""

import json
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "exact_counts.json")) as f:
        pins = json.load(f)
    ok = True
    for workload, counts in pins.items():
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if result["failed"] != 0:
            print(f"{workload}: {result['failed']} repetitions failed")
            ok = False
        for name, pinned in counts.items():
            value = round(result["metrics"][name]["value"], 6)
            status = "ok" if value == pinned else f"MISMATCH (pinned {pinned})"
            print(f"{workload} {name} = {value} {status}")
            ok = ok and value == pinned
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
