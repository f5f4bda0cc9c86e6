#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run it.

usage (from the repository root):

    python3 perfbench/run.py --workload forward|congested|control \
        --seed N --seconds S --trace 0|1

The benchmark is the Rust package next to this file; it depends on the
repository's crates by path. Cargo builds it offline into
$CARGO_TARGET_DIR (default: .bench_build). The process then becomes the
benchmark binary, whose last line of standard output is the JSON result.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])
    return 1  # not reached: execv replaces this process


if __name__ == "__main__":
    sys.exit(main())
