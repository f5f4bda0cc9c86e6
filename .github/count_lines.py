#!/usr/bin/env python3
"""Count the non-test Rust lines under crates/, for a PR's net line count.

Method: every `.rs` file under `crates/*/src` and `crates/*/benches`,
skipping the `*-shim` crates (local stand-ins for external dependencies),
counted from its first line up to, not including, its first unindented
`#[cfg(test)]` line, which opens the test module (the whole file if it has
none; indented test-only items inside the code still count). Blank and
comment lines count.

Usage: python3 .github/count_lines.py [REV]
Counts the repository's working tree, or the commit REV when given, and
prints the total, then one line per crate.
"""
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

PATH = re.compile(r"crates/([^/]+)/(src|benches)/.+\.rs")


def git(*args):
    return subprocess.run(["git", "-c", "core.quotepath=off", *args],
                          capture_output=True, text=True, check=True).stdout


def sources(rev):
    """Yields (crate, text) for every counted file."""
    if rev is None:
        paths = [p.as_posix() for p in pathlib.Path("crates").rglob("*.rs")]
    else:
        paths = git("ls-tree", "-r", "--name-only", rev, "crates").splitlines()
    for path in paths:
        m = PATH.fullmatch(path)
        if m and not m.group(1).endswith("-shim"):
            yield m.group(1), pathlib.Path(path).read_text() if rev is None else git("show", f"{rev}:{path}")


def main():
    os.chdir(pathlib.Path(__file__).resolve().parents[1])
    per_crate = Counter()
    for crate, text in sources(sys.argv[1] if len(sys.argv) > 1 else None):
        lines = text.splitlines()
        per_crate[crate] += next((i for i, l in enumerate(lines) if l.startswith("#[cfg(test)]")), len(lines))
    print(f"total {sum(per_crate.values())}")
    for crate, n in sorted(per_crate.items()):
        print(f"  {crate} {n}")


if __name__ == "__main__":
    main()
