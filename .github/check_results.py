#!/usr/bin/env python3
"""Check that `exp_all --full` still prints the committed results_full.txt.

Every line must match byte for byte, with one exception: the rows of F4's
ns/op table time real code on the host, so their LPM ns/op, label ns/op and
speedup cells differ between runs. In those rows only the FIB size is
compared; the row itself must still be there, with numeric timing cells.

Usage: python3 .github/check_results.py [OUTPUT]
Checks the file OUTPUT, or, without it, the output of
`cargo run --release -p mplsvpn-bench --bin exp_all -- --full`.
Exits non-zero and prints a diff on any drift. A change that moves a
number regenerates results_full.txt in the same commit and says why.
"""
import difflib
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SECTION = re.compile(r"######## (\S+) ########")
F4_ROW = re.compile(r"(\s*\d+)\s+\d+\.\d+\s+\d+\.\d+\s+\d+\.\dx")


def masked(text):
    """The lines of `text`, with F4's timing cells replaced by a marker."""
    section, out = None, []
    for line in text.splitlines():
        m = SECTION.fullmatch(line)
        if m:
            section = m.group(1)
        row = F4_ROW.fullmatch(line) if section == "F4" else None
        out.append(f"{row.group(1)}  <wall-clock ns/op>" if row else line)
    return out


def main():
    if len(sys.argv) > 1:
        actual = pathlib.Path(sys.argv[1]).read_text()
    else:
        cmd = ["cargo", "run", "--release", "-q", "-p", "mplsvpn-bench", "--bin", "exp_all", "--", "--full"]
        actual = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    expected = (ROOT / "results_full.txt").read_text()
    diff = list(difflib.unified_diff(masked(expected), masked(actual), "results_full.txt", "exp_all --full",
                                     lineterm=""))
    if diff:
        print("\n".join(diff))
        sys.exit("exp_all --full drifted from results_full.txt")
    print(f"exp_all --full matches results_full.txt ({len(expected.splitlines())} lines, F4 timings masked)")


if __name__ == "__main__":
    main()
