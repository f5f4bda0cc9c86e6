#!/usr/bin/env python3
"""Check that EXPERIMENTS.md quotes results_full.txt in its Measured tables.

A Measured table is the first Markdown table after a line starting with
`**Measured` in an experiment's section (`## T1 — ...`). Each of its body
cells must appear in the same experiment's section of results_full.txt
(`######## T1 ########`):

- every number in the cell equals a number in the section, sign
  included, once the section's number is rounded half up to the cell's
  printed decimals (`41.0%` quotes `40.99%`; thousands separators are
  ignored, and `−` reads as `-`);
- every word in the cell appears in the section, ignoring case and `**`
  emphasis.

F4's timing columns time real code on the host, so they are exempt, as
in check_results.py; its FIB sizes are checked. Header rows are not
checked: they name columns in prose.

Usage: python3 .github/check_experiments.py [EXPERIMENTS] [RESULTS]
Defaults to the repository's EXPERIMENTS.md and results_full.txt. Exits
non-zero and lists every cell it could not find.
"""
import itertools
import pathlib
import re
import sys
from decimal import ROUND_HALF_UP, Decimal

ROOT = pathlib.Path(__file__).resolve().parents[1]
# Columns, by header, whose cells are not checked.
EXEMPT = {"F4": {"LPM ns/op", "label ns/op", "speedup"}}
EXPERIMENT = re.compile(r"## (\w+) — ")
SECTION = re.compile(r"######## (\S+) ########")
# A minus sign counts only where it cannot be a hyphen (`0-1-4`, `1e-3`).
NUMBER = re.compile(r"(?:(?<![\w.])-)?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?")
WORD = re.compile(r"[^\W\d_]+")


def measured_tables(text):
    """(experiment, line number, header, cells) for each body row of a Measured table."""
    experiment, armed, in_table, header = None, False, False, []
    for n, line in enumerate(text.splitlines(), 1):
        m = EXPERIMENT.match(line)
        if m or line.startswith("## "):
            experiment, armed, in_table = m and m.group(1), False, False
        elif line.startswith("**Measured"):
            armed = True
        elif armed and line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if not in_table:
                header = cells
            elif not set(line) <= set("|-: "):
                yield experiment, n, header, cells
            in_table = True
        elif in_table:
            armed = in_table = False


def sections(text):
    """results_full.txt split into its experiment sections."""
    out, name = {}, None
    for line in text.splitlines():
        m = SECTION.fullmatch(line)
        if m:
            name = m.group(1)
            out[name] = ""
        elif name:
            out[name] += line + "\n"
    return out


def quoted(cell, section):
    """The parts of `cell` that `section` does not contain."""
    cell = cell.replace("**", "").replace("\u2212", "-")
    numbers = [Decimal(x.replace(",", "")) for x in NUMBER.findall(section)]
    missing = []
    for token in NUMBER.findall(cell):
        value = Decimal(token.replace(",", ""))
        if not any(x.quantize(value, ROUND_HALF_UP) == value for x in numbers):
            missing.append(token)
    words = {w.lower() for w in WORD.findall(section)}
    missing += [w for w in WORD.findall(cell) if w.lower() not in words]
    return missing


def main():
    args = sys.argv[1:]
    doc = pathlib.Path(args[0] if args else ROOT / "EXPERIMENTS.md").read_text()
    results = sections(pathlib.Path(args[1] if len(args) > 1 else ROOT / "results_full.txt").read_text())
    checked, bad = 0, []
    for experiment, n, header, cells in measured_tables(doc):
        if experiment not in results:
            bad.append(f"EXPERIMENTS.md:{n}: no section {experiment} in results_full.txt")
            continue
        for column, cell in itertools.zip_longest(header, cells, fillvalue=""):
            if column in EXEMPT.get(experiment, ()):
                continue
            checked += 1
            missing = quoted(cell, results[experiment])
            if missing:
                bad.append(f"EXPERIMENTS.md:{n}: {experiment} cell {cell!r}: not found: {', '.join(missing)}")
    if bad or not checked:
        print("\n".join(bad))
        sys.exit(f"{len(bad)} Measured cell(s) of EXPERIMENTS.md are not in results_full.txt")
    print(f"EXPERIMENTS.md quotes results_full.txt ({checked} Measured cells, F4 timings exempt)")


if __name__ == "__main__":
    main()
