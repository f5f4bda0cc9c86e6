#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and judge the change.

usage:

    python3 .github/bench_pairs.py PARENT CHANGE --workload forward \
        [--pairs 10] [--seconds 10] [--seed 1]

PARENT and CHANGE are two checkouts of this repository (for example the
parent commit unpacked with `git archive` and the working tree). Each run
is `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`,
started in its checkout with CARGO_TARGET_DIR set to that checkout's own
`.bench_build`, so the two sides never share a build and nothing is
written in either tree outside `.bench_build`. That directory is stamped
with a hash of the checkout's sources (`crates/`, `perfbench/src` and the
root `Cargo.*`) and removed when the stamp differs, so a checkout
re-extracted with older file times is never measured from old binaries.
Before the pairs, each side runs once with `--seconds 0` to build the
benchmark; that run is not counted. Within each pair the side that runs
first alternates: the parent first in odd pairs, the change first in even
ones.

It prints every run's end-to-end metrics and failed count, then per
metric (names, direction and bound from BENCHMARK.json next to this
script's repository) each side's median and quartiles, the pairs the
change won, and a verdict:

* gain: the change is better in at least 9 of 10 pairs (90% of the pairs)
  and the medians differ by more than the parent's interquartile range;
* regression: the change's median is worse than the parent's by more than
  the metric's bound (a fraction of the parent's median);
* unresolved: the parent's interquartile range is wider than the bound,
  and not every run of the change is better than every run of the parent;
* otherwise: within the bound.

Timings are advisory, so CI does not run this. The exit status is non-zero
only if a run failed a repetition (or gave no result at all).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys


def bench_spec():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


STAMP = "source.sha256"


def source_hash(checkout):
    """SHA-256 over the paths and contents of the files the benchmark
    builds from."""
    paths = [os.path.join(checkout, n) for n in sorted(os.listdir(checkout))
             if n.startswith("Cargo.")]
    for tree in ("crates", os.path.join("perfbench", "src")):
        for root, dirs, files in os.walk(os.path.join(checkout, tree)):
            dirs.sort()
            paths += [os.path.join(root, f) for f in sorted(files)]
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, checkout).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def fresh_build_dir(checkout):
    """Removes `checkout`'s `.bench_build` unless its stamp matches the
    sources, then stamps it."""
    build = os.path.join(checkout, ".bench_build")
    stamp = os.path.join(build, STAMP)
    digest = source_hash(checkout)
    try:
        with open(stamp) as f:
            current = f.read().strip() == digest
    except OSError:
        current = False
    if not current:
        shutil.rmtree(build, ignore_errors=True)
        os.makedirs(build)
        with open(stamp, "w") as f:
            f.write(digest + "\n")


def run(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`: its result dict, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    metrics = spec["end_to_end"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    failed = False
    for side, checkout in sides.items():
        fresh_build_dir(checkout)
        if run(checkout, args.workload, args.seed, 0) is None:
            print(f"{side}: the warm-up run gave no result (build failed?)")
            failed = True
    if failed:
        return 1

    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds} s per run")
    for pair in range(1, args.pairs + 1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            result = run(sides[side], args.workload, args.seed, args.seconds)
            if result is None:
                print(f"pair {pair:2} {side}: no result")
                failed = True
                continue
            row = []
            for m in metrics:
                v = result["metrics"][m["name"]]["value"]
                values[side][m["name"]].append(v)
                row.append(f"{m['name']}={v:.6g}")
            failed = failed or result["failed"] != 0
            print(f"pair {pair:2} {side}: {' '.join(row)} failed={result['failed']}")
    if failed:
        print("a run failed a repetition or gave no result: no verdict")
        return 1

    need = math.ceil(0.9 * args.pairs)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par, chg = values["parent"][name], values["change"][name]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(par), quartiles(chg)
        delta = (cmed - pmed) / pmed if pmed else 0.0
        worse = delta if lower else -delta
        better_median = cmed < pmed if lower else cmed > pmed
        if wins >= need and better_median and abs(cmed - pmed) > pq3 - pq1:
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = f"regression (worse by more than {m['bound']:.0%})"
        elif pmed and (pq3 - pq1) / pmed > m["bound"] and not (
                max(chg) < min(par) if lower else min(chg) > max(par)):
            verdict = f"unresolved (parent IQR wider than the bound, {m['bound']:.0%})"
        else:
            verdict = f"within the bound ({m['bound']:.0%})"
        print(f"\n{name} ({m['unit']}, {m['better']} is better)")
        print(f"  parent median {pmed:.6g}  q1 {pq1:.6g}  q3 {pq3:.6g}  IQR {pq3 - pq1:.3g}")
        print(f"  change median {cmed:.6g}  q1 {cq1:.6g}  q3 {cq3:.6g}  IQR {cq3 - cq1:.3g}")
        print(f"  change {delta:+.1%} in the median, better in {wins}/{args.pairs} pairs")
        print(f"  verdict: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
