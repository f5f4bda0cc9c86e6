#!/usr/bin/env python3
"""Check the metrics snapshots that `exp_all --artifacts DIR` exported.

The snapshot writer is hand-rolled, so every `*_metrics.json` in DIR is
parsed with duplicate keys rejected at any depth, and must carry the
schema tag `"schema": "metrics/v2"`. At least one snapshot must exist.

Usage: python3 .github/check_snapshots.py DIR
Prints one line per snapshot and exits non-zero on the first failure.
"""
import glob
import json
import os
import sys


def no_dups(pairs):
    keys = [k for k, _ in pairs]
    dups = sorted({k for k in keys if keys.count(k) > 1})
    if dups:
        raise ValueError(f"duplicate keys: {dups}")
    return dict(pairs)


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: check_snapshots.py DIR")
    paths = sorted(glob.glob(os.path.join(sys.argv[1], "*_metrics.json")))
    if not paths:
        sys.exit("no *_metrics.json snapshots were exported")
    for path in paths:
        with open(path) as f:
            snap = json.load(f, object_pairs_hook=no_dups)
        if snap.get("schema") != "metrics/v2":
            sys.exit(f"{path}: schema is {snap.get('schema')!r}, expected 'metrics/v2'")
        print(f"{path}: ok, {len(snap['counters'])} counters")


if __name__ == "__main__":
    main()
