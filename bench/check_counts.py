#!/usr/bin/env python3
"""Compares the deterministic counts of a regenerated BENCH_*.json with
the committed copy.

    python3 bench/check_counts.py BENCH_dse.json points cold.evaluated ...

Each KEY is a dotted path into the JSON document. The committed copy is
read with `git show HEAD:FILE`. Exits 1 unless every listed value is
present in both documents and equal; times are never listed.
"""

import json
import subprocess
import sys


def lookup(doc, key):
    for part in key.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return "<missing>"
        doc = doc[part]
    return doc


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    path, keys = argv[1], argv[2:]
    with open(path) as f:
        fresh = json.load(f)
    committed = json.loads(subprocess.run(
        ["git", "show", "HEAD:" + path], check=True, capture_output=True,
        text=True).stdout)
    bad = 0
    for key in keys:
        want, got = lookup(committed, key), lookup(fresh, key)
        if got != want or want == "<missing>":
            print(f"{path} {key}: committed {want}, regenerated {got}")
            bad += 1
    print(f"{path}: {len(keys)} counts compared, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
