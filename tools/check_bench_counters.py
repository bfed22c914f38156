#!/usr/bin/env python3
"""Diffs the deterministic counters of a bench_scale run against a record.

Usage:

    tools/check_bench_counters.py RECORDED.json PRODUCED.json

Both files are google-benchmark JSON output. Every iteration row of
PRODUCED must appear in RECORDED under the same name with exactly the same
`nodes`, `fused`, `pruned` and `capped` counters. Those counters are pure
functions of the program and the engine configuration (the reduced graph is
identical at every worker count), so any difference is a change in what
the explorer does, never timing noise. Prints one line per mismatch and
exits 1 if there is any.
"""

import json
import sys

COUNTERS = ("nodes", "fused", "pruned", "capped")


def rows(path):
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: b
        for b in data["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"
    }


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    recorded, produced = rows(argv[1]), rows(argv[2])
    if not produced:
        print(f"error: no benchmark rows in {argv[2]}")
        return 1
    bad = 0
    for name, row in sorted(produced.items()):
        ref = recorded.get(name)
        if ref is None:
            print(f"{name}: missing from {argv[1]}")
            bad += 1
            continue
        for c in COUNTERS:
            if row.get(c) != ref.get(c):
                print(f"{name}: {c} = {row.get(c)}, recorded {ref.get(c)}")
                bad += 1
    print(f"{len(produced)} rows checked, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
