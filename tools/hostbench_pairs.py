#!/usr/bin/env python3
"""Paired host-benchmark comparison of two checkouts of this repository.

    python3 tools/hostbench_pairs.py <parent_dir> <change_dir> \
        --workload W --seed N --seconds S --pairs P

Runs `python3 hostbench/run.py --workload W --seed N --seconds S --trace 0`
in the two checkouts alternately, P pairs, swapping which side goes first
every pair so that a drift in the host's load falls on both sides alike.
Each checkout builds and runs its own benchmark; nothing is written outside
the two checkouts' `.bench_build/`.

Fails (exit 1) when a run exits non-zero, reports `correct: false` or a
failed unit, or when `sim_cycles` or `hw_si_share` differs between any two
runs: a speed comparison is only meaningful between runs that simulated the
same thing. Otherwise prints, for every end-to-end metric, each side's
median and quartiles, the ratio of the medians (change / parent), how many
pairs the change won (in the metric's `better` direction from
BENCHMARK.json), and whether the change is resolved: better in at least
nine pairs of ten and in the median by more than the parent's
inter-quartile distance.
"""

import argparse
import json
import math
import os
import subprocess
import sys

DETERMINISTIC = ("sim_cycles", "hw_si_share")


def quantile(values, q):
    """Linear interpolation between the closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join("hostbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit("error: %s: hostbench/run.py exited with %d"
                 % (checkout, proc.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("error: %s: %d of %d units failed their checks"
                 % (checkout, result.get("failed", 0),
                    result.get("attempted", 0)))
    return {name: m["value"] for name, m in result["metrics"].items()}


def directions(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def fmt(x):
    return "%.4g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    better = directions(sides["change"])

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args))
        sys.stderr.write("pair %d/%d: si_per_s parent %s, change %s\n"
                         % (i + 1, args.pairs,
                            fmt(runs["parent"][-1].get("si_per_s", math.nan)),
                            fmt(runs["change"][-1].get("si_per_s", math.nan))))

    first = runs["parent"][0]
    for side in ("parent", "change"):
        for i, r in enumerate(runs[side]):
            for name in DETERMINISTIC:
                if r.get(name) != first.get(name):
                    sys.exit("error: %s run %d reads %s = %s, parent run 1 %s"
                             % (side, i + 1, name, r.get(name),
                                first.get(name)))

    print("%s, seed %d: %d alternating pairs of %g-s runs"
          % (args.workload, args.seed, args.pairs, args.seconds))
    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]",
             "ratio", "won", "resolved")]
    for name in first:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pm, cm = quantile(p, 0.5), quantile(c, 0.5)
        iqr = quantile(p, 0.75) - quantile(p, 0.25)
        sign = -1 if better.get(name) == "lower" else 1
        won = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        if name in DETERMINISTIC:
            resolved = "identical"
        else:
            resolved = ("yes" if won * 10 >= 9 * args.pairs
                        and sign * (cm - pm) > iqr else "no")
        rows.append((name,
                     "%s [%s, %s]" % (fmt(pm), fmt(quantile(p, 0.25)),
                                      fmt(quantile(p, 0.75))),
                     "%s [%s, %s]" % (fmt(cm), fmt(quantile(c, 0.25)),
                                      fmt(quantile(c, 0.75))),
                     "%.3f" % (cm / pm) if pm else "-",
                     "%d/%d" % (won, args.pairs), resolved))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
              .rstrip())


if __name__ == "__main__":
    main()
