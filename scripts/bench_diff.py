#!/usr/bin/env python3
"""Compare two benchmark records against the bounds in BENCHMARK.json.

  scripts/bench_diff.py PARENT.json CHANGE.json [--benchmark BENCHMARK.json]

Each argument names per-workload metric medians. Accepted files:

  * a committed record (BENCH_<n>.json). It holds a parent and a change side
    per workload; PARENT.json reads its parent side and CHANGE.json its
    change side unless the path ends in ":parent" or ":change". So
    `bench_diff.py BENCH_21.json BENCH_21.json` checks one record, and
    `bench_diff.py BENCH_18.json:change BENCH_21.json` compares two;
  * a map {"workloads": {W: {"metrics": {M: value or {"median": value}}}}}.

For every workload and metric present on both sides it prints the two
medians and the relative change, and flags each end-to-end metric that got
worse by more than its bound. The exit status is 1 when any did, 2 on bad
input, 0 otherwise. BENCHMARK.json is only read.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_side(arg, default_side):
    """{workload: {metric: median}} from FILE or FILE:side."""
    path, side = arg, default_side
    for s in ("parent", "change"):
        if arg.endswith(":" + s):
            path, side = arg[: -len(s) - 1], s
    with open(path) as f:
        data = json.load(f)
    out = {}
    for workload, w in data.get("workloads", {}).items():
        metrics = w[side]["metrics"] if side in w else w.get("metrics", {})
        out[workload] = {
            m: v["median"] if isinstance(v, dict) else v
            for m, v in metrics.items()
        }
    if not out:
        raise ValueError(f"{path}: no workloads")
    return out


def worse_by(parent, change, better):
    """Relative worsening of change against parent (negative: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()
    try:
        with open(args.benchmark) as f:
            bench = json.load(f)
        parent = load_side(args.parent, "parent")
        change = load_side(args.change, "change")
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2

    gated = {m["name"]: m for m in bench.get("end_to_end", [])}
    direction = {m["name"]: m["better"] for m in bench.get("per_layer", [])}
    direction.update({n: m["better"] for n, m in gated.items()})

    failures = []
    for workload in sorted(set(parent) & set(change)):
        p, c = parent[workload], change[workload]
        print(f"== {workload}")
        print(f"  {'metric':32s} {'parent':>12s} {'change':>12s} {'delta':>8s}  bound")
        for metric in [m for m in gated if m in p and m in c] + sorted(
                m for m in set(p) & set(c) if m not in gated):
            pv, cv = p[metric], c[metric]
            delta = (cv - pv) / abs(pv) if pv else 0.0
            line = f"  {metric:32s} {pv:12.4g} {cv:12.4g} {100 * delta:+7.1f}%"
            if metric in gated:
                bound = gated[metric]["bound"]
                worse = worse_by(pv, cv, gated[metric]["better"])
                line += f"  {100 * bound:.0f}%"
                if worse > bound:
                    line += "  WORSE PAST BOUND"
                    failures.append(f"{workload}/{metric}")
            print(line)
    for name in sorted(set(parent) ^ set(change)):
        print(f"== {name}: on one side only, not compared")
    if failures:
        print("end-to-end metrics worse past their bound: " + ", ".join(failures))
        return 1
    print("no end-to-end metric worse past its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
