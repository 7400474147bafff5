#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report the spread.

    python3 perfbench/steady.py --workload W [--runs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1] [--save FILE] [--against FILE]

Each run gets its own seed (first-seed, first-seed + 1, ...). Per metric
it prints the median, the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them), the spread
(q3 - q1) / median, and that spread against the metric's bound in
BENCHMARK.json. `--save` keeps the runs' results; `--against FILE`
compares this set's medians with a saved set's, metric by metric, and
says whether each moved by more than its bound in the worse direction
and whether the share of failed operations is the same.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def spec():
    if SPEC.is_file():
        return json.loads(SPEC.read_text())
    return {"run_seconds": 10, "end_to_end": [], "per_layer": []}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (seed {seed}, exit {proc.returncode})")
    return json.loads(lines[-1])


def summary(results, metrics):
    rows = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        rows[m["name"]] = dict(median=med, q1=q1, q3=q3,
                               spread=(q3 - q1) / med if med else float("inf"), n=len(values))
    return rows


def failed_share(results):
    return sorted({(r["failed"], r["attempted"]) for r in results},
                  key=lambda fa: fa[0] / fa[1])


def main():
    s = spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=s["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    metrics = s["per_layer"] if args.trace else s["end_to_end"]
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} failed {r['failed']}/{r['attempted']}",
              file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))

    rows = summary(results, metrics)
    print(f"{args.workload}, {len(results)} run(s) of {args.seconds}s, trace={args.trace}")
    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} "
          f"{'spread/bound':>12}")
    for m in metrics:
        r = rows.get(m["name"])
        if r is None:
            continue
        bound = m.get("bound")
        ratio = f"{r['spread'] / bound:12.2f}" if bound else f"{'-':>12}"
        print(f"{m['name']:<30} {r['median']:12.4g} {r['q1']:12.4g} {r['q3']:12.4g} "
              f"{r['spread']:7.3f} {bound if bound else '-':>6} {ratio}")
    print(f"failed/attempted seen: {failed_share(results)}")

    if args.against:
        before = json.loads(Path(args.against).read_text())
        base = summary(before, metrics)
        print(f"\nagainst {args.against} ({len(before)} run(s))")
        for m in metrics:
            a, b = base.get(m["name"]), rows.get(m["name"])
            if a is None or b is None or not a["median"]:
                continue
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if m["better"] == "lower" else -change
            bound = m.get("bound")
            verdict = "" if bound is None else ("ok" if worse <= bound else "WORSE THAN BOUND")
            print(f"{m['name']:<30} {a['median']:12.4g} -> {b['median']:12.4g} "
                  f"({change:+.3f}) {verdict}")
        same = {f / a for f, a in failed_share(before)} == {f / a for f, a in failed_share(results)}
        print(f"failed share the same in both sets: {same}")


if __name__ == "__main__":
    main()
