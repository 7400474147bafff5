#!/usr/bin/env python3
"""Growth sweep, kept outside the gated workloads.

    python3 perfbench/sweep.py [--seed 1]

Runs `semandaq repair` on the hospital scenario and `semandaq discover
--min-confidence 0.9` on the customer relation at three sizes each, each
command REPS times, and fits a growth exponent k (time ~ rows^k) to the
median times of each phase by least squares on log-log axes (one run per
size moved the exponents by up to 0.25). Phase times come from each command's `--explain json`
profile; `wall` is the process as a user times it.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPS = 3
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SWEEPS = [
    ("hospital repair", "hospital", [10000, 20000, 40000], ("detect", "resolve", "force")),
    ("customer discovery", "customer", [5000, 10000, 20000],
     ("lattice", "constant_rules", "vetting")),
]


def exponent(sizes, times):
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def measure(sem, tool, scenario, rows, seed, d):
    gen = d / f"{scenario}-{rows}"
    run.timed(tool, [sem, "generate", "--scenario", scenario, "--rows", rows,
                     "--noise", run.NOISE, "--seed", seed, "--out", gen], d / "gen.out")
    if scenario == "hospital":
        cmd = [sem, "repair", "--data", gen / "dirty.csv", "--cfds", gen / "cfds.txt",
               "--table", "hospital", "--explain", "json", "--out", gen / "fixed.csv"]
    else:
        cmd = [sem, "discover", "--data", gen / "dirty.csv", "--min-confidence",
               run.MIN_CONFIDENCE, "--explain", "json"]
    walls, phases = [], {}
    for _ in range(REPS):
        t = run.timed(tool, cmd, d / "sweep.out")
        walls.append(t.wall)
        for phase in json.loads(t.out)["phases"]:
            phases.setdefault(phase["name"], []).append(phase["us"] / 1e6)
    return statistics.median(walls), {k: statistics.median(v) for k, v in phases.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    try:
        sem, tool = run.build()
    except run.Fail as e:
        sys.exit(f"sweep: {e}")
    d = run.WORK / "sweep"
    d.mkdir(parents=True, exist_ok=True)
    for title, scenario, sizes, names in SWEEPS:
        results = [measure(sem, tool, scenario, n, args.seed, d) for n in sizes]
        print(f"{title} (seed {args.seed}, median of {REPS})")
        print(f"  {'rows':>7} {'wall s':>8} " + " ".join(f"{n + ' s':>16}" for n in names))
        for n, (wall, ph) in zip(sizes, results):
            print(f"  {n:>7} {wall:8.3f} " + " ".join(f"{ph.get(p, 0):16.3f}" for p in names))
        fits = [("wall", [w for w, _ in results])] + \
               [(p, [ph.get(p, 0) for _, ph in results]) for p in names]
        print("  growth exponent: " + ", ".join(
            f"{name} {exponent(sizes, ts):.2f}" for name, ts in fits if min(ts) > 0))


if __name__ == "__main__":
    main()
