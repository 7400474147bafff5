#!/usr/bin/env python3
"""The repo benchmark: three paper workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload hospital|customer|stream \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the
`semandaq` release binary and the `perfbench` tool into
$CARGO_TARGET_DIR (default `.bench_build`); inputs and outputs go to
`.bench_work/`. The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones, timed through the release binary and
the serve protocol as a user sees them; with `--trace 1` they are the
per-layer ones, from the traced in-process replay of the same
operations. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".bench_work"

NOISE = "0.05"
MIN_CONFIDENCE = "0.9"
SETUPS = 9  # set-ups per run; setup_s is their median
REPAIR_SEED = 42  # the customer repair's input, whatever --seed says

# The one failure counted in every run until its fault is fixed:
# (workload, operation, check). See `Checker.repair` and README.md.
KNOWN_FAILURES = {("customer", "repair", "cells_changed")}

# Each workload runs every operation; `rows` is the generated relation,
# the others pick the part of it an operation gets (None = all of it).
# `main` is the CSV the traced run's standalone relation calls read.
# One round of a run is `detects` detects, `repairs` repairs,
# `discovers` discovers and `serve_rounds` serve rounds: the cheap
# operations of a workload repeat, so each run has several samples of
# each.
WORKLOADS = {
    "hospital": dict(scenario="hospital", rows=40000, snapshot=False, main="dirty",
                     batch_rows=None, discover_rows=2000, serve_base=2000,
                     detects=3, repairs=2, discovers=3, serve_rounds=3),
    "customer": dict(scenario="customer", rows=20000, snapshot=True, main="dirty",
                     batch_rows=None, discover_rows=None, serve_base=2000,
                     detects=8, repairs=6, discovers=1, serve_rounds=3),
    "stream": dict(scenario="hospital", rows=40000, snapshot=False, main="serve_base",
                   batch_rows=8000, discover_rows=2000, serve_base=20000,
                   detects=3, repairs=1, discovers=1, serve_rounds=1),
}


def units(kind):
    """Metric name -> unit, from BENCHMARK.json at the checkout's root."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        raise Fail(f"{spec} is missing")
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[kind]}


def _placement():
    """CPU sets for the server and for everything else the benchmark
    starts: with two or more CPUs the server gets one to itself, so a
    closed-loop round trip always crosses CPUs instead of landing on
    one CPU in some runs and two in others."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


SERVER_CPUS, CLIENT_CPUS = _placement()


def pinned(cpus):
    """A `preexec_fn` that pins the child to `cpus` (None: no pinning)."""
    return None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Fail(Exception):
    """The benchmark cannot run at all (no result is printed)."""


# ---------------------------------------------------------------- build

def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "semandaq").is_dir():
        raise Fail(f"{ROOT} holds no semandaq source tree to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir().resolve()))
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "semandaq", "--bin", "semandaq"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", str(HERE / "Cargo.toml")]):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Fail("build failed: " + " ".join(cmd))
    release = target_dir().resolve() / "release"
    return release / "semandaq", release / "perfbench"


# ------------------------------------------------------------ processes

class Timed:
    """One finished process: wall seconds, peak RSS (MB), stdout text."""

    def __init__(self, wall, rss_mb, out):
        self.wall, self.rss_mb, self.out = wall, rss_mb, out


def timed(tool, cmd, out_file):
    """Run `cmd` to completion under `perfbench spawn`, its stdout in
    `out_file`: wall time and peak RSS of that process alone."""
    proc = subprocess.run([str(tool), "spawn", "--stdout", str(out_file), "--"]
                          + [str(c) for c in cmd],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          preexec_fn=pinned(CLIENT_CPUS))
    if proc.returncode != 0:
        raise Fail(f"perfbench spawn exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    if report["code"] != 0:
        raise Fail(f"{' '.join(map(str, cmd))} exited {report['code']}: {proc.stderr[-2000:]}")
    return Timed(report["wall_s"], report["maxrss_kb"] / 1024.0, Path(out_file).read_text())


def request(addr, obj):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=60) as s:
        s.sendall((json.dumps(obj) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)


class Server:
    """A `semandaq serve --state DIR` process (WAL off, default flush)."""

    def __init__(self, sem, state, log_file):
        self.log = open(log_file, "w")
        self.proc = subprocess.Popen([str(sem), "serve", "--port", "0", "--state", str(state)],
                                     stdout=subprocess.PIPE, stderr=self.log, text=True,
                                     preexec_fn=pinned(SERVER_CPUS))
        for line in self.proc.stdout:
            if "listening on" in line:
                self.addr = line.split("listening on ", 1)[1].split()[0]
                return
        self.stop()
        raise Fail(f"serve did not start (see {log_file})")

    def hwm_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def shutdown(self):
        reply = request(self.addr, {"cmd": "shutdown"})
        self.proc.stdout.read()
        self.proc.wait(timeout=60)
        self.log.close()
        return reply

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


# ---------------------------------------------------------------- setup

def lines_of(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join([header] + rows) + "\n")


def setup(sem, tool, cfg, seed, table, d):
    """One set-up into `d`; returns (seconds, server, inputs)."""
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    gen = d / "gen"
    spent = 0.0
    procs = []

    def run(cmd):
        nonlocal spent
        t = timed(tool, cmd, d / "setup.out")
        spent += t.wall
        procs.append(t)

    run([sem, "generate", "--scenario", cfg["scenario"], "--rows", cfg["rows"],
         "--noise", NOISE, "--seed", seed, "--out", gen])
    inputs = dict(cfds=gen / "cfds.txt", dirty=gen / "dirty.csv")
    if cfg["snapshot"]:
        run([sem, "snapshot", "save", "--data", gen / "dirty.csv", "--out", gen / "dirty.sdq",
             "--table", table])
        fixed_in = d / "repair_in"
        run([sem, "generate", "--scenario", cfg["scenario"], "--rows", cfg["rows"],
             "--noise", NOISE, "--seed", REPAIR_SEED, "--out", fixed_in])
        run([sem, "snapshot", "save", "--data", fixed_in / "dirty.csv",
             "--out", fixed_in / "dirty.sdq", "--table", table])

    # Slices of the generated relation (benchmark bookkeeping, untimed).
    dirty, clean = lines_of(gen / "dirty.csv"), lines_of(gen / "clean.csv")
    header = dirty[0]

    def part(name, n):
        if n is None:
            return gen / "dirty.csv", gen / "clean.csv"
        write_rows(d / f"{name}_dirty.csv", header, dirty[1:n + 1])
        write_rows(d / f"{name}_clean.csv", header, clean[1:n + 1])
        return d / f"{name}_dirty.csv", d / f"{name}_clean.csv"

    inputs["batch"], inputs["batch_clean"] = part("batch", cfg["batch_rows"])
    inputs["detect"] = gen / "dirty.sdq" if cfg["snapshot"] else inputs["batch"]
    if cfg["snapshot"]:
        inputs["repair"] = d / "repair_in" / "dirty.sdq"
        inputs["repair_csv"] = d / "repair_in" / "dirty.csv"
        inputs["repair_clean"] = d / "repair_in" / "clean.csv"
        inputs["discover"] = gen / "dirty.sdq"
        inputs["discover_csv"] = gen / "dirty.csv"
    else:
        inputs["repair"] = inputs["repair_csv"] = inputs["batch"]
        inputs["repair_clean"] = inputs["batch_clean"]
        inputs["discover"], _ = part("discover", cfg["discover_rows"])
        inputs["discover_csv"] = inputs["discover"]
    base = cfg["serve_base"]
    inputs["serve_base"] = d / "serve_base.csv"
    write_rows(inputs["serve_base"], header, dirty[1:base + 1])
    # Every row after the base; a serve round appends as many of them as
    # it needs and says how many.
    inputs["serve_rows"] = d / "serve_rows.txt"
    Path(inputs["serve_rows"]).write_text("\n".join(dirty[base + 1:]) + "\n")

    start = time.perf_counter()
    server = Server(sem, d / "state", d / "serve.log")
    try:
        reply = request(server.addr, {"cmd": "register", "table": table,
                                      "csv": Path(inputs["serve_base"]).read_text(),
                                      "cfds": Path(inputs["cfds"]).read_text()})
    except Exception:
        server.stop()
        raise
    spent += time.perf_counter() - start
    if not reply.get("ok"):
        server.stop()
        raise Fail(f"register failed: {reply}")
    inputs["rss"] = max(p.rss_mb for p in procs)
    return spent, server, inputs


# --------------------------------------------------------------- checks

class Checker:
    """The oracle's expectations for one set of inputs."""

    def __init__(self, inputs, table):
        self.inputs = inputs
        self.table = table
        self.cfds = oracle.parse_suite(Path(inputs["cfds"]).read_text())
        header, rows = oracle.read_csv_file(inputs["batch"])
        self.detect_counts = oracle.violations(header, rows, self.cfds)
        self.base_header, self.base = oracle.read_csv_file(inputs["serve_base"])
        self.pool = lines_of(inputs["serve_rows"])
        self._serve = {}
        self.repair_header, self.repair_in = oracle.read_csv_file(inputs["repair_csv"])
        _, self.repair_clean = oracle.read_csv_file(inputs["repair_clean"])
        self._rules = {}

    def detect_total(self, stdout):
        first = stdout.splitlines()[0] if stdout else ""
        return first.endswith("tuple(s) involved") and \
            int(first.split()[0]) == sum(self.detect_counts)

    def per_cfd(self, counts):
        return list(counts) == self.detect_counts

    def serve(self, appended):
        """(rows, violations) the oracle expects once the first `appended`
        rows of the pool are appended to the base rows."""
        if appended not in self._serve:
            _, pool = oracle.read_csv(",".join(self.base_header) + "\n"
                                      + "\n".join(self.pool[:appended]))
            if len(pool) != appended:
                raise Fail(f"a serve round appended {appended} of {len(pool)} pooled rows")
            rows = self.base + pool
            self._serve[appended] = (len(rows),
                                     sum(oracle.violations(self.base_header, rows, self.cfds)))
        return self._serve[appended]

    def repair(self, path, reported_changed):
        """(failed check or None, why, score) for one repaired file."""
        header, rows = oracle.read_csv_file(path)
        score = oracle.score(self.repair_in, rows, self.repair_clean)
        if header != self.repair_header or len(rows) != len(self.repair_in):
            return "shape", "header or row count differs from the input", score
        left = sum(oracle.violations(header, rows, self.cfds))
        if left:
            return "violations", f"{left} violation(s) left", score
        differ = oracle.cells_differing(self.repair_in, rows)
        if differ != reported_changed:
            return "cells_changed", f"differs from its input in {differ} cells, " \
                                    f"reported cells_changed={reported_changed}", score
        return None, "", score

    def rules(self, path):
        """(failed check or None, why) for one emitted suite; verdicts
        cached by content."""
        text = Path(path).read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self._rules:
            ok, why = self._check_rules(text)
            self._rules[digest] = (None if ok else "rules", why)
        return self._rules[digest]

    def _check_rules(self, text):
        header, rows = oracle.read_csv_file(self.inputs["discover_csv"])
        checker = oracle.RuleChecker(header, rows)
        floor = float(MIN_CONFIDENCE) - 1e-9
        suite = oracle.parse_suite(text)
        if not suite:
            return False, "no vetted rule"
        for cfd in suite:
            conf, _ = checker.confidence(cfd)
            if conf < floor:
                return False, f"{cfd} holds with confidence {conf:.4f}"
        if self.table == "customer":
            lines = {l.strip() for l in text.splitlines()}
            for planted in ("customer([cc, ac] -> [city])", "customer([zip] -> [street])"):
                if planted not in lines:
                    return False, f"{planted} not vetted"
            # [zip] -> [street] implies the planted [cc='44', zip] -> [street].
            implied = oracle.parse_line("customer([cc='44', zip] -> [street])")[0]
            if checker.confidence(implied)[0] < floor:
                return False, "[cc='44', zip] -> [street] does not hold"
        return True, ""


def restart_check(sem, server, state, d, check, appended):
    """Checkpoint, shut down, restart on the same --state: the base rows
    plus the last round's `appended` rows, and their violations, must
    come back."""
    rows, violations = check.serve(appended)
    expected = {"rows": rows, "violations": violations}
    addr = server.addr
    if not request(addr, {"cmd": "checkpoint"}).get("ok"):
        return False, "checkpoint failed"
    before = request(addr, {"cmd": "count", "replica": True})
    server.shutdown()
    again = Server(sem, state, d / "serve-restart.log")
    try:
        after = request(again.addr, {"cmd": "count", "replica": True})
        live = request(again.addr, {"cmd": "count"})
        again.shutdown()
    except Exception:
        again.stop()
        raise
    seen = [{k: reply.get(k) for k in expected} for reply in (before, after)]
    if seen != [expected, expected] or live.get("violations") != expected["violations"]:
        return False, f"checkpoint {before}, restart {after} / {live}, oracle {expected}"
    return True, ""


# ----------------------------------------------------------------- runs

def med(values):
    """The median, or None (not measured) for no samples."""
    return statistics.median(values) if values else None


class Tally:
    """Operations attempted and failed. A failure listed in
    KNOWN_FAILURES is counted but leaves the run correct; any other makes
    it incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def op(self, ok, what, known=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"failed: {what}")
            if not known:
                self.unexpected.append(what)


def serve_round(tool, addr, table, inputs, d, stale):
    out = d / "round.json"
    cmd = [tool, "round", "--addr", addr, "--table", table, "--rows", inputs["serve_rows"],
           "--out", out]
    if stale:
        (d / "stale.txt").write_text(" ".join(map(str, stale)))
        cmd += ["--stale", d / "stale.txt"]
    proc = subprocess.run([str(c) for c in cmd], stderr=subprocess.PIPE, text=True,
                          preexec_fn=pinned(CLIENT_CPUS))
    if proc.returncode != 0:
        raise Fail(f"serve round failed: {proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def round_plan(cfg):
    """The operations of one round, each kind spread evenly over it, so
    a run's samples of every operation span the whole run rather than
    a few instants of it (the host's speed drifts over tens of seconds)."""
    counts = {"detect": cfg["detects"], "repair": cfg["repairs"], "discover": cfg["discovers"],
              "serve": cfg["serve_rounds"]}
    slots = [((i + 0.5) / n, kind) for kind, n in counts.items() for i in range(n)]
    return [kind for _, kind in sorted(slots, key=lambda slot: slot[0])]


def per_cfd_counts(explain_json):
    """Per-CFD violation counts, in suite order, from `detect --explain json`."""
    rows = [c for c in json.loads(explain_json)["constraints"] if c["kind"] == "cfd"]
    rows.sort(key=lambda c: int(c["name"].split()[0].removeprefix("cfd#")))
    return [c["violations"] for c in rows]


def untraced(sem, tool, workload, seed, seconds, d):
    cfg = WORKLOADS[workload]
    table = cfg["scenario"]
    setups, rss = [], []
    server = None
    for k in range(SETUPS):
        if server is not None:
            server.shutdown()
        spent, server, inputs = setup(sem, tool, cfg, seed, table, d / f"setup{k}")
        setups.append(spent)
        rss.append(inputs["rss"])
    sd = d / f"setup{SETUPS - 1}"
    ops = []  # (kind, failed check or None, why), in order
    times = {"detect": [], "repair": [], "discover": []}
    corrected, report_ms, ingest = [], [], []
    try:
        check = Checker(inputs, table)
        stale = []
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            for kind in round_plan(cfg):
                if kind == "detect":
                    t = timed(tool, [sem, "detect", "--data", inputs["detect"], "--cfds",
                               inputs["cfds"], "--table", table], sd / "detect.out")
                    times["detect"].append(t.wall * 1e3)
                    rss.append(t.rss_mb)
                    ops.append(("detect", None if check.detect_total(t.out) else "total",
                                "headline != oracle total"))
                elif kind == "repair":
                    t = timed(tool, [sem, "repair", "--data", inputs["repair"], "--cfds", inputs["cfds"],
                               "--table", table, "--out", sd / "fixed.csv"], sd / "repair.out")
                    times["repair"].append(t.wall)
                    rss.append(t.rss_mb)
                    reported = int(t.out.split("cells_changed=")[1].split()[0])
                    failure, why, score = check.repair(sd / "fixed.csv", reported)
                    corrected.append(score["cells_corrected"])
                    ops.append(("repair", failure, why))
                elif kind == "discover":
                    t = timed(tool, [sem, "discover", "--data", inputs["discover"], "--table", table,
                               "--min-confidence", MIN_CONFIDENCE, "--emit", sd / "suite.txt"],
                              sd / "discover.out")
                    times["discover"].append(t.wall)
                    rss.append(t.rss_mb)
                    ops.append(("discover", *check.rules(sd / "suite.txt")))
                else:
                    r = serve_round(tool, server.addr, table, inputs, sd, stale)
                    stale, appended = r["ids"], r["rows"]
                    report_ms += r["report_ms"]
                    ingest.append(r["pipelined_rows_per_s"])
                    _, expected = check.serve(appended)
                    ops.append(("serve",
                                None if not r["errors"] and r["final_count"] == expected
                                else "count",
                                f"errors {r['errors'][:3]}, count {r['final_count']} "
                                f"against the oracle's {expected}"))
            rounds += 1
        log(f"{rounds} round(s) in {time.perf_counter() - start:.1f}s")

        # Checks after the timed rounds: the per-CFD counts behind the
        # detects' headline, and the last serve round's restart.
        t = timed(tool, [sem, "detect", "--data", inputs["detect"], "--cfds", inputs["cfds"],
                   "--table", table, "--explain", "json"], sd / "explain.out")
        last = {kind: i for i, (kind, _, _) in enumerate(ops)}
        if not check.per_cfd(per_cfd_counts(t.out)):
            ops[last["detect"]] = ("detect", "per_cfd", "per-CFD counts != oracle")
        rss.append(server.hwm_mb())
        ok, why = restart_check(sem, server, sd / "state", sd, check, appended)
        server = None
        if not ok:
            ops[last["serve"]] = ("serve", "restart", why)
    finally:
        if server is not None:
            server.stop()
    metrics = {
        "setup_s": med(setups),
        "detect_ms": med(times["detect"]),
        "repair_s": med(times["repair"]),
        "discover_s": med(times["discover"]),
        "cells_corrected": med(corrected),
        "peak_rss_mb": max(rss),
        "report_ms": med(report_ms),
        "ingest_rows_per_s": med(ingest),
    }
    return workload_tally(workload, ops), metrics, units("end_to_end")


def workload_tally(workload, ops):
    tally = Tally()
    for kind, failure, why in ops:
        tally.op(failure is None, f"{kind}: {why}",
                 known=(workload, kind, failure) in KNOWN_FAILURES)
    return tally


def traced(sem, tool, workload, seed, seconds, d):
    cfg = WORKLOADS[workload]
    table = cfg["scenario"]
    _, server, inputs = setup(sem, tool, cfg, seed, table, d / "setup0")
    sd = d / "setup0"
    ops = []
    try:
        check = Checker(inputs, table)
        plan = sd / "plan.txt"
        plan.write_text("".join(f"{k}={v}\n" for k, v in dict(
            table=table, cfds=inputs["cfds"], detect=inputs["detect"], repair=inputs["repair"],
            discover=inputs["discover"], main_csv=inputs[cfg["main"]],
            serve_base=inputs["serve_base"], serve_rows=inputs["serve_rows"], addr=server.addr,
            out_dir=sd, detects=cfg["detects"], repairs=cfg["repairs"],
            discovers=cfg["discovers"], serve_rounds=cfg["serve_rounds"]).items()))
        trace_file = WORK / f"trace-{workload}.json"
        out = sd / "traced.json"
        proc = subprocess.run([str(tool), "trace", "--plan", str(plan), "--seconds", str(seconds),
                               "--out", str(out), "--trace-file", str(trace_file)],
                              preexec_fn=pinned(CLIENT_CPUS))
        if proc.returncode != 0:
            raise Fail("traced run failed")
        res = json.loads(out.read_text())
        metrics = res["metrics"]
        # One round: detects, repairs, discovers, serve rounds.
        nd, nr, nv, ns = cfg["detects"], cfg["repairs"], cfg["discovers"], cfg["serve_rounds"]
        for r in range(res["rounds"]):
            for op in res["detect"][r * nd:(r + 1) * nd]:
                ok = check.per_cfd(op["per_cfd"]) and op["total"] == sum(check.detect_counts)
                ops.append(("detect", None if ok else "per_cfd", "counts != oracle"))
            for rep in res["repair"][r * nr:(r + 1) * nr]:
                failure, why, score = check.repair(rep["out"], rep["cells_changed"])
                ops.append(("repair", failure, why))
            for found in res["discover"][r * nv:(r + 1) * nv]:
                ops.append(("discover", *check.rules(found["out"])))
            for srv in res["serve"][r * ns:(r + 1) * ns]:
                _, expected = check.serve(srv["rows"])
                ok = not srv["errors"] and srv["client_count"] == srv["inproc_count"] == expected
                ops.append(("serve", None if ok else "count",
                            f"{srv} against the oracle's {expected}"))
        ok, why = restart_check(sem, server, sd / "state", sd, check, srv["rows"])
        server = None
        if not ok:
            ops[-1] = ("serve", "restart", why)
        metrics["repair.clean_cells_broken"] = score["clean_cells_broken"]
        metrics["repair.precision"] = score["precision"]
        metrics["repair.recall"] = score["recall"]
        log(f"trace written to {trace_file}")
    finally:
        if server is not None:
            server.stop()
    return workload_tally(workload, ops), metrics, units("per_layer")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        sem, tool = build()
        d = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        run = traced if args.trace else untraced
        try:
            tally, metrics, names = run(sem, tool, args.workload, args.seed, args.seconds, d)
        finally:
            shutil.rmtree(d, ignore_errors=True)
    except Fail as e:
        log(f"perfbench: {e}")
        return 1
    missing = [m for m in names if metrics.get(m) is None]
    if missing:
        log(f"perfbench: metrics not measured: {missing}")
        return 1
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
