#!/usr/bin/env python3
"""Collects sets of service-benchmark runs and compares two of them.

Collect runs (one JSON line per run) from a checkout:

    python3 servicebench/compare.py collect --out parent.jsonl --checkout ../parent \\
        --other-checkout . --other-out change.jsonl --seeds 1-10

Every run is untraced and lasts the run_seconds of --checkout's
BENCHMARK.json, the length the bounds were set for.
With --other-checkout, each seed runs once on both checkouts as a pair,
alternating which side runs first, so slow spells of the machine land on
both sides. Without it, only --checkout runs.

Compare two sets:

    python3 servicebench/compare.py report parent.jsonl change.jsonl

For every (workload, metric) it prints each side's median and quartiles
and the change of the median. Each end-to-end metric gets a verdict
against its bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more
              than the bound;
  better      the paired rule holds: the change wins at least nine pairs
              in ten (ties count for neither side) and the medians differ
              by more than the parent's interquartile distance; or the
              spread is wider than the bound but every change run beats
              every parent run;
  unresolved  a side's spread (interquartile distance over median) is
              wider than the bound;
  unchanged   otherwise.

It also prints the attempted and failed counts of both sides.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("search_static", "tenants_update_mix", "cluster_multi_keyword")


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(checkout, workload, seed, seconds):
    cmd = ["python3", os.path.join("servicebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run failed in %s: %s seed %d" % (checkout, workload, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args):
    with open(os.path.join(args.checkout, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    sides = [(args.checkout, args.out)]
    if args.other_checkout:
        sides.append((args.other_checkout, args.other_out))
    files = {out: open(out, "a") for _, out in sides}
    try:
        for i, seed in enumerate(seeds_of(args.seeds)):
            for workload in workloads:
                order = sides if i % 2 == 0 or len(sides) == 1 else sides[::-1]
                for position, (checkout, out) in enumerate(order):
                    result = run_once(checkout, workload, seed, seconds)
                    line = {"workload": workload, "seed": seed, "position": position,
                            "result": result}
                    files[out].write(json.dumps(line) + "\n")
                    files[out].flush()
                    print("%s seed %d %s: attempted %d failed %d correct %s" % (
                        workload, seed, checkout, result["attempted"], result["failed"],
                        result["correct"]), file=sys.stderr)
    finally:
        for f in files.values():
            f.close()


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(a, b, direction):
    """True when b is strictly better than a."""
    return b < a if direction == "lower" else b > a


def verdict(spec, a_runs, b_runs):
    bound, direction = spec["bound"], spec["better"]
    a = [v for _, v in a_runs]
    b = [v for _, v in b_runs]
    q1a, meda, q3a = quartiles(a)
    q1b, medb, q3b = quartiles(b)
    worse = (medb - meda) / meda if direction == "lower" else (meda - medb) / meda
    if worse > bound:
        return "worse"
    paired = {s: v for s, v in a_runs}
    pairs = [(paired[s], v) for s, v in b_runs if s in paired]
    wins = sum(1 for x, y in pairs if better(x, y, direction))
    if pairs and wins >= 0.9 * len(pairs) and abs(medb - meda) > (q3a - q1a) \
            and better(meda, medb, direction):
        return "better"
    spread = max((q3a - q1a) / meda if meda else 0, (q3b - q1b) / medb if medb else 0)
    if spread > bound:
        if all(better(x, y, direction) for x in a for y in b):
            return "better"
        return "unresolved"
    return "unchanged"


def report(args):
    with open(args.benchmark) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    runs = {"A": load(args.a), "B": load(args.b)}
    workloads = sorted({r["workload"] for side in runs.values() for r in side})
    for workload in workloads:
        print("== %s" % workload)
        for side in ("A", "B"):
            sel = [r for r in runs[side] if r["workload"] == workload]
            att = sum(r["result"]["attempted"] for r in sel)
            fail = sum(r["result"]["failed"] for r in sel)
            bad = sum(1 for r in sel if not r["result"]["correct"])
            print("  %s: %d runs, attempted %d, failed %d (%.6f), incorrect runs %d" % (
                side, len(sel), att, fail, fail / att if att else 0.0, bad))
        metrics = {}
        for side in ("A", "B"):
            for r in runs[side]:
                if r["workload"] != workload:
                    continue
                for name, m in r["result"]["metrics"].items():
                    metrics.setdefault(name, {"A": [], "B": [], "unit": m["unit"]})
                    metrics[name][side].append((r["seed"], m["value"]))
        print("  %-34s %-8s %30s %30s %8s  %s" % ("metric", "unit", "A q1/median/q3",
                                               "B q1/median/q3", "change", "verdict"))
        for name, m in metrics.items():
            if not m["A"] or not m["B"]:
                continue
            qa = quartiles([v for _, v in m["A"]])
            qb = quartiles([v for _, v in m["B"]])
            change = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else 0.0
            v = verdict(e2e[name], m["A"], m["B"]) if name in e2e else "-"
            print("  %-34s %-8s %30s %30s %7.1f%%  %s" % (
                name, m["unit"], "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb, change, v))


def main():
    parser = argparse.ArgumentParser(description="service benchmark run sets")
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark and append results")
    c.add_argument("--out", required=True)
    c.add_argument("--checkout", default=".")
    c.add_argument("--other-checkout")
    c.add_argument("--other-out")
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    r = sub.add_parser("report", help="compare two sets of runs")
    r.add_argument("a", help="parent runs (JSON lines)")
    r.add_argument("b", help="change runs (JSON lines)")
    r.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    if args.command == "collect":
        if bool(args.other_checkout) != bool(args.other_out):
            parser.error("--other-checkout and --other-out go together")
        collect(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
