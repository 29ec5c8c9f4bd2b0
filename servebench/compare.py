#!/usr/bin/env python3
"""Collects and compares sets of servebench runs.

A *set* is a directory of result files, one per workload and seed, each
holding the JSON result line the benchmark prints last. Bounds, metric
directions and the benchmark command come from BENCHMARK.json.

    # Ten seeds of every workload into one set:
    python3 servebench/compare.py collect --out .bench_build/runs/a --seeds 1-10
    # Per workload x end-to-end metric: median, quartiles and spread
    # (interquartile distance over median) against the metric's bound:
    python3 servebench/compare.py spread .bench_build/runs/a
    # Two sets: medians, quartiles, and whether they agree within bounds:
    python3 servebench/compare.py compare .bench_build/runs/a .bench_build/runs/b
    # A change against its parent: only a regression beyond a bound fails:
    python3 servebench/compare.py compare --regressions-only parent change

`spread` and `compare` exit with 1 when a set fails the check they print.
Two sets of the same code agree when every median is within its bound of
the other set's, in either direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_manifest(path=None):
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    """`1-10` or `3,5,8` -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def result_line(stdout):
    """The last non-empty stdout line, parsed."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def collect(args, manifest):
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in manifest["workloads"]
    ]
    seconds = str(args.seconds or manifest["run_seconds"])
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            cmd = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", seconds, "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-4000:])
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
            line = result_line(done.stdout)
            path = os.path.join(args.out, f"{workload}-{seed}.json")
            with open(path, "w") as f:
                json.dump(line, f)
                f.write("\n")
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']}", flush=True)


def load_set(directory):
    """{workload: {metric: [values]}} and the count of incorrect runs."""
    out, incorrect = {}, 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload = name[: -len(".json")].rsplit("-", 1)[0]
        with open(os.path.join(directory, name)) as f:
            line = json.load(f)
        incorrect += not line["correct"] or line["failed"] != 0
        for metric, entry in line["metrics"].items():
            out.setdefault(workload, {}).setdefault(metric, []).append(entry["value"])
    return out, incorrect


def summary(values):
    """(median, q1, q3, spread): quartiles from `statistics.quantiles`,
    spread is their distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base if base else float("inf")
    return change if better == "lower" else -change


def spread(args, manifest):
    runs, incorrect = load_set(args.set)
    ok = incorrect == 0
    print(f"{'workload':<16} {'metric':<16} {'n':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7} {'bound':>6}  verdict")
    for workload, metrics in sorted(runs.items()):
        for m in manifest["end_to_end"]:
            values = metrics.get(m["name"])
            if not values:
                print(f"{workload:<16} {m['name']:<16} missing")
                ok = False
                continue
            med, q1, q3, s = summary(values)
            if s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"{workload:<16} {m['name']:<16} {len(values):>3} {med:>14.6g} "
                  f"{q1:>14.6g} {q3:>14.6g} {s:>7.3f} {m['bound']:>6.2f}  {verdict}")
    if incorrect:
        print(f"{incorrect} run(s) were not correct")
    return ok


def compare(args, manifest):
    base, bad_base = load_set(args.base)
    new, bad_new = load_set(args.new)
    ok = bad_base == 0 and bad_new == 0
    print(f"{'workload':<16} {'metric':<16} {'base median [q1, q3]':>38} "
          f"{'new median [q1, q3]':>38} {'worse':>7} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(new)):
        for m in manifest["end_to_end"]:
            a = base.get(workload, {}).get(m["name"])
            b = new.get(workload, {}).get(m["name"])
            if not a or not b:
                print(f"{workload:<16} {m['name']:<16} missing in a set")
                ok = False
                continue
            (ma, a1, a3, _), (mb, b1, b3, _) = summary(a), summary(b)
            w = worse_by(ma, mb, m["better"])
            if w > m["bound"]:
                verdict = "WORSE"
            elif -w > m["bound"]:
                verdict = "BETTER"
            else:
                verdict = "agree"
            ok &= verdict == "agree" or (args.regressions_only and verdict == "BETTER")
            print(f"{workload:<16} {m['name']:<16} "
                  f"{ma:>12.6g} [{a1:>10.6g}, {a3:>10.6g}] "
                  f"{mb:>12.6g} [{b1:>10.6g}, {b3:>10.6g}] "
                  f"{w:>+7.3f} {m['bound']:>6.2f}  {verdict}")
    if bad_base or bad_new:
        print(f"incorrect runs: base {bad_base}, new {bad_new}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--manifest", help="BENCHMARK.json to use (default: the repo's)")
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds into a set")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", help="comma-separated (default: all)")
    c.add_argument("--seconds", type=int, help="default: run_seconds")
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    s = sub.add_parser("spread", help="spread of each metric within one set")
    s.add_argument("set")
    d = sub.add_parser("compare", help="two sets, metric by metric")
    d.add_argument("base")
    d.add_argument("new")
    d.add_argument("--regressions-only", action="store_true",
                   help="fail only when `new` is worse beyond a bound")
    args = p.parse_args(argv)
    manifest = load_manifest(args.manifest)
    if args.cmd == "collect":
        collect(args, manifest)
        return 0
    ok = spread(args, manifest) if args.cmd == "spread" else compare(args, manifest)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
