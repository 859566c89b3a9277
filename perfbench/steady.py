#!/usr/bin/env python3
"""Steadiness and comparison for the design-space benchmark.

Run every workload N times, each with its own seed, and report each
metric's median, quartiles and spread (q3 - q1, as a share of the median):

    python3 perfbench/steady.py run [--workloads a,b] [--runs 10] [--seed0 1]
                                    [--trace 0] [--seconds S] --out set.json

Compare two such result sets against the bounds in BENCHMARK.json (per
workload and metric: the second median may be worse than the first by at
most the bound, and the failed share must be identical):

    python3 perfbench/steady.py compare first.json second.json

Quartiles are statistics.quantiles(values, n=4). A spread at or above a
metric's bound marks the metric unsteady ("SPREAD"); a spread above a third
of it is flagged ("wide"). setup_s is exempt from the spread rule.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, timeout=600)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith('{"record"'):
            result["record"] = json.loads(line)["record"]
    return result


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_run(args):
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or s["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    results = {}
    for w in workloads:
        results[w] = []
        for i in range(args.runs):
            r = run_once(w, args.seed0 + i, seconds, args.trace)
            results[w].append(r)
            print(f"{w} seed {args.seed0 + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"{r.get('record', {}).get('check_failures', '')}",
                  file=sys.stderr)
        report(w, results[w], bounds if args.trace == 0 else {})
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)
    return 0


def report(workload, runs, bounds):
    print(f"== {workload}: {len(runs)} runs, all correct: "
          f"{all(r['correct'] for r in runs)}, failed share: "
          f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summary(vals)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "SPREAD" if spread >= bound else (
                "wide" if spread > bound / 3 else "")
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {flag}")


def cmd_compare(args):
    s = spec()
    metrics = {m["name"]: m for m in s["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    for w in a:
        if w not in b:
            continue
        share_a = sorted({r["failed"] / r["attempted"] for r in a[w]})
        share_b = sorted({r["failed"] / r["attempted"] for r in b[w]})
        same = share_a == share_b and len(share_a) == 1
        ok &= same
        print(f"== {w}: failed share {share_a} vs {share_b}"
              f" {'ok' if same else 'DIFFERS'}")
        for name, m in metrics.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[w])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            passed = worse <= m["bound"]
            ok &= passed
            print(f"{name:28} {ma:14.6g} {mb:14.6g} worse {worse:+8.3f} "
                  f"bound {m['bound']:<5} {'ok' if passed else 'REGRESSED'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    r.add_argument("--seconds", type=float, default=0)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
