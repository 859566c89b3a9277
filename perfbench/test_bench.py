#!/usr/bin/env python3
"""The benchmark's own test: smoke runs and the check self-test.

    python3 perfbench/test_bench.py

For every workload in BENCHMARK.json, and for `jobs` (runnable but not in
the gated set), it runs the smoke mode untraced and traced (every
configuration and check, tiny slices) and requires: a result line with
exactly the keys correct/attempted/failed/metrics, correct true, no failed
operation, exactly the metrics BENCHMARK.json lists for that mode, each with
its unit, and a record line carrying host, seed and counts. It then runs
each workload with --corrupt, which falsifies one tally (maps, jobs) or
drops one recovered WAL record (ledger) in every configuration, and
requires every configuration's check to report the failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIGS = ["eager-opt", "eager-pess", "lazy-memo", "lazy-pess", "lazy-snap"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
           *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    assert out.returncode == 0, f"{workload}: exit {out.returncode}"
    lines = out.stdout.decode().strip().splitlines()
    record = next(json.loads(l)["record"] for l in lines
                  if l.startswith('{"record"'))
    return record, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print("FAIL:", what)

    workloads = [x["name"] for x in spec["workloads"]]
    for w in workloads + [w for w in ("jobs",) if w not in workloads]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record, result = run(w, trace)
            tag = f"{w} trace={trace}"
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], f"{tag}: result keys")
            expect(result["correct"] is True,
                   f"{tag}: checks failed: {record['check_failures']}")
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: attempted/failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{tag}: metric names/units differ from "
                   f"BENCHMARK.json: {set(got) ^ set(want)}")
            for k in ("host", "seed", "attempted", "failed"):
                expect(k in record, f"{tag}: record lacks {k}")
            expect(all(k in record["host"] for k in ("cpus", "nodes", "smt")),
                   f"{tag}: host fields")
            if trace == 0:
                for m in spec["end_to_end"]:
                    expect(result["metrics"][m["name"]]["value"] > 0,
                           f"{tag}: {m['name']} is 0")
        record, result = run(w, 0, "--corrupt")
        expect(result["correct"] is False, f"{w}: corruption not detected")
        for c in CONFIGS:
            expect(f"{c}: " in record["check_failures"],
                   f"{w}: {c} check did not fail under --corrupt")
        print(f"{w}: ok" if not failures else f"{w}: done")
    print("PASS" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
