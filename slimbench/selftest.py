#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny scale, in seconds.

    python3 slimbench/selftest.py [--scale tiny|full] [--seeds 1,2]

For each workload and seed it runs run.py untraced and traced, and checks
that the result line keeps the contract BENCHMARK.json states: exactly the
keys correct/attempted/failed/metrics, every correctness check passed, and
every end-to-end (untraced) or per-layer (traced) metric emitted with its
unit — end-to-end metrics never 0. Exits non-zero on the first violation.
"""
import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check_run(workload, seed, trace, scale, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    where = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        sys.exit(f"FAIL {where}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {where}: checks failed: {result}")
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in expected}:
        sys.exit(f"FAIL {where}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            sys.exit(f"FAIL {where}: {m['name']} unit {got['unit']}")
        if not trace and got["value"] == 0:
            sys.exit(f"FAIL {where}: {m['name']} is 0")
    print(f"ok   {where}: {len(metrics)} metrics, "
          f"{result['attempted']} ops", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in (int(s) for s in args.seeds.split(",")):
            for trace in (0, 1):
                check_run(workload, seed, trace, args.scale, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
