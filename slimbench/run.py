#!/usr/bin/env python3
"""Build the SLIM benchmark harness from this checkout and run one workload.

    python3 slimbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny]

The harness (slimbench/*.cc) is configured with CMake against the
repository's own sources and built into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; build output goes to stderr. The harness
prints the run's provenance and then, as the last line of stdout, the
result object. README.md describes the workloads and metrics.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("checkin_batch", "commute_batch", "checkin_outofcore",
             "checkin_serve")
# The thread count every workload runs at (kThreads in bench.h); the
# library's shared pool is pinned to it as well.
THREADS = "4"


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("the repository sources (src/) are missing")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "slimbench", "-j", THREADS],
                   check=True, stdout=sys.stderr)
    return build_dir / "slimbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    out_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or
                            ".bench_build")
    if not out_root.is_absolute():
        out_root = ROOT / out_root
    try:
        binary = build(out_root / "slimbench")
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"slimbench: build failed: {err}", file=sys.stderr)
        return 2

    work = out_root / f"work-{os.getpid()}"
    traces = out_root / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--trace-file", str(traces / f"{args.workload}.json")]
    if args.scale == "tiny":
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, SLIM_THREADS=THREADS))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # Exit code 1 is a run whose correctness checks failed: its result line
    # (correct: false) is still the output. Any other failure printed none.
    if proc.returncode in (0, 1):
        sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
