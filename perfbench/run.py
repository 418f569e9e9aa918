#!/usr/bin/env python3
"""Builds and runs the simulator's host-throughput benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The benchmark package (perfbench/) is
configured and built with CMake into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs rebuild incrementally.  The benchmark's own
arithmetic tests run before every measurement.  When --seed is the seed the
baseline was recorded with, the run must also reproduce the recorded digest.

The last line of standard output is the JSON result of the run.  With
--workload all, every workload runs once with --trace 1 and the last line
combines their per-layer metrics under "<workload>/<metric>" keys.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["token_decode", "batch_stream", "drift_faults"]
BINARY_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out: Path) -> None:
    """Configures (once) and builds the package; exits 1 on failure."""
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = out / "CMakeCache.txt"
    if cache.exists() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
                           not in cache.read_text(errors="replace")):
        cache.unlink()  # configured from another checkout: start over
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sink.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                sys.exit(1)


def recorded_digest(workload: str, seed: int):
    baseline = json.loads((HERE / "baseline.json").read_text())
    if seed != baseline["seed"]:
        return None
    return baseline["workloads"].get(workload, {}).get("digest")


def run_one(out: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> str:
    """Runs the binary once, echoing its output; returns its JSON line."""
    cmd = [str(out / "perfbench"), "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds), "--trace",
           "1" if trace else "0"]
    digest = recorded_digest(workload, seed)
    if digest:
        cmd += ["--expect-digest", digest]
    if trace:
        cmd += ["--trace-out", str(out / f"trace_{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} timed out\n")
        sys.exit(1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(f"perfbench: {workload} exited with "
                         f"{proc.returncode}\n")
        sys.exit(1)
    print("\n".join(lines[:-1]), flush=True)
    return lines[-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    seed = args.seed
    if seed is None:
        seed = json.loads((HERE / "baseline.json").read_text())["seed"]

    out = build_dir()
    build(out)
    test = subprocess.run([str(out / "perfbench_test")], stdout=subprocess.PIPE,
                          text=True, cwd=ROOT)
    if test.returncode != 0:
        sys.stderr.write(test.stdout + "perfbench: arithmetic tests failed\n")
        sys.exit(1)

    if args.workload != "all":
        print(run_one(out, args.workload, seed, args.seconds,
                      bool(args.trace)))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        line = run_one(out, workload, seed, args.seconds, True)
        result = json.loads(line)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
        print(line, flush=True)
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
