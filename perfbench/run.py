#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload corpus|scaled|service \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark harness
(perfbench/Cargo.toml) and the reshuffle-server binary in release mode
into $CARGO_TARGET_DIR (default .bench_build), then runs the harness,
whose last stdout line is the JSON result. The exit status is the
harness's: 0 when every op's output matched its reference.
"""

import argparse
import os
import signal
import subprocess
import sys

# The harness must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build(target_dir, cargo_args):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + cargo_args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr: stdout carries only the result line.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["corpus", "scaled", "service"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target, ["--manifest-path", "perfbench/Cargo.toml"]):
        sys.exit("perfbench: building the harness failed")
    if not build(target, ["-p", "reshuffle-server", "--bin", "reshuffle-server"]):
        sys.exit("perfbench: building reshuffle-server failed")

    release = os.path.join(target, "release")
    tmp = os.path.join(target, "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server-bin", os.path.join(release, "reshuffle-server"),
        "--tmp", tmp,
        "--trace-out", os.path.join(tmp, f"trace-{args.workload}-{args.seed}.jsonl"),
    ]
    # A session of its own, so a timeout can stop the harness together
    # with the server it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
