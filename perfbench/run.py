#!/usr/bin/env python3
"""Benchmark of the reachability service.

Run from the repository root:

    python3 perfbench/run.py --workload {query,cyclic} --seed N \
        --seconds S --trace {0,1}

Builds the `reach` CLI and the harness in perfbench/harness (release,
offline; into $CARGO_TARGET_DIR, default .bench_build), then runs the
harness. The harness starts `reach serve` on a graph generated from the
seed, drives it with closed-loop HTTP clients, checks every answer, and
prints one JSON object as the last line of stdout: end-to-end metrics
with --trace 0, the per-layer split with --trace 1. See
perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("query", "cyclic")
# The harness itself needs well under a minute; this only stops a hang.
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail(f"{root} holds no cargo workspace to benchmark")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), CARGO_NET_OFFLINE="true")

    harness_manifest = root / "perfbench" / "harness" / "Cargo.toml"
    for build in (["-p", "reach-cli"], ["--manifest-path", str(harness_manifest)]):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *build],
            cwd=root,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            fail(f"cargo build {' '.join(build)} failed")

    work = target / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [
        str(target / "release" / "perfbench-harness"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reach", str(target / "release" / "reach"),
        "--work", str(work),
    ]
    # its own process group, so a timeout also stops the servers it started
    harness = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        code = harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        code = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
