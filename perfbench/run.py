#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `mcloud` binary and the
benchmark binary (`mcloud-perfbench`) in release mode into
$CARGO_TARGET_DIR (default .bench_build), then runs the benchmark binary
with MCLOUD_WORKERS=1 on one CPU (see LANES). Its last stdout line is the
result JSON; build output goes to stderr.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "plan", "serve-stdio", "serve-http")
# Files whose content defines what is measured; hashed into the host record.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates/*/Cargo.toml", "crates/*/src/**/*.rs",
           "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src/*.rs")
# The benchmark binary stops itself after --seconds plus set-up and checks; a
# timeout of --seconds plus this margin only guards against a hung child.
RUN_MARGIN_S = 150
# Worker lanes of the program under test. The benchmark, and any server
# it spawns, also run pinned to one CPU. On a shared 2-vCPU virtual machine
# the host takes back about a quarter of the time of a process group that
# keeps both vCPUs busy, in bursts, and almost none from one that keeps a
# single vCPU busy; a request's round trip between processes on two vCPUs
# also waits for the idle one to wake. One lane on one CPU keeps both out
# of the measured times.
LANES = 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    files = sorted({p for pattern in SOURCES for p in ROOT.glob(pattern) if p.is_file()})
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(env):
    steps = (
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "mcloud-cli",
         "--bin", "mcloud"],
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path",
         "perfbench/Cargo.toml"],
    )
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a checkout of the repository (no Cargo.toml and crates/)")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build(env)

    host_cpus = os.sched_getaffinity(0)
    env.update(MCLOUD_WORKERS=str(LANES), PERFBENCH_HOST_CPUS=str(len(host_cpus)),
               PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    cmd = [str(target / "release" / "mcloud-perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mcloud", str(target / "release" / "mcloud")]
    # A session of its own, so a timeout can stop the benchmark and any
    # server it spawned together.
    cpu = max(host_cpus)
    bench = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    timeout = args.seconds + RUN_MARGIN_S
    try:
        code = bench.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail(f"the benchmark did not finish within {timeout} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
