#!/usr/bin/env python3
"""Builds and runs one measurement of the HDK end-to-end benchmark.

    python3 perfbench/run.py --workload serve_zipf|query_long|grow_segment \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `hdk-peer` (the repository's peer
process) and the benchmark binary in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
with `RAYON_NUM_THREADS=1` and every `HDK_*` variable removed. Its
standard output passes through; the last line is the result JSON. Exits
non-zero, without a result, if the build, the run or any output check
fails, or if the run outlives its time limit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("serve_zipf", "query_long", "grow_segment")
RUN_LIMIT_S = 170


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("HDK_")}
    env["RAYON_NUM_THREADS"] = "1"
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(target)
    return env


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(env):
    """Builds both binaries; returns their paths or exits non-zero."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(REPO, "Cargo.toml"), "--bin", "hdk-peer"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            sys.exit(f"run.py: {cmd[cmd.index('--manifest-path') + 1]} is missing")
        if subprocess.run(cmd, cwd=REPO, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(release, "hdk-perfbench"), os.path.join(release, "hdk-peer")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    env = clean_env()
    bench, peer = build(env)
    env["PERFBENCH_COMMIT"] = commit()
    # Every process of the run shares one CPU. On a 2-vCPU guest, keeping
    # the second vCPU busy too draws 20-30% hypervisor steal and cuts the
    # serving tier's throughput 2-4x from one run to the next; on one CPU
    # steal stays near 2% (see perfbench/README.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--peer-bin", peer, "--work-dir", os.path.join(REPO, ".perfbench_work")]
    # A session of its own, so a run past its limit is killed together
    # with every peer process it started.
    proc = subprocess.Popen(cmd, cwd=REPO, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: the run exceeded {RUN_LIMIT_S} s")
    try:
        os.rmdir(os.path.join(REPO, ".perfbench_work"))
    except OSError:
        pass
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        sys.exit(f"run.py: the benchmark exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        sys.exit("run.py: malformed result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
