#!/usr/bin/env python3
"""Builds and runs the oolong benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout of the repository. The script builds the
benchmark package (perfbench/Cargo.toml, a workspace of its own with path
dependencies on crates/) and the `oolong` command-line binary, whose
`serve` daemon the serve_edit workload drives, into CARGO_TARGET_DIR
(default: .bench_build). It then runs the benchmark binary, which prints a
report and, as its last line, one JSON object with the run's metrics.
Exits non-zero without a result when the repository sources are missing,
a build fails, or the run fails or overruns.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
REPO_MANIFEST = os.path.join(ROOT, "Cargo.toml")
CLI_MANIFEST = os.path.join(ROOT, "crates", "cli", "Cargo.toml")
# A run measures for at most 60 s plus set-up and one pass; anything
# slower than this has hung.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", BENCH_MANIFEST],
        ["cargo", "build", "--release", "--offline", "-p", "oolong-cli",
         "--manifest-path", REPO_MANIFEST],
    ):
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    for path in (BENCH_MANIFEST, REPO_MANIFEST, CLI_MANIFEST):
        if not os.path.isfile(path):
            fail(f"missing {os.path.relpath(path, ROOT)}: run from a checkout of the repository")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build(env)
    binary = os.path.join(target, "release", "oolong-perfbench")
    oolong = os.path.join(target, "release", "oolong")
    cmd = [binary, *sys.argv[1:], "--oolong", oolong]
    # A session of its own, so an overrun kills the daemon along with the
    # benchmark.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
