#!/usr/bin/env python3
"""Build and run the NEOFog benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper_fleet|wide_chain|tiered_offload> \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `neofog-perfbench` package in release mode (into
`$CARGO_TARGET_DIR`, default `.bench_build` at the repository root), runs
it with the given arguments and relays its output. The last line printed
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. Exits non-zero, without a result line, if the build, the run
or the result fails.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "target" not in path.relative_to(ROOT).parts:
                files.append(path)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(env):
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(BENCH / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    return done.returncode == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == RESULT_KEYS
        and isinstance(result["correct"], bool)
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
        and isinstance(result["failed"], int)
        and isinstance(result["metrics"], dict)
    )


def main():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: the simulator sources are missing", file=sys.stderr)
        return 2
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = source_revision()
    binary = target / "release" / "neofog-perfbench"
    try:
        done = subprocess.run(
            [str(binary), *sys.argv[1:]],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not valid_result(lines[-1]):
        # Relay what was printed, but never a result line.
        sys.stderr.write(done.stdout)
        print(f"perfbench: run failed (exit {done.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
