#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <serve_small|serve_churn|paper_io> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark from source into `.bench_build/`
(incremental after the first run), runs the benchmark's arithmetic
self-tests, then runs one measurement. The last line of standard output
is the JSON result; build output goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("serve_small", "serve_churn", "paper_io")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


SOURCES = ("CMakeLists.txt", "src", "perfbench")


def git(root, *args):
    """Output of a git command in `root`, or None outside git."""
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """Digest of the library and benchmark sources as they are on disk."""
    digest = hashlib.sha256()
    files = []
    for name in SOURCES:
        path = root / name
        files += sorted(path.rglob("*")) if path.is_dir() else [path]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def source_id(root):
    """The commit, with `-dirty-<digest>` when the sources differ from it;
    outside git, a digest of the sources alone."""
    head = git(root, "rev-parse", "HEAD")
    if not head:
        return "sha256:" + source_digest(root)
    if git(root, "status", "--porcelain", "--", *SOURCES):
        return f"{head}-dirty-{source_digest(root)}"
    return head


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "server" / "query_server.h").is_file():
        fail(f"no library sources under {root}; run from a full checkout")

    work = root / ".bench_build"
    build_dir = work / "cmake"
    spill_dir = work / "spill"
    trace_dir = work / "trace"
    for d in (build_dir, spill_dir, trace_dir):
        d.mkdir(parents=True, exist_ok=True)
    build(root, build_dir)

    if subprocess.run([str(build_dir / "perfbench_selftest")],
                      timeout=60).returncode != 0:
        fail("self-tests of the benchmark arithmetic failed")

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--spill-dir", str(spill_dir),
           "--trace-dir", str(trace_dir), "--commit", source_id(root)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode} after "
             f"{time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
