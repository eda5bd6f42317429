#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-durable --seed 1 --seconds 45 --trace 0

The first call configures and builds perfbench/ (the repository's serving
libraries plus the benchmark program) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The benchmark binary then replaces this process, so its
stdout (whose last line is the JSON result) and exit code are the
command's. See perfbench/README.md for the workloads and metrics.
"""

import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def configured_for_this_tree(build: pathlib.Path) -> bool:
    cache = build / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return pathlib.Path(line.split("=", 1)[1]).resolve() == HERE
    return False


def run_quietly(command) -> bool:
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build: pathlib.Path) -> bool:
    if not configured_for_this_tree(build):
        shutil.rmtree(build, ignore_errors=True)
        build.mkdir(parents=True, exist_ok=True)
        if not run_quietly(["cmake", "-S", str(HERE), "-B", str(build),
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return False
    jobs = str(os.cpu_count() or 2)
    return run_quietly(["cmake", "--build", str(build), "--target", "perfbench",
                        "-j", jobs])


def main() -> int:
    build_path = build_dir()
    if not build(build_path):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = build_path / "perfbench"
    work_dir = build_path.parent / f"perfbench-work-{os.getpid()}"
    sys.stdout.flush()
    os.execv(str(binary), [str(binary), *sys.argv[1:], "--work_dir", str(work_dir)])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
