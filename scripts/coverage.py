#!/usr/bin/env python3
"""Line coverage of src/**/*.cc under ctest, gated on a recorded floor.

Usage:
    cmake --preset coverage && cmake --build --preset coverage -j
    find build-coverage -name '*.gcda' -delete   # start from zero
    ctest --test-dir build-coverage -j 4         # writes the counters
    scripts/coverage.py [--build build-coverage]

`scripts/check.sh coverage` runs all four steps. The script uses the
standard library and gcov alone (gcovr and lcov are not needed): it
runs `gcov --json-format --stdout` on every .gcda under the build
directory, keeps the records of src/**/*.cc, merges them per file and
line, prints each file's line coverage and the total, and exits 1 when
the total falls below FLOOR_PCT.

gcov is the one that belongs to the build's compiler (gcov-12 for
g++-12): gcov reads only its own compiler's counter format, and the
line tables, hence the total, move between compiler versions.

Headers are left out. Their inline functions' counters land in
whichever object file the linker kept, often a test's, so a header's
figure depends on link order as much as on the tests.

FLOOR_PCT is the lowest total of 5 ctest runs with g++ 12 on the tree
that set it, rounded down to 0.1%; the CI coverage job builds with
g++-12 for that reason.
"""

import argparse
import json
import os
import subprocess
import sys

FLOOR_PCT = 92.6

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# gcov accepts many data files per call; batching keeps the pass at a
# few seconds instead of one process per object file.
BATCH = 64


def find_gcda(build_dir):
    found = []
    for root, _, files in os.walk(build_dir):
        found.extend(os.path.join(root, f) for f in files
                     if f.endswith(".gcda"))
    return sorted(found)


def gcov_for(build_dir):
    """The gcov beside the build's compiler: /usr/bin/g++-12 -> gcov-12."""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        compiler = next((line.split("=", 1)[1].strip() for line in cache
                         if line.startswith("CMAKE_CXX_COMPILER:")), "")
    # A bare c++ or g++ is an alternatives link; its target names the
    # version.
    for path in (compiler, os.path.realpath(compiler)):
        head, name = os.path.split(path)
        gcov = os.path.join(head, name.replace("g++", "gcov"))
        if "g++" in name and os.path.exists(gcov):
            return gcov
    return "gcov"


def gcov_records(gcov, paths):
    """Yields gcov's JSON document for each data file in `paths`."""
    for start in range(0, len(paths), BATCH):
        chunk = paths[start:start + BATCH]
        done = subprocess.run(
            [gcov, "--json-format", "--stdout"] + chunk,
            capture_output=True, text=True, check=False)
        if done.returncode != 0:
            raise SystemExit(f"coverage: gcov failed on {chunk[0]}...: "
                             f"{done.stderr.strip()}")
        for line in done.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def collect(build_dir):
    """Returns {repo-relative src/**/*.cc path: {line: hit count}}."""
    lines_by_file = {}
    for record in gcov_records(gcov_for(build_dir), find_gcda(build_dir)):
        cwd = record.get("current_working_directory", "")
        for entry in record["files"]:
            path = os.path.relpath(
                os.path.normpath(os.path.join(cwd, entry["file"])), REPO)
            if not (path.startswith("src" + os.sep) and path.endswith(".cc")):
                continue
            counts = lines_by_file.setdefault(path, {})
            for line in entry["lines"]:
                number = line["line_number"]
                counts[number] = counts.get(number, 0) + line["count"]
    return lines_by_file


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build",
                        default=os.path.join(REPO, "build-coverage"),
                        help="build directory holding the .gcda counters")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.build):
        raise SystemExit(f"coverage: no build directory {args.build}")
    lines_by_file = collect(args.build)
    if not lines_by_file:
        raise SystemExit(f"coverage: no src/**/*.cc counters under "
                         f"{args.build}; run ctest in a --coverage build "
                         f"first")

    total_hit = total_lines = 0
    print(f"{'file':<40} {'lines':>6} {'hit':>6} {'cover':>7}")
    for path in sorted(lines_by_file):
        counts = lines_by_file[path]
        hit = sum(1 for count in counts.values() if count > 0)
        total_hit += hit
        total_lines += len(counts)
        print(f"{path:<40} {len(counts):>6} {hit:>6} "
              f"{100.0 * hit / len(counts):>6.1f}%")
    total = 100.0 * total_hit / total_lines
    print(f"{'total':<40} {total_lines:>6} {total_hit:>6} {total:>6.1f}%")
    if total < FLOOR_PCT:
        print(f"coverage: total {total:.2f}% is below the floor "
              f"{FLOOR_PCT:.1f}%", file=sys.stderr)
        return 1
    print(f"coverage OK: {total:.2f}% >= floor {FLOOR_PCT:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
