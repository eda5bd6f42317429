#!/usr/bin/env python3
"""Compare a benchmark run against its committed baseline.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json [BASELINE CURRENT ...]
    scripts/bench_compare.py --profile world BASELINE.json CURRENT.json [...]
    scripts/bench_compare.py --self_check

Every failure mode is a one-line diagnosis, never a stack trace: a
missing or unreadable file, a benchmark summary missing a metric key,
or a metric that is not a number all name the offending file and key.
--self_check exercises the gate logic itself against synthetic
baseline/current pairs and then validates every committed baseline
(bench/baselines/BENCH_*.json must exist and pass a self-comparison),
so a malformed new baseline cannot land unvalidated (the
bench-regression lane runs it before trusting the real comparison).

Each pair is a baseline JSON (committed under bench/baselines/) and a
fresh run of the same benchmark (serve_throughput --json / world_sim
--json). The gate fails when:

  - a correctness key regresses: current lost != 0 or errors != 0;
  - p99 latency regresses by more than 25% over baseline AND by more
    than the absolute floor (5 ms) — the floor keeps sub-millisecond
    jitter on shared runners from tripping the relative check;
  - throughput (qps) drops by more than 25%;
  - the degraded share (fallback-served answers / requests) grows by
    more than 25 percentage points over baseline — "all served" must
    not silently decay into "all served by the fallback".

The world profile (--profile world, auto-selected when the current
summary's "bench" is "world_sim") layers per-key DIRECTIONAL gates for
the macro scenario driver on top of the defaults:

  - peak_p99_ms (p99 under the diurnal peak): lower is better, same
    relative ceiling + absolute floor as p99_ms;
  - degraded_share: lower is better, capped at baseline + 25 points;
  - primary_balance (room-size-weighted max/mean primary load across
    healthy shards): lower is better, capped at baseline +25% with an
    absolute 0.25 slack floor;
  - storm_recovery_ms (outage -> first fully clean reconnect wave):
    a ceiling — baseline +25% with a 500 ms floor; a negative value
    means the storm never recovered and always fails. Applied only when
    the current summary armed a storm (storm_connections > 0): a
    storm-free run reports -1;
  - storm_errors: must be 0.

A world summary missing one of those keys is diagnosed by name (the
keys come from world_sim --json; see docs/world_sim.md).

Baselines are intentionally loose (worst-observed, not best-observed):
refresh them only when a deliberate change moves the numbers, with

    ./build/bench/serve_throughput --rooms=2 --threads=2 --clients=4 \
        --requests=4000 --users=24 --json=bench/baselines/BENCH_serve.json
    ./build/bench/world_sim --shards=3 --rooms=12 --zipf=0 \
        --min_room_users=24 --max_room_users=24 --slices=1 \
        --flash_rooms=0 --churn=0 --clients=4 --requests=8000 \
        --kill_at=2000 --json=bench/baselines/BENCH_net.json
    ./build/bench/world_sim --shards=2 --rooms=8 --zipf=0 \
        --min_room_users=24 --max_room_users=24 --slices=1 \
        --flash_rooms=0 --churn=0 --clients=4 --requests=6000 \
        --pipeline=8 --connections=10000 \
        --json=bench/baselines/BENCH_net_c10k.json
    ./build/bench/world_sim --shards=3 --rooms=12 --clients=4 \
        --requests=4000 --slices=6 --kill_at=peak --coevolve --seed=1 \
        --json=bench/baselines/BENCH_world.json

and commit the result together with the change that justified it.
"""

import glob
import json
import os
import sys
import tempfile

MAX_REGRESSION = 0.25      # relative ceiling for p99 / floor for qps
P99_FLOOR_MS = 5.0         # absolute slack before p99 ratio applies
MAX_DEGRADED_GROWTH = 0.25 # degraded-share growth ceiling (fraction)
WORLD_BALANCE_FLOOR = 0.25       # absolute slack on primary_balance
WORLD_RECOVERY_FLOOR_MS = 500.0  # absolute slack on storm recovery
PROFILES = ("auto", "default", "world")


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"bench_compare: cannot read {path}: {error}")


def degraded_share(data):
    requests = data.get("requests", 0)
    if not requests:
        return 0.0
    return data.get("degraded", data.get("fallbacks", 0)) / requests


def check_numeric_keys(keys, baseline, current, baseline_path, current_path,
                       what="key"):
    failures = []
    for key in keys:
        for which, data, path in (("baseline", baseline, baseline_path),
                                  ("current", current, current_path)):
            if key not in data:
                failures.append(f"{which} ({path}) is missing {what} {key!r}")
            elif not isinstance(data[key], (int, float)) \
                    or isinstance(data[key], bool):
                failures.append(
                    f"{which} ({path}) {what} {key!r} is not a number "
                    f"(got {data[key]!r})")
    return failures


def world_checks(baseline, current, baseline_path, current_path):
    """Directional gates for world_sim summaries (--profile world)."""
    failures = check_numeric_keys(
        ("peak_p99_ms", "degraded_share", "primary_balance",
         "storm_connections", "storm_recovery_ms"),
        baseline, current, baseline_path, current_path,
        what="world-profile key")
    if failures:
        failures.append(
            "world-profile keys are emitted by world_sim --json "
            "(see docs/world_sim.md)")
        return failures

    base_peak, cur_peak = baseline["peak_p99_ms"], current["peak_p99_ms"]
    if (cur_peak > base_peak * (1.0 + MAX_REGRESSION)
            and cur_peak - base_peak > P99_FLOOR_MS):
        failures.append(
            f"peak p99 regressed: {base_peak:.2f} ms -> {cur_peak:.2f} ms "
            f"(> +{MAX_REGRESSION:.0%} and > +{P99_FLOOR_MS} ms)")

    base_share, cur_share = (baseline["degraded_share"],
                             current["degraded_share"])
    if cur_share > base_share + MAX_DEGRADED_GROWTH:
        failures.append(
            f"degraded share grew: {base_share:.1%} -> {cur_share:.1%} "
            f"(> +{MAX_DEGRADED_GROWTH:.0%} over baseline; lower is better)")

    base_balance, cur_balance = (baseline["primary_balance"],
                                 current["primary_balance"])
    if (cur_balance > base_balance * (1.0 + MAX_REGRESSION)
            and cur_balance - base_balance > WORLD_BALANCE_FLOOR):
        failures.append(
            f"primary balance worsened: {base_balance:.2f} -> "
            f"{cur_balance:.2f} (> +{MAX_REGRESSION:.0%} and > "
            f"+{WORLD_BALANCE_FLOOR}; lower is better)")

    base_rec, cur_rec = (baseline["storm_recovery_ms"],
                         current["storm_recovery_ms"])
    storm_armed = current["storm_connections"] > 0
    if storm_armed and cur_rec < 0:
        failures.append(
            "storm never recovered (storm_recovery_ms < 0): no reconnect "
            "wave came back fully clean after the outage")
    elif (storm_armed and base_rec >= 0
            and cur_rec > base_rec * (1.0 + MAX_REGRESSION)
            and cur_rec - base_rec > WORLD_RECOVERY_FLOOR_MS):
        failures.append(
            f"storm recovery slowed: {base_rec:.0f} ms -> {cur_rec:.0f} ms "
            f"(> +{MAX_REGRESSION:.0%} and > +{WORLD_RECOVERY_FLOOR_MS:.0f} "
            f"ms ceiling)")

    if current.get("storm_errors", 0) != 0:
        failures.append(
            f"correctness: storm_errors={current['storm_errors']} "
            f"(must be 0)")
    return failures


def compare(baseline_path, current_path, profile="auto"):
    baseline = load(baseline_path)
    current = load(current_path)
    name = current.get("bench", current_path)
    world = profile == "world" or (profile == "auto"
                                   and current.get("bench") == "world_sim")
    failures = check_numeric_keys(("qps", "p99_ms"), baseline, current,
                                  baseline_path, current_path)
    if failures:
        return name, failures

    for key in ("lost", "errors"):
        if current.get(key, 0) != 0:
            failures.append(f"correctness: {key}={current[key]} (must be 0)")

    base_p99, cur_p99 = baseline["p99_ms"], current["p99_ms"]
    if (cur_p99 > base_p99 * (1.0 + MAX_REGRESSION)
            and cur_p99 - base_p99 > P99_FLOOR_MS):
        failures.append(
            f"p99 regressed: {base_p99:.2f} ms -> {cur_p99:.2f} ms "
            f"(> +{MAX_REGRESSION:.0%} and > +{P99_FLOOR_MS} ms)")

    base_qps, cur_qps = baseline["qps"], current["qps"]
    if base_qps > 0 and cur_qps < base_qps * (1.0 - MAX_REGRESSION):
        failures.append(
            f"throughput dropped: {base_qps:.1f} -> {cur_qps:.1f} req/s "
            f"(> -{MAX_REGRESSION:.0%})")

    if world:
        failures.extend(
            world_checks(baseline, current, baseline_path, current_path))
    else:
        base_degraded, cur_degraded = (degraded_share(baseline),
                                       degraded_share(current))
        if cur_degraded > base_degraded + MAX_DEGRADED_GROWTH:
            failures.append(
                f"degraded share grew: {base_degraded:.1%} -> "
                f"{cur_degraded:.1%} "
                f"(> +{MAX_DEGRADED_GROWTH:.0%} over baseline)")

    return name, failures


def self_check():
    """Runs the gate logic against synthetic pairs; exits 1 on surprise.

    This is the bench-regression lane's pre-flight: if the comparator
    itself is broken (a failure mode turned into a stack trace, or a
    regression no longer detected), the lane must fail before any real
    benchmark numbers are trusted.
    """
    clean = {"bench": "synthetic", "requests": 1000, "qps": 100.0,
             "p50_ms": 1.0, "p99_ms": 10.0, "lost": 0, "errors": 0,
             "degraded": 0}
    clean_world = {"bench": "world_sim", "requests": 1000, "qps": 100.0,
                   "p50_ms": 1.0, "p99_ms": 10.0, "peak_p99_ms": 15.0,
                   "lost": 0, "errors": 0, "degraded": 0,
                   "degraded_share": 0.0, "primary_balance": 1.2,
                   "storm_connections": 32, "storm_recovery_ms": 100.0,
                   "storm_errors": 0}

    def run_pair(baseline_patch, current_patch, base=clean):
        baseline = dict(base, **baseline_patch)
        current = dict(base, **current_patch)
        for patch, data in ((baseline_patch, baseline),
                            (current_patch, current)):
            for key, value in patch.items():
                if value is None:
                    del data[key]
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            current_path = os.path.join(tmp, "current.json")
            with open(baseline_path, "w") as handle:
                json.dump(baseline, handle)
            with open(current_path, "w") as handle:
                json.dump(current, handle)
            return compare(baseline_path, current_path)[1]

    scenarios = [
        ("clean pair passes", {}, {}, None),
        ("p99 regression detected", {}, {"p99_ms": 20.0}, "p99 regressed"),
        ("sub-floor p99 jitter tolerated",
         {"p99_ms": 0.5}, {"p99_ms": 0.9}, None),
        ("throughput drop detected", {}, {"qps": 50.0},
         "throughput dropped"),
        ("lost requests detected", {}, {"lost": 3}, "lost=3"),
        ("degraded-share growth detected", {}, {"degraded": 500},
         "degraded share grew"),
        ("missing metric key diagnosed", {"qps": None}, {},
         "missing key 'qps'"),
        ("non-numeric metric diagnosed", {}, {"p99_ms": "fast"},
         "is not a number"),
    ]
    # World-profile scenarios (auto-selected via bench == "world_sim"):
    # one per directional gate, plus the missing-key diagnostic.
    world_scenarios = [
        ("clean world pair passes", {}, {}, None),
        ("peak p99 regression detected", {}, {"peak_p99_ms": 40.0},
         "peak p99 regressed"),
        ("world degraded-share cap detected", {},
         {"degraded_share": 0.5}, "degraded share grew"),
        ("primary-balance growth detected", {},
         {"primary_balance": 2.4}, "primary balance worsened"),
        ("small balance jitter tolerated", {},
         {"primary_balance": 1.4}, None),
        ("storm recovery ceiling detected", {"storm_recovery_ms": 1000.0},
         {"storm_recovery_ms": 5000.0}, "storm recovery slowed"),
        ("unrecovered storm detected", {},
         {"storm_recovery_ms": -1.0}, "storm never recovered"),
        ("storm-free world summary passes",
         {"storm_connections": 0, "storm_recovery_ms": -1.0},
         {"storm_connections": 0, "storm_recovery_ms": -1.0}, None),
        ("armed storm with no recovery fails against a storm-free baseline",
         {"storm_connections": 0, "storm_recovery_ms": -1.0},
         {"storm_recovery_ms": -1.0}, "storm never recovered"),
        ("storm errors detected", {}, {"storm_errors": 2},
         "storm_errors=2"),
        ("missing world key diagnosed by name",
         {}, {"primary_balance": None},
         "missing world-profile key 'primary_balance'"),
    ]
    all_scenarios = ([(label, base_patch, cur_patch, want, clean)
                      for label, base_patch, cur_patch, want in scenarios] +
                     [(label, base_patch, cur_patch, want, clean_world)
                      for label, base_patch, cur_patch, want
                      in world_scenarios])
    for label, baseline_patch, current_patch, want, base in all_scenarios:
        failures = run_pair(baseline_patch, current_patch, base)
        if want is None:
            if failures:
                raise SystemExit(
                    f"self-check: {label}: expected no failures, "
                    f"got {failures}")
        elif not any(want in failure for failure in failures):
            raise SystemExit(
                f"self-check: {label}: expected a failure containing "
                f"{want!r}, got {failures}")

    # A missing file must exit with a one-line message, not a traceback.
    try:
        load(os.path.join(tempfile.gettempdir(),
                          "bench_compare_no_such_file.json"))
    except SystemExit as error:
        if "cannot read" not in str(error):
            raise SystemExit(
                f"self-check: missing file: unexpected message {error}")
    else:
        raise SystemExit("self-check: missing file did not fail")

    # Every committed baseline must itself pass the gate against itself:
    # a baseline missing qps/p99_ms, carrying non-zero lost/errors, or
    # unparseable would otherwise sit dormant until the first real
    # comparison against it — i.e. a new baseline could land in
    # bench/baselines/ without ever having been validated.
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baselines = sorted(
        glob.glob(os.path.join(repo_root, "bench", "baselines",
                               "BENCH_*.json")))
    if not baselines:
        raise SystemExit(
            "self-check: no committed baselines match "
            "bench/baselines/BENCH_*.json")
    for path in baselines:
        name, failures = compare(path, path)
        if failures:
            raise SystemExit(
                f"self-check: committed baseline {path} ({name}) does not "
                f"pass the gate against itself: {failures}")

    print(f"self-check OK: {len(all_scenarios) + 1} scenarios, "
          f"{len(baselines)} committed baselines validated")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self_check":
        return self_check()
    args = argv[1:]
    profile = "auto"
    if args and args[0].startswith("--profile"):
        if args[0] == "--profile":
            if len(args) < 2:
                raise SystemExit("bench_compare: --profile needs a value "
                                 f"(one of {', '.join(PROFILES)})")
            profile, args = args[1], args[2:]
        else:
            profile, args = args[0].split("=", 1)[1], args[1:]
        if profile not in PROFILES:
            raise SystemExit(f"bench_compare: unknown profile {profile!r} "
                             f"(one of {', '.join(PROFILES)})")
    if len(args) < 2 or len(args) % 2 != 0:
        raise SystemExit(__doc__)
    failed = False
    for i in range(0, len(args), 2):
        baseline_path, current_path = args[i], args[i + 1]
        name, failures = compare(baseline_path, current_path, profile)
        if failures:
            failed = True
            print(f"FAIL {name} ({current_path} vs {baseline_path}):")
            for failure in failures:
                print(f"  - {failure}")
        else:
            current = load(current_path)
            keys = ("qps", "p50_ms", "p99_ms")
            if current.get("bench") == "world_sim" or profile == "world":
                keys += ("peak_p99_ms", "degraded_share", "primary_balance",
                         "storm_recovery_ms")
            summary = {k: current[k] for k in keys if k in current}
            print(f"OK   {name}: {summary}")
    if failed:
        print()
        print("If a deliberate change moved the numbers, refresh the")
        print("baselines (commands in scripts/bench_compare.py's header)")
        print("and commit them alongside the change that justified it.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
