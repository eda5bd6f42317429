#!/usr/bin/env bash
# Repo check matrix: builds and tests the CI lanes. Each lane maps to
# one job in .github/workflows/ci.yml; running the script with no
# arguments reproduces the blocking part of CI locally.
#
#   scripts/check.sh              # docs + format + release + asan + tsan
#   scripts/check.sh release      # just one lane
#   scripts/check.sh bench        # serving benchmarks, smoke config
#   scripts/check.sh --list       # print every lane + one-line purpose
#   TSAN_FILTER=. scripts/check.sh tsan   # widen the tsan test filter
#
# Lanes:
#   docs     no build: every intra-repo markdown link resolves
#            (relative and repo-absolute), docs/ARCHITECTURE.md mentions
#            every src/* subsystem, docs/serving.md covers the
#            partitioned-serving vocabulary, docs/networking.md covers
#            the reactor/pipelining vocabulary, and shellcheck (when
#            installed) passes on tracked shell scripts
#   format   clang-format --dry-run over tracked C++ sources; skipped
#            with a notice when clang-format is not installed
#   release  RelWithDebInfo, full ctest suite (the tier-1 gate)
#   asan     address+undefined sanitizers, full ctest suite
#   ubsan    undefined-behavior sanitizer alone (catches UB that asan's
#            shadow memory layout can mask), full ctest suite
#   tsan     thread sanitizer; by default runs only the concurrent
#            serving-runtime tests (ctest -R serve), where data races
#            actually live. Override the filter with TSAN_FILTER.
#   release-core / release-serve / asan-core / asan-serve
#            the same suites split by ctest regex (-E '^serve/' vs
#            -R '^serve/') so CI can run both halves in parallel with
#            per-lane build caches
#   infer-native
#            configure with -DAFTER_INFER_NATIVE=ON and build the
#            after_infer library alone: proves the -march=native build of
#            the inference kernels stays compilable (the runtime CPUID
#            dispatch is what ships; this guards the opt-in native path)
#   bench    smoke-config serving benchmarks: serve_throughput
#            (in-process), net_throughput (TCP fleet with mid-run
#            shard kill, then a partitioned fleet with live migration,
#            then a 500-connection idle swarm with pipelined clients),
#            and tick_throughput (delta-vs-scratch room ticking plus
#            the stale-cache recovery drill), writing
#            build/BENCH_*.json and failing on malformed output. Not
#            in the default set: CI runs it as a non-blocking job.
#   bench-regression
#            first gates two same-run ratios of median CPU times over
#            5 interleaved micro_kernels repetitions, each against a
#            floor set between 10 observed runs and a slower variant:
#            the f64 reference step over the served f32 step at the
#            pruned N=500 request shape (32 candidates, as in the
#            mega-room workload; the slower variant is a forward
#            slowed 2x), and a 512-user scratch graph build over a
#            one-mover delta carry (the slower variant is the carry
#            that rewrote every row). Then it runs the serve/net
#            benches once each in the baseline config (both serve the
#            frozen POSHGNN on the fused f32 engine), plus the C10k
#            config (10k idle
#            connections + pipelined bursts; the run itself fails on
#            any unconnected swarm client or lost ping) and the
#            tick_throughput baseline (512-user room, 5% movers, which
#            must hold a >=2.5x delta-vs-scratch speedup), and gates all
#            four runs against bench/baselines/*.json with
#            scripts/bench_compare.py (>25% p99/throughput regression,
#            lost/errors != 0, or degraded-share growth fails), then
#            runs the world_sim macro-driver in its baseline config
#            (Zipf fleet + diurnal curve + kill-at-peak reconnect
#            storm + co-evolution) and gates it with
#            `bench_compare.py --profile world` against
#            bench/baselines/BENCH_world.json. This one IS blocking
#            in CI.
#   perfbench
#            the repo benchmark (perfbench/, registered in
#            BENCHMARK.json): builds it out of tree under
#            build-perfbench/, runs its perfbench_test unit tests, then
#            every registered workload once for 15 s (the shortest run
#            whose mega-room tick tail still has 10 samples beyond p95).
#            Fails on exit 1 (a correctness check, e.g. the 64-answer
#            bit-exact oracle) or exit 2 (flags, build or set-up); an
#            invalid run (exit 3: the host starved the load generator) is
#            retried once, then reported as skipped. Not in the default
#            set: CI runs it as a non-blocking job.
#   world-sim
#            macro-scenario smoke: a small Zipf-skewed partitioned
#            fleet under a diurnal load curve with a flash-crowd
#            hotspot and a kill-at-peak reconnect storm. The binary
#            itself exits nonzero on any lost request or a primary-
#            balance breach; the lane additionally runs the scenario
#            twice and fails unless both runs emit the same
#            scenario_fingerprint (the bit-identical-plan contract
#            that makes failures reproducible from a seed).
set -euo pipefail
cd "$(dirname "$0")/.."

# Lane registry: every runnable lane in display order, with a one-line
# purpose. `scripts/check.sh --list` prints it, and an unknown lane
# name fails fast with the same list instead of dying inside cmake
# with a missing-preset error.
LANE_ORDER=(docs format release asan ubsan tsan release-core release-serve
  asan-core asan-serve infer-native bench bench-regression
  perfbench world-sim)
declare -A LANE_PURPOSE=(
  [docs]="markdown link integrity, subsystem + vocabulary coverage, shellcheck"
  [format]="clang-format --dry-run over tracked C++ sources"
  [release]="RelWithDebInfo build, full ctest suite (the tier-1 gate)"
  [asan]="address+undefined sanitizers, full ctest suite"
  [ubsan]="undefined-behavior sanitizer alone, full ctest suite"
  [tsan]="thread sanitizer over the concurrent serving tests (TSAN_FILTER)"
  [release-core]="release suite minus serve/ (CI cache-split half)"
  [release-serve]="release suite, serve/ tests only (CI cache-split half)"
  [asan-core]="asan suite minus serve/ (CI cache-split half)"
  [asan-serve]="asan suite, serve/ tests only (CI cache-split half)"
  [infer-native]="proves the -march=native after_infer build stays compilable"
  [bench]="smoke-config serving + delta-tick benchmarks (non-blocking in CI)"
  [bench-regression]="baseline-config benches gated vs bench/baselines (blocking)"
  [perfbench]="repo benchmark: perfbench_test + every workload for 15 s (non-blocking in CI)"
  [world-sim]="macro-scenario smoke: Zipf fleet + flash crowd + reconnect storm"
)

list_lanes() {
  local lane
  echo "Lanes:"
  for lane in "${LANE_ORDER[@]}"; do
    printf '  %-18s %s\n' "${lane}" "${LANE_PURPOSE[${lane}]}"
  done
}

JOBS="${JOBS:-$(nproc)}"
TSAN_FILTER="${TSAN_FILTER:-^serve/}"
LANES=("$@")
for lane in "${LANES[@]}"; do
  if [ "${lane}" = "--list" ] || [ "${lane}" = "-l" ]; then
    list_lanes
    exit 0
  fi
done
if [ "${#LANES[@]}" -eq 0 ]; then
  LANES=(docs format release asan tsan)
fi
for lane in "${LANES[@]}"; do
  if [ -z "${LANE_PURPOSE[${lane}]+x}" ]; then
    echo "check.sh: unknown lane '${lane}'" >&2
    list_lanes >&2
    exit 1
  fi
done

run_docs_lane() {
  local fail=0
  # Every intra-repo markdown link must resolve, from every tracked
  # page. Relative links resolve against the page's directory;
  # repo-absolute links (`/docs/...`) resolve against the repo root.
  # The extraction regex tolerates one level of parentheses inside the
  # target, so links like (see [spec](docs/wire(v1).md)) don't truncate
  # at the inner ')'.
  local file target path
  while IFS= read -r file; do
    while IFS= read -r target; do
      case "${target}" in
        http://*|https://*|mailto:*|'#'*) continue ;;
      esac
      path="${target%%#*}"          # drop in-page anchors
      path="${path%% *}"            # drop "title" suffixes
      [ -z "${path}" ] && continue
      case "${path}" in
        /*) path=".${path}" ;;      # repo-absolute: resolve from root
        *)  path="$(dirname "${file}")/${path}" ;;
      esac
      if [ ! -e "${path}" ]; then
        echo "docs: broken link in ${file}: (${target})"
        fail=1
      fi
    done < <(grep -oE '\]\(([^()]|\([^()]*\))*\)' "${file}" \
               | sed 's/^](//; s/)$//')
  done < <(git ls-files '*.md')
  # The architecture page must keep covering every subsystem.
  local dir name
  for dir in src/*/; do
    name="$(basename "${dir}")"
    if ! grep -q "src/${name}/" docs/ARCHITECTURE.md; then
      echo "docs: src/${name}/ is not mentioned in docs/ARCHITECTURE.md"
      fail=1
    fi
  done
  # The serving page must keep covering the partitioned-serving
  # vocabulary (ownership wire messages, the replication knob, and the
  # control-plane module).
  local term
  for term in kRoomAssign kRoomRelease kNotOwner replication_factor \
              shard_control kRoomRecover kDataLoss durable_dir; do
    if ! grep -q "${term}" docs/serving.md; then
      echo "docs: ${term} is not mentioned in docs/serving.md"
      fail=1
    fi
  done
  # The inference page must keep covering the engine vocabulary: the
  # served engine and its f64 reference (the session-start step), the
  # runtime knob, the SIMD tiers, the workspace machinery, the numeric
  # tolerance contract and the micro gate's yardstick.
  for term in FrozenPoshgnn session-start AggregateFresh StepOnTape \
              AFTER_INFER_SIMD AVX2 FMA WorkspacePool arena tolerance \
              BM_PoshgnnReferenceStepPruned; do
    if ! grep -q "${term}" docs/inference.md; then
      echo "docs: ${term} is not mentioned in docs/inference.md"
      fail=1
    fi
  done
  # The networking page must keep covering the event-driven front's
  # vocabulary: the reactor mechanics, the pipelining + correlation
  # contract, the slow-peer knobs, and the router's multiplexed links.
  for term in epoll reactor EPOLLET "request ID" pipelining backpressure \
              idle_timeout_ms max_connections write_close_bytes MuxLink \
              mux_links "--connections"; do
    if ! grep -q -- "${term}" docs/networking.md; then
      echo "docs: ${term} is not mentioned in docs/networking.md"
      fail=1
    fi
  done
  # The ticking page must keep covering the delta-tick vocabulary: the
  # snapshot-delta lifecycle, the fallback knob, the pruning contract,
  # and the recovery-rebuilds-caches rule.
  for term in delta_snapshots delta_rebuild_fraction "moved set" \
              built_by_delta TemporalIndex max_candidates \
              co_presence_radius tick_throughput "stale-cache" \
              bit-exact; do
    if ! grep -q -- "${term}" docs/ticking.md; then
      echo "docs: ${term} is not mentioned in docs/ticking.md"
      fail=1
    fi
  done
  # The world-sim page must keep covering the macro-scenario
  # vocabulary: the four workload axes, the reconnect storm, and the
  # reproducibility + gating knobs.
  for term in Zipf diurnal flash-crowd co-evolution "reconnect storm" \
              scenario_fingerprint balance_cap storm_recovery_ms \
              degraded_share "--profile world"; do
    if ! grep -q -- "${term}" docs/world_sim.md; then
      echo "docs: ${term} is not mentioned in docs/world_sim.md"
      fail=1
    fi
  done
  # The nightly chaos matrix must keep every drill it has ever grown:
  # a matrix refactor that silently drops an entry would otherwise go
  # unnoticed until the drill it ran stops catching regressions.
  local drill
  for drill in fault-injection-eval kill-a-shard c10k-kill \
               partitioned-migration cold-restart stale-cache world-sim; do
    if ! grep -q "name: ${drill}" .github/workflows/ci.yml; then
      echo "docs: nightly drill '${drill}' missing from ci.yml chaos matrix"
      fail=1
    fi
  done
  # Tracked shell scripts must be shellcheck-clean where the tool
  # exists (CI installs it; a bare container may not have it).
  if command -v shellcheck > /dev/null 2>&1; then
    local script
    while IFS= read -r script; do
      if ! shellcheck "${script}"; then
        echo "docs: shellcheck failed on ${script}"
        fail=1
      fi
    done < <(git ls-files '*.sh')
  else
    echo "docs lane: shellcheck not installed, skipping script lint"
  fi
  if [ "${fail}" -ne 0 ]; then
    return 1
  fi
  echo "docs lane OK: links resolve, ARCHITECTURE.md covers src/*"
}

run_format_lane() {
  if ! command -v clang-format > /dev/null 2>&1; then
    echo "format lane SKIPPED: clang-format not installed"
    return 0
  fi
  # --dry-run -Werror prints a diagnostic per deviation and fails the
  # lane without rewriting anything; `git ls-files` keeps generated or
  # untracked sources out of scope.
  git ls-files '*.h' '*.cc' | xargs -r clang-format --dry-run -Werror
  echo "format lane OK: tracked C++ sources match .clang-format"
}

run_bench_lane() {
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" \
    --target serve_throughput net_throughput tick_throughput
  echo "---- serve_throughput (in-process smoke) ----"
  ./build/bench/serve_throughput --rooms=2 --threads=2 --requests=200 \
    --users=24 --json=build/BENCH_serve.json
  echo "---- net_throughput (TCP fleet smoke, kill one shard) ----"
  ./build/bench/net_throughput --shards=2 --rooms=4 --users=24 \
    --clients=4 --requests=800 --kill_shard_ms=100
  echo "---- net_throughput (partitioned fleet, kill + live add) ----"
  ./build/bench/net_throughput --partitioned --shards=3 --rooms=12 \
    --users=24 --clients=4 --requests=4000 --kill_shard_ms=200 \
    --add_shard_ms=400 --json=build/BENCH_net.json
  echo "---- net_throughput (connection-count axis smoke: idle swarm ----"
  echo "---- + pipelined bursts) ----"
  ./build/bench/net_throughput --shards=2 --rooms=4 --users=24 \
    --clients=4 --requests=800 --pipeline=4 --connections=500
  echo "---- tick_throughput (delta-tick smoke + stale-cache drill) ----"
  ./build/bench/tick_throughput --users=96 --hot=16 --move_fraction=0.1 \
    --ticks=10 --warmup=2 --json=build/BENCH_tick_smoke.json
  ./build/bench/tick_throughput --stale_cache_drill --users=96 \
    --move_fraction=0.1 --durable_dir=build/tick-stale-cache-drill
  # A benchmark that silently emits garbage is worse than one that
  # fails: validate the summaries before anything downstream trusts
  # them. The net summary must carry the degraded counter so "all
  # served" and "all served by the fallback" stay distinguishable.
  python3 - build/BENCH_serve.json build/BENCH_net.json \
    build/BENCH_tick_smoke.json <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as handle:
        data = json.load(handle)
    keys = ["bench", "ok", "qps", "p50_ms", "p95_ms", "p99_ms"]
    if data.get("bench") == "net_throughput":
        keys += ["requests", "degraded", "not_owner", "lost", "errors"]
    for key in keys:
        if key not in data:
            raise SystemExit(f"{path}: missing key {key!r}")
    if data["ok"] <= 0 or data["qps"] <= 0:
        raise SystemExit(f"{path}: non-positive ok/qps")
    if data["p50_ms"] > data["p99_ms"]:
        raise SystemExit(f"{path}: p50 > p99")
    print(f"{path} OK:",
          {k: data[k] for k in ("qps", "p50_ms", "p95_ms", "p99_ms")})
PY
}

run_bench_regression_lane() {
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" \
    --target serve_throughput net_throughput tick_throughput world_sim \
    micro_kernels
  echo "---- micro_kernels (reference/served step ratio gate on the ----"
  echo "---- pruned N=500 request shape; scratch/carry ratio gate at ----"
  echo "---- N=512) ----"
  ./build/bench/micro_kernels \
    --benchmark_filter='StepPruned|OcclusionGraphBuild/512|OcclusionCarry' \
    --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
    --benchmark_format=json > build/BENCH_micro.json
  # Both gates are same-run ratios of CPU times, each the median of 5
  # interleaved repetitions, so neither the runner's speed nor time
  # stolen from its vCPU moves them much. No runner of another
  # microarchitecture has been measured.
  # - POSHGNN step: the f64 reference of a session-start step (the
  #   const AggregateFresh + StepOnTape at zero state) over the served
  #   fused f32 step. Its yardstick is the f64 reference: a change that
  #   speeds up or slows down the reference moves the ratio as much as
  #   one to the fused forward, and must re-measure the floor. On a
  #   4-vCPU Intel Xeon VM, 18 runs read 30.3-55.5x and 17 runs of a
  #   fused forward slowed 2x, 6 of them interleaved with the normal
  #   ones, read 15.3-26.0x; the floor sits midway between the two
  #   (docs/inference.md).
  # - Delta carry: a scratch build of a 512-user graph over one carry
  #   after 1 agent moved, the deadlocked mega-room tick. The yardstick
  #   is the scratch build; a change to it must re-measure the floor.
  #   On the same VM, 10 runs read 62.6-78.0x, and 10 runs interleaved
  #   with them of the earlier carry, which rewrote every row, read
  #   9.8-13.0x. The floor sits at about half the lowest normal run, so
  #   it catches a carry that rewrites every row again, not a small
  #   slowdown (docs/ticking.md).
  python3 - build/BENCH_micro.json <<'PY'
import json, sys
with open(sys.argv[1]) as handle:
    medians = {b["run_name"]: b for b in json.load(handle)["benchmarks"]
               if b.get("aggregate_name") == "median"}
failures = []
for label, slow, fast, floor in [
        ("POSHGNN step, pruned N=500: f64 reference / served f32",
         "BM_PoshgnnReferenceStepPruned/500", "BM_FrozenPoshgnnStepPruned/500",
         28.0),
        ("occlusion graph, N=512: scratch build / carry of 1 moved",
         "BM_OcclusionGraphBuild/512", "BM_OcclusionCarry/1", 30.0)]:
    a, b = medians[slow], medians[fast]
    if a["time_unit"] != b["time_unit"]:
        raise SystemExit(f"micro gate: {slow} and {fast} report different time units")
    ratio = a["cpu_time"] / b["cpu_time"]
    print(f"{label} (median of 5): {a['cpu_time']:.0f} / {b['cpu_time']:.0f} "
          f"{b['time_unit']} = {ratio:.1f}x (floor {floor:.0f}x)")
    if ratio < floor:
        failures.append(f"{label} ratio {ratio:.1f}x < {floor:.0f}x")
if failures:
    raise SystemExit("micro gate: " + "; ".join(failures))
PY
  echo "---- serve_throughput (baseline config) ----"
  ./build/bench/serve_throughput --rooms=2 --threads=2 --clients=4 \
    --requests=4000 --users=24 --json=build/BENCH_serve.json
  echo "---- net_throughput (baseline config: partitioned + kill) ----"
  ./build/bench/net_throughput --partitioned --shards=3 --rooms=12 \
    --users=24 --clients=4 --requests=8000 --kill_shard_ms=300 \
    --json=build/BENCH_net.json
  echo "---- net_throughput (C10k baseline: 10k idle connections + ----"
  echo "---- pipelined bursts) ----"
  ./build/bench/net_throughput --shards=2 --rooms=8 --users=24 \
    --clients=4 --requests=6000 --pipeline=8 --connections=10000 \
    --json=build/BENCH_net_c10k.json
  echo "---- tick_throughput (baseline config: 512-user room, 5% ----"
  echo "---- movers, 2.5x delta-vs-scratch gate) ----"
  ./build/bench/tick_throughput --users=512 --hot=64 --move_fraction=0.05 \
    --ticks=40 --warmup=8 --min_speedup=2.5 --json=build/BENCH_tick.json
  echo "---- bench_compare self-check (gate the gate) ----"
  python3 scripts/bench_compare.py --self_check
  echo "---- compare against committed baselines ----"
  python3 scripts/bench_compare.py \
    bench/baselines/BENCH_serve.json build/BENCH_serve.json \
    bench/baselines/BENCH_net.json build/BENCH_net.json \
    bench/baselines/BENCH_net_c10k.json build/BENCH_net_c10k.json \
    bench/baselines/BENCH_tick.json build/BENCH_tick.json
  echo "---- world_sim (baseline config: Zipf + diurnal + kill-at- ----"
  echo "---- peak storm + co-evolution) ----"
  ./build/bench/world_sim --shards=3 --rooms=12 --clients=4 \
    --requests=4000 --slices=6 --kill_at_peak --coevolve --seed=1 \
    --json=build/BENCH_world.json
  echo "---- compare against the committed world baseline ----"
  python3 scripts/bench_compare.py --profile world \
    bench/baselines/BENCH_world.json build/BENCH_world.json
}

run_perfbench_lane() {
  # run.py builds under $CARGO_TARGET_DIR/perfbench and reuses a build
  # configured from this perfbench/ directory, so configuring it here
  # first lets the unit tests and the runs share one build.
  local target_dir="${PWD}/build-perfbench"
  local build_dir="${target_dir}/perfbench"
  cmake -S perfbench -B "${build_dir}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${build_dir}" -j "${JOBS}" --target perfbench perfbench_test
  echo "---- perfbench_test (schedules, samplers, percentiles, spans) ----"
  "${build_dir}/perfbench_test"
  local workload attempt status
  local -a workloads=() skipped=()
  mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
  if [ "${#workloads[@]}" -eq 0 ]; then
    echo "perfbench lane: no workloads read from BENCHMARK.json" >&2
    return 1
  fi
  for workload in "${workloads[@]}"; do
    for attempt in 1 2; do
      echo "---- perfbench ${workload}, 15 s (attempt ${attempt}) ----"
      status=0
      CARGO_TARGET_DIR="${target_dir}" python3 perfbench/run.py \
        --workload "${workload}" --seed 1 --seconds 15 --trace 0 \
        > "${target_dir}/${workload}.out" || status=$?
      cat "${target_dir}/${workload}.out"
      case "${status}" in
        0) break ;;
        3) if [ "${attempt}" -eq 2 ]; then skipped+=("${workload}"); fi ;;
        *) echo "perfbench ${workload}: exit ${status}" \
             "(1 = incorrect answer, 2 = flags/build/set-up)" >&2
           return 1 ;;
      esac
    done
  done
  if [ "${#skipped[@]}" -gt 0 ]; then
    echo "perfbench lane: invalid twice (exit 3), skipped: ${skipped[*]}"
  fi
  echo "perfbench lane OK: unit tests pass, every valid run correct"
}

run_world_sim_lane() {
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" --target world_sim
  echo "---- world_sim (Zipf fleet + flash crowd + kill-at-peak storm) ----"
  # The binary is its own gate: exit 2 on any lost request, any
  # client/storm error, or a primary-balance breach.
  ./build/bench/world_sim --shards=3 --rooms=12 --clients=4 \
    --requests=1200 --slices=6 --kill_at_peak --storm_wave=8 --seed=1 \
    --json=build/BENCH_world_smoke.json
  echo "---- world_sim (same seed again: bit-identical-plan check) ----"
  ./build/bench/world_sim --shards=3 --rooms=12 --clients=4 \
    --requests=1200 --slices=6 --kill_at_peak --storm_wave=8 --seed=1 \
    --json=build/BENCH_world_smoke_rerun.json
  # Same seed, same flags => the generated scenario (room sizes,
  # diurnal slice totals, churned populations, request schedule) must
  # be bit-identical; live latency numbers may differ, the plan not.
  python3 - build/BENCH_world_smoke.json \
    build/BENCH_world_smoke_rerun.json <<'PY'
import json, sys
runs = []
for path in sys.argv[1:]:
    with open(path) as handle:
        runs.append(json.load(handle))
for data, path in zip(runs, sys.argv[1:]):
    for key in ("scenario_fingerprint", "requests", "lost", "errors",
                "primary_balance", "peak_p99_ms", "degraded_share",
                "storm_recovery_ms", "storm_errors"):
        if key not in data:
            raise SystemExit(f"{path}: missing key {key!r}")
a, b = runs
if a["scenario_fingerprint"] != b["scenario_fingerprint"]:
    raise SystemExit(
        "world-sim: rerun with the same seed produced a different "
        f"scenario_fingerprint: {a['scenario_fingerprint']} vs "
        f"{b['scenario_fingerprint']}")
print("world-sim lane OK: zero lost requests, balance within gate,",
      "fingerprint", a["scenario_fingerprint"], "reproduced")
PY
}

run_lane() {
  local lane="$1"
  echo "==== lane: ${lane} ===================================="
  case "${lane}" in
    docs)   run_docs_lane;   return ;;
    format) run_format_lane; return ;;
    bench)  run_bench_lane;  return ;;
    bench-regression) run_bench_regression_lane; return ;;
    perfbench) run_perfbench_lane; return ;;
    world-sim) run_world_sim_lane; return ;;
    infer-native)
      # Opt-in -march=native build of the inference kernels must stay
      # compilable; only the after_infer library is needed to prove it.
      cmake -S . -B build-infer-native \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAFTER_INFER_NATIVE=ON
      cmake --build build-infer-native -j "${JOBS}" --target after_infer
      echo "infer-native lane OK: after_infer builds with AFTER_INFER_NATIVE=ON"
      return ;;
  esac
  # release-core / asan-serve / ... are the base preset plus a ctest
  # split: -core excludes the serving-runtime tests, -serve runs only
  # them, so CI halves each suite across two cached jobs.
  local preset="${lane%%-*}"
  local -a filter=()
  case "${lane}" in
    *-core)  filter=(-E '^serve/') ;;
    *-serve) filter=(-R '^serve/') ;;
  esac
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${JOBS}"
  local dir="build-${preset}"
  [ "${preset}" = release ] && dir=build
  if [ "${preset}" = tsan ]; then
    ctest --test-dir "${dir}" -R "${TSAN_FILTER}" \
      --output-on-failure -j "${JOBS}"
  else
    ctest --test-dir "${dir}" "${filter[@]}" --output-on-failure -j "${JOBS}"
  fi
}

for lane in "${LANES[@]}"; do
  run_lane "${lane}"
done
echo "All lanes passed: ${LANES[*]}"
