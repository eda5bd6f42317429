#!/usr/bin/env bash
# Repo check matrix: builds and tests the CI lanes. Each lane maps to
# one job in .github/workflows/ci.yml; running the script with no
# arguments reproduces the blocking part of CI locally.
#
#   scripts/check.sh              # docs + format + release + asan + tsan
#   scripts/check.sh release      # just one lane
#   scripts/check.sh bench        # serving benchmarks, smoke config
#   scripts/check.sh coverage     # line coverage of src/ under ctest
#   scripts/check.sh --list       # print every lane + one-line purpose
#   TSAN_FILTER=. scripts/check.sh tsan   # widen the tsan test filter
#
# Lanes:
#   docs     no build: every intra-repo markdown link resolves
#            (relative and repo-absolute), docs/ARCHITECTURE.md mentions
#            every src/* subsystem, docs/serving.md covers the
#            partitioned-serving vocabulary, docs/networking.md covers
#            the reactor/pipelining vocabulary, no page names removed
#            files or room-state calls, and shellcheck (when installed)
#            passes on tracked shell scripts
#   format   clang-format --dry-run over tracked C++ sources; skipped
#            with a notice when clang-format is not installed
#   release  RelWithDebInfo, full ctest suite (the tier-1 gate)
#   asan     address+undefined sanitizers, full ctest suite
#   ubsan    undefined-behavior sanitizer alone (catches UB that asan's
#            shadow memory layout can mask), full ctest suite
#   tsan     thread sanitizer; by default runs only the concurrent
#            serving-runtime tests (ctest -R serve), where data races
#            actually live. Override the filter with TSAN_FILTER.
#   bench    smoke-config serving benchmarks: serve_throughput
#            (in-process), world_sim (a uniform one-slice plan on a
#            partitioned TCP fleet that kills a shard and adds one live
#            at answered-request indices, under a 500-connection idle
#            swarm and 4-deep pipelined clients), and tick_throughput
#            (delta-vs-scratch room ticking plus the stale-cache
#            recovery drill), writing build/BENCH_*.json and failing on
#            malformed output. Not in the default set: CI runs it as a
#            non-blocking job.
#   bench-regression
#            first gates three same-run ratios of median CPU times over
#            5 interleaved micro_kernels repetitions, each against a
#            floor set between 10 observed runs and a slower variant:
#            the f64 reference step over the served f32 step at the
#            pruned N=500 request shape (32 candidates, as in the
#            mega-room workload; the slower variant is a forward
#            slowed 2x), a 512-user scratch graph build over a
#            one-mover delta carry (the slower variant is the carry
#            that rewrote every row), and the same build over a
#            one-mover carry that changes no row (the slower variant
#            is a carry that rewrites unchanged rows instead of
#            sharing the graph). Then it runs serve_throughput and
#            world_sim once each in the baseline config (both serve the
#            frozen POSHGNN on the fused f32 engine; world_sim's uniform
#            one-slice plan kills a shard under load), plus world_sim's
#            C10k config (10k idle connections + pipelined bursts; the
#            run itself fails on any unconnected swarm client or lost
#            ping) and the tick_throughput baseline (512-user room, 5%
#            movers, which must hold a >=2.5x delta-vs-scratch speedup),
#            and gates all four runs against bench/baselines/*.json with
#            scripts/bench_compare.py (>25% p99/throughput regression,
#            lost/errors != 0, or degraded-share growth fails; the
#            world_sim summaries also get the world profile's gates),
#            then runs world_sim in its Zipf baseline config (diurnal
#            curve + kill-at-peak reconnect storm + co-evolution) and
#            gates it with `bench_compare.py --profile world` against
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
#   coverage
#            Debug build with `--coverage -O0` (the coverage preset,
#            build-coverage/), the full ctest suite from zeroed
#            counters, then scripts/coverage.py: per-file and total line
#            coverage of src/**/*.cc, failing when more lines are
#            uncovered than the ceiling recorded in that script. Smoke
#            benches stay out. Not in the default
#            set: a -O0 build of everything takes minutes.
#   world-sim
#            macro-scenario smoke: a small Zipf-skewed partitioned
#            fleet under a diurnal load curve with a flash-crowd
#            hotspot and a kill-at-peak reconnect storm. The binary
#            itself exits nonzero on any lost request or a primary-
#            balance breach; the lane additionally fails unless the
#            kill's repair lands under load and the run's
#            scenario_fingerprint equals the literal pinned for the
#            lane's flags (the bit-identical-plan contract that makes
#            failures reproducible from a seed).
set -euo pipefail
cd "$(dirname "$0")/.."

# Lane registry: every runnable lane in display order, with a one-line
# purpose. `scripts/check.sh --list` prints it, and an unknown lane
# name fails fast with the same list instead of dying inside cmake
# with a missing-preset error.
LANE_ORDER=(docs format release asan ubsan tsan bench bench-regression
  perfbench world-sim coverage)
declare -A LANE_PURPOSE=(
  [docs]="markdown link integrity, subsystem + vocabulary coverage, shellcheck"
  [format]="clang-format --dry-run over tracked C++ sources"
  [release]="RelWithDebInfo build, full ctest suite (the tier-1 gate)"
  [asan]="address+undefined sanitizers, full ctest suite"
  [ubsan]="undefined-behavior sanitizer alone, full ctest suite"
  [tsan]="thread sanitizer over the concurrent serving tests (TSAN_FILTER)"
  [bench]="smoke-config serving + delta-tick benchmarks (non-blocking in CI)"
  [bench-regression]="baseline-config benches gated vs bench/baselines (blocking)"
  [perfbench]="repo benchmark: perfbench_test + every workload for 15 s (non-blocking in CI)"
  [world-sim]="macro-scenario smoke: Zipf fleet + flash crowd + reconnect storm"
  [coverage]="line coverage of src/**/*.cc under ctest, gated on an uncovered-line ceiling"
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
  # contract, the slow-peer knobs, and the one multiplexed client.
  for term in epoll reactor EPOLLET "request ID" pipelining backpressure \
              idle_timeout_ms max_connections write_close_bytes NetClient \
              kMuxLinks "--connections"; do
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
  # The durability page must keep covering the one-file layout: the
  # journal, its state records, the data-loss count, both budgets' and
  # the fsync knob's names, and the recovery wire message. No page may
  # name the per-room checkpoint files that are gone.
  for term in journal.wal "state record" data_loss_rooms \
              checkpoint_every_ticks journal_fsync kRoomRecover; do
    if ! grep -q -- "${term}" docs/durability.md; then
      echo "docs: ${term} is not mentioned in docs/durability.md"
      fail=1
    fi
  done
  local stale
  while IFS= read -r stale; do
    echo "docs: ${stale} names the removed .ckpt files"
    fail=1
  done < <(grep -rlF '.ckpt' docs README.md)
  # Nor the second wire client that NetClient replaced.
  while IFS= read -r stale; do
    echo "docs: ${stale} names the removed MuxLink client"
    fail=1
  done < <(grep -rlwE 'MuxLink|net_mux' docs README.md)
  # Nor the room-state calls that went when a room's state became its
  # tick frame (Room::CurrentTickFrame / Room::Restore).
  while IFS= read -r stale; do
    echo "docs: ${stale} names a removed room-state call"
    fail=1
  done < <(grep -rlE \
             'ExportState|ApplyState|ApplyTickFrame|kTrajectoryWindowFrames' \
             docs README.md)
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

# world_sim flags for a plain throughput run: 24-user rooms of one size,
# one slice, no flash crowd, no churn.
UNIFORM_PLAN=(--zipf=0 --min_room_users=24 --max_room_users=24 --slices=1
  --flash_rooms=0 --churn=0)

run_bench_lane() {
  cmake --preset release
  cmake --build --preset release -j "${JOBS}" \
    --target serve_throughput world_sim tick_throughput
  echo "---- serve_throughput (in-process smoke) ----"
  ./build/bench/serve_throughput --rooms=2 --threads=2 --requests=200 \
    --users=24 --json=build/BENCH_serve.json
  echo "---- world_sim (TCP fleet smoke: kill + live add under a ----"
  echo "---- 500-connection idle swarm and pipelined bursts) ----"
  ./build/bench/world_sim --shards=3 --rooms=12 "${UNIFORM_PLAN[@]}" \
    --clients=4 --requests=4000 --kill_at=1000 --add_at=2000 \
    --connections=500 --pipeline=4 --json=build/BENCH_net.json
  echo "---- tick_throughput (delta-tick smoke + stale-cache drill) ----"
  ./build/bench/tick_throughput --users=96 --hot=16 --move_fraction=0.1 \
    --ticks=10 --warmup=2 --json=build/BENCH_tick_smoke.json
  ./build/bench/tick_throughput --stale_cache_drill --users=96 \
    --move_fraction=0.1 --durable_dir=build/tick-stale-cache-drill
  # A benchmark that silently emits garbage is worse than one that
  # fails: validate the summaries before anything downstream trusts
  # them. The fleet summary must carry the degraded counter so "all
  # served" and "all served by the fallback" stay distinguishable, and
  # every drill it armed must have fired.
  python3 - build/BENCH_serve.json build/BENCH_net.json \
    build/BENCH_tick_smoke.json <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as handle:
        data = json.load(handle)
    keys = ["bench", "ok", "qps", "p50_ms", "p95_ms", "p99_ms"]
    if data.get("bench") == "world_sim":
        keys += ["requests", "degraded", "not_owner", "lost", "errors",
                 "migrations", "repairs", "swarm_pings", "swarm_pongs",
                 "events"]
    for key in keys:
        if key not in data:
            raise SystemExit(f"{path}: missing key {key!r}")
    for event in data.get("events", []):
        if event["fired_at"] < 0:
            raise SystemExit(f"{path}: the {event['kind']} at "
                             f"{event['at']} never fired")
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
    --target serve_throughput tick_throughput world_sim micro_kernels
  echo "---- micro_kernels (reference/served step ratio gate on the ----"
  echo "---- pruned N=500 request shape; scratch/carry ratio gates at ----"
  echo "---- N=512, a carry that rewrites rows and one that shares) ----"
  ./build/bench/micro_kernels \
    --benchmark_filter='StepPruned|OcclusionGraphBuild/512|OcclusionCarry' \
    --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
    --benchmark_format=json > build/BENCH_micro.json
  # All three gates are same-run ratios of CPU times, each the median of 5
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
  # - Shared carry: the same scratch build over one carry after 1 agent
  #   moved at most 1.3 um, the deadlocked mega-room step, which changes
  #   no row, so the carry returns the previous graph. The filter's
  #   OcclusionCarry matches BM_OcclusionCarryUnchanged too. On the same
  #   VM, 10 runs read 179.5-316.2x, and 10 runs interleaved with them
  #   of a carry that rewrites unchanged rows instead of sharing them
  #   read 66.5-90.1x; the floor sits midway (docs/ticking.md).
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
         "BM_OcclusionGraphBuild/512", "BM_OcclusionCarry/1", 30.0),
        ("occlusion graph, N=512: scratch build / carry that changes no row",
         "BM_OcclusionGraphBuild/512", "BM_OcclusionCarryUnchanged",
         135.0)]:
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
  echo "---- world_sim (net baseline config: uniform plan, kill + ----"
  echo "---- repair) ----"
  ./build/bench/world_sim --shards=3 --rooms=12 "${UNIFORM_PLAN[@]}" \
    --clients=4 --requests=8000 --kill_at=2000 \
    --json=build/BENCH_net.json
  echo "---- world_sim (C10k baseline: 10k idle connections + ----"
  echo "---- pipelined bursts) ----"
  ./build/bench/world_sim --shards=2 --rooms=8 "${UNIFORM_PLAN[@]}" \
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
    --requests=4000 --slices=6 --kill_at=peak --coevolve --seed=1 \
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
  # 4000 requests put the peak kill at request 987, early enough that
  # the prober's repair lands under load (finished_at 1736-2068 in 10
  # runs on a 4-vCPU VM); at 1200 it finished only after the load.
  ./build/bench/world_sim --shards=3 --rooms=12 --clients=4 \
    --requests=4000 --slices=6 --kill_at=peak --storm_wave=8 --seed=1 \
    --json=build/BENCH_world_smoke.json
  # The plan (room sizes, diurnal slice totals, churned populations,
  # request schedule, events) is a function of the flags alone, so its
  # fingerprint for these flags is pinned, the way
  # WorldPlanTest.EventsChangeTheFingerprintOnlyWhenPresent pins the
  # seed-77 plan; a change to the generator must re-pin it here.
  python3 - build/BENCH_world_smoke.json <<'PY'
import json, sys
PINNED_FINGERPRINT = "ecf766a65d21e559"
path = sys.argv[1]
with open(path) as handle:
    data = json.load(handle)
for key in ("scenario_fingerprint", "requests", "lost", "errors",
            "primary_balance", "peak_p99_ms", "degraded_share",
            "storm_recovery_ms", "storm_errors", "events"):
    if key not in data:
        raise SystemExit(f"{path}: missing key {key!r}")
# The drill must land under load: a repair that finishes only once
# every request is answered never met client traffic.
kills = [e for e in data["events"] if e.get("kind") == "kill"]
if not kills:
    raise SystemExit(f"{path}: no kill event fired")
for event in kills:
    if event.get("finished_at", data["requests"]) >= data["requests"]:
        raise SystemExit(
            f"{path}: the kill's repair finished at answered "
            f"{event.get('finished_at')}, not below the "
            f"{data['requests']} requests: it landed after the load")
if data["scenario_fingerprint"] != PINNED_FINGERPRINT:
    raise SystemExit(
        "world-sim: the lane's flags produced scenario_fingerprint "
        f"{data['scenario_fingerprint']}, not the pinned "
        f"{PINNED_FINGERPRINT}")
print("world-sim lane OK: zero lost requests, balance within gate,",
      "repair under load, fingerprint", data["scenario_fingerprint"],
      "as pinned")
PY
}

run_coverage_lane() {
  cmake --preset coverage
  cmake --build --preset coverage -j "${JOBS}"
  # gcov counters accumulate across runs; zero them so the figure is
  # this suite's alone.
  find build-coverage -name '*.gcda' -delete
  ctest --test-dir build-coverage --output-on-failure -j "${JOBS}"
  python3 scripts/coverage.py --build build-coverage
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
    coverage) run_coverage_lane; return ;;
  esac
  # release / asan / ubsan / tsan: the preset of the same name, then
  # its ctest suite.
  cmake --preset "${lane}"
  cmake --build --preset "${lane}" -j "${JOBS}"
  local dir="build-${lane}"
  [ "${lane}" = release ] && dir=build
  if [ "${lane}" = tsan ]; then
    ctest --test-dir "${dir}" -R "${TSAN_FILTER}" \
      --output-on-failure -j "${JOBS}"
  else
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  fi
}

for lane in "${LANES[@]}"; do
  run_lane "${lane}"
done
echo "All lanes passed: ${LANES[*]}"
