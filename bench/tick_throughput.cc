// Tick-throughput benchmark for the delta-snapshot tick path
// (docs/ticking.md): measures how many Room::Tick() + hot-target
// occlusion rounds per second a live room sustains with delta
// snapshots on vs the from-scratch baseline, at a configurable room
// size and moved-fraction. Each measured tick advances the partial-
// motion crowd one step and then touches `--hot` target occlusion
// graphs, modeling the request traffic that keeps a hot set of targets
// materialized every tick. After every measured tick (untimed), each
// hot target's graph is checked against a from-scratch rebuild. Each
// variant's row reports, per measured delta tick, the agents moved, the
// hot targets carried, and the carries that shared their predecessor's
// graph because no row changed. The delta/scratch speedup at 512 users
// with 5% movers is the headline number the bench-regression CI lane
// gates at >=2.5x (bench/baselines/BENCH_tick.json).
//
// Usage:
//   tick_throughput                               # default config
//   tick_throughput --sweep                       # users x moved table
//   tick_throughput --users=512 --hot=64 --move_fraction=0.1
//       --min_speedup=2.5 --json=build/BENCH_tick.json
//   tick_throughput --stale_cache_drill --users=96
//
// Flags: --users=N          room population (default 512)
//        --hot=N            targets touched per tick (default 64)
//        --move_fraction=F  walking share of the room (default 0.1)
//        --ticks=N          measured ticks per variant (default 40)
//        --warmup=N         untimed leading ticks (default 8)
//        --max_candidates=N also maintain the temporal index and spot-
//                           check its prune masks (0 = off)
//        --min_speedup=F    exit 2 unless delta/scratch >= F
//        --json=PATH        write a BENCH_tick.json-style summary for
//                           scripts/bench_compare.py
//        --sweep            ticks/sec table over room size x moved
//        --stale_cache_drill  kill-and-recover drill: verify recovered
//                           rooms REBUILD occlusion caches (scratch
//                           snapshot, bit-exact) instead of reusing
//                           pre-crash delta state, then resume deltas
//        --durable_dir=PATH drill scratch directory
//                           (default /tmp/tick_stale_cache_drill)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "graph/occlusion_converter.h"
#include "serve/checkpoint.h"
#include "serve/room.h"

namespace after {
namespace {

struct BenchConfig {
  int users = 512;
  int hot = 64;
  double move_fraction = 0.1;
  int ticks = 40;
  int warmup = 8;
  int max_candidates = 0;
};

struct TickStats {
  double ticks_per_sec = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  long long delta_ticks = 0, scratch_ticks = 0;
  /// Per measured delta tick: agents moved, hot targets carried, and
  /// carries that shared the predecessor's graph because no row changed.
  double avg_moved = 0.0, avg_carried = 0.0, avg_shared = 0.0;
  /// Bit-exactness violations found by the per-tick verification pass
  /// (delta-built occlusion graph != from-scratch rebuild) plus any
  /// prune-mask size violations. Must be 0.
  long long errors = 0;
};

serve::Room::Options MakeRoomOptions(const BenchConfig& config, bool delta) {
  serve::Room::Options options;
  options.id = 0;
  options.mode = serve::Room::Mode::kLive;
  options.seed = 1234;
  options.move_fraction = config.move_fraction;
  options.delta_snapshots = delta;
  options.temporal_index = config.max_candidates > 0;
  return options;
}

/// Spread the hot targets across the index range so delta updates see
/// representative geometry rather than one corner of the room.
std::vector<int> HotTargets(int users, int hot) {
  std::vector<int> targets;
  const int count = std::min(users, std::max(1, hot));
  targets.reserve(count);
  for (int i = 0; i < count; ++i)
    targets.push_back(static_cast<int>(
        (static_cast<long long>(i) * users) / count));
  return targets;
}

TickStats RunVariant(const Dataset& dataset, const BenchConfig& config,
                     bool delta) {
  auto created = serve::Room::Create(MakeRoomOptions(config, delta), &dataset);
  if (!created.ok()) {
    std::fprintf(stderr, "room: %s\n", created.status().ToString().c_str());
    TickStats bad;
    bad.errors = 1;
    return bad;
  }
  std::unique_ptr<serve::Room> room = std::move(created).value();
  const std::vector<int> hot = HotTargets(config.users, config.hot);

  const auto run_tick = [&room, &hot] {
    (void)room->Tick();
    const std::shared_ptr<const serve::RoomSnapshot> snapshot =
        room->snapshot();
    for (int target : hot) (void)snapshot->OcclusionFor(target);
    return snapshot;
  };

  // Every hot target's published graph must be bitwise identical to a
  // from-scratch rebuild, delta path or not. Run after every measured
  // tick: a carry error on a target that moves later is rebuilt away,
  // so a check of the final snapshot alone would miss it.
  const auto verify = [&config, &hot](const serve::RoomSnapshot& snapshot) {
    long long errors = 0;
    for (int target : hot) {
      const OcclusionGraph rebuilt = BuildOcclusionGraph(
          snapshot.positions(), target, snapshot.body_radius());
      if (snapshot.OcclusionFor(target) != rebuilt) ++errors;
      if (config.max_candidates > 0) {
        std::vector<bool> mask;
        if (snapshot.PruneCandidates(target, config.max_candidates, &mask)) {
          long long kept = 0;
          for (int u = 0; u < static_cast<int>(mask.size()); ++u)
            if (u != target && !mask[u]) ++kept;
          if (kept != config.max_candidates) ++errors;
        }
      }
    }
    return errors;
  };

  for (int i = 0; i < config.warmup; ++i) (void)run_tick();

  TickStats stats;
  std::vector<double> tick_ms;
  tick_ms.reserve(config.ticks);
  long long measured_delta = 0, moved_total = 0, carried_total = 0,
            shared_total = 0;
  double ticking_s = 0.0;
  for (int i = 0; i < config.ticks; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::shared_ptr<const serve::RoomSnapshot> snapshot = run_tick();
    const auto t1 = std::chrono::steady_clock::now();
    ticking_s += std::chrono::duration<double>(t1 - t0).count();
    tick_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (snapshot->built_by_delta()) {
      ++measured_delta;
      moved_total += snapshot->num_moved();
      carried_total += snapshot->delta_carried();
      shared_total += snapshot->delta_shared();
    }
    stats.errors += verify(*snapshot);  // untimed
  }

  stats.ticks_per_sec = ticking_s > 0.0 ? config.ticks / ticking_s : 0.0;
  std::sort(tick_ms.begin(), tick_ms.end());
  if (!tick_ms.empty()) {
    stats.p50_ms = tick_ms[tick_ms.size() / 2];
    stats.p95_ms = tick_ms[static_cast<size_t>(
        std::min<double>(tick_ms.size() - 1.0, tick_ms.size() * 0.95))];
    stats.p99_ms = tick_ms[static_cast<size_t>(
        std::min<double>(tick_ms.size() - 1.0, tick_ms.size() * 0.99))];
  }
  stats.delta_ticks = static_cast<long long>(room->delta_ticks());
  stats.scratch_ticks = static_cast<long long>(room->scratch_ticks());
  if (measured_delta > 0) {
    stats.avg_moved = static_cast<double>(moved_total) / measured_delta;
    stats.avg_carried = static_cast<double>(carried_total) / measured_delta;
    stats.avg_shared = static_cast<double>(shared_total) / measured_delta;
  }
  return stats;
}

/// Stale-cache drill (the nightly chaos matrix entry): tick a durable
/// delta-snapshot room, "kill the shard" by dropping room + durability
/// manager with no graceful shutdown, recover from the journal's state
/// record and tick tail, and verify the recovered room REBUILDS its occlusion
/// caches — scratch snapshot, bit-exact against a from-scratch build —
/// instead of reusing any pre-crash delta state, then resumes delta
/// ticking on its next own tick.
int RunStaleCacheDrill(const Dataset& dataset, const BenchConfig& config,
                       const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  BenchConfig drill = config;
  serve::Room::Options room_options = MakeRoomOptions(drill, /*delta=*/true);
  serve::TickFrame donor_frame;
  long long donor_delta_ticks = 0;
  {
    auto created = serve::Room::Create(room_options, &dataset);
    if (!created.ok()) {
      std::fprintf(stderr, "drill room: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<serve::Room> room = std::move(created).value();
    serve::DurabilityManager::Options dopt;
    dopt.dir = dir;
    auto opened = serve::DurabilityManager::Open(dopt);
    if (!opened.ok()) {
      std::fprintf(stderr, "drill durability: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<serve::DurabilityManager> durability =
        std::move(opened).value();
    Status status =
        durability->RecordState(*room, /*epoch=*/1, /*primary=*/true);
    for (int i = 0; status.ok() && i < 12; ++i) {
      status = room->Tick();
      if (status.ok()) status = durability->RecordTick(*room);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "drill ticking: %s\n", status.ToString().c_str());
      return 1;
    }
    donor_frame = room->CurrentTickFrame();
    donor_delta_ticks = static_cast<long long>(room->delta_ticks());
    // Scope exit = the kill: no checkpoint, no graceful release; the
    // journal tail is all the recovery gets past the initial state.
  }
  if (donor_delta_ticks <= 0) {
    std::fprintf(stderr,
                 "drill: donor never delta-ticked; nothing to go stale\n");
    return 1;
  }

  serve::DurabilityManager::Options dopt;
  dopt.dir = dir;
  auto reopened = serve::DurabilityManager::Open(dopt);
  if (!reopened.ok()) {
    std::fprintf(stderr, "drill reopen: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  auto plan = std::move(reopened).value()->LoadRecoveryPlan();
  if (!plan.ok()) {
    std::fprintf(stderr, "drill plan: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  const serve::DurabilityManager::RecoveryEntry* entry = nullptr;
  for (const auto& candidate : plan.value().entries)
    if (candidate.room == room_options.id) entry = &candidate;
  if (entry == nullptr || !entry->base.has_value()) {
    std::fprintf(stderr, "drill: no recovery entry for the room\n");
    return 1;
  }

  auto recreated = serve::Room::Create(room_options, &dataset);
  if (!recreated.ok()) {
    std::fprintf(stderr, "drill recovery room: %s\n",
                 recreated.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::Room> recovered = std::move(recreated).value();
  // The replay loop of ShardControl::RecoverFromDurable, its tick skip
  // included.
  Status status = recovered->Restore(*entry->base);
  for (const serve::TickFrame& frame : entry->ticks) {
    if (!status.ok()) break;
    if (frame.tick <= recovered->tick()) continue;
    status = recovered->Restore(frame);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "drill replay: %s\n", status.ToString().c_str());
    return 1;
  }

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  const std::shared_ptr<const serve::RoomSnapshot> snapshot =
      recovered->snapshot();
  check(recovered->tick() == donor_frame.tick,
        "recovered room reaches the donor's last journaled tick");
  bool positions_exact =
      snapshot->positions().size() == donor_frame.positions.size();
  for (size_t u = 0; positions_exact && u < donor_frame.positions.size(); ++u)
    positions_exact = snapshot->positions()[u].x == donor_frame.positions[u].x
                      && snapshot->positions()[u].y ==
                             donor_frame.positions[u].y;
  check(positions_exact, "recovered positions are bit-exact");
  check(!snapshot->built_by_delta(),
        "recovered snapshot is a from-scratch rebuild (no stale cache "
        "reuse)");
  bool occlusion_exact = true;
  for (int target : HotTargets(recovered->num_users(), 16)) {
    const OcclusionGraph rebuilt = BuildOcclusionGraph(
        snapshot->positions(), target, snapshot->body_radius());
    if (snapshot->OcclusionFor(target) != rebuilt) occlusion_exact = false;
  }
  check(occlusion_exact,
        "recovered occlusion graphs match from-scratch rebuilds");
  status = recovered->Tick();
  check(status.ok() && recovered->snapshot()->built_by_delta(),
        "delta ticking resumes on the first post-recovery tick");

  std::printf("[tick_throughput] stale-cache drill: %s (%d failures)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 2;
}

void PrintRow(const char* label, const BenchConfig& config,
              const TickStats& stats) {
  std::printf(
      "%-8s %5d %4d %6.2f %9.1f %8.3f %8.3f %6lld %7lld %9.1f %7.1f "
      "%6.1f %6lld\n",
      label, config.users, config.hot, config.move_fraction,
      stats.ticks_per_sec, stats.p50_ms, stats.p99_ms, stats.delta_ticks,
      stats.scratch_ticks, stats.avg_moved, stats.avg_carried,
      stats.avg_shared, stats.errors);
}

void PrintHeader() {
  std::printf(
      "variant  users  hot  moved   ticks/s   p50 ms   p99 ms  delta "
      "scratch  avg_mvd carried shared errors\n");
}

int Main(int argc, char** argv) {
  BenchConfig config;
  double min_speedup = 0.0;
  std::string json_path;
  std::string durable_dir = "/tmp/tick_stale_cache_drill";
  bool sweep = false, stale_cache_drill = false;
  for (int i = 1; i < argc; ++i) {
    int value = 0;
    double fvalue = 0.0;
    char buffer[256] = {};
    if (std::sscanf(argv[i], "--users=%d", &value) == 1) config.users = value;
    else if (std::sscanf(argv[i], "--hot=%d", &value) == 1) config.hot = value;
    else if (std::sscanf(argv[i], "--move_fraction=%lf", &fvalue) == 1)
      config.move_fraction = fvalue;
    else if (std::sscanf(argv[i], "--ticks=%d", &value) == 1)
      config.ticks = value;
    else if (std::sscanf(argv[i], "--warmup=%d", &value) == 1)
      config.warmup = value;
    else if (std::sscanf(argv[i], "--max_candidates=%d", &value) == 1)
      config.max_candidates = value;
    else if (std::sscanf(argv[i], "--min_speedup=%lf", &fvalue) == 1)
      min_speedup = fvalue;
    else if (std::sscanf(argv[i], "--json=%255s", buffer) == 1)
      json_path = buffer;
    else if (std::sscanf(argv[i], "--durable_dir=%255s", buffer) == 1)
      durable_dir = buffer;
    else if (std::strcmp(argv[i], "--sweep") == 0)
      sweep = true;
    else if (std::strcmp(argv[i], "--stale_cache_drill") == 0)
      stale_cache_drill = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  DatasetConfig dataset_config;
  dataset_config.num_users = config.users;
  dataset_config.num_steps = 2;  // live rooms only consume the first frame
  dataset_config.num_sessions = 1;
  dataset_config.seed = 4242;
  std::printf("[tick_throughput] generating %d-user dataset...\n",
              config.users);
  const Dataset dataset = GenerateTimikLike(dataset_config);

  if (stale_cache_drill)
    return RunStaleCacheDrill(dataset, config, durable_dir);

  if (sweep) {
    PrintHeader();
    for (int users : {128, 256, 512}) {
      for (double moved : {0.05, 0.2, 0.5}) {
        BenchConfig point = config;
        point.users = users;
        point.move_fraction = moved;
        DatasetConfig dc = dataset_config;
        dc.num_users = users;
        const Dataset swept = GenerateTimikLike(dc);
        PrintRow("scratch", point, RunVariant(swept, point, /*delta=*/false));
        PrintRow("delta", point, RunVariant(swept, point, /*delta=*/true));
      }
    }
    return 0;
  }

  std::printf("[tick_throughput] measuring from-scratch baseline...\n");
  const TickStats scratch = RunVariant(dataset, config, /*delta=*/false);
  std::printf("[tick_throughput] measuring delta ticks...\n");
  const TickStats delta = RunVariant(dataset, config, /*delta=*/true);
  PrintHeader();
  PrintRow("scratch", config, scratch);
  PrintRow("delta", config, delta);

  const double speedup = scratch.ticks_per_sec > 0.0
                             ? delta.ticks_per_sec / scratch.ticks_per_sec
                             : 0.0;
  const long long errors = scratch.errors + delta.errors;
  std::printf(
      "verdict: %.1f -> %.1f ticks/s (speedup %.2fx) at %d users, "
      "%.0f%% moving, %d hot targets, %lld errors\n",
      scratch.ticks_per_sec, delta.ticks_per_sec, speedup, config.users,
      100.0 * config.move_fraction, config.hot, errors);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"tick_throughput\",\n"
        << "  \"users\": " << config.users << ",\n"
        << "  \"hot\": " << config.hot << ",\n"
        << "  \"move_fraction\": " << config.move_fraction << ",\n"
        << "  \"ticks\": " << config.ticks << ",\n"
        << "  \"ok\": " << config.ticks << ",\n"
        << "  \"qps\": " << delta.ticks_per_sec << ",\n"
        << "  \"scratch_ticks_per_sec\": " << scratch.ticks_per_sec << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"p50_ms\": " << delta.p50_ms << ",\n"
        << "  \"p95_ms\": " << delta.p95_ms << ",\n"
        << "  \"p99_ms\": " << delta.p99_ms << ",\n"
        << "  \"avg_moved\": " << delta.avg_moved << ",\n"
        << "  \"avg_carried\": " << delta.avg_carried << ",\n"
        << "  \"avg_shared\": " << delta.avg_shared << ",\n"
        << "  \"delta_ticks\": " << delta.delta_ticks << ",\n"
        << "  \"lost\": 0,\n"
        << "  \"errors\": " << errors << "\n"
        << "}\n";
    std::printf("[tick_throughput] wrote %s\n", json_path.c_str());
  }

  if (errors > 0) return 2;
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: speedup %.2fx below the --min_speedup=%.2f gate\n",
                 speedup, min_speedup);
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace after

int main(int argc, char** argv) { return after::Main(argc, argv); }
