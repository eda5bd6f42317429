// World-scale scenario driver: macro-load against the partitioned fleet
// with the traffic shapes the paper's XR setting actually has — a
// Zipf-skewed room-size distribution, a diurnal load curve over
// discrete time slices, a flash crowd that makes the smallest rooms
// suddenly hot, cross-room population churn, and (optionally) a
// kill-a-shard outage at the diurnal peak followed by a reconnect
// storm. Layered on the same in-process fleet as bench/net_throughput
// (bench/fleet_harness.h): real loopback sockets, partitioned
// ownership, replication standbys, optional durability.
//
// The whole request schedule is generated up front by the scenario
// library (bench/scenario.h) from --seed alone; its FNV-1a fingerprint
// is printed and written to the JSON, so two runs with the same flags
// are bit-identical at the plan level — that is the reproducibility
// gate CI enforces by running the smoke twice.
//
// --coevolve adds the recommendation–network co-evolution loop
// (PAPERS.md): every served recommendation is deterministically
// accepted or ignored; accepts add social edges, ignores decay them,
// and the evolved per-room graph biases which user each scheduled
// request is issued for (hubs attract traffic). Drift statistics are
// reported but deliberately kept OUT of the scenario fingerprint —
// they depend on live responses.
//
// Exit contract (CI gate): exit 2 if any request is lost, any
// unexpected error class appears, the room-size-weighted primary
// balance across healthy shards exceeds --balance_cap, or an armed
// reconnect storm never sees a fully clean wave. Exit 1 on setup
// errors.
//
// Flags: --shards=N --rooms=N --threads=N --clients=N --requests=N
//        --slices=N --zipf=F --diurnal_ratio=F
//        --max_room_users=N --min_room_users=N
//        --churn=F --flash_rooms=N --flash_boost=F
//        --replication=N (default 1) --durable_dir=PATH
//        --kill_at_peak (shutdown shard 0 entering the peak slice)
//        --storm_connections=N --storm_wave=N (reconnect storm after
//                                              the peak slice)
//        --coevolve --seed=N --deadline_ms=F --balance_cap=F
//        --port=N [--host=H] (drive an external front instead; balance
//                             gates are skipped — no router to inspect)
//        --json=PATH (BENCH_world.json-style summary)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/fleet_harness.h"
#include "bench/scenario.h"
#include "common/timer.h"
#include "data/dataset.h"
#include "serve/metrics.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/router.h"
#include "serve/server.h"

namespace after {
namespace {

/// Same accounting contract as bench/net_throughput: every scheduled
/// request ends up in exactly one bucket (a failed connect consumes the
/// request as kUnavailable), so `lost` is computable and gated at zero.
struct WorldTally {
  std::atomic<long long> ok{0};
  std::atomic<long long> degraded{0};
  std::atomic<long long> shed{0};
  std::atomic<long long> timeouts{0};
  std::atomic<long long> unavailable{0};
  std::atomic<long long> not_owner{0};
  std::atomic<long long> errors{0};
  std::atomic<long long> reconnects{0};
  serve::LatencyHistogram latency;

  long long accounted() const {
    return ok.load() + shed.load() + timeouts.load() + unavailable.load() +
           not_owner.load() + errors.load();
  }
};

void Record(WorldTally* tally, const Status& status, bool used_fallback,
            double rtt_ms, serve::LatencyHistogram* slice_latency) {
  tally->latency.RecordMs(rtt_ms);
  if (slice_latency != nullptr) slice_latency->RecordMs(rtt_ms);
  switch (status.code()) {
    case StatusCode::kOk:
      tally->ok.fetch_add(1, std::memory_order_relaxed);
      if (used_fallback)
        tally->degraded.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kResourceExhausted:
      tally->shed.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kTimeout:
      tally->timeouts.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kUnavailable:
      tally->unavailable.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kNotOwner:
      tally->not_owner.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      tally->errors.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

/// Per-room co-evolution state shared by the worker threads. Each room
/// has its own evolution + mutex, so rooms evolve independently and a
/// hot room never serialises traffic to the others.
struct CoevolveState {
  std::vector<std::unique_ptr<bench::SocialGraphEvolution>> rooms;
  std::vector<std::unique_ptr<std::mutex>> locks;
};

/// Issues one contiguous chunk of a slice's scheduled requests through
/// a persistent (reconnecting) client. Co-evolution, when enabled,
/// rewires the user on the way out and observes the recommendation on
/// the way back.
void WorkerChunk(const std::string& host, int port,
                 const bench::SliceRequest* requests, int count,
                 double deadline_ms,
                 std::unique_ptr<serve::NetClient>* client_slot,
                 CoevolveState* coevolve, WorldTally* tally,
                 serve::LatencyHistogram* slice_latency) {
  std::unique_ptr<serve::NetClient>& client = *client_slot;
  for (int i = 0; i < count; ++i) {
    if (client == nullptr || client->broken()) {
      auto connected = serve::NetClient::Connect(host, port);
      if (!connected.ok()) {
        Record(tally, connected.status(), false, 0.0, slice_latency);
        client.reset();
        // Backoff so an outage window sees reconnect attempts, not a
        // request budget burned in a refused-connection loop.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      client = std::move(connected).value();
      tally->reconnects.fetch_add(1, std::memory_order_relaxed);
    }
    serve::FriendRequest request;
    request.room = requests[i].room;
    request.user = requests[i].user;
    request.deadline_ms = deadline_ms;
    if (coevolve != nullptr) {
      std::lock_guard<std::mutex> lock(
          *coevolve->locks[static_cast<size_t>(request.room)]);
      request.user = coevolve->rooms[static_cast<size_t>(request.room)]
                         ->BiasUser(request.user);
    }
    WallTimer rtt;
    auto result = client->Call(request);
    if (result.ok()) {
      const serve::FriendResponse& response = result.value();
      Record(tally, response.status, response.used_fallback,
             rtt.ElapsedMs(), slice_latency);
      if (coevolve != nullptr && response.status.ok()) {
        int candidate = -1;
        for (size_t w = 0; w < response.recommended.size(); ++w) {
          if (response.recommended[w]) {
            candidate = static_cast<int>(w);
            break;
          }
        }
        if (candidate >= 0) {
          std::lock_guard<std::mutex> lock(
              *coevolve->locks[static_cast<size_t>(request.room)]);
          coevolve->rooms[static_cast<size_t>(request.room)]
              ->Observe(request.user, candidate);
        }
      }
    } else {
      Record(tally, result.status(), false, rtt.ElapsedMs(), slice_latency);
    }
  }
}

/// One reconnect-storm wave: `size` fresh connections held open
/// together (so the front really sees a wave-sized burst), each issuing
/// one request. Returns true when every connect succeeded and every
/// answer was OK — the fleet has fully absorbed the outage.
bool StormWave(const std::string& host, int port, int size,
               const std::vector<int>& room_sizes, size_t* cursor,
               double deadline_ms, WorldTally* storm) {
  std::vector<std::unique_ptr<serve::NetClient>> wave;
  wave.reserve(static_cast<size_t>(size));
  bool clean = true;
  for (int k = 0; k < size; ++k) {
    auto connected = serve::NetClient::Connect(host, port);
    if (!connected.ok()) {
      Record(storm, connected.status(), false, 0.0, nullptr);
      clean = false;
      continue;
    }
    wave.push_back(std::move(connected).value());
  }
  for (auto& client : wave) {
    const int room = static_cast<int>((*cursor)++ % room_sizes.size());
    serve::FriendRequest request;
    request.room = room;
    request.user = static_cast<int>(*cursor %
                                    static_cast<size_t>(
                                        room_sizes[static_cast<size_t>(room)]));
    request.deadline_ms = deadline_ms;
    WallTimer rtt;
    auto result = client->Call(request);
    if (result.ok()) {
      Record(storm, result.value().status, result.value().used_fallback,
             rtt.ElapsedMs(), nullptr);
      if (!result.value().status.ok()) clean = false;
    } else {
      Record(storm, result.status(), false, rtt.ElapsedMs(), nullptr);
      clean = false;
    }
  }
  return clean;
}

int Main(int argc, char** argv) {
  bench::WorldConfig world;
  std::string host = "127.0.0.1", json_path, durable_dir;
  int port = 0, shards = 3, threads = 2, clients = 4, replication = 1;
  int storm_connections = 0, storm_wave = 8;
  bool kill_at_peak = false, coevolve = false, shards_given = false;
  double deadline_ms = 1000.0, balance_cap = 2.5;
  for (int i = 1; i < argc; ++i) {
    int value = 0;
    double fvalue = 0.0;
    char buffer[256] = {};
    if (std::sscanf(argv[i], "--port=%d", &value) == 1) port = value;
    else if (std::sscanf(argv[i], "--shards=%d", &value) == 1) {
      shards = value;
      shards_given = true;
    }
    else if (std::sscanf(argv[i], "--rooms=%d", &value) == 1)
      world.rooms = value;
    else if (std::sscanf(argv[i], "--threads=%d", &value) == 1)
      threads = value;
    else if (std::sscanf(argv[i], "--clients=%d", &value) == 1)
      clients = value;
    else if (std::sscanf(argv[i], "--requests=%d", &value) == 1)
      world.total_requests = value;
    else if (std::sscanf(argv[i], "--slices=%d", &value) == 1)
      world.slices = value;
    else if (std::sscanf(argv[i], "--max_room_users=%d", &value) == 1)
      world.max_room_users = value;
    else if (std::sscanf(argv[i], "--min_room_users=%d", &value) == 1)
      world.min_room_users = value;
    else if (std::sscanf(argv[i], "--flash_rooms=%d", &value) == 1)
      world.flash_rooms = value;
    else if (std::sscanf(argv[i], "--replication=%d", &value) == 1)
      replication = value;
    else if (std::sscanf(argv[i], "--storm_connections=%d", &value) == 1)
      storm_connections = value;
    else if (std::sscanf(argv[i], "--storm_wave=%d", &value) == 1)
      storm_wave = value;
    else if (std::sscanf(argv[i], "--zipf=%lf", &fvalue) == 1)
      world.zipf_exponent = fvalue;
    else if (std::sscanf(argv[i], "--diurnal_ratio=%lf", &fvalue) == 1)
      world.diurnal_ratio = fvalue;
    else if (std::sscanf(argv[i], "--churn=%lf", &fvalue) == 1)
      world.churn_fraction = fvalue;
    else if (std::sscanf(argv[i], "--flash_boost=%lf", &fvalue) == 1)
      world.flash_boost = fvalue;
    else if (std::sscanf(argv[i], "--deadline_ms=%lf", &fvalue) == 1)
      deadline_ms = fvalue;
    else if (std::sscanf(argv[i], "--balance_cap=%lf", &fvalue) == 1)
      balance_cap = fvalue;
    else if (std::sscanf(argv[i], "--seed=%" SCNu64,
                         &world.seed) == 1) {}
    else if (std::strcmp(argv[i], "--kill_at_peak") == 0)
      kill_at_peak = true;
    else if (std::strcmp(argv[i], "--coevolve") == 0) coevolve = true;
    else if (std::sscanf(argv[i], "--durable_dir=%255s", buffer) == 1)
      durable_dir = buffer;
    else if (std::sscanf(argv[i], "--host=%255s", buffer) == 1)
      host = buffer;
    else if (std::sscanf(argv[i], "--json=%255s", buffer) == 1)
      json_path = buffer;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (port != 0 && shards_given) {
    std::fprintf(stderr, "--port and --shards are mutually exclusive\n");
    return 1;
  }
  const bool self_contained = port == 0;
  if (!self_contained && kill_at_peak) {
    std::fprintf(stderr, "--kill_at_peak needs the self-contained fleet\n");
    return 1;
  }
  if (world.rooms < 1 || world.slices < 1 || world.total_requests < 1 ||
      clients < 1 || storm_wave < 1) {
    std::fprintf(stderr, "rooms/slices/requests/clients/storm_wave must "
                         "be >= 1\n");
    return 1;
  }
  if (kill_at_peak && storm_connections == 0)
    storm_connections = 4 * storm_wave;

  const bench::WorldPlan plan = bench::BuildWorldPlan(world);
  std::printf("[world_sim] plan: %d rooms (sizes %d..%d, zipf %.2f), "
              "%d slices (peak %d, ratio %.1f), %d requests, "
              "fingerprint %016" PRIx64 "\n",
              world.rooms, plan.room_sizes.back(), plan.room_sizes.front(),
              world.zipf_exponent, world.slices, plan.peak_slice,
              world.diurnal_ratio, world.total_requests, plan.fingerprint);

  // One dataset per distinct room size, generated once and owned here
  // so mid-run room rebuilds (standby promotion, storms) can re-create
  // any room. std::map keeps node addresses stable across inserts.
  std::map<int, Dataset> datasets;
  std::unique_ptr<bench::LocalFleet> fleet;
  if (self_contained) {
    for (int size : plan.room_sizes) {
      if (datasets.count(size) != 0) continue;
      DatasetConfig config;
      config.num_users = size;
      config.num_steps = 2;
      config.num_sessions = 1;
      config.seed = 4242;
      datasets.emplace(size, GenerateTimikLike(config));
    }
    std::printf("[world_sim] starting fleet: %d shard(s), %d rooms, "
                "replication %d%s%s\n",
                shards, world.rooms, replication,
                durable_dir.empty() ? "" : ", durable",
                coevolve ? ", co-evolution on" : "");
    bench::FleetConfig fleet_config;
    fleet_config.shards = shards;
    fleet_config.rooms = world.rooms;
    fleet_config.threads = threads;
    fleet_config.replication = replication;
    fleet_config.durable_base = durable_dir;
    fleet_config.front_max_connections = clients * 2 + storm_wave + 64;
    const std::vector<int>* sizes = &plan.room_sizes;
    fleet = bench::StartLocalFleet(
        fleet_config,
        [&datasets, sizes](int r) -> Result<std::unique_ptr<serve::Room>> {
          if (r < 0 || r >= static_cast<int>(sizes->size()))
            return InvalidArgumentError("room id out of plan range");
          serve::Room::Options room_options;
          room_options.id = r;
          room_options.mode = serve::Room::Mode::kLive;
          room_options.seed = 900 + r;
          return serve::Room::Create(
              room_options,
              &datasets.at((*sizes)[static_cast<size_t>(r)]));
        });
    if (fleet == nullptr) return 1;
    host = fleet->router_net->host();
    port = fleet->router_net->port();
  }

  CoevolveState coevolve_state;
  if (coevolve) {
    for (size_t r = 0; r < plan.room_sizes.size(); ++r) {
      coevolve_state.rooms.push_back(
          std::make_unique<bench::SocialGraphEvolution>(
              plan.room_sizes[r], world.seed ^ (0xC0EFULL + r)));
      coevolve_state.locks.push_back(std::make_unique<std::mutex>());
    }
  }

  WorldTally tally;
  WorldTally storm_tally;
  serve::LatencyHistogram peak_latency;
  std::vector<std::unique_ptr<serve::NetClient>> client_pool(
      static_cast<size_t>(clients));
  WallTimer run_timer;
  double kill_elapsed_ms = -1.0;
  double storm_recovery_ms = -1.0;
  long long storm_waves_needed = 0;

  for (int t = 0; t < world.slices; ++t) {
    if (kill_at_peak && t == plan.peak_slice && fleet != nullptr) {
      std::printf("[world_sim] diurnal peak: killing shard 0\n");
      fleet->shard_nets[0]->Shutdown();
      kill_elapsed_ms = run_timer.ElapsedMs();
    }
    const std::vector<bench::SliceRequest>& slice =
        plan.schedule[static_cast<size_t>(t)];
    serve::LatencyHistogram* slice_latency =
        t == plan.peak_slice ? &peak_latency : nullptr;
    std::vector<std::thread> workers;
    const int chunk =
        (static_cast<int>(slice.size()) + clients - 1) / clients;
    for (int c = 0; c < clients; ++c) {
      const int begin = c * chunk;
      const int count = std::min<int>(chunk,
                                      static_cast<int>(slice.size()) - begin);
      if (count <= 0) break;
      workers.emplace_back(WorkerChunk, host, port, slice.data() + begin,
                           count, deadline_ms,
                           &client_pool[static_cast<size_t>(c)],
                           coevolve ? &coevolve_state : nullptr, &tally,
                           slice_latency);
    }
    for (auto& worker : workers) worker.join();

    // Reconnect storm right after the outage's peak slice: waves of
    // fresh connections (each wave <= --storm_wave, so the front's
    // connection budget is never exceeded) until one wave is fully
    // clean — that marks recovery.
    if (t == plan.peak_slice && storm_connections > 0) {
      std::printf("[world_sim] reconnect storm: %d connection(s) in waves "
                  "of <= %d\n", storm_connections, storm_wave);
      size_t cursor = 0;
      const std::vector<int> waves =
          bench::ReconnectStormWaves(storm_connections, storm_wave);
      bool recovered = false;
      for (int wave : waves) {
        ++storm_waves_needed;
        const bool clean = StormWave(host, port, wave, plan.room_sizes,
                                     &cursor, deadline_ms, &storm_tally);
        if (clean && !recovered) {
          recovered = true;
          storm_recovery_ms =
              run_timer.ElapsedMs() -
              (kill_elapsed_ms >= 0.0 ? kill_elapsed_ms
                                      : run_timer.ElapsedMs());
          if (kill_elapsed_ms < 0.0) storm_recovery_ms = 0.0;
        }
      }
      // The budgeted waves all ran while the fleet was still repairing:
      // keep probing with extra waves (bounded) until one is clean, so
      // recovery time measures the fleet, not the storm budget.
      WallTimer extra;
      while (!recovered && extra.ElapsedMs() < 15000.0) {
        ++storm_waves_needed;
        if (StormWave(host, port, storm_wave, plan.room_sizes, &cursor,
                      deadline_ms, &storm_tally)) {
          recovered = true;
          storm_recovery_ms = run_timer.ElapsedMs() - kill_elapsed_ms;
        }
      }
      if (recovered && storm_recovery_ms < 0.0)
        storm_recovery_ms = 0.0;
      if (!recovered)
        std::fprintf(stderr, "[world_sim] storm never saw a clean wave\n");
    }
  }
  const double elapsed_s = run_timer.ElapsedSeconds();

  const long long total = world.total_requests;
  const long long accounted = tally.accounted();
  const long long lost = total - accounted;
  const double qps = elapsed_s > 0.0 ? tally.ok.load() / elapsed_s : 0.0;
  const double p50 = tally.latency.PercentileMs(0.50);
  const double p95 = tally.latency.PercentileMs(0.95);
  const double p99 = tally.latency.PercentileMs(0.99);
  const double peak_p99 = peak_latency.PercentileMs(0.99);
  const double degraded_share =
      tally.ok.load() > 0
          ? static_cast<double>(tally.degraded.load()) / tally.ok.load()
          : 0.0;

  std::printf(
      "requests clients    ok   dgr  shed   t/o unavail notown  errs  lost"
      "   p50ms   p95ms   p99ms  pk99ms    req/s\n"
      "%8lld %7d %5lld %5lld %5lld %5lld %7lld %6lld %5lld %5lld %7.2f "
      "%7.2f %7.2f %7.2f %8.1f\n",
      total, clients, tally.ok.load(), tally.degraded.load(),
      tally.shed.load(), tally.timeouts.load(), tally.unavailable.load(),
      tally.not_owner.load(), tally.errors.load(), lost, p50, p95, p99,
      peak_p99, qps);
  if (storm_connections > 0)
    std::printf("storm: %lld request(s) over %lld wave(s), ok=%lld "
                "unavail=%lld errs=%lld, recovery %.1f ms\n",
                storm_tally.accounted(), storm_waves_needed,
                storm_tally.ok.load(), storm_tally.unavailable.load(),
                storm_tally.errors.load(), storm_recovery_ms);

  // Skew post-mortem: weighted primary balance (deterministic given the
  // seed: Zipf sizes + hash assignment + repair promotion) is the gate;
  // the measured per-room histogram is observability.
  double primary_balance = 0.0;
  double request_balance = 0.0;
  if (fleet != nullptr) {
    const auto snapshot = fleet->router->AssignmentSnapshot();
    const int num_backends = fleet->router->num_backends();
    std::vector<double> weighted(static_cast<size_t>(num_backends), 0.0);
    std::vector<int> primaries(static_cast<size_t>(num_backends), 0);
    for (const auto& entry : snapshot) {
      if (entry.second.copies.empty()) continue;
      const int primary = entry.second.copies[0];
      if (primary < 0 || primary >= num_backends) continue;
      ++primaries[static_cast<size_t>(primary)];
      if (entry.first >= 0 &&
          entry.first < static_cast<int>(plan.room_sizes.size()))
        weighted[static_cast<size_t>(primary)] +=
            plan.room_sizes[static_cast<size_t>(entry.first)];
    }
    double weighted_sum = 0.0, weighted_max = 0.0;
    double requests_sum = 0.0, requests_max = 0.0;
    int healthy = 0;
    for (int b = 0; b < num_backends; ++b) {
      const bool alive = fleet->router->backend_healthy(b);
      const double shard_requests = static_cast<double>(
          fleet->shards[static_cast<size_t>(b)]
              ->metrics().room_requests.Total());
      std::printf("  shard %d: %d primaries, weighted load %.0f, "
                  "%.0f request(s)%s\n",
                  b, primaries[static_cast<size_t>(b)],
                  weighted[static_cast<size_t>(b)], shard_requests,
                  alive ? "" : "  [dead]");
      if (!alive) continue;
      ++healthy;
      weighted_sum += weighted[static_cast<size_t>(b)];
      weighted_max =
          std::max(weighted_max, weighted[static_cast<size_t>(b)]);
      requests_sum += shard_requests;
      requests_max = std::max(requests_max, shard_requests);
    }
    if (healthy > 0 && weighted_sum > 0.0)
      primary_balance = weighted_max / (weighted_sum / healthy);
    if (healthy > 0 && requests_sum > 0.0)
      request_balance = requests_max / (requests_sum / healthy);
    std::printf("balance: weighted primary %.2f (cap %.2f), measured "
                "request %.2f over %d healthy shard(s)\n",
                primary_balance, balance_cap, request_balance, healthy);

    // Per-room histogram from the new serve-side counters: did the
    // offered Zipf skew actually reach the rooms?
    std::unordered_map<int, long long> per_room;
    for (const auto& shard : fleet->shards)
      for (const auto& entry : shard->metrics().room_requests.Snapshot())
        per_room[entry.first] += entry.second;
    std::vector<std::pair<int, long long>> hot(per_room.begin(),
                                               per_room.end());
    std::stable_sort(hot.begin(), hot.end(), [](const auto& a,
                                                const auto& b) {
      return a.second > b.second;
    });
    std::printf("hottest rooms:");
    for (size_t k = 0; k < hot.size() && k < 5; ++k)
      std::printf(" r%d=%lld(sz %d)", hot[k].first, hot[k].second,
                  plan.room_sizes[static_cast<size_t>(hot[k].first)]);
    std::printf("\n");
  }

  double drift_l1 = 0.0;
  long long accepts = 0, ignores = 0;
  uint64_t graph_fingerprint = 0;
  if (coevolve) {
    bench::Fnv1a hasher;
    for (const auto& evolution : coevolve_state.rooms) {
      drift_l1 += evolution->DriftL1();
      accepts += evolution->accepts();
      ignores += evolution->ignores();
      hasher.Mix(evolution->Fingerprint());
    }
    graph_fingerprint = hasher.digest();
    std::printf("co-evolution: %lld accept(s), %lld ignore(s), drift L1 "
                "%.1f, graph fingerprint %016" PRIx64 "\n",
                accepts, ignores, drift_l1, graph_fingerprint);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    char fingerprint_hex[32], graph_hex[32];
    std::snprintf(fingerprint_hex, sizeof(fingerprint_hex), "%016" PRIx64,
                  plan.fingerprint);
    std::snprintf(graph_hex, sizeof(graph_hex), "%016" PRIx64,
                  graph_fingerprint);
    out << "{\n"
        << "  \"bench\": \"world_sim\",\n"
        << "  \"seed\": " << world.seed << ",\n"
        << "  \"rooms\": " << world.rooms << ",\n"
        << "  \"shards\": " << (self_contained ? shards : 0) << ",\n"
        << "  \"slices\": " << world.slices << ",\n"
        << "  \"zipf_exponent\": " << world.zipf_exponent << ",\n"
        << "  \"diurnal_ratio\": " << world.diurnal_ratio << ",\n"
        << "  \"coevolve\": " << (coevolve ? "true" : "false") << ",\n"
        << "  \"kill_at_peak\": " << (kill_at_peak ? "true" : "false")
        << ",\n"
        << "  \"scenario_fingerprint\": \"" << fingerprint_hex << "\",\n"
        << "  \"requests\": " << total << ",\n"
        << "  \"ok\": " << tally.ok.load() << ",\n"
        << "  \"degraded\": " << tally.degraded.load() << ",\n"
        << "  \"shed\": " << tally.shed.load() << ",\n"
        << "  \"timeouts\": " << tally.timeouts.load() << ",\n"
        << "  \"unavailable\": " << tally.unavailable.load() << ",\n"
        << "  \"not_owner\": " << tally.not_owner.load() << ",\n"
        << "  \"errors\": " << tally.errors.load() << ",\n"
        << "  \"lost\": " << lost << ",\n"
        << "  \"qps\": " << qps << ",\n"
        << "  \"p50_ms\": " << p50 << ",\n"
        << "  \"p95_ms\": " << p95 << ",\n"
        << "  \"p99_ms\": " << p99 << ",\n"
        << "  \"peak_p99_ms\": " << peak_p99 << ",\n"
        << "  \"degraded_share\": " << degraded_share << ",\n"
        << "  \"primary_balance\": " << primary_balance << ",\n"
        << "  \"request_balance\": " << request_balance << ",\n"
        << "  \"storm_connections\": " << storm_connections << ",\n"
        << "  \"storm_ok\": " << storm_tally.ok.load() << ",\n"
        << "  \"storm_errors\": " << storm_tally.errors.load() << ",\n"
        << "  \"storm_recovery_ms\": " << storm_recovery_ms << ",\n"
        << "  \"coevolve_accepts\": " << accepts << ",\n"
        << "  \"coevolve_ignores\": " << ignores << ",\n"
        << "  \"coevolve_drift_l1\": " << drift_l1 << ",\n"
        << "  \"graph_fingerprint\": \"" << graph_hex << "\",\n"
        << "  \"elapsed_s\": " << elapsed_s << "\n"
        << "}\n";
    std::printf("[world_sim] wrote %s\n", json_path.c_str());
  }

  // CI contract (docs/world_sim.md): full accounting, no unexpected
  // error classes, skew-weighted balance within the cap, and an armed
  // storm must have recovered.
  if (lost != 0) {
    std::fprintf(stderr, "FAIL: %lld request(s) unaccounted\n", lost);
    return 2;
  }
  if (tally.errors.load() != 0 || storm_tally.errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %lld unexpected error status(es)\n",
                 tally.errors.load() + storm_tally.errors.load());
    return 2;
  }
  if (fleet != nullptr && primary_balance > balance_cap) {
    std::fprintf(stderr,
                 "FAIL: weighted primary balance %.2f exceeds cap %.2f\n",
                 primary_balance, balance_cap);
    return 2;
  }
  if (storm_connections > 0 && storm_recovery_ms < 0.0) {
    std::fprintf(stderr, "FAIL: reconnect storm never recovered\n");
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace after

int main(int argc, char** argv) { return after::Main(argc, argv); }
