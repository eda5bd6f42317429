// Closed-loop load generator for the online serving runtime
// (src/serve/): shards N live rooms across a worker pool and drives
// them with concurrent closed-loop clients (each client issues its next
// FriendRequest as soon as the previous one completes, so the client
// count is the offered-load knob). Prints a throughput/latency table —
// the repo's first serving benchmark.
//
// Usage:
//   serve_throughput                       # sweep rooms x threads
//   serve_throughput --rooms=8 --threads=8 # one config + a 1-thread
//                                          # capacity baseline
//   serve_throughput --weights=w.after --batch   # trained + in-tick
//                                          # batching (defaults 1x1)
// Flags: --rooms=N --threads=N --clients=N (default 2x threads)
//        --users=N (room population, default 60)
//        --requests=N (total per config, default 600)
//        --deadline_ms=F (default 1000; <0 disables)
//        --weights=PATH (serve a trained, frozen POSHGNN loaded from a
//                        model artifact — see tools/train_poshgnn and
//                        docs/model_artifacts.md — instead of the
//                        untrained seed-42 one perfbench serves; either
//                        way one frozen primary is shared lock-free by
//                        all workers)
//        --batch        (in-tick request batching: coalesce each room's
//                        queued requests into one inference job per
//                        snapshot; see docs/serving.md)
//        --json=PATH    (single-config mode only: write the target
//                        config's stats as a BENCH_serve.json-style
//                        summary for scripts/bench_compare.py)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/poshgnn.h"
#include "data/dataset.h"
#include "nn/artifact.h"
#include "serve/server.h"

namespace after {
namespace {

struct RunStats {
  double throughput = 0.0;  // OK responses per second
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  long long ok = 0, shed = 0, timeouts = 0, fallbacks = 0;
  long long batches = 0, coalesced = 0;
  int max_depth = 0;
};

struct PrimarySpec {
  /// Non-null when serving trained weights: each server's factory call
  /// builds its frozen primary from this artifact.
  const ModelArtifact* artifact = nullptr;
  bool batch = false;
};

RunStats RunConfig(const Dataset& dataset, const PrimarySpec& primary,
                   int num_rooms, int threads, int clients,
                   int total_requests, double deadline_ms) {
  std::vector<std::unique_ptr<serve::Room>> rooms;
  for (int r = 0; r < num_rooms; ++r) {
    serve::Room::Options room_options;
    room_options.id = r;
    room_options.mode = serve::Room::Mode::kLive;
    room_options.seed = 900 + r;
    auto created = serve::Room::Create(room_options, &dataset);
    if (!created.ok()) {
      std::fprintf(stderr, "room %d: %s\n", r,
                   created.status().ToString().c_str());
      return RunStats{};
    }
    rooms.push_back(std::move(created).value());
  }
  const int n = rooms.front()->num_users();

  serve::ServerOptions server_options;
  server_options.num_threads = threads;
  // Closed-loop: in-flight requests never exceed the client count, so
  // this capacity guarantees the generator itself never sheds.
  server_options.queue_capacity = std::max(1024, clients * 4);
  server_options.default_deadline_ms = deadline_ms;
  server_options.batch_requests = primary.batch;
  serve::RecommenderFactory factory;
  if (primary.artifact != nullptr) {
    const ModelArtifact* artifact = primary.artifact;
    factory = [artifact]() -> std::unique_ptr<Recommender> {
      auto frozen = FrozenPoshgnn::FromArtifact(*artifact);
      if (!frozen.ok()) {
        std::fprintf(stderr, "frozen model: %s\n",
                     frozen.status().ToString().c_str());
        return nullptr;
      }
      return std::move(frozen).value();
    };
  } else {
    // The untrained seed-42 model perfbench serves.
    PoshgnnConfig model_config;
    model_config.seed = 42;
    auto source = std::make_shared<Poshgnn>(model_config);
    factory = [source] { return std::make_unique<FrozenPoshgnn>(*source); };
  }
  serve::RecommendationServer server(std::move(rooms), std::move(factory),
                                     server_options);

  // Background ticker: advances every room's crowd simulation while the
  // clients hammer the request path.
  std::atomic<bool> stop{false};
  std::thread ticker([&server, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      server.TickAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const int per_client = std::max(1, total_requests / std::max(1, clients));
  WallTimer timer;
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&server, c, per_client, num_rooms, n] {
      Rng rng(77 + 13 * c);
      for (int i = 0; i < per_client; ++i) {
        serve::FriendRequest request;
        request.room = rng.UniformInt(num_rooms);
        request.user = rng.UniformInt(n);
        server.Handle(request);
      }
    });
  }
  for (auto& thread : client_threads) thread.join();
  const double elapsed_s = timer.ElapsedSeconds();
  stop.store(true);
  ticker.join();
  server.Shutdown();

  const serve::ServerMetrics& m = server.metrics();
  RunStats stats;
  stats.ok = m.responses_ok.load();
  stats.shed = m.shed.load();
  stats.timeouts = m.timeouts.load();
  stats.fallbacks = m.total_fallbacks();
  stats.p50 = m.latency.PercentileMs(0.50);
  stats.p95 = m.latency.PercentileMs(0.95);
  stats.p99 = m.latency.PercentileMs(0.99);
  stats.batches = m.batches.load();
  stats.coalesced = m.coalesced.load();
  stats.max_depth = m.max_queue_depth.load();
  stats.throughput = elapsed_s > 0.0 ? stats.ok / elapsed_s : 0.0;
  return stats;
}

void PrintHeader() {
  std::printf(
      "rooms threads clients    ok  shed  t/o    fb   p50ms   p95ms   p99ms"
      "  maxQ    req/s\n");
}

void PrintRow(int rooms, int threads, int clients, const RunStats& s) {
  std::printf(
      "%5d %7d %7d %5lld %5lld %4lld %5lld %7.2f %7.2f %7.2f %5d %8.1f\n",
      rooms, threads, clients, s.ok, s.shed, s.timeouts, s.fallbacks, s.p50,
      s.p95, s.p99, s.max_depth, s.throughput);
}

int Main(int argc, char** argv) {
  int rooms = -1, threads = -1, clients = -1;
  int users = 60, requests = 600;
  double deadline_ms = 1000.0;
  std::string weights, json_path;
  bool batch = false;
  for (int i = 1; i < argc; ++i) {
    int value = 0;
    double fvalue = 0.0;
    char buffer[256] = {};
    if (std::sscanf(argv[i], "--rooms=%d", &value) == 1) rooms = value;
    else if (std::sscanf(argv[i], "--threads=%d", &value) == 1)
      threads = value;
    else if (std::sscanf(argv[i], "--clients=%d", &value) == 1)
      clients = value;
    else if (std::sscanf(argv[i], "--users=%d", &value) == 1) users = value;
    else if (std::sscanf(argv[i], "--requests=%d", &value) == 1)
      requests = value;
    else if (std::sscanf(argv[i], "--deadline_ms=%lf", &fvalue) == 1)
      deadline_ms = fvalue;
    else if (std::sscanf(argv[i], "--weights=%255s", buffer) == 1)
      weights = buffer;
    else if (std::sscanf(argv[i], "--json=%255s", buffer) == 1)
      json_path = buffer;
    else if (std::strcmp(argv[i], "--batch") == 0)
      batch = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  PrimarySpec primary;
  primary.batch = batch;
  ModelArtifact artifact;
  if (!weights.empty()) {
    auto loaded = ModelArtifact::Load(weights);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--weights: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    artifact = std::move(loaded).value();
    primary.artifact = &artifact;
  }
  // The trained/batched modes exist to measure the serving acceptance
  // config, so default them to one room at the 1-thread capacity
  // baseline rather than the full sweep.
  if ((primary.artifact != nullptr || batch) && rooms <= 0 && threads <= 0)
    rooms = threads = 1;

  DatasetConfig config;
  config.num_users = users;
  config.num_steps = 2;  // live rooms only consume the first frame
  config.num_sessions = 1;
  config.seed = 4242;
  std::printf("[serve_throughput] generating %d-user dataset...\n", users);
  const Dataset dataset = GenerateTimikLike(config);
  std::printf(
      "[serve_throughput] primary=%s, batching=%s, "
      "fallback=Nearest, deadline=%.0f ms, hw threads=%u\n",
      primary.artifact != nullptr
          ? "POSHGNN(frozen trained artifact, shared lock-free)"
          : "POSHGNN(frozen untrained seed 42, shared lock-free)",
      batch ? "in-tick" : "off", deadline_ms,
      std::thread::hardware_concurrency());

  if (rooms > 0 || threads > 0) {
    if (rooms <= 0) rooms = 1;
    if (threads <= 0) threads = 1;
    if (clients <= 0) clients = 2 * threads;
    // Baseline: what one worker thread sustains on the same shards.
    std::printf("[serve_throughput] measuring 1-thread capacity...\n");
    const RunStats baseline =
        RunConfig(dataset, primary, rooms, 1, 1, requests / 2, deadline_ms);
    std::printf("[serve_throughput] running target config...\n");
    const RunStats target = RunConfig(dataset, primary, rooms, threads,
                                      clients, requests, deadline_ms);
    PrintHeader();
    PrintRow(rooms, 1, 1, baseline);
    PrintRow(rooms, threads, clients, target);
    if (batch)
      std::printf("batching: %lld jobs, %lld coalesced requests in the "
                  "target config\n",
                  target.batches, target.coalesced);
    std::printf(
        "verdict: %lld shed, %lld timeouts at %.1f req/s "
        "(1-thread capacity %.1f req/s, speedup %.2fx)\n",
        target.shed, target.timeouts, target.throughput,
        baseline.throughput,
        baseline.throughput > 0.0 ? target.throughput / baseline.throughput
                                  : 0.0);
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
      }
      out << "{\n"
          << "  \"bench\": \"serve_throughput\",\n"
          << "  \"rooms\": " << rooms << ",\n"
          << "  \"threads\": " << threads << ",\n"
          << "  \"clients\": " << clients << ",\n"
          << "  \"ok\": " << target.ok << ",\n"
          << "  \"shed\": " << target.shed << ",\n"
          << "  \"timeouts\": " << target.timeouts << ",\n"
          << "  \"fallbacks\": " << target.fallbacks << ",\n"
          << "  \"batches\": " << target.batches << ",\n"
          << "  \"coalesced\": " << target.coalesced << ",\n"
          << "  \"qps\": " << target.throughput << ",\n"
          << "  \"p50_ms\": " << target.p50 << ",\n"
          << "  \"p95_ms\": " << target.p95 << ",\n"
          << "  \"p99_ms\": " << target.p99 << "\n"
          << "}\n";
      std::printf("[serve_throughput] wrote %s\n", json_path.c_str());
    }
    return (target.shed == 0 && target.timeouts == 0) ? 0 : 2;
  }

  if (!json_path.empty()) {
    std::fprintf(stderr,
                 "--json needs a single config (--rooms/--threads)\n");
    return 1;
  }

  // Default sweep.
  PrintHeader();
  for (int r : {1, 4, 8}) {
    for (int t : {1, 2, 4, 8}) {
      const int c = 2 * t;
      const RunStats stats =
          RunConfig(dataset, primary, r, t, c, requests, deadline_ms);
      PrintRow(r, t, c, stats);
    }
  }
  return 0;
}

}  // namespace
}  // namespace after

int main(int argc, char** argv) { return after::Main(argc, argv); }
