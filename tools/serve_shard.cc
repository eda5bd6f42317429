// One shard worker of the multi-process serving fleet: an in-process
// RecommendationServer behind the TCP wire protocol (serve/net_server.h).
// Launch N of these behind one tools/shard_router and point
// bench/net_throughput at the router (docs/serving.md has the 3-shard
// walkthrough).
//
// Two fleet layouts (docs/serving.md):
//  - Default: the shard instantiates the *full* room set with the same
//    seeds, so any shard can answer any room; the router's consistent
//    hashing merely keeps each room's traffic (and therefore its
//    simulation state and snapshot cache) on one home shard.
//  - --partitioned: the shard starts owning *nothing* and hosts only
//    the rooms the router grants it over the wire (kRoomAssign /
//    kRoomRelease, serve/shard_control.h); requests for unowned rooms
//    are answered kNotOwner so the router re-routes them. Memory and
//    tick cost then scale with the shard's share, not the fleet's size.
//
// Usage:
//   serve_shard --port=7701                    # fixed port
//   serve_shard --port=0 --port_file=p.txt     # ephemeral; port written
//                                              # to the file for scripts
// Flags: --rooms=N --users=N --threads=N --queue=N --deadline_ms=F
//        --tick_ms=F --seed=N --batch --partitioned
//        --weights=PATH (serve a trained, frozen POSHGNN from a model
//                        artifact, docs/model_artifacts.md, instead of
//                        the untrained seed-42 one perfbench serves)
//        --max_connections=N (reactor connection cap; accepts beyond it
//                             are shed at the socket)
//        --idle_timeout_ms=F (reap connections silent this long;
//                             0 = never, the default)
//        --max_seconds=F (0 = run until SIGINT/SIGTERM)
//        --max_candidates=N (temporal candidate pruning, docs/ticking.md:
//                            rooms maintain a co-presence recency index
//                            and each request's candidate set is capped
//                            at its top-N recent contacts; 0 = off)
//
// Durable rooms (docs/durability.md, requires --partitioned):
//   --durable_dir=PATH          journal + checkpoints live here; at boot
//                               the shard replays them and re-owns its
//                               rooms (the router reconciles via
//                               kRoomRecover)
//   --checkpoint_every_ticks=N  per-room checkpoint cadence (default 256)
//   --journal_fsync             fsync the journal per append (crash-of-
//                               machine durability; heavy latency cost)

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/poshgnn.h"
#include "data/dataset.h"
#include "serve/checkpoint.h"
#include "serve/net_server.h"
#include "serve/server.h"
#include "serve/shard_control.h"

namespace after {
namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

int Main(int argc, char** argv) {
  int port = 0, rooms = 2, users = 60, threads = 2, queue = 1024;
  int seed = 4242, checkpoint_every_ticks = 256, max_connections = 0;
  int max_candidates = 0;
  double deadline_ms = 1000.0, tick_ms = 10.0, max_seconds = 0.0;
  double idle_timeout_ms = 0.0;
  bool batch = false, partitioned = false, journal_fsync = false;
  std::string port_file, weights, durable_dir;
  for (int i = 1; i < argc; ++i) {
    int value = 0;
    double fvalue = 0.0;
    char buffer[256] = {};
    if (std::sscanf(argv[i], "--port=%d", &value) == 1) port = value;
    else if (std::sscanf(argv[i], "--rooms=%d", &value) == 1) rooms = value;
    else if (std::sscanf(argv[i], "--users=%d", &value) == 1) users = value;
    else if (std::sscanf(argv[i], "--threads=%d", &value) == 1)
      threads = value;
    else if (std::sscanf(argv[i], "--queue=%d", &value) == 1) queue = value;
    else if (std::sscanf(argv[i], "--seed=%d", &value) == 1) seed = value;
    else if (std::sscanf(argv[i], "--deadline_ms=%lf", &fvalue) == 1)
      deadline_ms = fvalue;
    else if (std::sscanf(argv[i], "--tick_ms=%lf", &fvalue) == 1)
      tick_ms = fvalue;
    else if (std::sscanf(argv[i], "--max_seconds=%lf", &fvalue) == 1)
      max_seconds = fvalue;
    else if (std::sscanf(argv[i], "--max_candidates=%d", &value) == 1)
      max_candidates = value;
    else if (std::sscanf(argv[i], "--max_connections=%d", &value) == 1)
      max_connections = value;
    else if (std::sscanf(argv[i], "--idle_timeout_ms=%lf", &fvalue) == 1)
      idle_timeout_ms = fvalue;
    else if (std::sscanf(argv[i], "--port_file=%255s", buffer) == 1)
      port_file = buffer;
    else if (std::sscanf(argv[i], "--weights=%255s", buffer) == 1)
      weights = buffer;
    else if (std::sscanf(argv[i], "--durable_dir=%255s", buffer) == 1)
      durable_dir = buffer;
    else if (std::sscanf(argv[i], "--checkpoint_every_ticks=%d", &value) == 1)
      checkpoint_every_ticks = value;
    else if (std::strcmp(argv[i], "--journal_fsync") == 0)
      journal_fsync = true;
    else if (std::strcmp(argv[i], "--batch") == 0) batch = true;
    else if (std::strcmp(argv[i], "--partitioned") == 0) partitioned = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  // The served primary: the trained artifact with --weights, otherwise
  // the untrained seed-42 model perfbench serves.
  std::unique_ptr<FrozenPoshgnn> primary;
  if (!weights.empty()) {
    auto loaded = FrozenPoshgnn::FromArtifactFile(weights);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--weights: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    primary = std::move(loaded).value();
  } else {
    PoshgnnConfig model_config;
    model_config.seed = 42;
    primary = std::make_unique<FrozenPoshgnn>(Poshgnn(model_config));
  }
  const std::string primary_desc =
      primary->name() +
      (weights.empty() ? std::string(", untrained seed 42")
                       : ", trained " + weights);

  DatasetConfig config;
  config.num_users = users;
  config.num_steps = 2;  // live rooms only consume the first frame
  config.num_sessions = 1;
  config.seed = seed;
  const Dataset dataset = GenerateTimikLike(config);

  // Seeded by room id only: every shard builds the same crowd for a
  // given room, so failover / standby answers come from the same
  // statistical world. The partitioned path reuses the exact recipe
  // through the room factory below.
  const auto make_room =
      [&dataset, max_candidates](int r) -> Result<std::unique_ptr<serve::Room>> {
    serve::Room::Options room_options;
    room_options.id = r;
    room_options.mode = serve::Room::Mode::kLive;
    room_options.seed = 900 + r;
    room_options.temporal_index = max_candidates > 0;
    return serve::Room::Create(room_options, &dataset);
  };

  std::vector<std::unique_ptr<serve::Room>> room_list;
  if (!partitioned) {
    for (int r = 0; r < rooms; ++r) {
      auto created = make_room(r);
      if (!created.ok()) {
        std::fprintf(stderr, "room %d: %s\n", r,
                     created.status().ToString().c_str());
        return 1;
      }
      room_list.push_back(std::move(created).value());
    }
  }

  serve::ServerOptions server_options;
  server_options.num_threads = threads;
  server_options.queue_capacity = queue;
  server_options.default_deadline_ms = deadline_ms;
  server_options.batch_requests = batch;
  server_options.max_candidates = max_candidates;
  // The server calls its factory once, at construction.
  serve::RecommendationServer server(
      std::move(room_list), [&primary] { return std::move(primary); },
      server_options);
  serve::ShardControl control(&server, make_room);

  // Durable rooms: open the journal + checkpoint dir, recover whatever
  // a previous incarnation of this shard persisted, and wire the
  // subsystem into the tick and control planes.
  std::unique_ptr<serve::DurabilityManager> durability;
  if (!durable_dir.empty()) {
    if (!partitioned) {
      std::fprintf(stderr,
                   "--durable_dir requires --partitioned (durability is "
                   "scoped to router-granted rooms)\n");
      return 1;
    }
    serve::DurabilityManager::Options durable_options;
    durable_options.dir = durable_dir;
    durable_options.checkpoint_every_ticks = checkpoint_every_ticks;
    durable_options.journal_fsync = journal_fsync;
    auto opened = serve::DurabilityManager::Open(durable_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "--durable_dir: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    durability = std::move(opened).value();
    durability->Attach(&server);
    server.set_durability(durability.get());
    control.set_durability(durability.get());
    auto recovered = control.RecoverFromDurable();
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    std::printf("[serve_shard] recovered %zu room(s) from %s\n",
                recovered.value().size(), durable_dir.c_str());
  }

  serve::NetServerOptions net_options;
  net_options.port = port;
  if (max_connections > 0) net_options.max_connections = max_connections;
  net_options.idle_timeout_ms = idle_timeout_ms;
  serve::NetServer net(serve::NetServer::HandlerFor(&server), net_options);
  if (partitioned)
    net.set_room_control(serve::NetServer::ControlFor(&control));
  const Status started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    // Written atomically-enough for scripts: the single-line write
    // happens before the "listening" banner below.
    std::ofstream out(port_file);
    out << net.port() << "\n";
  }
  if (partitioned)
    std::printf("[serve_shard] listening on %s:%d (partitioned: rooms "
                "granted by router, %d users each, %d threads, "
                "primary=%s%s)\n",
                net.host().c_str(), net.port(), users, threads,
                primary_desc.c_str(),
                batch ? ", in-tick batching" : "");
  else
    std::printf("[serve_shard] listening on %s:%d (%d rooms x %d users, "
                "%d threads, primary=%s%s)\n",
                net.host().c_str(), net.port(), rooms, users, threads,
                primary_desc.c_str(),
                batch ? ", in-tick batching" : "");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  WallTimer timer;
  // Tick every room on the cadence; the main thread doubles as ticker.
  while (!g_stop &&
         (max_seconds <= 0.0 || timer.ElapsedSeconds() < max_seconds)) {
    server.TickAll();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(tick_ms));
  }

  net.Shutdown();
  server.Shutdown();
  std::printf("[serve_shard] exiting after %.1f s\n%s",
              timer.ElapsedSeconds(), server.metrics().DebugString().c_str());
  return 0;
}

}  // namespace
}  // namespace after

int main(int argc, char** argv) { return after::Main(argc, argv); }
