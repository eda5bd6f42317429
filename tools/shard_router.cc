// The fleet's single front door: listens on one port speaking the wire
// protocol (serve/wire.h), grants rooms to the tools/serve_shard
// backends, and routes every request to its room's owners
// (serve/router.h). A transport failure ejects the backend and tries
// the room's standby, so killing a worker mid-run degrades to retried
// requests, not lost ones, while the prober's repair promotes standbys
// and rebalances the survivors.
//
// Usage:
//   shard_router --port=7700 --partition_rooms=8
//                --backend=127.0.0.1:7701 --backend=127.0.0.1:7702
// Flags: --port=N --port_file=PATH --backend=HOST:PORT (repeatable)
//        --threads=N --queue=N (router-side worker pool + admission
//        bound; overload sheds with kResourceExhausted at the router)
//        --ejection_ms=F --health_ms=F
//        exactly one of:
//        --partition_rooms=N (grant rooms [0,N) fresh to the backends)
//        --recover_rooms=N (cold-restart recovery: ask every backend to
//        replay its durable state first, reconcile the survivors, then
//        serve rooms [0,N); docs/durability.md)
//        --replication=N (warm standby copies per room)
//        --max_connections=N (reactor connection cap; accepts beyond it
//        are shed at the socket — raise RLIMIT_NOFILE with it for C10k)
//        --idle_timeout_ms=F (reap connections silent this long; 0 =
//        never, the default — idle XR clients are legitimate)
//        --max_seconds=F (0 = run until SIGINT/SIGTERM)

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
#include "serve/net_server.h"
#include "serve/router.h"
#include "serve/thread_pool.h"

namespace after {
namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

bool ParseBackend(const std::string& spec, serve::BackendAddress* out) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size())
    return false;
  out->host = spec.substr(0, colon);
  out->port = std::atoi(spec.c_str() + colon + 1);
  return out->port > 0;
}

int Main(int argc, char** argv) {
  int port = 0, threads = 4, queue = 1024;
  int partition_rooms = 0, recover_rooms = 0, replication = 0;
  int max_connections = 0;
  double ejection_ms = 1000.0, health_ms = 250.0, max_seconds = 0.0;
  double idle_timeout_ms = 0.0;
  std::string port_file;
  std::vector<serve::BackendAddress> backends;
  for (int i = 1; i < argc; ++i) {
    int value = 0;
    double fvalue = 0.0;
    char buffer[256] = {};
    if (std::sscanf(argv[i], "--port=%d", &value) == 1) port = value;
    else if (std::sscanf(argv[i], "--threads=%d", &value) == 1)
      threads = value;
    else if (std::sscanf(argv[i], "--queue=%d", &value) == 1) queue = value;
    else if (std::sscanf(argv[i], "--partition_rooms=%d", &value) == 1)
      partition_rooms = value;
    else if (std::sscanf(argv[i], "--recover_rooms=%d", &value) == 1)
      recover_rooms = value;
    else if (std::sscanf(argv[i], "--replication=%d", &value) == 1)
      replication = value;
    else if (std::sscanf(argv[i], "--max_connections=%d", &value) == 1)
      max_connections = value;
    else if (std::sscanf(argv[i], "--idle_timeout_ms=%lf", &fvalue) == 1)
      idle_timeout_ms = fvalue;
    else if (std::sscanf(argv[i], "--ejection_ms=%lf", &fvalue) == 1)
      ejection_ms = fvalue;
    else if (std::sscanf(argv[i], "--health_ms=%lf", &fvalue) == 1)
      health_ms = fvalue;
    else if (std::sscanf(argv[i], "--max_seconds=%lf", &fvalue) == 1)
      max_seconds = fvalue;
    else if (std::sscanf(argv[i], "--port_file=%255s", buffer) == 1)
      port_file = buffer;
    else if (std::sscanf(argv[i], "--backend=%255s", buffer) == 1) {
      serve::BackendAddress backend;
      if (!ParseBackend(buffer, &backend)) {
        std::fprintf(stderr, "bad --backend spec: %s\n", buffer);
        return 1;
      }
      backends.push_back(std::move(backend));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (backends.empty()) {
    std::fprintf(stderr,
                 "shard_router: need at least one --backend=HOST:PORT\n");
    return 1;
  }
  if ((partition_rooms > 0) == (recover_rooms > 0)) {
    std::fprintf(stderr,
                 "shard_router: need exactly one of --partition_rooms=N "
                 "(fresh grant) and --recover_rooms=N (durable recovery)\n");
    return 1;
  }

  serve::RouterOptions router_options;
  router_options.ejection_ms = ejection_ms;
  router_options.health_check_interval_ms = health_ms;
  router_options.replication_factor = replication;
  serve::ShardRouter router(backends, router_options);

  if (partition_rooms > 0) {
    const Status enabled = router.EnablePartition(partition_rooms);
    if (!enabled.ok()) {
      std::fprintf(stderr, "EnablePartition(%d): %s\n", partition_rooms,
                   enabled.ToString().c_str());
      router.Shutdown();
      return 1;
    }
  } else {
    const Status recovered = router.RecoverPartition(recover_rooms);
    if (!recovered.ok()) {
      std::fprintf(stderr, "RecoverPartition(%d): %s\n", recover_rooms,
                   recovered.ToString().c_str());
      router.Shutdown();
      return 1;
    }
    std::printf("[shard_router] recovered partition: %lld room(s) from "
                "durable state, %lld stale replica(s) discarded\n",
                static_cast<long long>(
                    router.metrics().recovered_rooms.load()),
                static_cast<long long>(
                    router.metrics().discarded_replicas.load()));
  }

  // The router's own worker pool decouples slow backends from the
  // connection readers and gives the front door its own admission
  // control: a full queue sheds with kResourceExhausted, mirroring the
  // in-process server's ladder step 1.
  serve::ThreadPool pool(threads, queue);
  serve::RequestHandler handler =
      [&router, &pool](const serve::FriendRequest& request,
                       std::function<void(const serve::FriendResponse&)> done) {
        auto done_ptr = std::make_shared<
            std::function<void(const serve::FriendResponse&)>>(
            std::move(done));
        const bool admitted = pool.TrySubmit([&router, request, done_ptr] {
          (*done_ptr)(router.Route(request));
        });
        if (!admitted) {
          serve::FriendResponse response;
          response.status =
              ResourceExhaustedError("router queue full; load shed");
          (*done_ptr)(response);
        }
      };

  serve::NetServerOptions net_options;
  net_options.port = port;
  if (max_connections > 0) net_options.max_connections = max_connections;
  net_options.idle_timeout_ms = idle_timeout_ms;
  serve::NetServer net(std::move(handler), net_options);
  const Status started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << net.port() << "\n";
  }
  std::printf("[shard_router] listening on %s:%d, %zu backend(s):",
              net.host().c_str(), net.port(), backends.size());
  for (const auto& backend : backends)
    std::printf(" %s", backend.ToString().c_str());
  std::printf(" (%d rooms%s, replication=%d)\n",
              partition_rooms > 0 ? partition_rooms : recover_rooms,
              partition_rooms > 0 ? "" : " via recovery", replication);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  WallTimer timer;
  while (!g_stop &&
         (max_seconds <= 0.0 || timer.ElapsedSeconds() < max_seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  net.Shutdown();
  pool.Shutdown();
  router.Shutdown();
  const auto& m = router.metrics();
  std::printf("[shard_router] exiting after %.1f s: routed=%lld "
              "retried=%lld ejections=%lld exhausted=%lld "
              "link_reuse=%lld connects=%lld not_owner=%lld "
              "migrations=%lld repairs=%lld\n",
              timer.ElapsedSeconds(),
              static_cast<long long>(m.routed.load()),
              static_cast<long long>(m.retried.load()),
              static_cast<long long>(m.ejections.load()),
              static_cast<long long>(m.exhausted.load()),
              static_cast<long long>(m.link_reuse.load()),
              static_cast<long long>(m.connects.load()),
              static_cast<long long>(m.not_owner.load()),
              static_cast<long long>(m.migrations.load()),
              static_cast<long long>(m.repairs.load()));
  return 0;
}

}  // namespace
}  // namespace after

int main(int argc, char** argv) { return after::Main(argc, argv); }
