#include "bench/fleet_harness.h"

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "core/poshgnn.h"
#include "serve/server_types.h"

namespace after {
namespace bench {

LocalFleet::~LocalFleet() {
  stop.store(true);
  if (ticker.joinable()) ticker.join();
  if (router_net) router_net->Shutdown();
  if (router_pool) router_pool->Shutdown();
  if (router) router->Shutdown();
  for (auto& net : shard_nets) net->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

bool AddShard(LocalFleet* fleet, int rooms, int threads, bool partitioned,
              const std::string& durable_dir,
              serve::BackendAddress* address) {
  const FleetRoomFactory& make_room = fleet->room_factory;
  std::vector<std::unique_ptr<serve::Room>> room_list;
  if (!partitioned) {
    for (int r = 0; r < rooms; ++r) {
      auto created = make_room(r);
      if (!created.ok()) {
        std::fprintf(stderr, "shard room %d: %s\n", r,
                     created.status().ToString().c_str());
        return false;
      }
      room_list.push_back(std::move(created).value());
    }
  }
  serve::ServerOptions server_options;
  server_options.num_threads = threads;
  server_options.default_deadline_ms = 1000.0;
  // Every shard serves the untrained seed-42 model perfbench serves.
  auto server = std::make_unique<serve::RecommendationServer>(
      std::move(room_list),
      [] {
        PoshgnnConfig model_config;
        model_config.seed = 42;
        return std::make_unique<FrozenPoshgnn>(Poshgnn(model_config));
      },
      server_options);
  auto control = std::make_unique<serve::ShardControl>(
      server.get(),
      [make_room](int r) { return make_room(r); });
  std::unique_ptr<serve::DurabilityManager> durability;
  if (!durable_dir.empty()) {
    std::error_code ignored;
    std::filesystem::create_directories(durable_dir, ignored);
    serve::DurabilityManager::Options durable_options;
    durable_options.dir = durable_dir;
    durable_options.checkpoint_every_ticks = 64;
    auto opened = serve::DurabilityManager::Open(durable_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "durability %s: %s\n", durable_dir.c_str(),
                   opened.status().ToString().c_str());
      return false;
    }
    durability = std::move(opened).value();
    durability->Attach(server.get());
    server->set_durability(durability.get());
    control->set_durability(durability.get());
    // Replay before serving: a restarted shard must never answer for a
    // room it has not finished rebuilding.
    auto recovered = control->RecoverFromDurable();
    if (!recovered.ok()) {
      std::fprintf(stderr, "RecoverFromDurable %s: %s\n", durable_dir.c_str(),
                   recovered.status().ToString().c_str());
      return false;
    }
  }
  auto net = std::make_unique<serve::NetServer>(
      serve::NetServer::HandlerFor(server.get()), serve::NetServerOptions{});
  if (partitioned)
    net->set_room_control(serve::NetServer::ControlFor(control.get()));
  const Status started = net->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "shard start: %s\n", started.ToString().c_str());
    return false;
  }
  *address = {net->host(), net->port()};
  std::lock_guard<std::mutex> lock(fleet->mutex);
  if (durability != nullptr) {
    fleet->durabilities.push_back(std::move(durability));
    fleet->durable_dirs.push_back(durable_dir);
  }
  fleet->shards.push_back(std::move(server));
  fleet->controls.push_back(std::move(control));
  fleet->shard_nets.push_back(std::move(net));
  return true;
}

serve::RouterOptions FleetRouterOptions(int replication) {
  serve::RouterOptions router_options;
  router_options.ejection_ms = 200.0;
  router_options.health_check_interval_ms = 100.0;
  router_options.replication_factor = replication;
  return router_options;
}

bool StartRouterFront(LocalFleet* fleet, int threads, int port,
                      int max_connections) {
  fleet->router_pool = std::make_unique<serve::ThreadPool>(threads, 1024);
  serve::ShardRouter* router = fleet->router.get();
  serve::ThreadPool* pool = fleet->router_pool.get();
  serve::NetServerOptions net_options;
  net_options.port = port;
  net_options.max_connections = max_connections;
  // Long enough that a swarm connection pinged every few seconds never
  // looks idle; short enough that leaked connections do get reaped.
  net_options.idle_timeout_ms = 30000.0;
  fleet->router_net = std::make_unique<serve::NetServer>(
      [router, pool](const serve::FriendRequest& request,
                     std::function<void(const serve::FriendResponse&)> done) {
        auto done_ptr = std::make_shared<
            std::function<void(const serve::FriendResponse&)>>(
            std::move(done));
        if (!pool->TrySubmit([router, request, done_ptr] {
              (*done_ptr)(router->Route(request));
            })) {
          serve::FriendResponse response;
          response.status =
              ResourceExhaustedError("router queue full; load shed");
          (*done_ptr)(response);
        }
      },
      net_options);
  const Status started = fleet->router_net->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "router: %s\n", started.ToString().c_str());
    return false;
  }
  return true;
}

void StartTicker(LocalFleet* fleet) {
  fleet->ticker = std::thread([fleet] {
    while (!fleet->stop.load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(fleet->mutex);
        for (auto& shard : fleet->shards) shard->TickAll();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

std::string ShardDurableDir(const std::string& base, int shard) {
  return base.empty() ? std::string()
                      : base + "/shard-" + std::to_string(shard);
}

std::unique_ptr<LocalFleet> StartLocalFleet(const FleetConfig& config,
                                            FleetRoomFactory room_factory) {
  auto fleet = std::make_unique<LocalFleet>();
  fleet->room_factory = std::move(room_factory);

  std::vector<serve::BackendAddress> backends;
  for (int s = 0; s < config.shards; ++s) {
    serve::BackendAddress address;
    if (!AddShard(fleet.get(), config.rooms, config.threads,
                  config.partitioned,
                  ShardDurableDir(config.durable_base, s), &address))
      return nullptr;
    backends.push_back(address);
  }

  fleet->router = std::make_unique<serve::ShardRouter>(
      backends, FleetRouterOptions(config.replication));
  if (config.partitioned) {
    const Status enabled = fleet->router->EnablePartition(config.rooms);
    if (!enabled.ok()) {
      std::fprintf(stderr, "EnablePartition(%d): %s\n", config.rooms,
                   enabled.ToString().c_str());
      return nullptr;
    }
  }
  if (!StartRouterFront(fleet.get(), config.threads, /*port=*/0,
                        config.front_max_connections))
    return nullptr;
  StartTicker(fleet.get());
  return fleet;
}

}  // namespace bench
}  // namespace after
