#include "perfbench/world.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

namespace after {
namespace perfbench {
namespace {

// Fleet shape shared by every workload: two shards of two workers each
// and a four-thread router pool (the defaults of tools/serve_shard and
// tools/shard_router).
constexpr int kShards = 2;
constexpr int kWorkers = 2;
constexpr int kRouterThreads = 4;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> specs;

  // Wire, reactor, router and mux hops dominate the requests; forward and
  // ticks are small, rooms idle enough that the direct request path
  // dominates. Every tick also journals (and periodically checkpoints).
  WorkloadSpec fleet;
  fleet.name = "fleet-durable";
  fleet.room_sizes.assign(8, 60);
  fleet.rate_rps = 3000.0;
  fleet.tick_period_ms = 20.0;
  specs.push_back(fleet);

  // Tick work and requests on 512-node graphs dominate; no sockets. The
  // Zipf hot set (capped, so the carried set stays bounded) keeps
  // occlusion graphs carried every tick; walkers in it force lazy builds.
  WorkloadSpec mega;
  mega.name = "mega-room";
  mega.tcp = false;
  mega.room_sizes.assign(2, 512);
  mega.user_zipf = 1.0;
  mega.user_support = 32;
  mega.move_fraction = 0.05;
  mega.max_candidates = 32;
  mega.rate_rps = 300.0;
  mega.tick_period_ms = 100.0;
  specs.push_back(mega);
  return specs;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = MakeWorkloads();
  return specs;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads())
    if (spec.name == name) return &spec;
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

World::~World() {
  if (router_net_) router_net_->Shutdown();
  if (router_pool_) router_pool_->Shutdown();
  if (router_) router_->Shutdown();
  for (auto& net : shard_nets_) net->Shutdown();
  for (auto& shard : shards_) shard->Shutdown();
}

Result<std::unique_ptr<serve::Room>> World::MakeRoom(int room) const {
  if (room < 0 || room >= static_cast<int>(spec_.room_sizes.size()))
    return InvalidArgumentError("room id outside the workload");
  serve::Room::Options options;
  options.id = room;
  options.mode = serve::Room::Mode::kLive;
  options.seed = Mix(kWorldSeed, 100 + static_cast<uint64_t>(room));
  options.move_fraction = spec_.move_fraction;
  options.temporal_index = spec_.max_candidates > 0;
  return serve::Room::Create(
      options, &datasets_.at(spec_.room_sizes[static_cast<size_t>(room)]));
}

std::unique_ptr<World> World::Build(const WorkloadSpec& spec, Tracer* tracer,
                                    const std::string& work_dir) {
  std::unique_ptr<World> world(new World());
  World* self = world.get();
  self->spec_ = spec;
  for (int size : spec.room_sizes) {
    if (self->datasets_.count(size) != 0) continue;
    DatasetConfig config;
    config.num_users = size;
    config.num_steps = 2;  // live rooms only read the first frame
    config.num_sessions = 1;
    config.seed = Mix(kWorldSeed, static_cast<uint64_t>(size));
    self->datasets_.emplace(size, GenerateTimikLike(config));
  }

  PoshgnnConfig model_config;
  model_config.seed = 42;
  self->source_ = std::make_shared<const Poshgnn>(model_config);
  std::shared_ptr<const Poshgnn> source = self->source_;
  serve::RecommenderFactory factory =
      [source, tracer]() -> std::unique_ptr<Recommender> {
    auto frozen = std::make_unique<FrozenPoshgnn>(*source);
    if (tracer == nullptr) return frozen;
    return std::make_unique<TracedRecommender>(std::move(frozen), tracer);
  };
  serve::ServerOptions options;
  options.num_threads = kWorkers;
  options.default_deadline_ms = 1000.0;
  options.max_candidates = spec.max_candidates;
  const int rooms = static_cast<int>(spec.room_sizes.size());

  if (!spec.tcp) {
    std::vector<std::unique_ptr<serve::Room>> hosted;
    for (int r = 0; r < rooms; ++r) {
      auto room = self->MakeRoom(r);
      if (!room.ok()) {
        std::fprintf(stderr, "room %d: %s\n", r,
                     room.status().ToString().c_str());
        return nullptr;
      }
      hosted.push_back(std::move(room).value());
      self->ticks_.push_back(TickTarget{nullptr, r});
    }
    self->shards_.push_back(std::make_unique<serve::RecommendationServer>(
        std::move(hosted), factory, options));
    for (TickTarget& target : self->ticks_)
      target.server = self->shards_[0].get();
    self->primary_.assign(static_cast<size_t>(rooms), 0);
    self->local_handler_ = ShardHandler(self->shards_[0].get(), tracer);
    return world;
  }

  std::vector<serve::BackendAddress> backends;
  for (int s = 0; s < kShards; ++s) {
    auto server = std::make_unique<serve::RecommendationServer>(
        std::vector<std::unique_ptr<serve::Room>>(), factory, options);
    auto control = std::make_unique<serve::ShardControl>(
        server.get(), [self](int r) { return self->MakeRoom(r); });
    const std::string dir = work_dir + "/shard-" + std::to_string(s);
    std::error_code ignored;
    std::filesystem::create_directories(dir, ignored);
    serve::DurabilityManager::Options durable_options;
    durable_options.dir = dir;
    auto opened = serve::DurabilityManager::Open(durable_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "durability %s: %s\n", dir.c_str(),
                   opened.status().ToString().c_str());
      return nullptr;
    }
    std::unique_ptr<serve::DurabilityManager> durability =
        std::move(opened).value();
    durability->Attach(server.get());
    server->set_durability(durability.get());
    control->set_durability(durability.get());
    const auto recovered = control->RecoverFromDurable();
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover %s: %s\n", dir.c_str(),
                   recovered.status().ToString().c_str());
      return nullptr;
    }
    self->durabilities_.push_back(std::move(durability));
    serve::RequestHandler handler =
        tracer == nullptr ? serve::NetServer::HandlerFor(server.get())
                          : ShardHandler(server.get(), tracer);
    auto net = std::make_unique<serve::NetServer>(std::move(handler),
                                                  serve::NetServerOptions{});
    net->set_room_control(serve::NetServer::ControlFor(control.get()));
    const Status started = net->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "shard %d: %s\n", s, started.ToString().c_str());
      return nullptr;
    }
    backends.push_back(serve::BackendAddress{net->host(), net->port()});
    self->shards_.push_back(std::move(server));
    self->controls_.push_back(std::move(control));
    self->shard_nets_.push_back(std::move(net));
  }

  serve::RouterOptions router_options;
  router_options.ejection_ms = 200.0;
  router_options.health_check_interval_ms = 100.0;
  router_options.replication_factor = 1;
  self->router_ =
      std::make_unique<serve::ShardRouter>(backends, router_options);
  const Status partitioned = self->router_->EnablePartition(rooms);
  if (!partitioned.ok()) {
    std::fprintf(stderr, "EnablePartition: %s\n",
                 partitioned.ToString().c_str());
    return nullptr;
  }
  self->router_pool_ = std::make_unique<serve::ThreadPool>(kRouterThreads, 1024);
  serve::NetServerOptions front_options;
  front_options.idle_timeout_ms = 30000.0;
  self->router_net_ = std::make_unique<serve::NetServer>(
      RouterHandler(self->router_.get(), self->router_pool_.get(), tracer),
      front_options);
  const Status front = self->router_net_->Start();
  if (!front.ok()) {
    std::fprintf(stderr, "router front: %s\n", front.ToString().c_str());
    return nullptr;
  }

  self->primary_.assign(static_cast<size_t>(rooms), -1);
  for (const auto& [room, assignment] : self->router_->AssignmentSnapshot())
    if (room >= 0 && room < rooms && !assignment.copies.empty())
      self->primary_[static_cast<size_t>(room)] = assignment.copies[0];
  for (int r = 0; r < rooms; ++r) {
    const int primary = self->primary_[static_cast<size_t>(r)];
    if (primary < 0 || primary >= kShards ||
        !self->shards_[static_cast<size_t>(primary)]->HasRoom(r)) {
      std::fprintf(stderr, "room %d has no hosted primary\n", r);
      return nullptr;
    }
    for (auto& shard : self->shards_)
      if (shard->HasRoom(r)) self->ticks_.push_back(TickTarget{shard.get(), r});
  }
  return world;
}

int World::router_port() const {
  return router_net_ == nullptr ? 0 : router_net_->port();
}

serve::RecommendationServer* World::PrimaryFor(int room) const {
  return shards_[static_cast<size_t>(primary_[static_cast<size_t>(room)])]
      .get();
}

std::unique_ptr<FrozenPoshgnn> World::FreezeOracle() const {
  return std::make_unique<FrozenPoshgnn>(*source_);
}

}  // namespace perfbench
}  // namespace after
