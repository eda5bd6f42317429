#include "serve/room.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "graph/occlusion_converter.h"
#include "nn/serialize.h"
#include "tensor/matrix.h"

namespace after {
namespace serve {
namespace {

/// Live-mode arrival tolerance: a walker within this distance of its
/// waypoint counts as arrived (re-aims, or parks under walker-swap).
constexpr double kGoalTolerance = 0.2;

}  // namespace

RoomSnapshot::RoomSnapshot(int tick, std::vector<Vec2> positions,
                           const std::vector<Interface>* interfaces,
                           const Matrix* preference,
                           const Matrix* social_presence, double beta,
                           double body_radius,
                           std::shared_ptr<const TemporalView> temporal)
    : tick_(tick),
      positions_(std::move(positions)),
      interfaces_(interfaces),
      preference_(preference),
      social_presence_(social_presence),
      beta_(beta),
      body_radius_(body_radius),
      occlusion_(positions_.size()),
      arcs_(positions_.size()),
      occlusion_once_(new std::once_flag[positions_.size()]),
      occlusion_built_(new std::atomic<bool>[positions_.size()]),
      temporal_(std::move(temporal)) {
  for (size_t i = 0; i < positions_.size(); ++i)
    occlusion_built_[i].store(false, std::memory_order_relaxed);
}

RoomSnapshot::RoomSnapshot(int tick, std::vector<Vec2> positions,
                           const RoomSnapshot& previous,
                           std::vector<int> moved,
                           std::shared_ptr<const TemporalView> temporal)
    : tick_(tick),
      positions_(std::move(positions)),
      interfaces_(previous.interfaces_),
      preference_(previous.preference_),
      social_presence_(previous.social_presence_),
      beta_(previous.beta_),
      body_radius_(previous.body_radius_),
      occlusion_(positions_.size()),
      arcs_(positions_.size()),
      occlusion_once_(new std::once_flag[positions_.size()]),
      occlusion_built_(new std::atomic<bool>[positions_.size()]),
      temporal_(std::move(temporal)),
      built_by_delta_(true),
      num_moved_(static_cast<int>(moved.size())) {
  const int n = num_users();
  AFTER_CHECK_EQ(previous.num_users(), n);
  for (int i = 0; i < n; ++i)
    occlusion_built_[i].store(false, std::memory_order_relaxed);
  std::vector<bool> is_moved(n, false);
  for (int m : moved) is_moved[m] = true;
  // Carry the predecessor's hot set forward: every target it had built
  // whose own position is unchanged gets a cheap delta update now, so
  // the request streams that made it hot stay cheap this tick too.
  // Moved targets are left lazy — their whole arc set changed, so they
  // cost a full rebuild either way, and only if someone actually asks.
  for (int u = 0; u < n; ++u) {
    if (is_moved[u]) continue;
    if (!previous.occlusion_built_[u].load(std::memory_order_acquire))
      continue;
    arcs_[u] = previous.arcs_[u];
    UpdateViewArcs(positions_, u, body_radius_, moved, &arcs_[u]);
    occlusion_[u] =
        UpdateOcclusionGraph(previous.occlusion_[u], arcs_[u], moved,
                             is_moved);
    occlusion_built_[u].store(true, std::memory_order_relaxed);
    ++delta_carried_;
  }
}

const OcclusionGraph& RoomSnapshot::OcclusionFor(int target) const {
  if (!occlusion_built_[target].load(std::memory_order_acquire)) {
    std::call_once(occlusion_once_[target], [this, target] {
      arcs_[target] = ComputeViewArcs(positions_, target, body_radius_);
      occlusion_[target] = BuildOcclusionGraphFromArcs(arcs_[target]);
      occlusion_built_[target].store(true, std::memory_order_release);
    });
  }
  return occlusion_[target];
}

bool RoomSnapshot::PruneCandidates(int target, int max_candidates,
                                   std::vector<bool>* mask) const {
  if (temporal_ == nullptr || max_candidates <= 0) return false;
  if (max_candidates >= num_users() - 1) return false;
  temporal_->FillPruneMask(target, max_candidates, mask);
  return true;
}

StepContext RoomSnapshot::ContextFor(int target) const {
  StepContext context;
  context.t = tick_;
  context.target = target;
  context.positions = &positions_;
  context.occlusion = &OcclusionFor(target);
  context.interfaces = interfaces_;
  context.preference = preference_;
  context.social_presence = social_presence_;
  context.beta = beta_;
  context.body_radius = body_radius_;
  return context;
}

Room::Room(const Options& options, const Dataset* dataset,
           const XrWorld* world)
    : options_(options),
      dataset_(dataset),
      world_(world),
      num_users_(world->num_users()),
      rng_(options.seed) {}

Result<std::unique_ptr<Room>> Room::Create(const Options& options,
                                           const Dataset* dataset) {
  if (dataset == nullptr)
    return InvalidDataError("room requires a dataset");
  if (dataset->sessions.empty())
    return InvalidDataError("dataset has no sessions to host");
  const int session_index =
      options.session >= 0
          ? options.session
          : static_cast<int>(dataset->sessions.size()) - 1;
  if (session_index >= static_cast<int>(dataset->sessions.size())) {
    std::ostringstream oss;
    oss << "room " << options.id << ": session index " << session_index
        << " out of range [0, " << dataset->sessions.size() << ")";
    return InvalidDataError(oss.str());
  }
  const XrWorld& world = dataset->sessions[session_index];
  const int n = world.num_users();
  if (n <= 0 || world.num_steps() <= 0)
    return InvalidDataError("room session has no users or steps");
  if (dataset->preference.rows() < n || dataset->preference.cols() < n ||
      dataset->social_presence.rows() < n ||
      dataset->social_presence.cols() < n) {
    std::ostringstream oss;
    oss << "room " << options.id << ": utility matrices do not cover the "
        << n << " session users";
    return InvalidDataError(oss.str());
  }

  std::unique_ptr<Room> room(new Room(options, dataset, &world));
  if (options.mode == Mode::kLive) {
    room->sim_ = std::make_unique<CrowdSimulator>(/*time_step=*/0.5);
    CrowdSimulator::AgentParams params;
    params.radius = world.body_radius();
    params.max_speed = options.max_speed;
    for (int u = 0; u < n; ++u)
      room->sim_->AddAgent(world.PositionsAt(0)[u], params);
    if (options.move_fraction >= 1.0) {
      // Historical behavior: everybody walks (same RNG draw order as
      // before partial motion existed, so replayed seeds stay stable).
      for (int u = 0; u < n; ++u)
        room->sim_->SetGoal(u, room->RandomWaypoint());
    } else {
      room->walking_.assign(n, false);
      const int k = std::clamp(
          static_cast<int>(std::lround(options.move_fraction * n)), 0, n);
      for (int u = 0; u < n; ++u) room->sim_->SetHold(u, true);
      for (int u : room->rng_.SampleWithoutReplacement(n, k)) {
        room->sim_->SetHold(u, false);
        room->sim_->SetGoal(u, room->RandomWaypoint());
        room->walking_[u] = true;
      }
    }
  }
  if (options.temporal_index) {
    TemporalIndex::Options topt;
    topt.co_presence_radius = options.co_presence_radius;
    room->temporal_ = std::make_unique<TemporalIndex>(topt);
  }
  room->Publish(world.PositionsAt(0), /*tick=*/0);
  return room;
}

Vec2 Room::RandomWaypoint() {
  return Vec2{rng_.Uniform(0.0, options_.room_side),
              rng_.Uniform(0.0, options_.room_side)};
}

Status Room::Tick() {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  const int next = tick_.load(std::memory_order_relaxed) + 1;
  if (options_.mode == Mode::kReplay) {
    if (next >= world_->num_steps()) {
      std::ostringstream oss;
      oss << "room " << options_.id << ": replay session exhausted at tick "
          << (next - 1);
      return ResourceExhaustedError(oss.str());
    }
    PublishTick(world_->PositionsAt(next), next);
    return OkStatus();
  }
  StepLive();
  std::vector<Vec2> positions(num_users_);
  for (int u = 0; u < num_users_; ++u) positions[u] = sim_->Position(u);
  PublishTick(std::move(positions), next);
  return OkStatus();
}

void Room::StepLive() {
  if (options_.move_fraction >= 1.0) {
    // Historical behavior: re-aim everyone who arrived, step ORCA.
    for (int u = 0; u < num_users_; ++u)
      if (sim_->ReachedGoal(u, kGoalTolerance))
        sim_->SetGoal(u, RandomWaypoint());
    sim_->Step();
    return;
  }
  // Walker-swap partial motion: an arriving walker parks (held, so its
  // position is bit-exactly frozen) and a random parked agent wakes —
  // possibly the same one, which just re-aims it. The walking count is
  // invariant, so the per-tick moved set stays ~move_fraction * n.
  for (int u = 0; u < num_users_; ++u) {
    if (!walking_[u] || !sim_->AgentActive(u)) continue;
    if (!sim_->ReachedGoal(u, kGoalTolerance)) continue;
    sim_->SetHold(u, true);
    walking_[u] = false;
    std::vector<int> parked;
    parked.reserve(num_users_);
    for (int p = 0; p < num_users_; ++p)
      if (!walking_[p] && sim_->AgentActive(p)) parked.push_back(p);
    if (parked.empty()) continue;
    const int wake = parked[rng_.UniformInt(static_cast<int>(parked.size()))];
    sim_->SetHold(wake, false);
    sim_->SetGoal(wake, RandomWaypoint());
    walking_[wake] = true;
  }
  sim_->Step();
}

void Room::RederiveWalkers() {
  if (options_.mode != Mode::kLive || options_.move_fraction >= 1.0) return;
  // After a wholesale teleport (migration / recovery) the donor's
  // held set is unknown — like the waypoint RNG, it is deliberately
  // not part of the migrated state. Re-derive it: agents with an
  // outstanding waypoint walk, the rest park.
  for (int u = 0; u < num_users_; ++u) {
    const bool walks =
        Distance(sim_->Position(u), sim_->Goal(u)) > kGoalTolerance;
    walking_[u] = walks;
    sim_->SetHold(u, !walks);
  }
}

Status Room::TeleportUser(int user, const Vec2& position) {
  if (options_.mode != Mode::kLive)
    return InvalidArgumentError(
        "room " + std::to_string(options_.id) +
        ": TeleportUser requires live mode (replay rooms follow the "
        "recording)");
  if (user < 0 || user >= num_users_)
    return InvalidArgumentError("room " + std::to_string(options_.id) +
                                ": TeleportUser user out of range");
  std::lock_guard<std::mutex> lock(tick_mutex_);
  sim_->TeleportAgent(user, position);
  dirty_.push_back(user);
  return OkStatus();
}

Status Room::SetUserActive(int user, bool active) {
  if (options_.mode != Mode::kLive)
    return InvalidArgumentError(
        "room " + std::to_string(options_.id) +
        ": SetUserActive requires live mode (replay rooms follow the "
        "recording)");
  if (user < 0 || user >= num_users_)
    return InvalidArgumentError("room " + std::to_string(options_.id) +
                                ": SetUserActive user out of range");
  std::lock_guard<std::mutex> lock(tick_mutex_);
  sim_->SetAgentActive(user, active);
  dirty_.push_back(user);
  return OkStatus();
}

void Room::Publish(std::vector<Vec2> positions, int tick) {
  dirty_.clear();
  std::shared_ptr<const TemporalView> view;
  if (temporal_ != nullptr) {
    // Non-tick publishes (create / migration / recovery) rebuild the
    // index from scratch: inherited recency history may describe a
    // different lineage, and recovered rooms must never trust caches
    // they did not build (the stale-cache drill's contract).
    temporal_->Rebuild(positions, tick);
    view = temporal_->PublishView();
  }
  window_.push_back(positions);
  while (static_cast<int>(window_.size()) > kTrajectoryWindowFrames)
    window_.pop_front();
  auto snapshot = std::make_shared<const RoomSnapshot>(
      tick, std::move(positions), &world_->interfaces(),
      &dataset_->preference, &dataset_->social_presence, options_.beta,
      world_->body_radius(), std::move(view));
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = std::move(snapshot);
  }
  tick_.store(tick, std::memory_order_release);
}

void Room::PublishTick(std::vector<Vec2> positions, int tick) {
  // Moved set: bitwise position diff against the previous published
  // frame, plus users churned since the last publish (teleports and
  // active flips count as moved even when the position bits agree).
  std::vector<int> moved;
  std::vector<bool> seen(num_users_, false);
  const std::vector<Vec2>& prev = window_.back();
  for (int u = 0; u < num_users_; ++u) {
    if (positions[u].x != prev[u].x || positions[u].y != prev[u].y) {
      moved.push_back(u);
      seen[u] = true;
    }
  }
  for (int u : dirty_) {
    if (!seen[u]) {
      moved.push_back(u);
      seen[u] = true;
    }
  }
  std::sort(moved.begin(), moved.end());
  dirty_.clear();

  std::shared_ptr<const TemporalView> view;
  if (temporal_ != nullptr) {
    // The incremental update is exact for this moved set regardless of
    // which snapshot kind gets published below.
    temporal_->Update(positions, moved, tick);
    view = temporal_->PublishView();
  }

  const bool use_delta =
      options_.delta_snapshots &&
      static_cast<double>(moved.size()) <=
          options_.delta_rebuild_fraction * num_users_;
  std::shared_ptr<const RoomSnapshot> previous;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    previous = snapshot_;
  }

  window_.push_back(positions);
  while (static_cast<int>(window_.size()) > kTrajectoryWindowFrames)
    window_.pop_front();

  std::shared_ptr<const RoomSnapshot> snapshot;
  if (use_delta && previous != nullptr) {
    snapshot = std::make_shared<const RoomSnapshot>(
        tick, std::move(positions), *previous, std::move(moved),
        std::move(view));
    delta_ticks_.fetch_add(1, std::memory_order_relaxed);
  } else {
    snapshot = std::make_shared<const RoomSnapshot>(
        tick, std::move(positions), &world_->interfaces(),
        &dataset_->preference, &dataset_->social_presence, options_.beta,
        world_->body_radius(), std::move(view));
    scratch_ticks_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = std::move(snapshot);
  }
  tick_.store(tick, std::memory_order_release);
}

std::shared_ptr<const RoomSnapshot> Room::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

namespace {

/// Packs a list of position frames into one (frames*n) x 2 matrix,
/// oldest frame first — the migration blob's trajectory-window block.
Matrix PackFrames(const std::deque<std::vector<Vec2>>& frames, int n) {
  Matrix out(static_cast<int>(frames.size()) * n, 2);
  int row = 0;
  for (const auto& frame : frames) {
    for (int u = 0; u < n; ++u, ++row) {
      out.At(row, 0) = frame[u].x;
      out.At(row, 1) = frame[u].y;
    }
  }
  return out;
}

}  // namespace

std::string Room::ExportState() const {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  const int n = num_users_;
  // Block 0: meta row [tick, num_users, window_frames, mode].
  Matrix meta(1, 4);
  meta.At(0, 0) = tick_.load(std::memory_order_relaxed);
  meta.At(0, 1) = n;
  meta.At(0, 2) = static_cast<int>(window_.size());
  meta.At(0, 3) = options_.mode == Mode::kLive ? 1 : 0;
  // Block 1: current positions (the last published frame).
  Matrix positions(n, 2);
  const std::vector<Vec2>& current = window_.back();
  for (int u = 0; u < n; ++u) {
    positions.At(u, 0) = current[u].x;
    positions.At(u, 1) = current[u].y;
  }
  // Block 2: live-mode waypoint goals (zeros in replay mode, where the
  // recorded session is the only trajectory source).
  Matrix goals(n, 2);
  if (options_.mode == Mode::kLive) {
    for (int u = 0; u < n; ++u) {
      goals.At(u, 0) = sim_->Goal(u).x;
      goals.At(u, 1) = sim_->Goal(u).y;
    }
  }
  // Block 3: the trajectory window, oldest frame first.
  std::ostringstream out;
  WriteParameterBlock(out, {meta, positions, goals, PackFrames(window_, n)});
  return out.str();
}

Status Room::ApplyState(const std::string& blob) {
  std::istringstream in(blob);
  std::vector<Matrix> blocks;
  AFTER_RETURN_IF_ERROR(
      ReadParameterBlock(in, &blocks)
          .Annotate("room " + std::to_string(options_.id) +
                    ": migration state"));
  // Validate everything before touching any room state (all-or-nothing).
  const auto fail = [this](const std::string& what) {
    return InvalidDataError("room " + std::to_string(options_.id) +
                            ": migration state " + what);
  };
  if (blocks.size() != 4) return fail("does not have 4 blocks");
  const Matrix& meta = blocks[0];
  if (meta.rows() != 1 || meta.cols() != 4) return fail("meta is not 1x4");
  const int tick = static_cast<int>(meta.At(0, 0));
  const int n = static_cast<int>(meta.At(0, 1));
  const int frames = static_cast<int>(meta.At(0, 2));
  const int mode = static_cast<int>(meta.At(0, 3));
  if (tick < 0) return fail("has a negative tick");
  if (n != num_users_) return fail("user count mismatch");
  if (frames < 1 || frames > kTrajectoryWindowFrames)
    return fail("has an out-of-range window length");
  if (mode != (options_.mode == Mode::kLive ? 1 : 0))
    return fail("mode mismatch");
  if (options_.mode == Mode::kReplay && tick >= world_->num_steps())
    return fail("tick beyond the replay session");
  const Matrix& positions = blocks[1];
  const Matrix& goals = blocks[2];
  const Matrix& window = blocks[3];
  if (positions.rows() != n || positions.cols() != 2)
    return fail("positions block is not n x 2");
  if (goals.rows() != n || goals.cols() != 2)
    return fail("goals block is not n x 2");
  if (window.rows() != frames * n || window.cols() != 2)
    return fail("window block does not match its declared length");

  std::lock_guard<std::mutex> lock(tick_mutex_);
  std::vector<Vec2> current(n);
  for (int u = 0; u < n; ++u)
    current[u] = Vec2{positions.At(u, 0), positions.At(u, 1)};
  if (options_.mode == Mode::kLive) {
    for (int u = 0; u < n; ++u) {
      sim_->TeleportAgent(u, current[u]);
      sim_->SetGoal(u, Vec2{goals.At(u, 0), goals.At(u, 1)});
    }
    RederiveWalkers();
  }
  window_.clear();
  for (int f = 0; f < frames; ++f) {
    std::vector<Vec2> frame(n);
    for (int u = 0; u < n; ++u)
      frame[u] = Vec2{window.At(f * n + u, 0), window.At(f * n + u, 1)};
    window_.push_back(std::move(frame));
  }
  // Publish() re-appends the current frame, so drop the last window
  // entry (it is the same frame by construction).
  window_.pop_back();
  Publish(std::move(current), tick);
  return OkStatus();
}

std::vector<std::vector<Vec2>> Room::trajectory_window() const {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  return std::vector<std::vector<Vec2>>(window_.begin(), window_.end());
}

Room::TickFrame Room::CurrentTickFrame() const {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  TickFrame frame;
  frame.tick = tick_.load(std::memory_order_relaxed);
  frame.positions = window_.back();
  if (options_.mode == Mode::kLive) {
    frame.goals.resize(num_users_);
    for (int u = 0; u < num_users_; ++u) frame.goals[u] = sim_->Goal(u);
  }
  return frame;
}

Status Room::ApplyTickFrame(const TickFrame& frame) {
  const auto fail = [this](const std::string& what) {
    return InvalidDataError("room " + std::to_string(options_.id) +
                            ": tick frame " + what);
  };
  if (static_cast<int>(frame.positions.size()) != num_users_)
    return fail("user count mismatch");
  const bool live = options_.mode == Mode::kLive;
  if (live && static_cast<int>(frame.goals.size()) != num_users_)
    return fail("goal count mismatch");
  if (!live && frame.tick >= world_->num_steps())
    return fail("tick beyond the replay session");
  std::lock_guard<std::mutex> lock(tick_mutex_);
  if (frame.tick <= tick_.load(std::memory_order_relaxed))
    return fail("does not advance the tick");
  if (live) {
    for (int u = 0; u < num_users_; ++u) {
      sim_->TeleportAgent(u, frame.positions[u]);
      sim_->SetGoal(u, frame.goals[u]);
    }
    RederiveWalkers();
  }
  Publish(frame.positions, frame.tick);
  return OkStatus();
}

}  // namespace serve
}  // namespace after
