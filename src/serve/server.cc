#include "serve/server.h"

#include <condition_variable>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "serve/checkpoint.h"

namespace after {
namespace serve {

RecommendationServer::RecommendationServer(
    std::vector<std::unique_ptr<Room>> rooms, RecommenderFactory factory,
    const ServerOptions& options)
    : options_(options), fallback_(kFallbackK) {
  AFTER_CHECK(factory != nullptr);
  for (auto& room : rooms) {
    AFTER_CHECK(room != nullptr);
    const int id = room->id();
    AFTER_CHECK(rooms_.emplace(id, Host(std::move(room))).second);
  }
  primary_ = factory();
  AFTER_CHECK(primary_ != nullptr);
  AFTER_CHECK_MSG(primary_->thread_safe(),
                  "the serving primary '"
                      << primary_->name()
                      << "' is not thread-safe; the server shares one "
                         "primary across every room and worker, so "
                         "stateful models belong to the offline evaluator "
                         "(serve FrozenPoshgnn instead)");
  pool_ = std::make_unique<ThreadPool>(options_.num_threads,
                                       options_.queue_capacity);
}

RecommendationServer::~RecommendationServer() { Shutdown(); }

void RecommendationServer::Shutdown() {
  if (pool_) pool_->Shutdown();
}

void RecommendationServer::Submit(
    const FriendRequest& request,
    std::function<void(const FriendResponse&)> done) {
  metrics_.requests_submitted.fetch_add(1, std::memory_order_relaxed);
  const double budget_ms = request.deadline_ms == 0.0
                               ? options_.default_deadline_ms
                               : request.deadline_ms;
  const Deadline deadline =
      budget_ms > 0.0 ? Deadline::ExpiresIn(budget_ms) : Deadline::Infinite();

  const int32_t depth =
      metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed) + 1;
  metrics_.NoteQueueDepth(depth);
  // The callback lives in a shared holder so it survives the rejected-
  // admission path (a closure capture by move would leave `done` empty
  // when TrySubmit declines the task).
  auto done_ptr =
      std::make_shared<std::function<void(const FriendResponse&)>>(
          std::move(done));
  const bool admitted =
      pool_->TrySubmit([this, request, deadline, done_ptr] {
        Answer(request, deadline, *done_ptr);
      });
  if (!admitted) {
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    metrics_.shed.fetch_add(1, std::memory_order_relaxed);
    FriendResponse response;
    std::ostringstream oss;
    oss << "request queue full (capacity " << options_.queue_capacity
        << "); load shed";
    response.status = ResourceExhaustedError(oss.str());
    (*done_ptr)(response);
  }
}

FriendResponse RecommendationServer::Handle(const FriendRequest& request) {
  std::mutex mutex;
  std::condition_variable cv;
  bool ready = false;
  FriendResponse out;
  Submit(request, [&](const FriendResponse& response) {
    // Notify while holding the lock: the waiter owns cv on its stack, so
    // signalling after unlock would race with cv's destruction once the
    // waiter observes ready and returns.
    std::lock_guard<std::mutex> lock(mutex);
    out = response;
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return ready; });
  return out;
}

Status RecommendationServer::TickRoom(int room) {
  const std::shared_ptr<Room> hosted = FindRoom(room);
  if (hosted == nullptr) return NotFoundError("no such room");
  const Status status = hosted->Tick();
  if (status.ok()) {
    metrics_.ticks.fetch_add(1, std::memory_order_relaxed);
    const std::shared_ptr<const RoomSnapshot> published = hosted->snapshot();
    if (published != nullptr && published->built_by_delta())
      metrics_.delta_ticks.fetch_add(1, std::memory_order_relaxed);
    // Journal the published frame (and run the checkpoint and rotation
    // budgets). A durability failure degrades recoverability, not
    // serving: count it and keep ticking.
    if (durability_ != nullptr && !durability_->RecordTick(*hosted).ok())
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

void RecommendationServer::TickAll() {
  for (int id : RoomIds()) (void)TickRoom(id);
}

RecommendationServer::HostedRoom RecommendationServer::Host(
    std::unique_ptr<Room> room) {
  std::atomic<int64_t>* requests =
      metrics_.room_requests.CounterFor(room->id());
  return HostedRoom{std::move(room), requests};
}

Status RecommendationServer::AddRoom(std::unique_ptr<Room> room) {
  AFTER_CHECK(room != nullptr);
  const int id = room->id();
  std::lock_guard<std::mutex> lock(rooms_mutex_);
  if (rooms_.contains(id))
    return InvalidArgumentError("room " + std::to_string(id) +
                                " is already hosted");
  rooms_.emplace(id, Host(std::move(room)));
  return OkStatus();
}

std::shared_ptr<Room> RecommendationServer::RemoveRoom(int id) {
  std::shared_ptr<Room> removed;
  {
    std::lock_guard<std::mutex> lock(rooms_mutex_);
    auto it = rooms_.find(id);
    if (it == rooms_.end()) return nullptr;
    removed = std::move(it->second.room);
    rooms_.erase(it);
  }
  return removed;
}

RecommendationServer::HostedRoom RecommendationServer::FindHosted(
    int id) const {
  std::lock_guard<std::mutex> lock(rooms_mutex_);
  auto it = rooms_.find(id);
  return it == rooms_.end() ? HostedRoom{} : it->second;
}

std::shared_ptr<Room> RecommendationServer::FindRoom(int id) const {
  return FindHosted(id).room;
}

bool RecommendationServer::HasRoom(int id) const {
  std::lock_guard<std::mutex> lock(rooms_mutex_);
  return rooms_.contains(id);
}

std::vector<int> RecommendationServer::RoomIds() const {
  std::lock_guard<std::mutex> lock(rooms_mutex_);
  std::vector<int> ids;
  ids.reserve(rooms_.size());
  for (const auto& [id, room] : rooms_) ids.push_back(id);
  return ids;
}

StepContext RecommendationServer::RequestContext(
    const RoomSnapshot& snapshot, int user,
    std::vector<bool>* prune_mask) const {
  StepContext context = snapshot.ContextFor(user);
  // Temporal candidate pruning: cap the candidate set to the target's
  // most-recently co-present users.
  if (snapshot.PruneCandidates(user, options_.max_candidates, prune_mask))
    context.blocklist = prune_mask;
  return context;
}

void RecommendationServer::Answer(
    const FriendRequest& request, const Deadline& deadline,
    const std::function<void(const FriendResponse&)>& done) {
  // In-flight requests keep a removed (migrated) room alive through this
  // shared_ptr and drain normally.
  const HostedRoom hosted =
      request.room < 0 ? HostedRoom{} : FindHosted(request.room);
  if (hosted.room != nullptr)
    hosted.requests->fetch_add(1, std::memory_order_relaxed);
  const int n = hosted.room != nullptr ? hosted.room->num_users() : 0;
  const int user = request.user;

  FriendResponse response;
  if (deadline.Expired()) {
    metrics_.timeouts.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream oss;
    oss << "deadline expired after " << deadline.ElapsedMs()
        << " ms in queue";
    response.status = TimeoutError(oss.str());
  } else if (hosted.room == nullptr) {
    metrics_.errors.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream oss;
    oss << "room " << request.room << " does not exist";
    response.status = NotFoundError(oss.str());
  } else if (user < 0 || user >= n) {
    metrics_.errors.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream oss;
    oss << "user " << user << " out of range [0, " << n << ") in room "
        << request.room;
    response.status = InvalidDataError(oss.str());
  } else {
    const std::shared_ptr<const RoomSnapshot> snapshot =
        hosted.room->snapshot();
    // One primary call per (snapshot, target): the request that fills
    // the target's slot builds the context and runs the primary, and
    // every other request for the target on this snapshot shares it.
    bool filled = false;
    const RoomSnapshot::TargetAnswer& primary =
        snapshot->AnswerFor(user, [&] {
          filled = true;
          std::vector<bool> prune_mask;
          const StepContext context =
              RequestContext(*snapshot, user, &prune_mask);
          return RoomSnapshot::TargetAnswer{primary_->Recommend(context),
                                            context.blocklist != nullptr};
        });
    if (!filled)
      metrics_.answers_shared.fetch_add(1, std::memory_order_relaxed);
    if (primary.pruned)
      metrics_.pruned_requests.fetch_add(1, std::memory_order_relaxed);
    const bool misbehaved = static_cast<int>(primary.recommended.size()) != n;
    response.tick = snapshot->tick();
    std::vector<bool> recommended;
    if (misbehaved || deadline.Expired()) {
      // Ladder step 3: the primary's answer is unusable (wrong shape) or
      // too late to be worth rendering; serve the cheap spatial fallback
      // instead of failing the request.
      std::vector<bool> prune_mask;
      recommended =
          fallback_.Recommend(RequestContext(*snapshot, user, &prune_mask));
      response.used_fallback = true;
      if (misbehaved)
        metrics_.fallbacks_misbehaved.fetch_add(1, std::memory_order_relaxed);
      else
        metrics_.fallbacks_deadline.fetch_add(1, std::memory_order_relaxed);
    } else {
      recommended = primary.recommended;
    }
    if (static_cast<int>(recommended.size()) != n) {
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
      response.status = InternalError("fallback produced a wrong-size answer");
    } else {
      recommended[user] = false;
      response.recommended = std::move(recommended);
      response.status = OkStatus();
    }
  }
  response.latency_ms = deadline.ElapsedMs();
  metrics_.latency.RecordMs(response.latency_ms);
  if (response.status.ok())
    metrics_.responses_ok.fetch_add(1, std::memory_order_relaxed);
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  done(response);
}

}  // namespace serve
}  // namespace after
