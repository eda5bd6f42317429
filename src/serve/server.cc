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
    : options_(options), fallback_(options.fallback_k) {
  AFTER_CHECK(factory != nullptr);
  for (auto& room : rooms) {
    AFTER_CHECK(room != nullptr);
    const int id = room->id();
    AFTER_CHECK(rooms_.emplace(id, std::move(room)).second);
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
  if (options_.batch_requests) {
    // The pool queue carries at most one drain task per room (admission
    // control moves to the explicit queue_depth gate in SubmitBatched),
    // so the starting room count must fit.
    AFTER_CHECK_GE(options_.queue_capacity,
                   static_cast<int>(rooms_.size()));
    batcher_ = std::make_unique<TickBatcher>();
  }
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
  if (batcher_ != nullptr) {
    SubmitBatched(request, deadline, std::move(done_ptr));
    return;
  }
  // One pool task per request keeps idle rooms at their lowest latency;
  // it answers through the same ladder as the batcher's drains.
  const bool admitted =
      pool_->TrySubmit([this, request, deadline, done_ptr] {
        std::vector<TickBatcher::Pending> batch;
        batch.push_back({request, deadline, done_ptr});
        ProcessBatch(request.room, std::move(batch));
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
    // Journal the published frame (and run the checkpoint budgets). A
    // durability failure degrades recoverability, not serving: count it
    // and keep ticking.
    if (durability_ != nullptr && !durability_->RecordTick(*hosted).ok())
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

void RecommendationServer::TickAll() {
  for (int id : RoomIds()) (void)TickRoom(id);
}

Status RecommendationServer::AddRoom(std::unique_ptr<Room> room) {
  AFTER_CHECK(room != nullptr);
  const int id = room->id();
  std::lock_guard<std::mutex> lock(rooms_mutex_);
  if (!rooms_.emplace(id, std::move(room)).second)
    return InvalidArgumentError("room " + std::to_string(id) +
                                " is already hosted");
  return OkStatus();
}

std::shared_ptr<Room> RecommendationServer::RemoveRoom(int id) {
  std::shared_ptr<Room> removed;
  {
    std::lock_guard<std::mutex> lock(rooms_mutex_);
    auto it = rooms_.find(id);
    if (it == rooms_.end()) return nullptr;
    removed = std::move(it->second);
    rooms_.erase(it);
  }
  return removed;
}

std::shared_ptr<Room> RecommendationServer::FindRoom(int id) const {
  std::lock_guard<std::mutex> lock(rooms_mutex_);
  auto it = rooms_.find(id);
  return it == rooms_.end() ? nullptr : it->second;
}

bool RecommendationServer::HasRoom(int id) const {
  return FindRoom(id) != nullptr;
}

std::vector<int> RecommendationServer::RoomIds() const {
  std::lock_guard<std::mutex> lock(rooms_mutex_);
  std::vector<int> ids;
  ids.reserve(rooms_.size());
  for (const auto& [id, room] : rooms_) ids.push_back(id);
  return ids;
}

int RecommendationServer::num_rooms() const {
  std::lock_guard<std::mutex> lock(rooms_mutex_);
  return static_cast<int>(rooms_.size());
}

void RecommendationServer::SubmitBatched(
    const FriendRequest& request, const Deadline& deadline,
    std::shared_ptr<std::function<void(const FriendResponse&)>> done) {
  auto answer_inline = [&](FriendResponse response) {
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    (*done)(response);
  };

  // The batcher parks per room, so an unhosted room is answered here,
  // through the ladder, before it can grow a queue.
  if (request.room < 0 || !HasRoom(request.room)) {
    std::vector<TickBatcher::Pending> batch;
    batch.push_back({request, deadline, std::move(done)});
    ProcessBatch(request.room, std::move(batch));
    return;
  }

  // Admission control: the pool queue only carries drain tasks in this
  // mode, so the request bound is enforced on the live depth gauge.
  if (metrics_.queue_depth.load(std::memory_order_relaxed) >
      options_.queue_capacity) {
    metrics_.shed.fetch_add(1, std::memory_order_relaxed);
    FriendResponse response;
    std::ostringstream oss;
    oss << "request queue full (capacity " << options_.queue_capacity
        << "); load shed";
    response.status = ResourceExhaustedError(oss.str());
    answer_inline(std::move(response));
    return;
  }

  TickBatcher::Pending pending;
  pending.request = request;
  pending.deadline = deadline;
  pending.done = done;  // keep `done` alive for the rejection path
  const int room = request.room;
  const TickBatcher::Admit admitted = batcher_->Enqueue(
      room, std::move(pending), [this, room] {
        return pool_->TrySubmit([this, room] { DrainRoom(room); });
      });
  if (admitted == TickBatcher::Admit::kRejected) {
    metrics_.shed.fetch_add(1, std::memory_order_relaxed);
    FriendResponse response;
    response.status = ResourceExhaustedError(
        "worker pool rejected the drain task; load shed");
    answer_inline(std::move(response));
  }
}

void RecommendationServer::DrainRoom(int room) {
  // Loop until the queue is observed empty: TakeBatch's empty return is
  // what releases drain ownership, so no admitted request is stranded.
  while (true) {
    std::vector<TickBatcher::Pending> batch = batcher_->TakeBatch(room);
    if (batch.empty()) return;
    metrics_.batches.fetch_add(1, std::memory_order_relaxed);
    metrics_.batched_requests.fetch_add(static_cast<int64_t>(batch.size()),
                                        std::memory_order_relaxed);
    ProcessBatch(room, std::move(batch));
  }
}

void RecommendationServer::ProcessBatch(
    int room, std::vector<TickBatcher::Pending> batch) {
  // Resolved once for the whole batch. In-flight requests keep a removed
  // (migrated) room alive through this shared_ptr and drain normally.
  const std::shared_ptr<Room> hosted = room < 0 ? nullptr : FindRoom(room);
  if (hosted != nullptr)
    metrics_.room_requests.Note(room, static_cast<int64_t>(batch.size()));
  const int n = hosted != nullptr ? hosted->num_users() : 0;

  auto respond = [this](const TickBatcher::Pending& pending,
                        FriendResponse response) {
    response.latency_ms = pending.deadline.ElapsedMs();
    metrics_.latency.RecordMs(response.latency_ms);
    if (response.status.ok())
      metrics_.responses_ok.fetch_add(1, std::memory_order_relaxed);
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    (*pending.done)(response);
  };

  // Ladder step 2 and validation happen per request before any model
  // work; survivors coalesce by target so duplicate requests for one
  // user share a single forward pass.
  struct Group {
    int user = 0;
    std::vector<size_t> members;  // indices into `batch`
  };
  std::vector<Group> groups;
  std::unordered_map<int, size_t> group_of_user;
  for (size_t i = 0; i < batch.size(); ++i) {
    const TickBatcher::Pending& pending = batch[i];
    const bool expired = pending.deadline.Expired();
    const int user = pending.request.user;
    if (!expired && hosted != nullptr && user >= 0 && user < n) {
      auto [it, inserted] = group_of_user.emplace(user, groups.size());
      if (inserted) groups.push_back(Group{user, {}});
      groups[it->second].members.push_back(i);
      continue;
    }
    FriendResponse response;
    std::ostringstream oss;
    if (expired) {
      metrics_.timeouts.fetch_add(1, std::memory_order_relaxed);
      oss << "deadline expired after " << pending.deadline.ElapsedMs()
          << " ms in queue";
      response.status = TimeoutError(oss.str());
    } else if (hosted == nullptr) {
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
      oss << "room " << room << " does not exist";
      response.status = NotFoundError(oss.str());
    } else {
      metrics_.errors.fetch_add(1, std::memory_order_relaxed);
      oss << "user " << user << " out of range [0, " << n << ") in room "
          << room;
      response.status = InvalidDataError(oss.str());
    }
    respond(pending, std::move(response));
  }
  if (groups.empty()) return;

  const std::shared_ptr<const RoomSnapshot> snapshot = hosted->snapshot();
  for (const Group& group : groups) {
    StepContext context = snapshot->ContextFor(group.user);
    // Temporal candidate pruning: cap the candidate set to the target's
    // most-recently co-present users. The mask must outlive the model
    // calls below (fallback included), hence the local here.
    std::vector<bool> prune_mask;
    if (snapshot->PruneCandidates(group.user, options_.max_candidates,
                                  &prune_mask)) {
      context.blocklist = &prune_mask;
      metrics_.pruned_requests.fetch_add(1, std::memory_order_relaxed);
    }
    std::vector<bool> primary_answer = primary_->Recommend(context);
    const bool misbehaved = static_cast<int>(primary_answer.size()) != n;
    metrics_.coalesced.fetch_add(
        static_cast<int64_t>(group.members.size()) - 1,
        std::memory_order_relaxed);
    // Built lazily: most groups never need the fallback.
    std::vector<bool> fallback_answer;
    for (size_t index : group.members) {
      const TickBatcher::Pending& pending = batch[index];
      FriendResponse response;
      response.tick = snapshot->tick();
      std::vector<bool> recommended;
      if (misbehaved || pending.deadline.Expired()) {
        // Ladder step 3: the primary's answer is unusable (wrong shape)
        // or too late to be worth rendering; serve the cheap spatial
        // fallback instead of failing the request.
        if (fallback_answer.empty())
          fallback_answer = fallback_.Recommend(context);
        recommended = fallback_answer;
        response.used_fallback = true;
        if (misbehaved)
          metrics_.fallbacks_misbehaved.fetch_add(1,
                                                  std::memory_order_relaxed);
        else
          metrics_.fallbacks_deadline.fetch_add(1, std::memory_order_relaxed);
      } else if (index == group.members.back()) {
        recommended = std::move(primary_answer);
      } else {
        recommended = primary_answer;
      }
      if (static_cast<int>(recommended.size()) != n) {
        metrics_.errors.fetch_add(1, std::memory_order_relaxed);
        response.status =
            InternalError("fallback produced a wrong-size answer");
        respond(pending, std::move(response));
        continue;
      }
      recommended[pending.request.user] = false;
      response.recommended = std::move(recommended);
      response.status = OkStatus();
      respond(pending, std::move(response));
    }
  }
}

}  // namespace serve
}  // namespace after
