#include "perfbench/trace.h"

#include <utility>

namespace after {
namespace perfbench {
namespace {

// The model span of the last primary call on this worker thread. The
// server runs the completion callback on the worker that ran the model,
// right after it, so the shard wrapper picks the span up from here.
struct ModelSpan {
  bool valid = false;
  int target = -1;
  int64_t in = 0;
  int64_t out = 0;
  int32_t candidates = -1;
};
thread_local ModelSpan tls_model_span;

int32_t Candidates(const StepContext& context) {
  const int n = context.positions == nullptr
                    ? 0
                    : static_cast<int>(context.positions->size());
  int32_t count = 0;
  for (int w = 0; w < n; ++w) {
    if (w == context.target) continue;
    if (context.blocklist != nullptr && (*context.blocklist)[w]) continue;
    ++count;
  }
  return count;
}

bool CountsAsError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kTimeout:
    case StatusCode::kResourceExhausted:
      return false;
    default:
      return true;
  }
}

}  // namespace

Tracer::Tracer(const std::vector<int>& room_sizes) : sizes_(room_sizes) {
  int total = 0;
  for (int size : room_sizes) {
    offsets_.push_back(total);
    total += size;
  }
  slots_ = std::make_unique<Slot[]>(static_cast<size_t>(total));
}

Slot* Tracer::SlotFor(int room, int user) {
  if (room < 0 || room >= static_cast<int>(sizes_.size())) return nullptr;
  if (user < 0 || user >= sizes_[static_cast<size_t>(room)]) return nullptr;
  return &slots_[static_cast<size_t>(offsets_[static_cast<size_t>(room)] +
                                     user)];
}

Slot* Tracer::Traced(const serve::FriendRequest& request) {
  Slot* slot = SlotFor(request.room, request.user);
  if (slot == nullptr || !slot->traced.load(std::memory_order_acquire))
    return nullptr;
  return slot;
}

void Tracer::Arm(Slot* slot, bool traced) {
  for (std::atomic<int64_t>* stamp :
       {&slot->router_in, &slot->route_in, &slot->route_out, &slot->shard_in,
        &slot->model_in, &slot->model_out, &slot->shard_done})
    stamp->store(0, std::memory_order_relaxed);
  slot->candidates.store(-1, std::memory_order_relaxed);
  slot->cold.store(false, std::memory_order_relaxed);
  slot->traced.store(traced, std::memory_order_release);
}

SpanStamps Tracer::Collect(Slot* slot) {
  SpanStamps stamps;
  if (slot->traced.load(std::memory_order_acquire)) {
    stamps.router_in = slot->router_in.load(std::memory_order_relaxed);
    stamps.route_in = slot->route_in.load(std::memory_order_relaxed);
    stamps.route_out = slot->route_out.load(std::memory_order_relaxed);
    stamps.shard_in = slot->shard_in.load(std::memory_order_relaxed);
    stamps.model_in = slot->model_in.load(std::memory_order_relaxed);
    stamps.model_out = slot->model_out.load(std::memory_order_relaxed);
    stamps.shard_done = slot->shard_done.load(std::memory_order_relaxed);
    stamps.candidates = slot->candidates.load(std::memory_order_relaxed);
    stamps.cold = slot->cold.load(std::memory_order_relaxed);
  }
  slot->traced.store(false, std::memory_order_relaxed);
  slot->busy.store(false, std::memory_order_release);
  return stamps;
}

TracedRecommender::TracedRecommender(std::unique_ptr<Recommender> inner,
                                     Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

int32_t TracedRecommender::Count(const StepContext& context) {
  const int32_t candidates = Candidates(context);
  tracer_->infer_targets.fetch_add(1, std::memory_order_relaxed);
  tracer_->infer_candidates.fetch_add(candidates, std::memory_order_relaxed);
  return candidates;
}

std::vector<bool> TracedRecommender::Recommend(const StepContext& context) {
  ModelSpan& span = tls_model_span;
  span.in = NowNs();
  std::vector<bool> out = inner_->Recommend(context);
  span.out = NowNs();
  span.target = context.target;
  span.candidates = Count(context);
  span.valid = true;
  tracer_->infer_calls.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::vector<std::vector<bool>> TracedRecommender::RecommendBatch(
    const std::vector<StepContext>& contexts) {
  // The per-request path never batches; a batch is timed as one call
  // and attributed to no single request.
  tls_model_span.valid = false;
  std::vector<std::vector<bool>> out = inner_->RecommendBatch(contexts);
  tracer_->infer_calls.fetch_add(1, std::memory_order_relaxed);
  for (const StepContext& context : contexts) Count(context);
  return out;
}

serve::RequestHandler ShardHandler(serve::RecommendationServer* server,
                                   Tracer* tracer) {
  if (tracer == nullptr) {
    return [server](const serve::FriendRequest& request,
                    std::function<void(const serve::FriendResponse&)> done) {
      server->Submit(request, std::move(done));
    };
  }
  return [server, tracer](
             const serve::FriendRequest& request,
             std::function<void(const serve::FriendResponse&)> done) {
    Slot* slot = tracer->Traced(request);
    if (slot != nullptr) {
      slot->shard_in.store(NowNs(), std::memory_order_relaxed);
      const std::shared_ptr<serve::Room> room = server->FindRoom(request.room);
      slot->cold.store(
          room != nullptr && !room->snapshot()->occlusion_built(request.user),
          std::memory_order_relaxed);
    }
    const int user = request.user;
    server->Submit(request, [tracer, slot, user, done = std::move(done)](
                                const serve::FriendResponse& response) {
      if (CountsAsError(response.status))
        tracer->shard_error_responses.fetch_add(1, std::memory_order_relaxed);
      ModelSpan& span = tls_model_span;
      if (slot != nullptr) {
        if (span.valid && span.target == user) {
          slot->model_in.store(span.in, std::memory_order_relaxed);
          slot->model_out.store(span.out, std::memory_order_relaxed);
          slot->candidates.store(span.candidates, std::memory_order_relaxed);
        }
        slot->shard_done.store(NowNs(), std::memory_order_release);
      }
      span.valid = false;
      done(response);
    });
  };
}

serve::RequestHandler RouterHandler(serve::ShardRouter* router,
                                    serve::ThreadPool* pool, Tracer* tracer) {
  return [router, pool, tracer](
             const serve::FriendRequest& request,
             std::function<void(const serve::FriendResponse&)> done) {
    Slot* slot = tracer == nullptr ? nullptr : tracer->Traced(request);
    if (slot != nullptr)
      slot->router_in.store(NowNs(), std::memory_order_relaxed);
    auto done_ptr =
        std::make_shared<std::function<void(const serve::FriendResponse&)>>(
            std::move(done));
    if (!pool->TrySubmit([router, request, done_ptr, slot] {
          if (slot != nullptr)
            slot->route_in.store(NowNs(), std::memory_order_relaxed);
          const serve::FriendResponse response = router->Route(request);
          if (slot != nullptr)
            slot->route_out.store(NowNs(), std::memory_order_release);
          (*done_ptr)(response);
        })) {
      serve::FriendResponse response;
      response.status = ResourceExhaustedError("router queue full; load shed");
      (*done_ptr)(response);
    }
  };
}

}  // namespace perfbench
}  // namespace after
