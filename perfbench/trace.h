#ifndef AFTER_PERFBENCH_TRACE_H_
#define AFTER_PERFBENCH_TRACE_H_

// Span recording for the traced benchmark run, done entirely from the
// benchmark's side of each layer's public interface: wrappers around the
// RequestHandlers given to the router and shard NetServers, timestamps
// around ShardRouter::Route, and a decorating Recommender around the
// frozen primary. Nothing inside the serving code is instrumented.
//
// A request's spans are joined across threads and TCP hops by its
// (room, user) pair: the traced run's generator never has two requests
// for one pair in flight, so each pair owns one Slot that every layer
// stamps while the request passes through.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "serve/net_server.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/thread_pool.h"

namespace after {
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-(room, user) span stamps of the request currently in flight for
/// that pair. Zero means "the request did not pass that boundary".
struct Slot {
  /// A request for this pair is in flight (claimed by the generator).
  std::atomic<bool> busy{false};
  /// The in-flight request records spans.
  std::atomic<bool> traced{false};
  std::atomic<int64_t> router_in{0};   // router handler entry
  std::atomic<int64_t> route_in{0};    // ShardRouter::Route entry
  std::atomic<int64_t> route_out{0};   // Route return
  std::atomic<int64_t> shard_in{0};    // shard handler entry
  std::atomic<int64_t> model_in{0};    // primary Recommend entry
  std::atomic<int64_t> model_out{0};   // primary Recommend return
  std::atomic<int64_t> shard_done{0};  // shard completion callback
  std::atomic<int32_t> candidates{-1};
  /// The target's occlusion graph was not built on the current snapshot
  /// when the shard handler saw the request.
  std::atomic<bool> cold{false};
};

/// Plain copy of a Slot, taken by the generator when the answer arrives.
struct SpanStamps {
  int64_t router_in = 0, route_in = 0, route_out = 0, shard_in = 0,
          model_in = 0, model_out = 0, shard_done = 0;
  int32_t candidates = -1;
  bool cold = false;
};

class Tracer {
 public:
  explicit Tracer(const std::vector<int>& room_sizes);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The pair's slot; null for a pair outside the plan.
  Slot* SlotFor(int room, int user);
  /// The pair's slot if its in-flight request is traced, else null.
  Slot* Traced(const serve::FriendRequest& request);

  /// Called on the generator side just before a traced request is sent:
  /// clears the previous request's stamps and arms the slot.
  static void Arm(Slot* slot, bool traced);
  /// Copies the stamps and releases the pair.
  static SpanStamps Collect(Slot* slot);

  /// Counters kept by the decorating Recommender and the shard wrapper.
  std::atomic<int64_t> infer_calls{0};
  std::atomic<int64_t> infer_targets{0};
  std::atomic<int64_t> infer_candidates{0};
  /// Responses the shard handlers returned with a status that
  /// ServerMetrics::errors counts (not OK, not shed, not timeout).
  std::atomic<int64_t> shard_error_responses{0};

 private:
  std::vector<int> offsets_;
  std::vector<int> sizes_;
  std::unique_ptr<Slot[]> slots_;
};

/// Decorator around the serving primary: forwards name(), thread_safe(),
/// Recommend and RecommendBatch unchanged, timing each call and counting
/// targets and candidates.
class TracedRecommender : public Recommender {
 public:
  TracedRecommender(std::unique_ptr<Recommender> inner, Tracer* tracer);

  std::string name() const override { return inner_->name(); }
  void BeginSession(int num_users, int target) override {
    inner_->BeginSession(num_users, target);
  }
  bool thread_safe() const override { return inner_->thread_safe(); }
  std::vector<bool> Recommend(const StepContext& context) override;
  std::vector<std::vector<bool>> RecommendBatch(
      const std::vector<StepContext>& contexts) override;

 private:
  /// Counts one target and returns its candidate count.
  int32_t Count(const StepContext& context);

  std::unique_ptr<Recommender> inner_;
  Tracer* tracer_;
};

/// Shard-side handler: RecommendationServer::Submit, plus (with a
/// tracer) the shard span and the model span, which the decorator hands
/// over on the worker thread that runs the completion. The socket-free
/// workload calls it directly in place of a shard NetServer.
serve::RequestHandler ShardHandler(serve::RecommendationServer* server,
                                   Tracer* tracer);

/// Router-side handler, shaped like the fleet's router front (a bounded
/// pool running ShardRouter::Route); with a tracer it stamps handler
/// entry and the Route span.
serve::RequestHandler RouterHandler(serve::ShardRouter* router,
                                    serve::ThreadPool* pool, Tracer* tracer);

}  // namespace perfbench
}  // namespace after

#endif  // AFTER_PERFBENCH_TRACE_H_
