#ifndef AFTER_SERVE_METRICS_H_
#define AFTER_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace after {
namespace serve {

/// Lock-free log-linear latency histogram in the HDR-histogram style:
/// a value in microseconds is bucketed by (octave of its highest set
/// bit, linear sub-bucket within the octave), bounding relative error
/// at ~1/2^kSubBits (~6%) across [1 us, ~67 s] with a fixed footprint
/// of kNumBuckets counters. Record() is a single relaxed atomic
/// increment, so request threads never contend; percentile reads are
/// racy-but-consistent-enough snapshots, which is the usual contract
/// for serving metrics.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;  // 16 linear sub-buckets per octave
  static constexpr int kOctaves = 26; // covers up to ~67 s in microseconds
  static constexpr int kNumBuckets = (kOctaves + 1) << kSubBits;

  /// Records one latency sample (clamped to >= 0).
  void RecordMs(double ms);

  /// Latency in milliseconds at quantile q in [0, 1]; 0 when empty.
  double PercentileMs(double q) const;

  /// Total samples recorded.
  int64_t count() const;

  void Reset();

 private:
  static int BucketIndex(uint64_t us);
  static double BucketMidpointUs(int index);

  std::atomic<int64_t> buckets_[kNumBuckets] = {};
};

/// Per-room request histogram: how many requests the server answered
/// against each hosted room since start (or Reset). A room is noted
/// only once a request resolves to it, so ids from an untrusted wire
/// never grow the map, and requests shed at admission do not count per
/// room (they still count in `shed`). Unlike the rest of ServerMetrics
/// this is a mutex-guarded map, not a lock-free counter — the room-id
/// space is open-ended (partitioned shards host whatever the router
/// grants), and one short uncontended lock per answered batch (one
/// request on the direct path) is cheap next to a model forward pass.
/// Skew-aware drivers (bench/world_sim) read the snapshot to verify
/// that offered Zipf load actually reached the rooms it targeted.
class PerRoomCounters {
 public:
  void Note(int room, int64_t requests) {
    std::lock_guard<std::mutex> lock(mutex_);
    counts_[room] += requests;
  }

  std::unordered_map<int, int64_t> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
  }

  int64_t Total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    int64_t total = 0;
    for (const auto& entry : counts_) total += entry.second;
    return total;
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<int, int64_t> counts_;
};

/// Serving-side counters for the RecommendationServer. All counters are
/// monotonically increasing atomics except queue_depth (a gauge); the
/// struct is intentionally dumb so workers pay one relaxed increment
/// per event.
struct ServerMetrics {
  /// Requests offered to Submit() (including ones later shed).
  std::atomic<int64_t> requests_submitted{0};
  /// Requests answered with OK (including degraded/fallback answers).
  std::atomic<int64_t> responses_ok{0};
  /// Requests rejected at admission because the queue was full.
  std::atomic<int64_t> shed{0};
  /// Requests whose deadline expired while queued (answered kTimeout).
  std::atomic<int64_t> timeouts{0};
  /// OK answers served by the fallback because the primary model missed
  /// the request deadline.
  std::atomic<int64_t> fallbacks_deadline{0};
  /// OK answers served by the fallback because the primary misbehaved
  /// (wrong-size recommendation vector).
  std::atomic<int64_t> fallbacks_misbehaved{0};
  /// Requests answered with kNotFound / kInvalidData (bad room or user).
  std::atomic<int64_t> errors{0};
  /// Batched mode (ServerOptions::batch_requests): coalesced inference
  /// jobs executed (one per room drain) and requests answered through
  /// them.
  std::atomic<int64_t> batches{0};
  std::atomic<int64_t> batched_requests{0};
  /// Requests that shared a forward pass with an earlier request for the
  /// same (room, target) in the same batch — pure saved model work.
  std::atomic<int64_t> coalesced{0};
  /// Room ticks published.
  std::atomic<int64_t> ticks{0};
  /// Delta ticks (docs/ticking.md): ticks whose published snapshot was
  /// delta-built from its predecessor instead of from scratch.
  std::atomic<int64_t> delta_ticks{0};
  /// Requests answered against a temporally pruned candidate set
  /// (ServerOptions::max_candidates).
  std::atomic<int64_t> pruned_requests{0};
  /// Partitioned serving (serve/shard_control.h): ownership grants and
  /// releases processed by this shard, and how many of the grants
  /// carried migrated state (as opposed to fresh-seeded rooms).
  std::atomic<int64_t> rooms_assigned{0};
  std::atomic<int64_t> rooms_released{0};
  std::atomic<int64_t> migrations_in{0};
  /// Durability subsystem (serve/checkpoint.h, serve/journal.h):
  /// checkpoint files written, journal records / bytes appended, and —
  /// on the recovery side — rooms brought back from durable state,
  /// journal records replayed into them, and rooms whose durable state
  /// was unrecoverably corrupt (kDataLoss; the room restarts fresh).
  std::atomic<int64_t> checkpoints_written{0};
  std::atomic<int64_t> journal_records{0};
  std::atomic<int64_t> journal_bytes{0};
  std::atomic<int64_t> rooms_recovered{0};
  std::atomic<int64_t> records_replayed{0};
  std::atomic<int64_t> data_loss_rooms{0};
  /// Requests currently admitted but not yet completed.
  std::atomic<int32_t> queue_depth{0};
  /// High-water mark of queue_depth.
  std::atomic<int32_t> max_queue_depth{0};
  /// End-to-end latency (admission -> response) of non-shed requests.
  LatencyHistogram latency;
  /// Per-room request histogram (see PerRoomCounters).
  PerRoomCounters room_requests;

  int64_t total_fallbacks() const {
    return fallbacks_deadline.load(std::memory_order_relaxed) +
           fallbacks_misbehaved.load(std::memory_order_relaxed);
  }

  /// Records a new depth sample and maintains the high-water mark.
  void NoteQueueDepth(int32_t depth);

  /// Multi-line human-readable dump (counters + p50/p95/p99).
  std::string DebugString() const;

  void Reset();
};

/// Network-front counters for the epoll reactor (serve/net_server.h).
/// Same contract as ServerMetrics: every event is one relaxed atomic
/// increment, gauges are racy-but-monotone snapshots. These are the
/// knob-observability surface for slow-peer handling: a rising
/// `connections_rejected` means max_connections is the bottleneck,
/// `idle_closed` counts reaped dead clients, and
/// `backpressure_closed` counts peers that stopped reading their
/// responses past the write_close_bytes cap.
struct NetFrontMetrics {
  std::atomic<int64_t> connections_accepted{0};
  /// Accepts closed immediately because max_connections was reached
  /// (the network-layer analogue of queue-full shedding).
  std::atomic<int64_t> connections_rejected{0};
  /// Connections reaped by the idle sweep (no bytes in either direction
  /// for idle_timeout_ms).
  std::atomic<int64_t> idle_closed{0};
  /// Slow peers disconnected because their pending output exceeded
  /// write_close_bytes (they stopped draining responses).
  std::atomic<int64_t> backpressure_closed{0};
  /// Malformed frames (framing errors and undecodable payloads).
  std::atomic<int64_t> frames_rejected{0};
  std::atomic<int64_t> not_owner_replies{0};
  std::atomic<int64_t> control_frames{0};
  /// Complete frames dispatched and raw byte counts, both directions.
  std::atomic<int64_t> frames_in{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
  /// Live-connection gauge and its high-water mark.
  std::atomic<int32_t> open_connections{0};
  std::atomic<int32_t> max_open_connections{0};

  /// Records a new connection-count sample, maintaining the high-water
  /// mark.
  void NoteOpenConnections(int32_t open);

  /// Multi-line human-readable dump.
  std::string DebugString() const;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_METRICS_H_
