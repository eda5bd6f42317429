#include "serve/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace after {
namespace serve {

int LatencyHistogram::BucketIndex(uint64_t us) {
  constexpr uint64_t kSubMask = (1ull << kSubBits) - 1;
  if (us < (1ull << kSubBits)) return static_cast<int>(us);
  // Octave = position of the highest set bit; the kSubBits bits below it
  // select the linear sub-bucket.
  const int exponent = std::bit_width(us) - 1;
  const int shift = exponent - kSubBits;
  const int sub = static_cast<int>((us >> shift) & kSubMask);
  const int index = ((shift + 1) << kSubBits) + sub;
  return std::min(index, kNumBuckets - 1);
}

double LatencyHistogram::BucketMidpointUs(int index) {
  constexpr int kSubMask = (1 << kSubBits) - 1;
  if (index < (1 << kSubBits)) return index + 0.5;
  const int shift = (index >> kSubBits) - 1;
  const int sub = index & kSubMask;
  const double base =
      static_cast<double>((static_cast<uint64_t>((1 << kSubBits) + sub))
                          << shift);
  const double width = static_cast<double>(1ull << shift);
  return base + width / 2.0;
}

void LatencyHistogram::RecordMs(double ms) {
  const double us = std::max(0.0, ms) * 1000.0;
  const auto value = static_cast<uint64_t>(std::llround(us));
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

int64_t LatencyHistogram::count() const {
  int64_t total = 0;
  for (const auto& bucket : buckets_)
    total += bucket.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::PercentileMs(double q) const {
  const int64_t total = count();
  if (total <= 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  int64_t rank = static_cast<int64_t>(std::ceil(clamped * total));
  rank = std::clamp<int64_t>(rank, 1, total);
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return BucketMidpointUs(i) / 1000.0;
  }
  return BucketMidpointUs(kNumBuckets - 1) / 1000.0;
}

void LatencyHistogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

std::atomic<int64_t>* PerRoomCounters::CounterFor(int room) {
  std::lock_guard<std::mutex> lock(mutex_);
  return &counts_.try_emplace(room, 0).first->second;
}

std::unordered_map<int, int64_t> PerRoomCounters::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<int, int64_t> out;
  for (const auto& [room, counter] : counts_) {
    const int64_t count = counter.load(std::memory_order_relaxed);
    if (count != 0) out.emplace(room, count);
  }
  return out;
}

int64_t PerRoomCounters::Total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [room, counter] : counts_)
    total += counter.load(std::memory_order_relaxed);
  return total;
}

void PerRoomCounters::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [room, counter] : counts_)
    counter.store(0, std::memory_order_relaxed);
}

void ServerMetrics::NoteQueueDepth(int32_t depth) {
  int32_t prev = max_queue_depth.load(std::memory_order_relaxed);
  while (depth > prev &&
         !max_queue_depth.compare_exchange_weak(prev, depth,
                                                std::memory_order_relaxed)) {
  }
}

std::string ServerMetrics::DebugString() const {
  char line[512];
  std::string out;
  std::snprintf(
      line, sizeof(line),
      "serve: %lld submitted | %lld ok | %lld shed | %lld timeout | "
      "%lld fallback (deadline %lld, misbehaved %lld) | %lld errors\n",
      static_cast<long long>(requests_submitted.load()),
      static_cast<long long>(responses_ok.load()),
      static_cast<long long>(shed.load()),
      static_cast<long long>(timeouts.load()),
      static_cast<long long>(total_fallbacks()),
      static_cast<long long>(fallbacks_deadline.load()),
      static_cast<long long>(fallbacks_misbehaved.load()),
      static_cast<long long>(errors.load()));
  out += line;
  std::snprintf(line, sizeof(line),
                "queue: depth %d (max %d) | ticks %lld (%lld delta)\n",
                queue_depth.load(), max_queue_depth.load(),
                static_cast<long long>(ticks.load()),
                static_cast<long long>(delta_ticks.load()));
  out += line;
  std::snprintf(line, sizeof(line), "answers: %lld shared\n",
                static_cast<long long>(answers_shared.load()));
  out += line;
  if (pruned_requests.load() > 0) {
    std::snprintf(line, sizeof(line), "pruned: %lld requests\n",
                  static_cast<long long>(pruned_requests.load()));
    out += line;
  }
  if (rooms_assigned.load() > 0 || rooms_released.load() > 0) {
    std::snprintf(line, sizeof(line),
                  "partition: %lld assigned (%lld migrated in) | "
                  "%lld released\n",
                  static_cast<long long>(rooms_assigned.load()),
                  static_cast<long long>(migrations_in.load()),
                  static_cast<long long>(rooms_released.load()));
    out += line;
  }
  if (checkpoints_written.load() > 0 || journal_records.load() > 0 ||
      rooms_recovered.load() > 0 || data_loss_rooms.load() > 0) {
    std::snprintf(line, sizeof(line),
                  "durability: %lld checkpoints | %lld journal records "
                  "(%lld bytes) | %lld rooms recovered (%lld records "
                  "replayed) | %lld data-loss rooms\n",
                  static_cast<long long>(checkpoints_written.load()),
                  static_cast<long long>(journal_records.load()),
                  static_cast<long long>(journal_bytes.load()),
                  static_cast<long long>(rooms_recovered.load()),
                  static_cast<long long>(records_replayed.load()),
                  static_cast<long long>(data_loss_rooms.load()));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "latency ms: p50 %.3f | p95 %.3f | p99 %.3f (n=%lld)\n",
                latency.PercentileMs(0.50), latency.PercentileMs(0.95),
                latency.PercentileMs(0.99),
                static_cast<long long>(latency.count()));
  out += line;
  return out;
}

void ServerMetrics::Reset() {
  requests_submitted.store(0);
  responses_ok.store(0);
  shed.store(0);
  timeouts.store(0);
  fallbacks_deadline.store(0);
  fallbacks_misbehaved.store(0);
  errors.store(0);
  ticks.store(0);
  delta_ticks.store(0);
  pruned_requests.store(0);
  answers_shared.store(0);
  rooms_assigned.store(0);
  rooms_released.store(0);
  migrations_in.store(0);
  checkpoints_written.store(0);
  journal_records.store(0);
  journal_bytes.store(0);
  rooms_recovered.store(0);
  records_replayed.store(0);
  data_loss_rooms.store(0);
  queue_depth.store(0);
  max_queue_depth.store(0);
  latency.Reset();
  room_requests.Reset();
}

void NetFrontMetrics::NoteOpenConnections(int32_t open) {
  open_connections.store(open, std::memory_order_relaxed);
  int32_t seen = max_open_connections.load(std::memory_order_relaxed);
  while (open > seen && !max_open_connections.compare_exchange_weak(
                            seen, open, std::memory_order_relaxed)) {
  }
}

std::string NetFrontMetrics::DebugString() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "connections: accepted %lld | rejected %lld | open %d "
                "(max %d)\n",
                static_cast<long long>(connections_accepted.load()),
                static_cast<long long>(connections_rejected.load()),
                open_connections.load(), max_open_connections.load());
  out += line;
  std::snprintf(line, sizeof(line),
                "slow peers: idle_closed %lld | backpressure_closed %lld\n",
                static_cast<long long>(idle_closed.load()),
                static_cast<long long>(backpressure_closed.load()));
  out += line;
  std::snprintf(line, sizeof(line),
                "frames: in %lld | rejected %lld | not_owner %lld | "
                "control %lld\n",
                static_cast<long long>(frames_in.load()),
                static_cast<long long>(frames_rejected.load()),
                static_cast<long long>(not_owner_replies.load()),
                static_cast<long long>(control_frames.load()));
  out += line;
  std::snprintf(line, sizeof(line), "bytes: in %lld | out %lld\n",
                static_cast<long long>(bytes_in.load()),
                static_cast<long long>(bytes_out.load()));
  out += line;
  return out;
}

}  // namespace serve
}  // namespace after
