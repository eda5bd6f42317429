#include "serve/metrics.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

namespace after {
namespace serve {
namespace {

/// A sample reads back as its bucket's midpoint. From 16 us up a bucket
/// is 1/16 of its octave wide, so the midpoint is within 1/32 of the
/// sample, plus the half microsecond RecordMs rounds away; 1/16 bounds
/// both.
constexpr double kBucketError = 1.0 / (1 << LatencyHistogram::kSubBits);

TEST(LatencyHistogramTest, EmptyReadsZero) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  for (double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(histogram.PercentileMs(q), 0.0) << "q " << q;
}

TEST(LatencyHistogramTest, SingleSampleReadsBackWithinBucketError) {
  for (double ms : {0.02, 0.213, 1.0, 3.12, 47.5, 1234.0}) {
    LatencyHistogram histogram;
    histogram.RecordMs(ms);
    for (double q : {0.0, 0.5, 1.0})
      EXPECT_NEAR(histogram.PercentileMs(q), ms, ms * kBucketError)
          << ms << " ms at q " << q;
  }
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndPickTheirRank) {
  LatencyHistogram histogram;
  for (int ms = 100; ms >= 1; --ms) histogram.RecordMs(ms);
  double previous = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double at = histogram.PercentileMs(i / 100.0);
    EXPECT_GE(at, previous) << "q " << i / 100.0;
    previous = at;
  }
  // Quantile q reads the ceil(q * count)-th smallest sample.
  EXPECT_NEAR(histogram.PercentileMs(0.5), 50.0, 50.0 * kBucketError);
  EXPECT_NEAR(histogram.PercentileMs(0.99), 99.0, 99.0 * kBucketError);
  EXPECT_NEAR(histogram.PercentileMs(1.0), 100.0, 100.0 * kBucketError);
}

TEST(LatencyHistogramTest, CountCountsSamples) {
  LatencyHistogram histogram;
  for (int i = 0; i < 250; ++i) histogram.RecordMs(0.1 * i);
  histogram.RecordMs(-3.0);  // clamped to 0, still a sample
  EXPECT_EQ(histogram.count(), 251);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram histogram;
  histogram.RecordMs(5.0);
  histogram.RecordMs(7.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.PercentileMs(0.5), 0.0);
  histogram.RecordMs(2.0);
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_NEAR(histogram.PercentileMs(0.5), 2.0, 2.0 * kBucketError);
}

TEST(PerRoomCountersTest, CountersStayPutAndResetZeroesThem) {
  PerRoomCounters counters;
  std::atomic<int64_t>* first = counters.CounterFor(7);
  // Enough rooms to rehash the map: the first counter must not move.
  for (int room = 100; room < 400; ++room) counters.CounterFor(room);
  EXPECT_EQ(counters.CounterFor(7), first);
  first->fetch_add(3);
  counters.CounterFor(100)->fetch_add(2);
  // Rooms at zero (hosted, never asked) are absent.
  const std::unordered_map<int, int64_t> counts = counters.Snapshot();
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at(7), 3);
  EXPECT_EQ(counts.at(100), 2);
  EXPECT_EQ(counters.Total(), 5);

  counters.Reset();
  EXPECT_TRUE(counters.Snapshot().empty());
  EXPECT_EQ(counters.Total(), 0);
  // A reset counter is the same counter, still live.
  first->fetch_add(1);
  EXPECT_EQ(counters.Snapshot().at(7), 1);
}

/// Expects every entry of `want` in `dump`.
void ExpectAll(const std::string& dump,
               std::initializer_list<std::string> want) {
  for (const std::string& text : want)
    EXPECT_NE(dump.find(text), std::string::npos)
        << "missing \"" << text << "\" in:\n"
        << dump;
}

std::string Ms(double ms) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.3f", ms);
  return text;
}

TEST(MetricsDumpTest, ServerMetricsPrintsEveryCounterUnderItsLabel) {
  ServerMetrics metrics;
  metrics.requests_submitted.store(101);
  metrics.responses_ok.store(102);
  metrics.shed.store(103);
  metrics.timeouts.store(104);
  metrics.fallbacks_deadline.store(105);
  metrics.fallbacks_misbehaved.store(106);
  metrics.errors.store(107);
  metrics.queue_depth.store(8);
  metrics.max_queue_depth.store(9);
  metrics.ticks.store(110);
  metrics.delta_ticks.store(111);
  metrics.pruned_requests.store(112);
  metrics.rooms_assigned.store(113);
  metrics.migrations_in.store(114);
  metrics.rooms_released.store(115);
  metrics.checkpoints_written.store(116);
  metrics.journal_records.store(117);
  metrics.journal_bytes.store(118);
  metrics.rooms_recovered.store(119);
  metrics.records_replayed.store(120);
  metrics.data_loss_rooms.store(121);
  metrics.answers_shared.store(122);
  for (double ms : {1.0, 2.0, 40.0}) metrics.latency.RecordMs(ms);

  ExpectAll(metrics.DebugString(),
            {"serve: 101 submitted | 102 ok | 103 shed | 104 timeout | "
             "211 fallback (deadline 105, misbehaved 106) | 107 errors\n",
             "queue: depth 8 (max 9) | ticks 110 (111 delta)\n",
             "answers: 122 shared\n",
             "pruned: 112 requests\n",
             "partition: 113 assigned (114 migrated in) | 115 released\n",
             "durability: 116 checkpoints | 117 journal records (118 bytes) "
             "| 119 rooms recovered (120 records replayed) | 121 data-loss "
             "rooms\n",
             "latency ms: p50 " + Ms(metrics.latency.PercentileMs(0.50)) +
                 " | p95 " + Ms(metrics.latency.PercentileMs(0.95)) +
                 " | p99 " + Ms(metrics.latency.PercentileMs(0.99)) +
                 " (n=3)\n"});
}

TEST(MetricsDumpTest, ServerMetricsOmitsIdleSubsystemsAndResetClears) {
  ServerMetrics metrics;
  const std::string idle = metrics.DebugString();
  for (const char* label : {"pruned:", "partition:", "durability:"})
    EXPECT_EQ(idle.find(label), std::string::npos) << label;
  // One counter of each conditional line is enough to print it.
  metrics.pruned_requests.store(1);
  metrics.rooms_released.store(2);
  metrics.data_loss_rooms.store(3);
  ExpectAll(metrics.DebugString(),
            {"pruned: 1 requests", "| 2 released", "| 3 data-loss rooms"});
  metrics.latency.RecordMs(5.0);
  metrics.Reset();
  EXPECT_EQ(metrics.DebugString(), idle);
}

TEST(MetricsDumpTest, NetFrontMetricsPrintsEveryCounterUnderItsLabel) {
  NetFrontMetrics metrics;
  metrics.connections_accepted.store(201);
  metrics.connections_rejected.store(202);
  metrics.open_connections.store(3);
  metrics.max_open_connections.store(4);
  metrics.idle_closed.store(205);
  metrics.backpressure_closed.store(206);
  metrics.frames_in.store(207);
  metrics.frames_rejected.store(208);
  metrics.not_owner_replies.store(209);
  metrics.control_frames.store(210);
  metrics.bytes_in.store(211);
  metrics.bytes_out.store(212);
  ExpectAll(metrics.DebugString(),
            {"connections: accepted 201 | rejected 202 | open 3 (max 4)\n",
             "slow peers: idle_closed 205 | backpressure_closed 206\n",
             "frames: in 207 | rejected 208 | not_owner 209 | control 210\n",
             "bytes: in 211 | out 212\n"});
}

}  // namespace
}  // namespace serve
}  // namespace after
