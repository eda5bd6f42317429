// Unit tests for the benchmark's pure pieces. Build and run with
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "perfbench/schedule.h"
#include "perfbench/spans.h"

namespace after {
namespace perfbench {
namespace {

bool SameArrivals(const std::vector<Arrival>& a, const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].due_ns != b[i].due_ns || a[i].room != b[i].room ||
        a[i].user != b[i].user)
      return false;
  return true;
}

TEST(ScheduleTest, PoissonArrivalsReproduceBitForBitPerSeed) {
  const TargetSampler targets({60, 60, 60}, 0.0, 0.0, 0, 7);
  const auto a = PoissonArrivals(7, 0, 2000.0, 2.0, targets);
  const auto b = PoissonArrivals(7, 0, 2000.0, 2.0, targets);
  EXPECT_TRUE(SameArrivals(a, b));
  EXPECT_FALSE(SameArrivals(a, PoissonArrivals(8, 0, 2000.0, 2.0, targets)));
  EXPECT_FALSE(SameArrivals(a, PoissonArrivals(7, 1, 2000.0, 2.0, targets)));
}

TEST(ScheduleTest, PoissonArrivalsHitTheRateInOrderAndInRange) {
  const TargetSampler targets({60, 30}, 0.0, 0.0, 0, 3);
  const auto plan = PoissonArrivals(3, 0, 5000.0, 4.0, targets);
  // 20000 expected; a Poisson count is within 5 sigma (~700) of it.
  EXPECT_NEAR(static_cast<double>(plan.size()), 20000.0, 700.0);
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_GE(plan[i].due_ns, 0);
    EXPECT_LT(plan[i].due_ns, 4000000000LL);
    if (i > 0) {
      EXPECT_GE(plan[i].due_ns, plan[i - 1].due_ns);
    }
    ASSERT_GE(plan[i].room, 0);
    ASSERT_LT(plan[i].room, 2);
    EXPECT_LT(plan[i].user, plan[i].room == 0 ? 60 : 30);
  }
}

TEST(ScheduleTest, TickScheduleIsPeriodicSortedAndSeeded) {
  const auto a = TickSchedule(11, 4, 10.0, 1.0);
  const auto b = TickSchedule(11, 4, 10.0, 1.0);
  const auto c = TickSchedule(12, 4, 10.0, 1.0);
  ASSERT_EQ(a.size(), b.size());
  bool differs = a.size() != c.size();
  std::vector<int64_t> last(4, -1);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].room, b[i].room);
    if (i < c.size() && a[i].due_ns != c[i].due_ns) differs = true;
    if (i > 0) {
      EXPECT_GE(a[i].due_ns, a[i - 1].due_ns);
    }
    const size_t room = static_cast<size_t>(a[i].room);
    if (last[room] >= 0) {
      EXPECT_EQ(a[i].due_ns - last[room], 10000000);
    }
    last[room] = a[i].due_ns;
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(a.size(), 400u);  // 4 rooms x 100 periods
}

TEST(ScheduleTest, ZipfSamplerIsSkewedAndSeeded) {
  const ZipfSampler zipf(100, 1.0);
  Rng rng_a(5), rng_b(5), rng_c(6);
  std::vector<int> counts(100, 0);
  bool differs = false;
  for (int i = 0; i < 20000; ++i) {
    const int a = zipf.Sample(rng_a);
    EXPECT_EQ(a, zipf.Sample(rng_b));
    if (a != zipf.Sample(rng_c)) differs = true;
    ASSERT_GE(a, 0);
    ASSERT_LT(a, 100);
    ++counts[static_cast<size_t>(a)];
  }
  EXPECT_TRUE(differs);
  // P(rank 0) = 1 / H(100) ~= 0.193; rank 9 ten times rarer.
  EXPECT_NEAR(counts[0] / 20000.0, 0.193, 0.02);
  EXPECT_GT(counts[0], 5 * counts[9]);
}

TEST(ScheduleTest, TargetSamplerScattersTheHotSetPerSeed) {
  const TargetSampler a({512}, 0.0, 1.0, 32, 1);
  const TargetSampler b({512}, 0.0, 1.0, 32, 2);
  Rng rng_a(9), rng_b(9);
  int room = 0, user_a = 0, user_b = 0;
  a.Sample(rng_a, &room, &user_a);
  b.Sample(rng_b, &room, &user_b);
  // Same rank draw, different rank -> user permutations.
  EXPECT_NE(user_a, user_b);
  // The support caps the distinct targets.
  std::set<int> distinct;
  for (int i = 0; i < 5000; ++i) {
    a.Sample(rng_a, &room, &user_a);
    distinct.insert(user_a);
  }
  EXPECT_EQ(distinct.size(), 32u);
}

TEST(SpansTest, TailPercentileNeedsTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  double p99 = 0.0;
  ASSERT_TRUE(TailPercentile(&samples, 0.99, 10, &p99));
  EXPECT_EQ(p99, 990.0);
  samples.pop_back();  // 999 samples: rank 990, only 9 beyond
  double unchanged = -1.0;
  EXPECT_FALSE(TailPercentile(&samples, 0.99, 10, &unchanged));
  EXPECT_EQ(unchanged, -1.0);
  double median = 0.0;
  ASSERT_TRUE(TailPercentile(&samples, 0.5, 10, &median));
  EXPECT_EQ(median, 500.0);
  std::vector<double> empty;
  EXPECT_FALSE(TailPercentile(&empty, 0.5, 0, &median));
}

TEST(SpansTest, BlockedPercentileIsTheMedianOfBlockPercentiles) {
  // Five 1 s blocks of 1000 samples each; block b holds b*1000 + 1..1000,
  // except block 2, which a stall pushed to 10000 + ..
  std::vector<TimedSample> samples;
  for (int b = 0; b < 5; ++b)
    for (int i = 1; i <= 1000; ++i)
      samples.push_back({b * 1000000000LL + i * 999999LL,
                         (b == 2 ? 10000.0 : b * 1000.0) + i});
  double p99 = 0.0;
  ASSERT_TRUE(
      BlockedPercentile(samples, 0, 5000000000LL, 0.99, 10, 5, &p99));
  // Block p99s: 990, 1990, 10990, 3990, 4990 -> median 3990.
  EXPECT_EQ(p99, 3990.0);
  // Fewer blocks when a block would have under ten samples beyond: a
  // p99.5 needs 2000 samples per block, so the window splits in two.
  ASSERT_TRUE(
      BlockedPercentile(samples, 0, 5000000000LL, 0.995, 10, 5, &p99));
  std::vector<TimedSample> few(samples.begin(), samples.begin() + 500);
  EXPECT_FALSE(BlockedPercentile(few, 0, 5000000000LL, 0.99, 10, 5, &p99));
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(SpansTest, QuietBlocksPercentileSkipsTheNoisierBlocks) {
  // Six 1 s blocks of 100 samples; block b holds b*100 + 1..100, plus
  // 10000 in the blocks where the host stole time.
  const std::vector<double> noise = {0, 9, 7, 0, 5, 0};
  std::vector<TimedSample> samples;
  for (int b = 0; b < 6; ++b)
    for (int i = 1; i <= 100; ++i)
      samples.push_back({b * 1000000000LL + i * 9999999LL,
                         (noise[b] > 0 ? 10000.0 : 0.0) + b * 100.0 + i});
  double p50 = 0.0;
  ASSERT_TRUE(
      QuietBlocksPercentile(samples, 0, 6000000000LL, 0.5, 10, noise, &p50));
  // Lower-quartile noise 0 keeps blocks 0, 3, 5: p50s 50, 350, 550.
  EXPECT_EQ(p50, 350.0);
  // No steal measured: every block counts.
  ASSERT_TRUE(QuietBlocksPercentile(samples, 0, 6000000000LL, 0.5, 10,
                                    std::vector<double>(6, 0.0), &p50));
  EXPECT_EQ(p50, 0.5 * (550.0 + 10150.0));
  EXPECT_FALSE(
      QuietBlocksPercentile(samples, 0, 6000000000LL, 0.5, 10, {}, &p50));
  // A counted block without ten samples beyond its quantile.
  EXPECT_FALSE(
      QuietBlocksPercentile(samples, 0, 6000000000LL, 0.95, 10, noise, &p50));
}

TEST(SpansTest, SelfTimeSubtractsChildrenOnAHandBuiltTree) {
  // request [0,100] > rtt [10,100] > router [20,90] > route [25,85]
  //   > shard [30,80] > model [40,60]; plus a second router child
  //   [84,95] that overlaps route and pokes out of the router span.
  const std::vector<Span> spans = {
      {0, 100, -1}, {10, 100, 0}, {20, 90, 1},  {25, 85, 2},
      {30, 80, 3},  {40, 60, 4},  {84, 95, 2},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 10);  // generator lag
  EXPECT_EQ(self[1], 20);  // client hop: 90 - 70
  EXPECT_EQ(self[2], 5);   // router: 70 - union([25,85],[84,90]) = 70 - 65
  EXPECT_EQ(self[3], 10);  // shard hop
  EXPECT_EQ(self[4], 30);  // server pre + post
  EXPECT_EQ(self[5], 20);  // forward
  EXPECT_EQ(self[6], 11);
}

TEST(SpansTest, SelfTimesOfANestedChainSumToTheRoot) {
  const std::vector<Span> spans = {
      {0, 1000, -1}, {100, 900, 0}, {200, 700, 1}, {300, 400, 2}};
  int64_t total = 0;
  for (int64_t value : SelfTimes(spans)) total += value;
  EXPECT_EQ(total, 1000);
}

}  // namespace
}  // namespace perfbench
}  // namespace after
