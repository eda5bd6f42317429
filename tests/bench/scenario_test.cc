// Distribution-shape and determinism tests for the world_sim scenario
// generators (bench/scenario.h). These pin the contracts CI relies on:
// the Zipf sampler matches the configured exponent, the diurnal curve
// apportions to exactly the requested total, reconnect-storm waves
// never exceed the connection budget, scenario events land where the
// plan says or are rejected, and both the plan and the co-evolution
// rewiring are bit-reproducible from a seed.

#include "bench/scenario.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "gtest/gtest.h"

namespace after {
namespace bench {
namespace {

TEST(ZipfRoomSizesTest, FollowsConfiguredExponentWithinTolerance) {
  const double exponent = 1.0;
  const auto sizes = ZipfRoomSizes(/*rooms=*/10, /*max_users=*/1000,
                                   /*min_users=*/1, exponent);
  ASSERT_EQ(sizes.size(), 10u);
  // Rank-size law: log(size_r) ~ log(max) - a * log(r+1). Fit the
  // exponent back from the generated sizes and require it within 10%
  // (rounding to integers perturbs the small tail slightly).
  double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  const int n = static_cast<int>(sizes.size());
  for (int r = 0; r < n; ++r) {
    const double x = std::log(r + 1.0);
    const double y = std::log(static_cast<double>(sizes[r]));
    sum_x += x;
    sum_y += y;
    sum_xx += x * x;
    sum_xy += x * y;
  }
  const double slope =
      (n * sum_xy - sum_x * sum_y) / (n * sum_xx - sum_x * sum_x);
  EXPECT_NEAR(-slope, exponent, 0.1 * exponent);
}

TEST(ZipfRoomSizesTest, ClampsToConfiguredBounds) {
  const auto sizes = ZipfRoomSizes(/*rooms=*/16, /*max_users=*/48,
                                   /*min_users=*/6, /*exponent=*/1.5);
  EXPECT_EQ(sizes.front(), 48);
  for (int size : sizes) {
    EXPECT_GE(size, 6);
    EXPECT_LE(size, 48);
  }
  // Monotone non-increasing by rank.
  EXPECT_TRUE(std::is_sorted(sizes.rbegin(), sizes.rend()));
}

TEST(DiurnalTest, CurveSpansConfiguredRatio) {
  const auto weights = DiurnalWeights(/*slices=*/24, /*ratio=*/4.0);
  const double lo = *std::min_element(weights.begin(), weights.end());
  const double hi = *std::max_element(weights.begin(), weights.end());
  EXPECT_NEAR(lo, 1.0, 0.05);
  EXPECT_NEAR(hi, 4.0, 0.05);
}

TEST(DiurnalTest, ApportionmentIntegratesToRequestedTotal) {
  for (int total : {1, 17, 1000, 2001}) {
    for (int slices : {1, 7, 8, 24}) {
      const auto weights = DiurnalWeights(slices, 4.0);
      const auto counts = ApportionRequests(weights, total);
      EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), total)
          << "slices=" << slices << " total=" << total;
      for (int count : counts) EXPECT_GE(count, 0);
    }
  }
}

TEST(DiurnalTest, PeakSliceGetsMoreThanTrough) {
  const auto weights = DiurnalWeights(8, 4.0);
  const auto counts = ApportionRequests(weights, 800);
  const auto peak = std::max_element(weights.begin(), weights.end()) -
                    weights.begin();
  const auto trough = std::min_element(weights.begin(), weights.end()) -
                      weights.begin();
  EXPECT_GT(counts[static_cast<size_t>(peak)],
            counts[static_cast<size_t>(trough)]);
}

TEST(ReconnectStormTest, WavesNeverExceedMaxConnections) {
  for (int total : {0, 1, 7, 100, 1000}) {
    for (int max_concurrent : {1, 8, 64}) {
      const auto waves = ReconnectStormWaves(total, max_concurrent);
      int sum = 0;
      for (int wave : waves) {
        EXPECT_GT(wave, 0);
        EXPECT_LE(wave, max_concurrent);
        sum += wave;
      }
      EXPECT_EQ(sum, total);
    }
  }
}

TEST(WorldPlanTest, SameSeedIsBitIdentical) {
  WorldConfig config;
  config.seed = 77;
  const WorldPlan a = BuildWorldPlan(config).value();
  const WorldPlan b = BuildWorldPlan(config).value();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (size_t t = 0; t < a.schedule.size(); ++t) {
    ASSERT_EQ(a.schedule[t].size(), b.schedule[t].size());
    for (size_t i = 0; i < a.schedule[t].size(); ++i) {
      EXPECT_EQ(a.schedule[t][i].room, b.schedule[t][i].room);
      EXPECT_EQ(a.schedule[t][i].user, b.schedule[t][i].user);
    }
  }

  WorldConfig other = config;
  other.seed = 78;
  EXPECT_NE(BuildWorldPlan(other).value().fingerprint, a.fingerprint);
}

TEST(WorldPlanTest, ScheduleMatchesSliceTotalsAndRoomRanges) {
  WorldConfig config;
  config.total_requests = 999;
  const WorldPlan plan = BuildWorldPlan(config).value();
  ASSERT_EQ(plan.schedule.size(), static_cast<size_t>(config.slices));
  int total = 0;
  for (size_t t = 0; t < plan.schedule.size(); ++t) {
    EXPECT_EQ(static_cast<int>(plan.schedule[t].size()),
              plan.slice_totals[t]);
    total += static_cast<int>(plan.schedule[t].size());
    for (const SliceRequest& request : plan.schedule[t]) {
      ASSERT_GE(request.room, 0);
      ASSERT_LT(request.room, config.rooms);
      ASSERT_GE(request.user, 0);
      ASSERT_LT(request.user,
                plan.room_sizes[static_cast<size_t>(request.room)]);
    }
  }
  EXPECT_EQ(total, config.total_requests);
}

TEST(WorldPlanTest, ChurnConservesPopulation) {
  WorldConfig config;
  config.churn_fraction = 0.2;
  const WorldPlan plan = BuildWorldPlan(config).value();
  const int initial = std::accumulate(plan.room_sizes.begin(),
                                      plan.room_sizes.end(), 0);
  for (const auto& populations : plan.populations)
    EXPECT_EQ(std::accumulate(populations.begin(), populations.end(), 0),
              initial);
}

TEST(WorldPlanTest, FlashCrowdBoostsSmallRoomsAtPeak) {
  WorldConfig config;
  config.total_requests = 8000;
  config.flash_rooms = 2;
  config.flash_boost = 50.0;
  config.churn_fraction = 0.0;
  // Distinct sizes (no min-clamp ties), so "the two smallest rooms"
  // are unambiguously the two highest ranks.
  config.rooms = 8;
  config.min_room_users = 1;
  const WorldPlan plan = BuildWorldPlan(config).value();
  // The two smallest rooms are the two highest ranks.
  const int small_a = config.rooms - 1, small_b = config.rooms - 2;
  const auto share_of = [&](int slice_index) {
    const auto& slice = plan.schedule[static_cast<size_t>(slice_index)];
    if (slice.empty()) return 0.0;
    int hits = 0;
    for (const SliceRequest& request : slice)
      if (request.room == small_a || request.room == small_b) ++hits;
    return static_cast<double>(hits) / slice.size();
  };
  const int off_peak = plan.peak_slice == 0 ? 1 : 0;
  EXPECT_GT(share_of(plan.peak_slice), 4.0 * share_of(off_peak));
}

TEST(WorldPlanTest, PeakResolvesToTheFirstRequestOfThePeakSlice) {
  WorldConfig config;
  config.events = {{EventKind::kAdd, 1500}, {EventKind::kKill, kAtPeak}};
  const WorldPlan plan = BuildWorldPlan(config).value();
  int before_peak = 0;
  for (int t = 0; t < plan.peak_slice; ++t)
    before_peak += plan.slice_totals[static_cast<size_t>(t)];
  ASSERT_GT(before_peak, 0);
  ASSERT_LT(before_peak, 1500);
  // In firing order: the peak kill first.
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, EventKind::kKill);
  EXPECT_EQ(plan.events[0].at, before_peak);
  EXPECT_EQ(plan.events[1].kind, EventKind::kAdd);
  EXPECT_EQ(plan.events[1].at, 1500);
}

TEST(WorldPlanTest, AnEventThatCanNeverFireIsRejected) {
  WorldConfig config;
  config.total_requests = 500;
  config.events = {{EventKind::kKill, 499}};
  EXPECT_TRUE(BuildWorldPlan(config).ok());
  for (int at : {500, 501, -7}) {
    config.events = {{EventKind::kKill, at}};
    const Result<WorldPlan> plan = BuildWorldPlan(config);
    ASSERT_FALSE(plan.ok()) << "at " << at;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WorldPlanTest, EventsNeedAFleetThatCanRunThem) {
  WorldConfig config;
  config.events = {{EventKind::kRestart, 10}};
  EXPECT_FALSE(BuildWorldPlan(config).ok()) << "a restart needs durability";
  config.durable = true;
  EXPECT_TRUE(BuildWorldPlan(config).ok());
  config.events.push_back({EventKind::kAdd, 20});
  EXPECT_FALSE(BuildWorldPlan(config).ok()) << "a restart runs alone";
  config.events = {{EventKind::kKill, 20}};
  config.self_contained = false;
  EXPECT_FALSE(BuildWorldPlan(config).ok()) << "an external front";
}

TEST(WorldPlanTest, EventsChangeTheFingerprintOnlyWhenPresent) {
  WorldConfig config;
  config.seed = 77;
  // The default plan's fingerprint from before plans carried events.
  constexpr uint64_t kEventFree = 0x34806c3e755dba8bULL;
  EXPECT_EQ(BuildWorldPlan(config).value().fingerprint, kEventFree);

  config.events = {{EventKind::kKill, 300}, {EventKind::kAdd, 900}};
  const uint64_t armed = BuildWorldPlan(config).value().fingerprint;
  EXPECT_EQ(BuildWorldPlan(config).value().fingerprint, armed);
  EXPECT_NE(armed, kEventFree);
  config.events[1].at = 901;
  EXPECT_NE(BuildWorldPlan(config).value().fingerprint, armed);
}

TEST(SocialGraphEvolutionTest, BitReproducibleForFixedSeed) {
  const auto run = [] {
    SocialGraphEvolution evolution(/*num_users=*/12, /*seed=*/42);
    for (int round = 0; round < 200; ++round)
      evolution.Observe(round % 12, (round * 5 + 3) % 12);
    return evolution;
  };
  const SocialGraphEvolution a = run();
  const SocialGraphEvolution b = run();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.accepts(), b.accepts());
  EXPECT_EQ(a.ignores(), b.ignores());
  EXPECT_DOUBLE_EQ(a.DriftL1(), b.DriftL1());

  SocialGraphEvolution other(/*num_users=*/12, /*seed=*/43);
  for (int round = 0; round < 200; ++round)
    other.Observe(round % 12, (round * 5 + 3) % 12);
  EXPECT_NE(other.Fingerprint(), a.Fingerprint());
}

TEST(SocialGraphEvolutionTest, InterleavingOtherPairsDoesNotChangeAPair) {
  // The accept decision hashes (seed, user, candidate, per-pair
  // exposure count), so observations of OTHER pairs interleaved in any
  // order must not change this pair's outcomes.
  SocialGraphEvolution alone(/*num_users=*/8, /*seed=*/7);
  std::vector<bool> alone_outcomes;
  for (int i = 0; i < 32; ++i) alone_outcomes.push_back(alone.Observe(1, 2));

  SocialGraphEvolution interleaved(/*num_users=*/8, /*seed=*/7);
  std::vector<bool> interleaved_outcomes;
  for (int i = 0; i < 32; ++i) {
    interleaved.Observe(3, 4);
    interleaved_outcomes.push_back(interleaved.Observe(1, 2));
    interleaved.Observe(5, 6);
  }
  EXPECT_EQ(alone_outcomes, interleaved_outcomes);
}

TEST(SocialGraphEvolutionTest, AcceptsAddEdgesIgnoresDecayThem) {
  SocialGraphEvolution evolution(/*num_users=*/6, /*seed=*/1,
                                 /*accept_prob=*/1.0);
  EXPECT_TRUE(evolution.Observe(0, 1));
  EXPECT_GT(evolution.DriftL1(), 0.0);
  const double after_accept = evolution.DriftL1();

  SocialGraphEvolution ignore_all(/*num_users=*/6, /*seed=*/1,
                                  /*accept_prob=*/0.0);
  EXPECT_FALSE(ignore_all.Observe(0, 1));
  EXPECT_EQ(ignore_all.DriftL1(), 0.0);  // decaying zero stays zero
  (void)after_accept;
}

TEST(SocialGraphEvolutionTest, BiasUserDriftsTowardAcceptedHubs) {
  SocialGraphEvolution evolution(/*num_users=*/16, /*seed=*/5,
                                 /*accept_prob=*/1.0);
  // Make user 3 a heavy hub.
  for (int other = 0; other < 16; ++other)
    if (other != 3)
      for (int repeat = 0; repeat < 4; ++repeat) evolution.Observe(3, other);
  // Any user whose probe set contains 3 must now prefer it; at minimum
  // the mapping is stable and in range.
  int drawn_to_hub = 0;
  for (int user = 0; user < 16; ++user) {
    const int biased = evolution.BiasUser(user);
    EXPECT_GE(biased, 0);
    EXPECT_LT(biased, 16);
    EXPECT_EQ(biased, evolution.BiasUser(user));  // deterministic
    if (biased == 3 && user != 3) ++drawn_to_hub;
  }
  EXPECT_GT(drawn_to_hub, 0);
}

}  // namespace
}  // namespace bench
}  // namespace after
