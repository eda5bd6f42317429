#include "graph/mwis.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/gig.h"

namespace after {
namespace {

/// Brute-force MWIS over all 2^n subsets (n <= ~16).
MwisResult BruteForceMwis(const OcclusionGraph& graph,
                          const std::vector<double>& weights) {
  const int n = graph.num_nodes();
  MwisResult best;
  best.selected.assign(n, false);
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<bool> selected(n, false);
    double weight = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        selected[i] = true;
        weight += weights[i];
      }
    }
    if (graph.CountConflicts(selected) == 0 && weight > best.weight) {
      best.weight = weight;
      best.selected = selected;
    }
  }
  return best;
}

OcclusionGraph RandomGraph(int n, double edge_prob, Rng& rng) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.Bernoulli(edge_prob)) edges.emplace_back(i, j);
  return OcclusionGraph(n, edges);
}

TEST(MwisTest, EmptyGraphSelectsAllPositive) {
  OcclusionGraph g(4);
  const std::vector<double> weights = {1.0, 2.0, 0.5, 3.0};
  const MwisResult result = ExactMwis(g, weights);
  EXPECT_DOUBLE_EQ(result.weight, 6.5);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(result.selected[i]);
}

TEST(MwisTest, NegativeWeightsNeverSelected) {
  OcclusionGraph g(3);
  const std::vector<double> weights = {1.0, -2.0, 3.0};
  const MwisResult result = ExactMwis(g, weights);
  EXPECT_FALSE(result.selected[1]);
  EXPECT_DOUBLE_EQ(result.weight, 4.0);
}

TEST(MwisTest, TriangleChoosesHeaviest) {
  const OcclusionGraph g(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::vector<double> weights = {1.0, 5.0, 3.0};
  const MwisResult result = ExactMwis(g, weights);
  EXPECT_DOUBLE_EQ(result.weight, 5.0);
  EXPECT_TRUE(result.selected[1]);
}

TEST(MwisTest, PathGraphAlternation) {
  // Path 0-1-2-3-4 with uniform weights: optimum picks {0, 2, 4}.
  std::vector<std::pair<int, int>> path;
  for (int i = 0; i + 1 < 5; ++i) path.emplace_back(i, i + 1);
  const OcclusionGraph g(5, path);
  const std::vector<double> weights(5, 1.0);
  const MwisResult result = ExactMwis(g, weights);
  EXPECT_DOUBLE_EQ(result.weight, 3.0);
  EXPECT_EQ(g.CountConflicts(result.selected), 0);
}

/// Property sweep: the branch-and-bound optimum must equal brute force on
/// random graphs of varying density.
class MwisExactnessTest : public ::testing::TestWithParam<double> {};

TEST_P(MwisExactnessTest, MatchesBruteForce) {
  const double density = GetParam();
  Rng rng(static_cast<uint64_t>(density * 1000) + 5);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 6 + rng.UniformInt(7);  // 6..12 nodes
    const OcclusionGraph g = RandomGraph(n, density, rng);
    std::vector<double> weights(n);
    for (auto& w : weights) w = rng.Uniform(0.0, 1.0);

    const MwisResult exact = ExactMwis(g, weights);
    const MwisResult brute = BruteForceMwis(g, weights);
    EXPECT_NEAR(exact.weight, brute.weight, 1e-9)
        << "n=" << n << " density=" << density << " trial=" << trial;
    EXPECT_EQ(g.CountConflicts(exact.selected), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, MwisExactnessTest,
                         ::testing::Values(0.1, 0.3, 0.5, 0.8));

/// Property sweep: greedy and local search are feasible and never exceed
/// the exact optimum; local search dominates greedy.
class MwisHeuristicTest : public ::testing::TestWithParam<double> {};

TEST_P(MwisHeuristicTest, HeuristicsBoundedByExact) {
  const double density = GetParam();
  Rng rng(static_cast<uint64_t>(density * 997) + 11);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 8 + rng.UniformInt(6);
    const OcclusionGraph g = RandomGraph(n, density, rng);
    std::vector<double> weights(n);
    for (auto& w : weights) w = rng.Uniform(0.0, 1.0);

    const MwisResult exact = ExactMwis(g, weights);
    const MwisResult greedy = GreedyMwis(g, weights);
    Rng search_rng(trial);
    const MwisResult local = LocalSearchMwis(g, weights, 200, search_rng);

    EXPECT_EQ(g.CountConflicts(greedy.selected), 0);
    EXPECT_EQ(g.CountConflicts(local.selected), 0);
    EXPECT_LE(greedy.weight, exact.weight + 1e-9);
    EXPECT_LE(local.weight, exact.weight + 1e-9);
    EXPECT_GE(local.weight, greedy.weight - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, MwisHeuristicTest,
                         ::testing::Values(0.2, 0.5));

TEST(MwisTest, LocalSearchApproachesExactOnSmallGraphs) {
  Rng rng(31);
  int hits = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const OcclusionGraph g = RandomGraph(10, 0.4, rng);
    std::vector<double> weights(10);
    for (auto& w : weights) w = rng.Uniform(0.0, 1.0);
    const MwisResult exact = ExactMwis(g, weights);
    Rng search_rng(trial + 100);
    const MwisResult local = LocalSearchMwis(g, weights, 500, search_rng);
    if (local.weight >= exact.weight - 1e-9) ++hits;
  }
  EXPECT_GE(hits, 8);  // local search should almost always find optimum
}

TEST(MwisTest, SelectionWeightComputesAndChecks) {
  const OcclusionGraph g(3, {{0, 1}});
  const std::vector<double> weights = {1.0, 2.0, 3.0};
  std::vector<bool> selected = {true, false, true};
  EXPECT_DOUBLE_EQ(SelectionWeight(g, weights, selected, true), 4.0);
}

TEST(GigTest, DisksIntersectGeometry) {
  EXPECT_TRUE(DisksIntersect({{0, 0}, 1.0}, {{1.5, 0}, 1.0}));
  EXPECT_TRUE(DisksIntersect({{0, 0}, 1.0}, {{2.0, 0}, 1.0}));  // tangent
  EXPECT_FALSE(DisksIntersect({{0, 0}, 1.0}, {{2.1, 0}, 1.0}));
}

TEST(GigTest, IntersectionGraphMatchesPairwiseChecks) {
  Rng rng(41);
  const std::vector<Disk> disks = RandomDisks(15, 10.0, 0.3, 1.0, rng);
  const OcclusionGraph g = BuildGeometricIntersectionGraph(disks);
  for (int i = 0; i < 15; ++i)
    for (int j = i + 1; j < 15; ++j)
      EXPECT_EQ(g.HasEdge(i, j), DisksIntersect(disks[i], disks[j]));
}

/// Theorem 1 machinery: an MWIS instance on a random GIG is a valid
/// AFTER instance with T = 0; the exact solvers agree on both sides.
TEST(HardnessReductionTest, GigMwisEqualsAfterOptimumAtTZero) {
  Rng rng(53);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<Disk> disks = RandomDisks(12, 6.0, 0.3, 0.9, rng);
    // Lemma 1: the GIG *is* the DOG restricted to t = 0 (plus an isolated
    // target node, which has zero weight and changes nothing).
    const OcclusionGraph gig = BuildGeometricIntersectionGraph(disks);

    std::vector<double> raw_weights(12);
    for (auto& w : raw_weights) w = rng.Uniform(0.5, 3.0);

    // Theorem 1 weight transformation: W'(w) in [0, 1] interpretable as
    // (1-beta) * p(v, w).
    double w_min = raw_weights[0], w_max = raw_weights[0];
    for (double w : raw_weights) {
      w_min = std::min(w_min, w);
      w_max = std::max(w_max, w);
    }
    std::vector<double> transformed(12);
    for (int i = 0; i < 12; ++i)
      transformed[i] = (raw_weights[i] + w_min) / (w_max + w_min);

    // The AFTER optimum at T=0 (select a visible, i.e., independent, set
    // maximizing sum of utilities) is exactly MWIS on the same graph: the
    // argmax sets agree because the transformation is affine monotone.
    const MwisResult raw_opt = ExactMwis(gig, raw_weights);
    const MwisResult after_opt = ExactMwis(gig, transformed);
    EXPECT_EQ(gig.CountConflicts(raw_opt.selected), 0);
    EXPECT_EQ(gig.CountConflicts(after_opt.selected), 0);
    // Both optima must attain the optimal transformed value.
    EXPECT_NEAR(SelectionWeight(gig, transformed, after_opt.selected),
                after_opt.weight, 1e-9);
    EXPECT_LE(SelectionWeight(gig, transformed, raw_opt.selected),
              after_opt.weight + 1e-9);
  }
}

}  // namespace
}  // namespace after
