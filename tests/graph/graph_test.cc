#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/occlusion_graph.h"
#include "graph/social_graph.h"

namespace after {
namespace {

TEST(SocialGraphTest, EmptyGraph) {
  SocialGraph g(5);
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.Degree(0), 0);
}

TEST(SocialGraphTest, AddEdgeSymmetric) {
  SocialGraph g(4);
  g.AddEdge(0, 2, 0.5);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 2), 0.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 0), 0.5);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(SocialGraphTest, DuplicateEdgeUpdatesWeight) {
  SocialGraph g(3);
  g.AddEdge(0, 1, 0.3);
  g.AddEdge(1, 0, 0.9);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.9);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 0.9);
}

TEST(SocialGraphTest, MissingEdgeHasZeroWeight) {
  SocialGraph g(3);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.0);
}

TEST(SocialGraphTest, NeighborsAndDegree) {
  SocialGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.Degree(0), 3);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Neighbors(0).size(), 3u);
}

TEST(OcclusionGraphTest, EdgeListDeduplicates) {
  const OcclusionGraph g(4, {{1, 2}, {2, 1}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Degree(2), 1);
  EXPECT_TRUE(g == OcclusionGraph(4, {{1, 2}}));
}

TEST(OcclusionGraphTest, OutOfOrderEdgeListYieldsAscendingRows) {
  // Every pair of a random graph, shuffled and half of them flipped:
  // the CSR rows must still come out ascending and equal to the graph
  // built from the lexicographic list the graph builders emit.
  Rng rng(77);
  const int n = 40;
  std::vector<std::pair<int, int>> sorted;
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (rng.UniformInt(3) == 0) sorted.emplace_back(u, v);
  std::vector<std::pair<int, int>> shuffled = sorted;
  rng.Shuffle(shuffled);
  for (auto& e : shuffled)
    if (rng.UniformInt(2) == 0) std::swap(e.first, e.second);
  ASSERT_NE(shuffled, sorted);

  const OcclusionGraph reference(n, sorted);
  const OcclusionGraph g(n, shuffled);
  EXPECT_EQ(g.num_edges(), static_cast<int>(sorted.size()));
  for (int u = 0; u < n; ++u) {
    const std::span<const int> row = g.Neighbors(u);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "row " << u;
    EXPECT_EQ(g.Degree(u), reference.Degree(u)) << "row " << u;
    for (int v = 0; v < n; ++v)
      EXPECT_EQ(g.HasEdge(u, v), reference.HasEdge(u, v))
          << "pair (" << u << "," << v << ")";
  }
  const Matrix a = g.ToAdjacencyMatrix();
  const Matrix b = reference.ToAdjacencyMatrix();
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c) EXPECT_EQ(a.At(r, c), b.At(r, c));
  EXPECT_TRUE(g == reference);
}

TEST(OcclusionGraphTest, FromRowsAdoptsCsrArrays) {
  // Path 0-1-2 plus an isolated node 3.
  const OcclusionGraph g =
      OcclusionGraph::FromRows({0, 1, 3, 4, 4}, {1, 0, 2, 1});
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g == OcclusionGraph(4, {{0, 1}, {1, 2}}));
  EXPECT_TRUE(OcclusionGraph::FromRows({0}, {}) == OcclusionGraph(0));
}

TEST(OcclusionGraphTest, AdjacencyMatrixSymmetricBinary) {
  const OcclusionGraph g(4, {{0, 1}, {2, 3}});
  const Matrix a = g.ToAdjacencyMatrix();
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(a.At(r, r), 0.0);
    for (int c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(a.At(r, c), a.At(c, r));
      EXPECT_TRUE(a.At(r, c) == 0.0 || a.At(r, c) == 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(a.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.At(2, 3), 1.0);
  EXPECT_DOUBLE_EQ(a.At(0, 2), 0.0);
}

TEST(OcclusionGraphTest, CountConflicts) {
  const OcclusionGraph g(4, {{0, 1}, {1, 2}});
  std::vector<bool> none = {false, false, false, false};
  std::vector<bool> independent = {true, false, true, true};
  std::vector<bool> conflicting = {true, true, true, false};
  EXPECT_EQ(g.CountConflicts(none), 0);
  EXPECT_EQ(g.CountConflicts(independent), 0);
  EXPECT_EQ(g.CountConflicts(conflicting), 2);
}

TEST(DynamicOcclusionGraphTest, FixedConstruction) {
  DynamicOcclusionGraph dog(5, 3);
  EXPECT_EQ(dog.num_nodes(), 5);
  EXPECT_EQ(dog.num_steps(), 3);
  dog.At(1) = OcclusionGraph(5, {{0, 1}});
  EXPECT_TRUE(dog.At(1).HasEdge(0, 1));
  EXPECT_FALSE(dog.At(0).HasEdge(0, 1));
}

TEST(DynamicOcclusionGraphTest, AppendChecksNodeCount) {
  DynamicOcclusionGraph dog;
  dog.Append(OcclusionGraph(4));
  EXPECT_EQ(dog.num_nodes(), 4);
  EXPECT_EQ(dog.num_steps(), 1);
  dog.Append(OcclusionGraph(4));
  EXPECT_EQ(dog.num_steps(), 2);
}

TEST(GeneratorsTest, BarabasiAlbertBasicInvariants) {
  Rng rng(1);
  const SocialGraph g = BarabasiAlbert(100, 3, rng);
  EXPECT_EQ(g.num_nodes(), 100);
  // Every non-seed node attaches with ~3 edges.
  EXPECT_GE(g.num_edges(), 3 * (100 - 4));
  for (int u = 4; u < 100; ++u) EXPECT_GE(g.Degree(u), 1);
}

TEST(GeneratorsTest, BarabasiAlbertHeavyTail) {
  Rng rng(2);
  const SocialGraph g = BarabasiAlbert(300, 2, rng);
  int max_degree = 0;
  double total_degree = 0;
  for (int u = 0; u < 300; ++u) {
    max_degree = std::max(max_degree, g.Degree(u));
    total_degree += g.Degree(u);
  }
  const double avg_degree = total_degree / 300.0;
  // Preferential attachment produces hubs far above the average degree.
  EXPECT_GT(max_degree, 4 * avg_degree);
}

TEST(GeneratorsTest, SbmCommunityStructure) {
  Rng rng(3);
  std::vector<int> blocks;
  const SocialGraph g =
      StochasticBlockModel(200, 4, 0.3, 0.01, rng, &blocks);
  ASSERT_EQ(blocks.size(), 200u);

  int within = 0, across = 0;
  for (int u = 0; u < 200; ++u) {
    for (const auto& nbr : g.Neighbors(u)) {
      if (nbr.node < u) continue;
      if (blocks[u] == blocks[nbr.node]) {
        ++within;
      } else {
        ++across;
      }
    }
  }
  // p_in = 30x p_out, but across-pairs are ~3x more numerous: within
  // edges should still dominate by a wide margin.
  EXPECT_GT(within, 3 * across);
}

TEST(GeneratorsTest, SbmBlockIdsInRange) {
  Rng rng(4);
  std::vector<int> blocks;
  StochasticBlockModel(50, 5, 0.2, 0.05, rng, &blocks);
  for (int b : blocks) {
    EXPECT_GE(b, 0);
    EXPECT_LT(b, 5);
  }
}

TEST(GeneratorsTest, WattsStrogatzDegrees) {
  Rng rng(5);
  const SocialGraph g = WattsStrogatz(60, 3, 0.0, rng);
  // With no rewiring, a ring lattice gives everyone degree exactly 2k.
  for (int u = 0; u < 60; ++u) EXPECT_EQ(g.Degree(u), 6);
}

TEST(GeneratorsTest, WattsStrogatzRewiringKeepsEdgeBudget) {
  Rng rng(6);
  const SocialGraph g = WattsStrogatz(80, 2, 0.3, rng);
  EXPECT_EQ(g.num_nodes(), 80);
  // Rewiring can drop an edge only when the rewire target is rejected.
  EXPECT_GE(g.num_edges(), 80 * 2 - 20);
  EXPECT_LE(g.num_edges(), 80 * 2);
}

TEST(GeneratorsTest, DeterministicForSeed) {
  Rng rng_a(7);
  Rng rng_b(7);
  const SocialGraph a = BarabasiAlbert(50, 2, rng_a);
  const SocialGraph b = BarabasiAlbert(50, 2, rng_b);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int u = 0; u < 50; ++u) EXPECT_EQ(a.Degree(u), b.Degree(u));
}

}  // namespace
}  // namespace after
