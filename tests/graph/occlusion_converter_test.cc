#include "graph/occlusion_converter.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace after {
namespace {

constexpr double kBody = 0.25;

TEST(ViewArcTest, BasicGeometry) {
  const ViewArc arc = ComputeViewArc(Vec2(0, 0), Vec2(2, 0), kBody);
  EXPECT_TRUE(arc.valid);
  EXPECT_NEAR(arc.center, 0.0, 1e-12);
  EXPECT_NEAR(arc.half_width, std::asin(kBody / 2.0), 1e-12);
  EXPECT_NEAR(arc.distance, 2.0, 1e-12);
}

TEST(ViewArcTest, AngleFollowsPosition) {
  const ViewArc up = ComputeViewArc(Vec2(0, 0), Vec2(0, 3), kBody);
  EXPECT_NEAR(up.center, M_PI / 2.0, 1e-12);
  const ViewArc left = ComputeViewArc(Vec2(0, 0), Vec2(-3, 0), kBody);
  EXPECT_NEAR(std::abs(left.center), M_PI, 1e-12);
}

TEST(ViewArcTest, CloserUsersOccupyWiderArcs) {
  const ViewArc near = ComputeViewArc(Vec2(0, 0), Vec2(1, 0), kBody);
  const ViewArc far = ComputeViewArc(Vec2(0, 0), Vec2(5, 0), kBody);
  EXPECT_GT(near.half_width, far.half_width);
}

TEST(ViewArcTest, OverlappingBodyCoversFullCircle) {
  const ViewArc arc = ComputeViewArc(Vec2(0, 0), Vec2(0.1, 0), kBody);
  EXPECT_NEAR(arc.half_width, M_PI, 1e-12);
}

TEST(ArcsOverlapTest, SameDirectionOverlaps) {
  const ViewArc a = ComputeViewArc(Vec2(0, 0), Vec2(2, 0), kBody);
  const ViewArc b = ComputeViewArc(Vec2(0, 0), Vec2(4, 0.1), kBody);
  EXPECT_TRUE(ArcsOverlap(a, b));
}

TEST(ArcsOverlapTest, OppositeDirectionsDoNot) {
  const ViewArc a = ComputeViewArc(Vec2(0, 0), Vec2(2, 0), kBody);
  const ViewArc b = ComputeViewArc(Vec2(0, 0), Vec2(-2, 0), kBody);
  EXPECT_FALSE(ArcsOverlap(a, b));
}

TEST(ArcsOverlapTest, WrapAroundPi) {
  // Two users just either side of the -x axis: angles near +pi and -pi
  // must still be detected as overlapping.
  const ViewArc a = ComputeViewArc(Vec2(0, 0), Vec2(-3, 0.05), kBody);
  const ViewArc b = ComputeViewArc(Vec2(0, 0), Vec2(-3, -0.05), kBody);
  EXPECT_GT(a.center, 0.0);
  EXPECT_LT(b.center, 0.0);
  EXPECT_TRUE(ArcsOverlap(a, b));
}

TEST(ArcsOverlapTest, CentersAtPlusAndMinusPiCoincide) {
  // Users straight behind the target, one at y = +0.0 and one at
  // y = -0.0: atan2 puts their centers at exactly +pi and -pi, so the
  // centers differ by exactly 2*pi and must fold to distance 0.
  const ViewArc plus = ComputeViewArc(Vec2(0.0, 0.0), Vec2(-2.0, 0.0), kBody);
  const ViewArc minus =
      ComputeViewArc(Vec2(0.0, 0.0), Vec2(-3.0, -0.0), kBody);
  ASSERT_EQ(plus.center, M_PI);
  ASSERT_EQ(minus.center, -M_PI);
  EXPECT_TRUE(ArcsOverlap(plus, minus));
  EXPECT_TRUE(ArcsOverlap(minus, plus));

  // Zero-width arcs overlap only at distance exactly 0.
  const ViewArc point_plus{M_PI, 0.0, 1.0, true};
  const ViewArc point_minus{-M_PI, 0.0, 1.0, true};
  EXPECT_TRUE(ArcsOverlap(point_plus, point_minus));

  // Across the seam the distance is the short way round (0.1 here).
  const ViewArc at_pi{M_PI, 0.05, 2.0, true};
  ViewArc across{-M_PI + 0.1, 0.04, 2.0, true};
  EXPECT_FALSE(ArcsOverlap(at_pi, across));
  across.half_width = 0.06;
  EXPECT_TRUE(ArcsOverlap(at_pi, across));
}

TEST(ArcsOverlapTest, FullCircleOverlapsEveryArc) {
  // A body enclosing the target covers the whole view: it overlaps a
  // narrow arc in any direction, the far side of the seam included.
  const ViewArc full = ComputeViewArc(Vec2(0, 0), Vec2(0.1, -0.05), kBody);
  ASSERT_EQ(full.center, 0.0);
  ASSERT_EQ(full.half_width, M_PI);
  for (const Vec2& where : {Vec2(5, 0), Vec2(0, 5), Vec2(-5, 0.0),
                            Vec2(-5, -0.0), Vec2(-5, -0.01), Vec2(0.3, -4)}) {
    const ViewArc narrow = ComputeViewArc(Vec2(0, 0), where, kBody);
    EXPECT_TRUE(ArcsOverlap(full, narrow)) << where.x << "," << where.y;
    EXPECT_TRUE(ArcsOverlap(narrow, full)) << where.x << "," << where.y;
  }
  EXPECT_TRUE(ArcsOverlap(full, full));
}

TEST(ArcsOverlapTest, InvalidArcNeverOverlaps) {
  ViewArc invalid;
  const ViewArc a = ComputeViewArc(Vec2(0, 0), Vec2(2, 0), kBody);
  EXPECT_FALSE(ArcsOverlap(invalid, a));
  EXPECT_FALSE(ArcsOverlap(a, invalid));
}

TEST(ComputeViewArcsTest, TargetIsInvalid) {
  const std::vector<Vec2> positions = {{0, 0}, {1, 0}, {0, 1}};
  const auto arcs = ComputeViewArcs(positions, 0, kBody);
  EXPECT_FALSE(arcs[0].valid);
  EXPECT_TRUE(arcs[1].valid);
  EXPECT_TRUE(arcs[2].valid);
}

TEST(BuildOcclusionGraphTest, CollinearUsersOcclude) {
  // Users 1 and 2 lie in the same direction from target 0: edge expected.
  const std::vector<Vec2> positions = {{0, 0}, {2, 0}, {4, 0}, {0, 3}};
  const OcclusionGraph g = BuildOcclusionGraph(positions, 0, kBody);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(2, 3));
}

TEST(BuildOcclusionGraphTest, TargetIsolated) {
  const std::vector<Vec2> positions = {{0, 0}, {2, 0}, {2.2, 0.05}};
  const OcclusionGraph g = BuildOcclusionGraph(positions, 0, kBody);
  EXPECT_EQ(g.Degree(0), 0);
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(BuildOcclusionGraphTest, EdgeIffArcsOverlapProperty) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> positions;
    for (int i = 0; i < 12; ++i)
      positions.emplace_back(rng.Uniform(0, 8), rng.Uniform(0, 8));
    const int target = rng.UniformInt(12);
    const OcclusionGraph g = BuildOcclusionGraph(positions, target, kBody);
    const auto arcs = ComputeViewArcs(positions, target, kBody);
    for (int i = 0; i < 12; ++i) {
      for (int j = i + 1; j < 12; ++j) {
        if (i == target || j == target) {
          EXPECT_FALSE(g.HasEdge(i, j));
          continue;
        }
        EXPECT_EQ(g.HasEdge(i, j), ArcsOverlap(arcs[i], arcs[j]))
            << "pair (" << i << "," << j << ") trial " << trial;
      }
    }
  }
}

TEST(BuildDynamicOcclusionGraphTest, OneGraphPerStep) {
  const std::vector<std::vector<Vec2>> trajectory = {
      {{0, 0}, {2, 0}, {4, 0}},
      {{0, 0}, {2, 0}, {0, 4}},
  };
  const DynamicOcclusionGraph dog =
      BuildDynamicOcclusionGraph(trajectory, 0, kBody);
  EXPECT_EQ(dog.num_steps(), 2);
  EXPECT_TRUE(dog.At(0).HasEdge(1, 2));
  EXPECT_FALSE(dog.At(1).HasEdge(1, 2));
}

TEST(ComputeVisibilityTest, NearerRenderedUserBlocks) {
  const std::vector<Vec2> positions = {{0, 0}, {2, 0}, {4, 0}};
  std::vector<bool> rendered = {false, true, true};
  const auto visible = ComputeVisibility(positions, 0, kBody, rendered);
  EXPECT_TRUE(visible[1]);   // nothing in front
  EXPECT_FALSE(visible[2]);  // behind user 1
}

TEST(ComputeVisibilityTest, NotRenderedDoesNotBlock) {
  const std::vector<Vec2> positions = {{0, 0}, {2, 0}, {4, 0}};
  std::vector<bool> rendered = {false, false, true};
  const auto visible = ComputeVisibility(positions, 0, kBody, rendered);
  EXPECT_FALSE(visible[1]);  // not rendered -> not visible
  EXPECT_TRUE(visible[2]);   // user 1 hidden, so 2 is clear
}

TEST(ComputeVisibilityTest, TargetNeverVisible) {
  const std::vector<Vec2> positions = {{0, 0}, {2, 0}};
  std::vector<bool> rendered = {true, true};
  const auto visible = ComputeVisibility(positions, 0, kBody, rendered);
  EXPECT_FALSE(visible[0]);
}

TEST(ComputeVisibilityTest, SeparatedUsersAllVisible) {
  const std::vector<Vec2> positions = {{0, 0}, {3, 0}, {0, 3}, {-3, 0}};
  std::vector<bool> rendered = {false, true, true, true};
  const auto visible = ComputeVisibility(positions, 0, kBody, rendered);
  EXPECT_TRUE(visible[1]);
  EXPECT_TRUE(visible[2]);
  EXPECT_TRUE(visible[3]);
}

TEST(ComputeVisibilityTest, VisibleSetConsistentWithOcclusionGraph) {
  // Property: if the rendered set is independent in the occlusion graph,
  // every rendered user is visible.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Vec2> positions;
    for (int i = 0; i < 10; ++i)
      positions.emplace_back(rng.Uniform(0, 10), rng.Uniform(0, 10));
    const int target = 0;
    const OcclusionGraph g = BuildOcclusionGraph(positions, target, kBody);
    // Build a greedy independent set among 1..9.
    std::vector<bool> rendered(10, false);
    for (int w = 1; w < 10; ++w) {
      bool conflict = false;
      for (int u : g.Neighbors(w))
        if (rendered[u]) conflict = true;
      if (!conflict) rendered[w] = true;
    }
    const auto visible = ComputeVisibility(positions, target, kBody, rendered);
    for (int w = 1; w < 10; ++w)
      if (rendered[w]) EXPECT_TRUE(visible[w]) << "trial " << trial;
  }
}

bool SameArc(const ViewArc& a, const ViewArc& b) {
  return a.valid == b.valid && a.center == b.center &&
         a.half_width == b.half_width && a.distance == b.distance;
}

TEST(DeltaConverterTest, UpdateViewArcsMatchesFullRecompute) {
  Rng rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 4 + rng.UniformInt(29);
    const int target = rng.UniformInt(n);
    std::vector<Vec2> positions;
    for (int i = 0; i < n; ++i)
      positions.emplace_back(rng.Uniform(-5, 5), rng.Uniform(-5, 5));
    auto arcs = ComputeViewArcs(positions, target, kBody);

    std::vector<int> moved;
    for (int i = 0; i < n; ++i) {
      if (i == target || rng.UniformInt(3) != 0) continue;
      moved.push_back(i);
      positions[i] += Vec2(rng.Uniform(-1, 1), rng.Uniform(-1, 1));
    }
    UpdateViewArcs(positions, target, kBody, moved, &arcs);

    const auto fresh = ComputeViewArcs(positions, target, kBody);
    ASSERT_EQ(arcs.size(), fresh.size());
    for (int i = 0; i < n; ++i)
      ASSERT_TRUE(SameArc(arcs[i], fresh[i]))
          << "arc " << i << " trial " << trial;
  }
}

/// The core delta-tick invariant: carrying the previous graph across
/// the moved set yields a bitwise-identical graph (the same CSR arrays)
/// as rebuilding from scratch.
TEST(DeltaConverterTest, UpdateOcclusionGraphIsBitExact) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + rng.UniformInt(29);
    const int target = rng.UniformInt(n);
    std::vector<Vec2> positions;
    for (int i = 0; i < n; ++i)
      positions.emplace_back(rng.Uniform(-3, 3), rng.Uniform(-3, 3));
    auto arcs = ComputeViewArcs(positions, target, kBody);
    OcclusionGraph graph = BuildOcclusionGraphFromArcs(arcs);
    ASSERT_TRUE(graph == BuildOcclusionGraph(positions, target, kBody))
        << "trial " << trial;

    // Walk several ticks so errors would compound if carried edges ever
    // diverged from the scratch build.
    for (int step = 0; step < 6; ++step) {
      std::vector<int> moved;
      std::vector<bool> is_moved(n, false);
      for (int i = 0; i < n; ++i) {
        if (i == target || rng.UniformInt(4) != 0) continue;
        moved.push_back(i);
        is_moved[i] = true;
        positions[i] += Vec2(rng.Uniform(-2, 2), rng.Uniform(-2, 2));
      }
      UpdateViewArcs(positions, target, kBody, moved, &arcs);
      graph = UpdateOcclusionGraph(graph, arcs, moved, is_moved);
      ASSERT_TRUE(graph == BuildOcclusionGraph(positions, target, kBody))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(DeltaConverterTest, EmptyMovedSetIsIdentity) {
  Rng rng(5);
  const int n = 12;
  std::vector<Vec2> positions;
  for (int i = 0; i < n; ++i)
    positions.emplace_back(rng.Uniform(-2, 2), rng.Uniform(-2, 2));
  auto arcs = ComputeViewArcs(positions, 0, kBody);
  const OcclusionGraph graph = BuildOcclusionGraphFromArcs(arcs);
  const OcclusionGraph updated =
      UpdateOcclusionGraph(graph, arcs, {}, std::vector<bool>(n, false));
  EXPECT_TRUE(graph == updated);
}

/// Edge (i, j) straight from the pair definition, written apart from
/// the converter: the circular distance between the arc centers, folded
/// with fmod, against the summed half-widths.
bool PairOverlaps(const ViewArc& a, const ViewArc& b) {
  if (!a.valid || !b.valid) return false;
  double diff = std::fmod(std::abs(a.center - b.center), 2.0 * M_PI);
  if (diff > M_PI) diff = 2.0 * M_PI - diff;
  return diff <= a.half_width + b.half_width;
}

/// Reference graph over every pair, handed to the edge-list constructor
/// in the reverse of the graph builders' lexicographic order.
OcclusionGraph GraphFromPairDefinition(const std::vector<Vec2>& positions,
                                       int target) {
  const std::vector<ViewArc> arcs = ComputeViewArcs(positions, target, kBody);
  const int n = static_cast<int>(arcs.size());
  std::vector<std::pair<int, int>> edges;
  for (int i = n - 1; i >= 0; --i)
    for (int j = i - 1; j >= 0; --j)
      if (PairOverlaps(arcs[i], arcs[j])) edges.emplace_back(i, j);
  return OcclusionGraph(n, edges);
}

/// A mega-room-sized walk: 512 users in a 10 m room, ~5% movers per
/// tick. Unlike the small fuzz above it reaches full-circle arcs (bodies
/// overlapping the target), rows of hundreds of neighbours, and arc
/// centers at exactly +pi and -pi (users on the -x ray through the
/// target at y = +0.0 and y = -0.0).
TEST(DeltaConverterTest, DenseRoomWalkMatchesPairDefinition) {
  Rng rng(512);
  const int n = 512;
  const int target = 0;
  std::vector<Vec2> positions(n);
  positions[target] = Vec2(0.0, 0.0);
  for (int i = 1; i < n; ++i)
    positions[i] = Vec2(rng.Uniform(-5, 5), rng.Uniform(-5, 5));
  for (int i = 1; i <= 6; ++i)  // centers +pi and -pi, alternating
    positions[i] = Vec2(-0.6 * i, i % 2 == 0 ? 0.0 : -0.0);
  positions[7] = Vec2(0.1, 0.05);  // encloses the target

  auto arcs = ComputeViewArcs(positions, target, kBody);
  OcclusionGraph graph = BuildOcclusionGraphFromArcs(arcs);
  ASSERT_TRUE(graph == GraphFromPairDefinition(positions, target));

  int full_circle_rows = 0, plus_pi = 0, minus_pi = 0, max_degree = 0;
  for (int tick = 0; tick < 10; ++tick) {
    std::vector<int> moved;
    std::vector<bool> is_moved(n, false);
    for (int i = 1; i < n; ++i) {
      if (rng.UniformInt(20) != 0) continue;
      moved.push_back(i);
      is_moved[i] = true;
      switch (rng.UniformInt(8)) {
        case 0:  // onto the -x ray: center exactly +pi or -pi
          positions[i] =
              Vec2(rng.Uniform(-5, -0.5), rng.UniformInt(2) ? 0.0 : -0.0);
          break;
        case 1:  // into the target's body: a full-circle arc
          positions[i] = Vec2(rng.Uniform(-0.2, 0.2), rng.Uniform(-0.1, 0.1));
          break;
        default:  // a walking step
          positions[i] += Vec2(rng.Uniform(-0.3, 0.3), rng.Uniform(-0.3, 0.3));
      }
    }
    UpdateViewArcs(positions, target, kBody, moved, &arcs);
    graph = UpdateOcclusionGraph(graph, arcs, moved, is_moved);
    ASSERT_TRUE(graph == GraphFromPairDefinition(positions, target))
        << "tick " << tick;

    for (int i = 0; i < n; ++i) {
      if (!arcs[i].valid) continue;
      full_circle_rows += arcs[i].half_width == M_PI;
      plus_pi += arcs[i].center == M_PI;
      minus_pi += arcs[i].center == -M_PI;
      max_degree = std::max(max_degree, graph.Degree(i));
    }
  }
  // The walk really covered the cases the small fuzz cannot reach.
  EXPECT_GT(full_circle_rows, 0);
  EXPECT_GT(plus_pi, 0);
  EXPECT_GT(minus_pi, 0);
  EXPECT_GE(max_degree, n - 2);
}

/// Blocking straight from the pair definition, in plain index order
/// over every pair: w is blocked when a flagged u (neither w nor the
/// target) is strictly nearer than w and its arc overlaps w's.
std::vector<bool> BlockedByPairDefinition(const std::vector<Vec2>& positions,
                                          int target,
                                          const std::vector<bool>& flagged) {
  const std::vector<ViewArc> arcs = ComputeViewArcs(positions, target, kBody);
  const int n = static_cast<int>(arcs.size());
  std::vector<bool> blocked(n, false);
  for (int w = 0; w < n; ++w) {
    if (w == target) continue;
    for (int u = 0; u < n; ++u) {
      if (u == w || u == target || !flagged[u]) continue;
      if (arcs[u].distance < arcs[w].distance &&
          PairOverlaps(arcs[u], arcs[w])) {
        blocked[w] = true;
        break;
      }
    }
  }
  return blocked;
}

/// Checks both nearest-first scans against the pair definition, with
/// `flagged` as the physical users and as the rendered users. Returns
/// how many users the flagged set blocks.
int ExpectBlockingMatchesPairDefinition(const std::vector<Vec2>& positions,
                                        int target,
                                        const std::vector<bool>& flagged) {
  const int n = static_cast<int>(positions.size());
  const std::vector<bool> want =
      BlockedByPairDefinition(positions, target, flagged);
  std::vector<bool> physical = flagged;
  physical[target] = true;
  EXPECT_EQ(PhysicallyBlockedUsers(positions, target, kBody, physical), want);
  // A VR viewer sees avatars, not bodies: nobody is physically blocked.
  physical[target] = false;
  EXPECT_EQ(PhysicallyBlockedUsers(positions, target, kBody, physical),
            std::vector<bool>(n, false));

  const std::vector<bool> visible =
      ComputeVisibility(positions, target, kBody, flagged);
  int num_blocked = 0;
  for (int w = 0; w < n; ++w) {
    EXPECT_EQ(visible[w], w != target && flagged[w] && !want[w])
        << "user " << w;
    num_blocked += want[w];
  }
  return num_blocked;
}

TEST(BlockingTest, DenseRoomMatchesPairDefinition) {
  // The mega-room frame: 512 users in a 10 m room, half of them
  // physical, seen from a central, a corner and an edge target.
  Rng rng(4096);
  const int n = 512;
  std::vector<Vec2> positions(n);
  for (Vec2& p : positions) p = Vec2(rng.Uniform(-5, 5), rng.Uniform(-5, 5));
  positions[0] = Vec2(0.0, 0.0);
  positions[1] = Vec2(4.9, 4.9);
  std::vector<bool> flagged(n);
  for (int u = 0; u < n; ++u) flagged[u] = rng.UniformInt(2) == 0;
  for (int target : {0, 1, 300}) {
    SCOPED_TRACE(target);
    const int num_blocked =
        ExpectBlockingMatchesPairDefinition(positions, target, flagged);
    // Crowded but not opaque: both answers occur many times.
    EXPECT_GT(num_blocked, n / 4);
    EXPECT_LT(num_blocked, n - 1);
  }
}

TEST(BlockingTest, UsersAtEqualDistanceDoNotBlockEachOther) {
  // Sign flips and swaps of (4, 0.1) lie at exactly the same distance
  // from the origin, and each pair either side of an axis overlaps.
  std::vector<Vec2> positions = {{0.0, 0.0}};
  for (const Vec2& p : {Vec2(4.0, 0.1), Vec2(4.0, -0.1), Vec2(0.1, 4.0),
                        Vec2(-0.1, 4.0), Vec2(-4.0, 0.1), Vec2(-4.0, -0.1),
                        Vec2(0.1, -4.0), Vec2(-0.1, -4.0)})
    positions.push_back(p);
  positions.push_back(Vec2(6.0, 0.0));  // 9: behind the pair on +x
  positions.push_back(Vec2(0.0, 2.0));  // 10: in front of the pair on +y
  const std::vector<ViewArc> arcs = ComputeViewArcs(positions, 0, kBody);
  for (int i = 2; i <= 8; ++i) ASSERT_EQ(arcs[i].distance, arcs[1].distance);
  ASSERT_TRUE(ArcsOverlap(arcs[1], arcs[2]));
  ASSERT_TRUE(ArcsOverlap(arcs[5], arcs[6]));  // across the seam

  const std::vector<bool> all(positions.size(), true);
  ExpectBlockingMatchesPairDefinition(positions, 0, all);
  const std::vector<bool> blocked =
      PhysicallyBlockedUsers(positions, 0, kBody, all);
  for (int i : {1, 2, 5, 6, 7, 8, 10}) EXPECT_FALSE(blocked[i]) << i;
  EXPECT_TRUE(blocked[3]);  // behind user 10
  EXPECT_TRUE(blocked[4]);
  EXPECT_TRUE(blocked[9]);  // behind users 1 and 2
}

TEST(BlockingTest, BodyEnclosingTheTargetBlocksEveryoneBehindIt) {
  Rng rng(7);
  std::vector<Vec2> positions = {{0.0, 0.0}, {0.1, -0.05}, {-0.15, 0.1}};
  for (int i = 0; i < 40; ++i)
    positions.emplace_back(rng.Uniform(-5, 5), rng.Uniform(-5, 5));
  const int n = static_cast<int>(positions.size());
  const std::vector<ViewArc> arcs = ComputeViewArcs(positions, 0, kBody);
  ASSERT_EQ(arcs[1].half_width, M_PI);
  ASSERT_EQ(arcs[2].half_width, M_PI);
  ASSERT_LT(arcs[1].distance, arcs[2].distance);

  // Only user 2 is flagged: its full-circle arc blocks everyone farther
  // out, but not user 1, who stands nearer the target.
  std::vector<bool> flagged(n, false);
  flagged[2] = true;
  EXPECT_EQ(ExpectBlockingMatchesPairDefinition(positions, 0, flagged),
            n - 3);
  // Everyone flagged: user 1 blocks every other user.
  EXPECT_EQ(ExpectBlockingMatchesPairDefinition(
                positions, 0, std::vector<bool>(n, true)),
            n - 2);
}

}  // namespace
}  // namespace after
