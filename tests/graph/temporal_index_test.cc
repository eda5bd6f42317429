#include "graph/temporal_index.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace after {
namespace {

constexpr double kRadius = TemporalIndex::kCoPresenceRadius;

bool CoPresent(const Vec2& a, const Vec2& b) {
  return (a - b).NormSq() <= kRadius * kRadius;
}

TEST(TemporalIndexTest, RebuildScoresCoPresenceOnly) {
  // 0 and 1 within radius; 2 far from both.
  const std::vector<Vec2> positions = {{0, 0}, {1, 0}, {10, 10}};
  TemporalIndex index;
  index.Rebuild(positions, /*tick=*/0);
  const auto view = index.PublishView();
  EXPECT_EQ(view->score(0, 1), TemporalView::kCoPresent);
  EXPECT_EQ(view->score(1, 0), TemporalView::kCoPresent);
  EXPECT_EQ(view->score(0, 2), TemporalView::kNever);
  EXPECT_EQ(view->score(2, 1), TemporalView::kNever);
}

TEST(TemporalIndexTest, DepartingPairIsStampedWithItsLastCoPresentTick) {
  std::vector<Vec2> positions = {{0, 0}, {1, 0}};
  TemporalIndex index;
  index.Rebuild(positions, 0);
  // Still together at ticks 1..3 (agent 1 jitters in range), apart at 4.
  for (std::int64_t tick = 1; tick <= 3; ++tick) {
    positions[1].x = 1.0 + 0.1 * tick;
    index.Update(positions, {1}, tick);
    EXPECT_EQ(index.PublishView()->score(0, 1), TemporalView::kCoPresent);
  }
  positions[1].x = 50.0;
  index.Update(positions, {1}, 4);
  // The stamp is the previous update's tick — the last tick at which
  // the pair was actually co-present.
  EXPECT_EQ(index.PublishView()->score(0, 1), 3);
  EXPECT_EQ(index.PublishView()->score(1, 0), 3);
  // Coming back together restores kCoPresent; drifting apart again
  // restamps with the newer tick.
  positions[1].x = 0.5;
  index.Update(positions, {1}, 5);
  EXPECT_EQ(index.PublishView()->score(0, 1), TemporalView::kCoPresent);
  positions[1].x = 50.0;
  index.Update(positions, {1}, 6);
  EXPECT_EQ(index.PublishView()->score(0, 1), 5);
}

TEST(TemporalIndexTest, RebuildForgetsHistory) {
  std::vector<Vec2> positions = {{0, 0}, {1, 0}};
  TemporalIndex index;
  index.Rebuild(positions, 0);
  positions[1].x = 50.0;
  index.Update(positions, {1}, 1);
  EXPECT_EQ(index.PublishView()->score(0, 1), 0);
  index.Rebuild(positions, 2);
  EXPECT_EQ(index.PublishView()->score(0, 1), TemporalView::kNever);
}

/// Fuzz the incremental update against an exhaustively maintained
/// reference over a random walk, including doubly-moved pairs (both
/// endpoints in one moved set must behave idempotently).
TEST(TemporalIndexTest, UpdateMatchesExhaustiveReference) {
  Rng rng(4242);
  const int n = 12;
  std::vector<Vec2> positions;
  for (int i = 0; i < n; ++i)
    positions.emplace_back(rng.Uniform(0, 8), rng.Uniform(0, 8));

  TemporalIndex index;
  index.Rebuild(positions, 0);
  // reference[t][c]: kCoPresent / last co-present tick / kNever.
  std::vector<std::vector<std::int32_t>> reference(
      n, std::vector<std::int32_t>(n, TemporalView::kNever));
  for (int t = 0; t < n; ++t)
    for (int c = 0; c < n; ++c)
      if (t != c && CoPresent(positions[t], positions[c]))
        reference[t][c] = TemporalView::kCoPresent;

  std::int64_t previous_tick = 0;
  for (std::int64_t tick = 1; tick <= 40; ++tick) {
    std::vector<int> moved;
    for (int i = 0; i < n; ++i) {
      if (rng.UniformInt(3) != 0) continue;
      moved.push_back(i);
      positions[i].x += rng.Uniform(-3, 3);
      positions[i].y += rng.Uniform(-3, 3);
    }
    index.Update(positions, moved, tick);
    // Reference semantics: a pair's status can only change if an
    // endpoint moved; leaving co-presence stamps the previous tick.
    for (int t = 0; t < n; ++t) {
      for (int c = 0; c < n; ++c) {
        if (t == c) continue;
        const bool now = CoPresent(positions[t], positions[c]);
        if (now) {
          reference[t][c] = TemporalView::kCoPresent;
        } else if (reference[t][c] == TemporalView::kCoPresent) {
          reference[t][c] = static_cast<std::int32_t>(previous_tick);
        }
      }
    }
    previous_tick = tick;

    const auto view = index.PublishView();
    for (int t = 0; t < n; ++t)
      for (int c = 0; c < n; ++c) {
        if (t != c) {
          ASSERT_EQ(view->score(t, c), reference[t][c])
              << "pair (" << t << "," << c << ") at tick " << tick;
        }
      }
  }
}

/// One random walk step: each agent moves with probability 1/4, up to
/// `reach` along each axis. Returns the moved set, ascending.
std::vector<int> WalkStep(Rng& rng, double reach,
                          std::vector<Vec2>* positions) {
  std::vector<int> moved;
  for (int i = 0; i < static_cast<int>(positions->size()); ++i) {
    if (rng.UniformInt(4) != 0) continue;
    moved.push_back(i);
    (*positions)[i].x += rng.Uniform(-reach, reach);
    (*positions)[i].y += rng.Uniform(-reach, reach);
  }
  return moved;
}

std::vector<std::vector<std::int32_t>> Scores(const TemporalView& view) {
  const int n = view.num_users();
  std::vector<std::vector<std::int32_t>> scores(
      n, std::vector<std::int32_t>(n));
  for (int t = 0; t < n; ++t)
    for (int c = 0; c < n; ++c) scores[t][c] = view.score(t, c);
  return scores;
}

/// Rows are copy-on-write: a view keeps every score it was published
/// with, however many updates and publishes follow.
TEST(TemporalIndexTest, HeldViewKeepsItsScoresAcrossUpdates) {
  Rng rng(7);
  const int n = 10;
  std::vector<Vec2> positions;
  for (int i = 0; i < n; ++i)
    positions.emplace_back(rng.Uniform(0, 6), rng.Uniform(0, 6));
  TemporalIndex index;
  index.Rebuild(positions, 0);
  std::vector<int> moved = WalkStep(rng, 2.0, &positions);
  index.Update(positions, moved, 1);
  const auto held = index.PublishView();
  const auto published_with = Scores(*held);
  bool changed = false;
  for (std::int64_t tick = 2; tick <= 31; ++tick) {
    moved = WalkStep(rng, 2.0, &positions);
    index.Update(positions, moved, tick);
    changed |= Scores(*index.PublishView()) != published_with;
    ASSERT_EQ(Scores(*held), published_with) << "tick " << tick;
  }
  EXPECT_TRUE(changed);  // later views did move on
}

/// A publish after updates that changed no score returns the last view
/// itself; one after a change returns a new view.
TEST(TemporalIndexTest, PublishWithoutAChangeReturnsTheSameView) {
  std::vector<Vec2> positions = {{0, 0}, {1, 0}, {10, 10}};
  TemporalIndex index;
  index.Rebuild(positions, 0);
  const auto first = index.PublishView();
  EXPECT_EQ(index.PublishView(), first);  // no update at all
  // 1 stays co-present with 0, and 2 stays away from both.
  positions[1].x = 1.5;
  positions[2].y = 11.0;
  index.Update(positions, {1, 2}, 1);
  EXPECT_EQ(index.PublishView(), first);
  positions[1].x = 50.0;  // 0 and 1 separate
  index.Update(positions, {1}, 2);
  const auto second = index.PublishView();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->score(0, 1), 1);
  EXPECT_EQ(first->score(0, 1), TemporalView::kCoPresent);
  EXPECT_EQ(index.PublishView(), second);
}

/// Publishing is only a copy of row pointers: an index that publishes
/// every tick (holding some of its views) reads the same as one fed
/// identically that publishes once at the end.
TEST(TemporalIndexTest, ViewsPublishedEveryTickEqualOnePublishedAtTheEnd) {
  Rng rng(99);
  const int n = 10;
  std::vector<Vec2> positions;
  for (int i = 0; i < n; ++i)
    positions.emplace_back(rng.Uniform(0, 6), rng.Uniform(0, 6));

  TemporalIndex every_tick;
  TemporalIndex at_end;
  every_tick.Rebuild(positions, 0);
  at_end.Rebuild(positions, 0);
  std::vector<std::shared_ptr<const TemporalView>> held;
  for (std::int64_t tick = 1; tick <= 30; ++tick) {
    const std::vector<int> moved = WalkStep(rng, 2.0, &positions);
    every_tick.Update(positions, moved, tick);
    at_end.Update(positions, moved, tick);
    const auto view = every_tick.PublishView();
    if (tick % 7 == 0) held.push_back(view);  // sometimes pin a view alive
  }
  EXPECT_EQ(Scores(*every_tick.PublishView()), Scores(*at_end.PublishView()));
}

TEST(TemporalViewTest, FillPruneMaskKeepsExactlyTopK) {
  Rng rng(7);
  const int n = 9;
  std::vector<Vec2> positions;
  for (int i = 0; i < n; ++i)
    positions.emplace_back(rng.Uniform(0, 10), rng.Uniform(0, 10));
  TemporalIndex index;
  index.Rebuild(positions, 0);
  for (std::int64_t tick = 1; tick <= 6; ++tick) {
    std::vector<int> moved;
    for (int i = 0; i < n; ++i)
      if (rng.UniformInt(2) == 0) {
        moved.push_back(i);
        positions[i].x += rng.Uniform(-4, 4);
      }
    index.Update(positions, moved, tick);
  }
  const auto view = index.PublishView();

  for (int target = 0; target < n; ++target) {
    const int k = 3;
    std::vector<bool> mask;
    view->FillPruneMask(target, k, &mask);
    ASSERT_EQ(static_cast<int>(mask.size()), n);
    EXPECT_FALSE(mask[target]);
    int pruned = 0;
    for (int c = 0; c < n; ++c) pruned += mask[c] ? 1 : 0;
    EXPECT_EQ(pruned, n - 1 - k);
    // Survivors are exactly the ranked top-k.
    const std::vector<int> top = view->TopCandidates(target, k);
    ASSERT_EQ(static_cast<int>(top.size()), k);
    for (int c : top) EXPECT_FALSE(mask[c]) << "candidate " << c;
    // Determinism: a second fill is identical.
    std::vector<bool> again;
    view->FillPruneMask(target, k, &again);
    EXPECT_EQ(mask, again);
  }

  // Degenerate k prunes nothing.
  for (int k : {0, -1, n - 1, n, n + 5}) {
    std::vector<bool> mask;
    view->FillPruneMask(0, k, &mask);
    EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 0)
        << "k=" << k;
  }
}

TEST(TemporalViewTest, RankingPrefersCoPresentThenRecentThenIndex) {
  // Candidate layout around target 0: 1 is co-present now, 2 left at
  // tick 5, 3 left at tick 2, 4 was never close. 5 is co-present too —
  // ties break by lower index.
  std::vector<Vec2> positions = {{0, 0}, {1, 0}, {0, 1},
                                 {1, 1}, {40, 40}, {0.5, 0.5}};
  TemporalIndex index;
  index.Rebuild(positions, 0);
  positions[3] = {30, 30};
  index.Update(positions, {3}, 2);
  positions[3] = {31, 30};  // keep 3 away; move 2 away later
  index.Update(positions, {3}, 5);
  positions[2] = {-30, 30};
  index.Update(positions, {2}, 6);
  const auto view = index.PublishView();

  ASSERT_EQ(view->score(0, 1), TemporalView::kCoPresent);
  ASSERT_EQ(view->score(0, 5), TemporalView::kCoPresent);
  ASSERT_EQ(view->score(0, 2), 5);
  ASSERT_EQ(view->score(0, 3), 0);
  ASSERT_EQ(view->score(0, 4), TemporalView::kNever);
  EXPECT_EQ(view->TopCandidates(0, 4), (std::vector<int>{1, 5, 2, 3}));
}

}  // namespace
}  // namespace after
