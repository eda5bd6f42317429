#include "graph/occlusion_converter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "common/check.h"

namespace after {
namespace {

/// Smallest absolute angular difference between two arc centers, in
/// [0, pi]. Centers come from atan2 (or are 0 for a full-circle arc), so
/// they lie in [-pi, pi] and |a - b| <= 2*pi even after rounding: no
/// fmod is needed, and exactly 2*pi (centers +pi and -pi) folds to 0 as
/// fmod would have made it. The fold is a min rather than a branch on
/// diff > pi, which would mispredict on every other pair; the two agree
/// bit for bit (for diff > pi, 2*pi - diff is exact and below pi; for
/// diff <= pi it rounds to no less than diff).
double AngularDistance(double a, double b) {
  const double diff = std::abs(a - b);
  return std::min(diff, 2.0 * M_PI - diff);
}

/// ArcsOverlap for two valid arcs. Symmetric bit for bit: |a - b| and
/// a + b do not depend on operand order.
bool ValidArcsOverlap(const ViewArc& a, const ViewArc& b) {
  return AngularDistance(a.center, b.center) <= a.half_width + b.half_width;
}

/// blocked[w] is true when a flagged user strictly nearer than w has an
/// arc overlapping w's; invalid arcs (the target) neither block nor are
/// blocked. The flagged arcs are sorted nearest first and, for each w,
/// scanned only while strictly nearer than w, stopping at the first
/// overlap. That is an existence test, so the scan order cannot change
/// the answer: O(B log B + N·B) for B flagged users, and in a crowd the
/// nearest (widest) arcs usually end the scan early.
/// The blocked mask goes to `*blocked` and the sorted flagged arcs to
/// `*blockers`; both are overwritten and keep their capacity.
void BlockedByNearer(const std::vector<ViewArc>& arcs,
                     const std::vector<bool>& is_blocker,
                     std::vector<ViewArc>* blockers,
                     std::vector<bool>* blocked) {
  const int n = static_cast<int>(arcs.size());
  blockers->clear();
  for (int u = 0; u < n; ++u) {
    // A NaN distance (a corrupted position) is never strictly nearer
    // than anything; leaving it out also keeps the sort well-defined.
    if (is_blocker[u] && arcs[u].valid && !std::isnan(arcs[u].distance))
      blockers->push_back(arcs[u]);
  }
  std::sort(blockers->begin(), blockers->end(),
            [](const ViewArc& a, const ViewArc& b) {
              return a.distance < b.distance;
            });
  blocked->assign(n, false);
  for (int w = 0; w < n; ++w) {
    if (!arcs[w].valid) continue;
    for (const ViewArc& u : *blockers) {
      // Equal distance ends the scan too: w never blocks itself, and
      // users at the same depth do not block each other.
      if (!(u.distance < arcs[w].distance)) break;
      if (ValidArcsOverlap(u, arcs[w])) {
        (*blocked)[w] = true;
        break;
      }
    }
  }
}

}  // namespace

ViewArc ComputeViewArc(const Vec2& target, const Vec2& other,
                       double body_radius) {
  ViewArc arc;
  const Vec2 delta = other - target;
  const double distance = delta.Norm();
  arc.distance = distance;
  arc.valid = true;
  if (distance <= body_radius) {
    // The other user's body encloses the target: full-circle arc.
    arc.center = 0.0;
    arc.half_width = M_PI;
    return arc;
  }
  arc.center = delta.Angle();
  arc.half_width = std::asin(body_radius / distance);
  return arc;
}

bool ArcsOverlap(const ViewArc& a, const ViewArc& b) {
  return a.valid && b.valid && ValidArcsOverlap(a, b);
}

std::vector<ViewArc> ComputeViewArcs(const std::vector<Vec2>& positions,
                                     int target, double body_radius) {
  std::vector<ViewArc> arcs;
  ComputeViewArcs(positions, target, body_radius, &arcs);
  return arcs;
}

void ComputeViewArcs(const std::vector<Vec2>& positions, int target,
                     double body_radius, std::vector<ViewArc>* arcs) {
  AFTER_CHECK_GE(target, 0);
  AFTER_CHECK_LT(target, static_cast<int>(positions.size()));
  arcs->assign(positions.size(), ViewArc{});
  for (size_t i = 0; i < positions.size(); ++i) {
    if (static_cast<int>(i) == target) continue;  // stays invalid
    (*arcs)[i] =
        ComputeViewArc(positions[target], positions[i], body_radius);
  }
}

OcclusionGraph BuildOcclusionGraph(const std::vector<Vec2>& positions,
                                   int target, double body_radius) {
  return BuildOcclusionGraphFromArcs(
      ComputeViewArcs(positions, target, body_radius));
}

OcclusionGraph BuildOcclusionGraphFromArcs(const std::vector<ViewArc>& arcs) {
  const int n = static_cast<int>(arcs.size());
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    if (!arcs[i].valid) continue;
    for (int j = i + 1; j < n; ++j)
      if (ArcsOverlap(arcs[i], arcs[j])) edges.emplace_back(i, j);
  }
  return OcclusionGraph(n, edges);
}

void UpdateViewArcs(const std::vector<Vec2>& positions, int target,
                    double body_radius, const std::vector<int>& moved,
                    std::vector<ViewArc>* arcs) {
  AFTER_CHECK(arcs != nullptr);
  AFTER_CHECK_EQ(arcs->size(), positions.size());
  AFTER_CHECK_GE(target, 0);
  AFTER_CHECK_LT(target, static_cast<int>(positions.size()));
  for (int m : moved) {
    AFTER_CHECK(m != target);
    (*arcs)[m] =
        ComputeViewArc(positions[target], positions[m], body_radius);
  }
}

std::shared_ptr<const OcclusionGraph> UpdateOcclusionGraph(
    const std::shared_ptr<const OcclusionGraph>& previous,
    const std::vector<ViewArc>& arcs, const std::vector<int>& moved,
    const std::vector<bool>& is_moved) {
  AFTER_CHECK(previous != nullptr);
  const OcclusionGraph& graph = *previous;
  const int n = static_cast<int>(arcs.size());
  AFTER_CHECK_EQ(graph.num_nodes(), n);
  AFTER_CHECK_EQ(static_cast<int>(is_moved.size()), n);
  const int num_moved = static_cast<int>(moved.size());
  // Node sets as bits, 64 to a word: the nodes with a valid arc, the
  // unmoved nodes, and a moved agent's fresh and old rows. Words fill
  // highest node first, so that every step shifts by one.
  const int num_words = (n + 63) / 64;
  std::vector<uint64_t> valid(num_words, 0);
  for (int w = 0; w < num_words; ++w)
    for (int j = std::min(n, 64 * w + 64) - 1; j >= 64 * w; --j)
      valid[w] = valid[w] << 1 | arcs[j].valid;
  std::vector<uint64_t> unmoved(num_words, ~uint64_t{0});
  for (int m : moved) unmoved[m >> 6] &= ~(uint64_t{1} << (m & 63));
  std::vector<uint64_t> fresh(num_words);
  std::vector<uint64_t> old(num_words);

  // Fresh rows of the moved agents: each moved arc is tested once
  // against every arc. The tests are symmetric, so they also decide
  // every unmoved row's moved part, and diffing a moved agent m's fresh
  // row against its old row, a word at a time, yields exactly the
  // unmoved rows that change because of m: a node only in the fresh row
  // gains m, one only in the old row loses it. Each change is recorded
  // as (node, m) for a gain and (node, ~m) for a loss; every other entry
  // of an unmoved row stays as it was.
  std::vector<int> moved_offsets(num_moved + 1, 0);
  std::vector<int> moved_rows;
  std::vector<std::pair<int, int>> changes;
  std::vector<int> change_offsets(n + 1, 0);  // counts first, then starts
  std::vector<int> row(n);
  int total = 2 * graph.num_edges();  // entries of the result
  bool same_rows = true;  // every fresh row equals its old row
  for (int k = 0; k < num_moved; ++k) {
    const int m = moved[k];
    // The row layout below relies on `moved` being strictly ascending
    // and flagged in `is_moved`.
    AFTER_CHECK(k == 0 || moved[k - 1] < m);
    AFTER_CHECK(is_moved[m]);
    const ViewArc& arc = arcs[m];
    for (int w = 0; w < num_words; ++w) {
      // A word's bits gather in a register, branch-free: the outcome of
      // each test is unpredictable. Invalid arcs are tested too, then
      // masked out.
      uint64_t bits = 0;
      for (int j = std::min(n, 64 * w + 64) - 1; j >= 64 * w; --j)
        bits = bits << 1 | ValidArcsOverlap(arc, arcs[j]);
      fresh[w] = arc.valid ? bits & valid[w] : 0;
    }
    fresh[m >> 6] &= ~(uint64_t{1} << (m & 63));  // no self-loop
    const std::span<const int> old_row = graph.Neighbors(m);
    std::fill(old.begin(), old.end(), 0);
    for (int v : old_row) old[v >> 6] |= uint64_t{1} << (v & 63);
    int count = 0;
    for (int w = 0; w < num_words; ++w) {
      same_rows = same_rows && fresh[w] == old[w];
      // Bits come out lowest first, so the fresh row is ascending.
      for (uint64_t bits = fresh[w]; bits != 0; bits &= bits - 1)
        row[count++] = 64 * w + std::countr_zero(bits);
      for (uint64_t bits = (fresh[w] ^ old[w]) & unmoved[w]; bits != 0;
           bits &= bits - 1) {
        const int v = 64 * w + std::countr_zero(bits);
        const bool gained = (fresh[w] >> (v & 63)) & 1;
        changes.emplace_back(v, gained ? m : ~m);
        ++change_offsets[v + 1];
        total += gained ? 1 : -1;
      }
    }
    moved_rows.insert(moved_rows.end(), row.begin(), row.begin() + count);
    moved_offsets[k + 1] = static_cast<int>(moved_rows.size());
    total += count - static_cast<int>(old_row.size());
  }

  if (same_rows) {
    // No moved row changed, so no unmoved row did either (each change is
    // a bit where a fresh and an old row differ): share the graph. The
    // row loop below checks that no flag lacks its `moved` entry; every
    // entry is flagged (checked above), so counting the flags does it.
    AFTER_CHECK_EQ(std::count(is_moved.begin(), is_moved.end(), true),
                   num_moved);
    return previous;
  }

  // Bucket the changes per unmoved node (counting sort on the node). The
  // moved agents were visited in ascending order, so every bucket is
  // ascending by agent.
  for (int u = 0; u < n; ++u) change_offsets[u + 1] += change_offsets[u];
  std::vector<int> bucket(changes.size());
  std::vector<int> fill(change_offsets.begin(), change_offsets.end() - 1);
  for (const auto& [v, change] : changes) bucket[fill[v]++] = change;

  // Write every row, in order, into one fresh array: the old graph may
  // still be serving requests, so nothing is patched in place. A
  // run of unchanged rows is one block copy from the old array. A moved
  // row is its fresh row. A changed unmoved row is its old row merged
  // with its bucket, each gain inserted where it sorts and each loss
  // skipped, so the row stays ascending.
  std::vector<int> offsets(n + 1, 0);
  std::vector<int> neighbors;
  neighbors.reserve(total);
  auto append = [&neighbors](const int* first, const int* last) {
    neighbors.insert(neighbors.end(), first, last);
  };
  auto copy_run = [&](int first, int last) {
    if (first == last) return;
    const std::span<const int> run = graph.Rows(first, last);
    append(run.data(), run.data() + run.size());
    for (int u = first; u < last; ++u)
      offsets[u + 1] = offsets[u] + graph.Degree(u);
  };
  int run_start = 0;
  for (int u = 0, k = 0; u < n; ++u) {
    const int* change = bucket.data() + change_offsets[u];
    const int* const change_end = bucket.data() + change_offsets[u + 1];
    if (!is_moved[u] && change == change_end) continue;
    copy_run(run_start, u);
    run_start = u + 1;
    if (is_moved[u]) {
      // No flag without its `moved` entry: k walks `moved` in step.
      AFTER_CHECK(k < num_moved && moved[k] == u);
      append(moved_rows.data() + moved_offsets[k],
             moved_rows.data() + moved_offsets[k + 1]);
      ++k;
    } else {
      const std::span<const int> old_row = graph.Neighbors(u);
      const int* kept = old_row.data();
      const int* const old_end = kept + old_row.size();
      int* out = row.data();
      for (; change != change_end; ++change) {
        const int m = *change >= 0 ? *change : ~*change;
        while (kept != old_end && *kept < m) *out++ = *kept++;
        if (*change >= 0) {
          *out++ = m;
        } else {
          ++kept;  // the old row held the lost agent here
        }
      }
      out = std::copy(kept, old_end, out);
      append(row.data(), out);
    }
    offsets[u + 1] = static_cast<int>(neighbors.size());
  }
  copy_run(run_start, n);
  return std::make_shared<const OcclusionGraph>(
      OcclusionGraph::FromRows(std::move(offsets), std::move(neighbors)));
}

DynamicOcclusionGraph BuildDynamicOcclusionGraph(
    const std::vector<std::vector<Vec2>>& trajectory, int target,
    double body_radius) {
  DynamicOcclusionGraph dog;
  for (const auto& positions : trajectory)
    dog.Append(BuildOcclusionGraph(positions, target, body_radius));
  return dog;
}

std::vector<bool> PhysicallyBlockedUsers(const std::vector<Vec2>& positions,
                                         int target, double body_radius,
                                         const std::vector<bool>& is_physical) {
  std::vector<ViewArc> blockers;
  std::vector<bool> blocked;
  PhysicallyBlockedUsers(ComputeViewArcs(positions, target, body_radius),
                         target, is_physical, &blockers, &blocked);
  return blocked;
}

void PhysicallyBlockedUsers(const std::vector<ViewArc>& arcs, int target,
                            const std::vector<bool>& is_physical,
                            std::vector<ViewArc>* blockers,
                            std::vector<bool>* blocked) {
  const int n = static_cast<int>(arcs.size());
  AFTER_CHECK_EQ(static_cast<int>(is_physical.size()), n);
  if (!is_physical[target]) {
    blocked->assign(n, false);
    return;
  }
  BlockedByNearer(arcs, is_physical, blockers, blocked);
}

std::vector<bool> ComputeVisibility(const std::vector<Vec2>& positions,
                                    int target, double body_radius,
                                    const std::vector<bool>& rendered) {
  const int n = static_cast<int>(positions.size());
  AFTER_CHECK_EQ(static_cast<int>(rendered.size()), n);
  std::vector<ViewArc> blockers;
  std::vector<bool> blocked;
  BlockedByNearer(ComputeViewArcs(positions, target, body_radius), rendered,
                  &blockers, &blocked);
  std::vector<bool> visible(n, false);
  for (int w = 0; w < n; ++w)
    visible[w] = w != target && rendered[w] && !blocked[w];
  return visible;
}

}  // namespace after
