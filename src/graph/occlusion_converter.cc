#include "graph/occlusion_converter.h"

#include <algorithm>
#include <cmath>
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
std::vector<bool> BlockedByNearer(const std::vector<ViewArc>& arcs,
                                  const std::vector<bool>& is_blocker) {
  const int n = static_cast<int>(arcs.size());
  std::vector<ViewArc> blockers;
  for (int u = 0; u < n; ++u) {
    // A NaN distance (a corrupted position) is never strictly nearer
    // than anything; leaving it out also keeps the sort well-defined.
    if (is_blocker[u] && arcs[u].valid && !std::isnan(arcs[u].distance))
      blockers.push_back(arcs[u]);
  }
  std::sort(blockers.begin(), blockers.end(),
            [](const ViewArc& a, const ViewArc& b) {
              return a.distance < b.distance;
            });
  std::vector<bool> blocked(n, false);
  for (int w = 0; w < n; ++w) {
    if (!arcs[w].valid) continue;
    for (const ViewArc& u : blockers) {
      // Equal distance ends the scan too: w never blocks itself, and
      // users at the same depth do not block each other.
      if (!(u.distance < arcs[w].distance)) break;
      if (ValidArcsOverlap(u, arcs[w])) {
        blocked[w] = true;
        break;
      }
    }
  }
  return blocked;
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
  AFTER_CHECK_GE(target, 0);
  AFTER_CHECK_LT(target, static_cast<int>(positions.size()));
  std::vector<ViewArc> arcs(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    if (static_cast<int>(i) == target) continue;  // stays invalid
    arcs[i] =
        ComputeViewArc(positions[target], positions[i], body_radius);
  }
  return arcs;
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

OcclusionGraph UpdateOcclusionGraph(const OcclusionGraph& previous,
                                    const std::vector<ViewArc>& arcs,
                                    const std::vector<int>& moved,
                                    const std::vector<bool>& is_moved) {
  const int n = static_cast<int>(arcs.size());
  AFTER_CHECK_EQ(previous.num_nodes(), n);
  AFTER_CHECK_EQ(static_cast<int>(is_moved.size()), n);
  const int num_moved = static_cast<int>(moved.size());
  // Read once per arc test and once per old adjacency entry below; a
  // byte is cheaper to read than a vector<bool> bit.
  const std::vector<unsigned char> moved_flag(is_moved.begin(),
                                              is_moved.end());

  // Fresh rows of the moved agents: each moved arc is tested once
  // against every arc, and j ascends, so each row comes out sorted.
  // The tests are symmetric, so they also decide every unmoved row's
  // moved part: an unmoved u gains the moved agents it now overlaps
  // (`gained`) and loses the ones it overlapped before (`lost`, read off
  // the moved agents' old rows).
  std::vector<int> moved_offsets(num_moved + 1, 0);
  std::vector<int> moved_rows;
  std::vector<int> gained(n, 0);
  std::vector<int> lost(n, 0);
  std::vector<int> row(n);
  for (int k = 0; k < num_moved; ++k) {
    const int m = moved[k];
    // The row layout below relies on `moved` being strictly ascending
    // and flagged in `is_moved`; a violation would write out of bounds.
    AFTER_CHECK(k == 0 || moved[k - 1] < m);
    AFTER_CHECK(moved_flag[m]);
    for (int v : previous.Neighbors(m)) ++lost[v];
    const ViewArc& arc = arcs[m];
    int count = 0;
    if (arc.valid) {
      // Branch-free compaction: the outcome is unpredictable, so store
      // every j and advance past it only on a hit.
      for (int j = 0; j < n; ++j) {
        row[count] = j;
        count += arcs[j].valid & ValidArcsOverlap(arc, arcs[j]) & (j != m);
      }
    }
    for (int r = 0; r < count; ++r) gained[row[r]] += !moved_flag[row[r]];
    moved_rows.insert(moved_rows.end(), row.begin(), row.begin() + count);
    moved_offsets[k + 1] = static_cast<int>(moved_rows.size());
  }

  // Row starts of the result. A moved row is its fresh row; an unmoved
  // row keeps its old row minus the moved agents and gains its hits.
  std::vector<int> offsets(n + 1, 0);
  int flagged = 0;
  for (int u = 0; u < n; ++u) {
    int degree;
    if (moved_flag[u]) {
      AFTER_CHECK_LT(flagged, num_moved);  // no flag without a `moved` entry
      degree = moved_offsets[flagged + 1] - moved_offsets[flagged];
      ++flagged;
    } else {
      degree = previous.Degree(u) - lost[u] + gained[u];
    }
    offsets[u + 1] = offsets[u] + degree;
  }

  // Bucket the hits per unmoved node (counting sort on the node). The
  // moved agents are visited in ascending order, so every bucket is
  // ascending too.
  std::vector<int> hit_offsets(n + 1, 0);
  for (int u = 0; u < n; ++u) hit_offsets[u + 1] = hit_offsets[u] + gained[u];
  std::vector<int> hits(hit_offsets[n]);
  std::vector<int> fill(hit_offsets.begin(), hit_offsets.end() - 1);
  for (int k = 0; k < num_moved; ++k) {
    for (int r = moved_offsets[k]; r < moved_offsets[k + 1]; ++r) {
      const int j = moved_rows[r];
      if (!moved_flag[j]) hits[fill[j]++] = moved[k];
    }
  }

  // Write every row into one fresh array: the old snapshot may still be
  // serving requests, so nothing is patched in place. Both inputs of an
  // unmoved row are ascending and disjoint (hits are moved agents, the
  // kept old entries are not), so a plain merge keeps the row sorted.
  // The old entries are filtered branch-free: each is stored, and the
  // cursor only advances past the unmoved ones. A dropped entry's store
  // lands where this row or a later one writes next, or, at the very
  // end, in one slack slot that is popped afterwards.
  std::vector<int> neighbors(offsets[n] + 1);
  for (int u = 0, k = 0; u < n; ++u) {
    int* out = neighbors.data() + offsets[u];
    if (moved_flag[u]) {
      std::copy(moved_rows.begin() + moved_offsets[k],
                moved_rows.begin() + moved_offsets[k + 1], out);
      ++k;
      continue;
    }
    const int* hit = hits.data() + hit_offsets[u];
    const int* const hit_end = hits.data() + hit_offsets[u + 1];
    for (int v : previous.Neighbors(u)) {
      while (hit != hit_end && *hit < v) *out++ = *hit++;
      *out = v;
      out += !moved_flag[v];
    }
    std::copy(hit, hit_end, out);
  }
  neighbors.pop_back();
  return OcclusionGraph::FromRows(std::move(offsets), std::move(neighbors));
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
  const int n = static_cast<int>(positions.size());
  AFTER_CHECK_EQ(static_cast<int>(is_physical.size()), n);
  if (!is_physical[target]) return std::vector<bool>(n, false);
  return BlockedByNearer(ComputeViewArcs(positions, target, body_radius),
                         is_physical);
}

std::vector<bool> ComputeVisibility(const std::vector<Vec2>& positions,
                                    int target, double body_radius,
                                    const std::vector<bool>& rendered) {
  const int n = static_cast<int>(positions.size());
  AFTER_CHECK_EQ(static_cast<int>(rendered.size()), n);
  const std::vector<bool> blocked = BlockedByNearer(
      ComputeViewArcs(positions, target, body_radius), rendered);
  std::vector<bool> visible(n, false);
  for (int w = 0; w < n; ++w)
    visible[w] = w != target && rendered[w] && !blocked[w];
  return visible;
}

}  // namespace after
