#ifndef AFTER_GRAPH_OCCLUSION_CONVERTER_H_
#define AFTER_GRAPH_OCCLUSION_CONVERTER_H_

#include <memory>
#include <vector>

#include "common/geometry.h"
#include "graph/occlusion_graph.h"

namespace after {

/// Occlusion-graph converter from Sec. III-B of the paper: the target user
/// v is placed at the center of a circle and every surrounding user w
/// occupies an arc I_t^w of v's 360-degree view. The circular-arc graph
/// over those arcs (plus v as an isolated node) is v's static occlusion
/// graph at time t.

/// The arc a user occupies in the target's 360-degree view.
struct ViewArc {
  /// Angular center in radians, in (-pi, pi].
  double center = 0.0;
  /// Angular half-width in radians, in [0, pi].
  double half_width = 0.0;
  /// Euclidean distance from the target (depth; used for visibility).
  double distance = 0.0;
  /// False for the target itself (no arc).
  bool valid = false;
};

/// Computes the arc `other` occupies in `target`'s view, modeling each
/// user as a disk of `body_radius`. If the disk contains the target the
/// arc covers the full circle.
ViewArc ComputeViewArc(const Vec2& target, const Vec2& other,
                       double body_radius);

/// True when the two arcs intersect on the circle (I_a ∩ I_b != ∅).
bool ArcsOverlap(const ViewArc& a, const ViewArc& b);

/// Arcs for all users from the perspective of `positions[target]`.
/// Index `target` gets an invalid arc.
std::vector<ViewArc> ComputeViewArcs(const std::vector<Vec2>& positions,
                                     int target, double body_radius);

/// Same arcs, written into `*arcs`, whose capacity is reused.
void ComputeViewArcs(const std::vector<Vec2>& positions, int target,
                     double body_radius, std::vector<ViewArc>* arcs);

/// Builds the static occlusion graph for `target` at one time instant:
/// an edge between w_i and w_j iff their arcs overlap. The target itself
/// is an isolated node (Sec. III-B).
OcclusionGraph BuildOcclusionGraph(const std::vector<Vec2>& positions,
                                   int target, double body_radius);

/// Same graph, built from precomputed arcs (ComputeViewArcs). Lets the
/// delta-tick path cache a target's arcs across ticks and still produce
/// a graph bitwise-identical to the position-based overload.
OcclusionGraph BuildOcclusionGraphFromArcs(const std::vector<ViewArc>& arcs);

/// Incremental counterpart of ComputeViewArcs for delta ticks
/// (docs/ticking.md): `arcs` holds the target's arcs from the previous
/// tick and only the entries for the agents in `moved` (sorted
/// ascending, never containing `target`) are recomputed against the new
/// positions. An arc depends only on the target's and the arc owner's
/// positions, so untouched entries are exactly what ComputeViewArcs
/// would produce.
void UpdateViewArcs(const std::vector<Vec2>& positions, int target,
                    double body_radius, const std::vector<int>& moved,
                    std::vector<ViewArc>* arcs);

/// Delta-rebuilds the target's static occlusion graph (the per-tick
/// "carry"): edges between two unmoved agents are carried over from
/// `previous`; every pair with at least one endpoint in `moved` is
/// re-tested against the (already patched, see UpdateViewArcs) `arcs`.
/// Each moved arc is tested once against every arc, and its fresh row
/// diffed against its old one; the unmoved nodes in that difference
/// are exactly the unmoved rows that change. When every fresh row
/// equals its old row, no row changes and the result is `previous`
/// itself, shared rather than copied. Otherwise it is a new graph
/// (`previous` is never touched) written into one fresh CSR array: runs
/// of unchanged rows as block copies, moved rows fresh, changed rows as
/// their old row merged with what they gained and lost.
/// Requirements: `previous` is not null, `target` is not in `moved`,
/// `moved` is sorted ascending, and `is_moved` is its indicator vector.
/// Cost O(n + |moved| * n), plus the changed rows' degrees and one block
/// copy of the unchanged rows when some row changed, instead of O(n^2);
/// the result is bitwise-identical (operator==) to
/// BuildOcclusionGraphFromArcs(arcs).
std::shared_ptr<const OcclusionGraph> UpdateOcclusionGraph(
    const std::shared_ptr<const OcclusionGraph>& previous,
    const std::vector<ViewArc>& arcs, const std::vector<int>& moved,
    const std::vector<bool>& is_moved);

/// Builds the dynamic occlusion graph over a trajectory: one static graph
/// per time step. `trajectory[t][i]` is user i's position at time t.
DynamicOcclusionGraph BuildDynamicOcclusionGraph(
    const std::vector<std::vector<Vec2>>& trajectory, int target,
    double body_radius);

/// Hybrid-participation blocking (MIA's HP mask, Sec. IV-A): blocked[w]
/// is true when a strictly nearer *physical* participant's arc overlaps
/// w's arc from the target's viewpoint. `is_physical[u]` marks users
/// with a physical body in the target's space (MR interface).
/// All-false when the target itself is not physical (a VR viewer sees
/// rendered avatars, not bodies). Shared by core/mia.cc and the fused
/// inference engine (infer/engine.cc) so both paths make identical mask
/// decisions. The physical users are scanned nearest first, each w only
/// against those strictly nearer than it, up to the first overlap:
/// O(N·B) with B the physical users nearer than w, not O(N²).
std::vector<bool> PhysicallyBlockedUsers(const std::vector<Vec2>& positions,
                                         int target, double body_radius,
                                         const std::vector<bool>& is_physical);

/// Same mask from the target's arcs (ComputeViewArcs, or a snapshot's
/// cached arcs, which equal them bit for bit), without recomputing them,
/// written into `*blocked`. `*blockers` is scratch for the nearest-first
/// physical arcs. Both keep their capacity, so a caller that reuses them
/// allocates nothing once they have grown to the room.
void PhysicallyBlockedUsers(const std::vector<ViewArc>& arcs, int target,
                            const std::vector<bool>& is_physical,
                            std::vector<ViewArc>* blockers,
                            std::vector<bool>* blocked);

/// Visibility indicator 1[v => w at t] for a set of rendered users: w is
/// visible iff w is rendered and no strictly-nearer rendered user's arc
/// overlaps w's arc (the nearer user's image blocks w). The target index
/// is never visible (it is the viewer). Same nearest-first scan as
/// PhysicallyBlockedUsers, with the rendered users as the blockers.
std::vector<bool> ComputeVisibility(const std::vector<Vec2>& positions,
                                    int target, double body_radius,
                                    const std::vector<bool>& rendered);

}  // namespace after

#endif  // AFTER_GRAPH_OCCLUSION_CONVERTER_H_
