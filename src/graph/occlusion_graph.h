#ifndef AFTER_GRAPH_OCCLUSION_GRAPH_H_
#define AFTER_GRAPH_OCCLUSION_GRAPH_H_

#include <span>
#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace after {

/// Static occlusion graph O_t^v = (V, E_t^v) from Definition 4: a simple
/// undirected graph over the users whose edges are pairwise view overlaps
/// from the target user's perspective at a single time step. Also serves
/// as the general simple-graph type consumed by the MWIS solvers and
/// produced by the geometric-intersection-graph builder (Lemma 1).
///
/// Immutable once built, and stored as CSR (compressed sparse row): row
/// u is neighbors_[offsets_[u], offsets_[u + 1]), strictly ascending, so
/// a graph takes 4·(n + 1 + 2E) bytes in two allocations and the layout
/// is a function of the edge set alone.
class OcclusionGraph {
 public:
  OcclusionGraph() = default;
  /// `num_nodes` isolated nodes.
  explicit OcclusionGraph(int num_nodes);
  /// Builds the graph from an undirected edge list. Pairs may come in
  /// any order and orientation; duplicates collapse into one edge.
  /// Endpoints must be in range and distinct. A list in lexicographic
  /// (u < v) order — what every graph builder's i < j loop emits —
  /// already fills each row in ascending order, so no row needs a sort.
  OcclusionGraph(int num_nodes, const std::vector<std::pair<int, int>>& edges);

  /// Adopts CSR arrays built row by row (the delta carry, see
  /// UpdateOcclusionGraph). `offsets` has num_nodes + 1 non-decreasing
  /// entries from 0 to neighbors.size() (checked); each row must be
  /// strictly ascending, free of self-loops and symmetric with the
  /// others (v in row u iff u in row v). Those O(E) row invariants are
  /// the caller's to keep: checking them would cost more than a carry
  /// that block-copies most rows.
  static OcclusionGraph FromRows(std::vector<int> offsets,
                                 std::vector<int> neighbors);

  int num_nodes() const {
    return offsets_.empty() ? 0 : static_cast<int>(offsets_.size()) - 1;
  }
  int num_edges() const { return static_cast<int>(neighbors_.size()) / 2; }

  /// O(log degree): rows are sorted.
  bool HasEdge(int u, int v) const;

  /// u's neighbours in ascending order; valid while the graph lives.
  std::span<const int> Neighbors(int u) const { return Rows(u, u + 1); }

  /// Rows first..last-1 back to back, as stored (0 <= first <= last <=
  /// num_nodes). The delta carry copies runs of unchanged rows with it.
  std::span<const int> Rows(int first, int last) const {
    return {neighbors_.data() + offsets_[first],
            neighbors_.data() + offsets_[last]};
  }

  int Degree(int u) const { return offsets_[u + 1] - offsets_[u]; }

  /// Dense symmetric 0/1 adjacency matrix A_t (used by MIA and the
  /// POSHGNN loss quadratic form).
  Matrix ToAdjacencyMatrix() const;

  /// Number of edges with both endpoints selected; 0 means `selected`
  /// is an independent set.
  int CountConflicts(const std::vector<bool>& selected) const;

  /// Structural identity. Rows are canonical (ascending, duplicate-
  /// free), so equal edge sets give equal arrays: a delta-updated graph
  /// is indistinguishable from a from-scratch build even to consumers
  /// that depend on neighbour order (greedy MWIS tie-breaks, POSHGNN
  /// aggregation sums).
  friend bool operator==(const OcclusionGraph& a, const OcclusionGraph& b) {
    return a.offsets_ == b.offsets_ && a.neighbors_ == b.neighbors_;
  }
  friend bool operator!=(const OcclusionGraph& a, const OcclusionGraph& b) {
    return !(a == b);
  }

 private:
  /// num_nodes + 1 row starts; empty for the 0-node graph.
  std::vector<int> offsets_;
  /// Both directions of every edge, row after row.
  std::vector<int> neighbors_;
};

/// Dynamic occlusion graph O^v = (V, E^v, T) from Definition 4: one static
/// occlusion graph per time step t in {0, ..., T}.
class DynamicOcclusionGraph {
 public:
  DynamicOcclusionGraph() = default;
  DynamicOcclusionGraph(int num_nodes, int num_steps);

  int num_nodes() const { return num_nodes_; }
  int num_steps() const { return static_cast<int>(steps_.size()); }

  OcclusionGraph& At(int t);
  const OcclusionGraph& At(int t) const;

  void Append(OcclusionGraph graph);

 private:
  int num_nodes_ = 0;
  std::vector<OcclusionGraph> steps_;
};

}  // namespace after

#endif  // AFTER_GRAPH_OCCLUSION_GRAPH_H_
