#include "graph/occlusion_graph.h"

#include <algorithm>

#include "common/check.h"

namespace after {

OcclusionGraph::OcclusionGraph(int num_nodes) {
  AFTER_CHECK_GE(num_nodes, 0);
  if (num_nodes > 0) offsets_.assign(num_nodes + 1, 0);
}

OcclusionGraph::OcclusionGraph(int num_nodes,
                               const std::vector<std::pair<int, int>>& edges)
    : OcclusionGraph(num_nodes) {
  // Counting pass: row sizes, then row starts.
  for (const auto& [u, v] : edges) {
    AFTER_CHECK_GE(u, 0);
    AFTER_CHECK_LT(u, num_nodes);
    AFTER_CHECK_GE(v, 0);
    AFTER_CHECK_LT(v, num_nodes);
    AFTER_CHECK_NE(u, v);
    ++offsets_[u + 1];
    ++offsets_[v + 1];
  }
  if (edges.empty()) return;  // covers the 0-node graph, which has no offsets
  for (int u = 0; u < num_nodes; ++u) offsets_[u + 1] += offsets_[u];
  neighbors_.resize(offsets_[num_nodes]);
  std::vector<int> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    neighbors_[fill[u]++] = v;
    neighbors_[fill[v]++] = u;
  }
  // Canonical rows: sort the rows an unordered list left unsorted, then
  // compact duplicates away, shifting later rows down in place.
  int out = 0;
  for (int u = 0; u < num_nodes; ++u) {
    const auto begin = neighbors_.begin() + offsets_[u];
    const auto end = neighbors_.begin() + offsets_[u + 1];
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
    offsets_[u] = out;
    int last = -1;
    for (auto it = begin; it != end; ++it) {
      if (*it == last) continue;
      last = *it;
      neighbors_[out++] = last;
    }
  }
  offsets_[num_nodes] = out;
  neighbors_.resize(out);
}

OcclusionGraph OcclusionGraph::FromRows(std::vector<int> offsets,
                                        std::vector<int> neighbors) {
  AFTER_CHECK(!offsets.empty());
  AFTER_CHECK_EQ(offsets.front(), 0);
  AFTER_CHECK_EQ(static_cast<size_t>(offsets.back()), neighbors.size());
  AFTER_CHECK(std::is_sorted(offsets.begin(), offsets.end()));
  OcclusionGraph graph;
  if (offsets.size() > 1) graph.offsets_ = std::move(offsets);
  graph.neighbors_ = std::move(neighbors);
  return graph;
}

bool OcclusionGraph::HasEdge(int u, int v) const {
  const std::span<const int> row = Neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

Matrix OcclusionGraph::ToAdjacencyMatrix() const {
  const int n = num_nodes();
  Matrix adjacency(n, n);
  for (int u = 0; u < n; ++u)
    for (int v : Neighbors(u)) adjacency.At(u, v) = 1.0;
  return adjacency;
}

int OcclusionGraph::CountConflicts(const std::vector<bool>& selected) const {
  const int n = num_nodes();
  AFTER_CHECK_EQ(static_cast<int>(selected.size()), n);
  int conflicts = 0;
  for (int u = 0; u < n; ++u) {
    if (!selected[u]) continue;
    // Each edge once, from its lower endpoint.
    for (int v : Neighbors(u))
      if (v > u && selected[v]) ++conflicts;
  }
  return conflicts;
}

DynamicOcclusionGraph::DynamicOcclusionGraph(int num_nodes, int num_steps)
    : num_nodes_(num_nodes) {
  steps_.reserve(num_steps);
  for (int t = 0; t < num_steps; ++t) steps_.emplace_back(num_nodes);
}

OcclusionGraph& DynamicOcclusionGraph::At(int t) {
  AFTER_CHECK_GE(t, 0);
  AFTER_CHECK_LT(t, num_steps());
  return steps_[t];
}

const OcclusionGraph& DynamicOcclusionGraph::At(int t) const {
  AFTER_CHECK_GE(t, 0);
  AFTER_CHECK_LT(t, num_steps());
  return steps_[t];
}

void DynamicOcclusionGraph::Append(OcclusionGraph graph) {
  if (steps_.empty()) {
    num_nodes_ = graph.num_nodes();
  } else {
    AFTER_CHECK_EQ(graph.num_nodes(), num_nodes_);
  }
  steps_.push_back(std::move(graph));
}

}  // namespace after
