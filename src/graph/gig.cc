#include "graph/gig.h"

#include <utility>

#include "common/rng.h"

namespace after {

bool DisksIntersect(const Disk& a, const Disk& b) {
  const double limit = a.radius + b.radius;
  return (a.center - b.center).NormSq() <= limit * limit;
}

OcclusionGraph BuildGeometricIntersectionGraph(
    const std::vector<Disk>& disks) {
  const int n = static_cast<int>(disks.size());
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (DisksIntersect(disks[i], disks[j])) edges.emplace_back(i, j);
  return OcclusionGraph(n, edges);
}

std::vector<Disk> RandomDisks(int count, double extent, double min_radius,
                              double max_radius, Rng& rng) {
  std::vector<Disk> disks(count);
  for (auto& disk : disks) {
    disk.center = Vec2(rng.Uniform(0.0, extent), rng.Uniform(0.0, extent));
    disk.radius = rng.Uniform(min_radius, max_radius);
  }
  return disks;
}

}  // namespace after
