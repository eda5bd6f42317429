#include "graph/occlusion_converter_3d.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace after {

double Vec3::Norm() const { return std::sqrt(NormSq()); }

ViewCap ComputeViewCap(const Vec3& target, const Vec3& other,
                       double body_radius) {
  ViewCap cap;
  const Vec3 delta = other - target;
  const double distance = delta.Norm();
  cap.distance = distance;
  cap.valid = true;
  if (distance <= body_radius) {
    cap.direction = Vec3(1.0, 0.0, 0.0);
    cap.angular_radius = M_PI;  // body encloses the target
    return cap;
  }
  const double inv = 1.0 / distance;
  cap.direction = Vec3(delta.x * inv, delta.y * inv, delta.z * inv);
  cap.angular_radius = std::asin(body_radius / distance);
  return cap;
}

bool CapsOverlap(const ViewCap& a, const ViewCap& b) {
  if (!a.valid || !b.valid) return false;
  const double cosine =
      std::clamp(a.direction.Dot(b.direction), -1.0, 1.0);
  const double separation = std::acos(cosine);
  return separation <= a.angular_radius + b.angular_radius;
}

std::vector<ViewCap> ComputeViewCaps(const std::vector<Vec3>& positions,
                                     int target, double body_radius) {
  AFTER_CHECK_GE(target, 0);
  AFTER_CHECK_LT(target, static_cast<int>(positions.size()));
  std::vector<ViewCap> caps(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    if (static_cast<int>(i) == target) continue;
    caps[i] = ComputeViewCap(positions[target], positions[i], body_radius);
  }
  return caps;
}

OcclusionGraph BuildOcclusionGraph3d(const std::vector<Vec3>& positions,
                                     int target, double body_radius) {
  const int n = static_cast<int>(positions.size());
  const std::vector<ViewCap> caps =
      ComputeViewCaps(positions, target, body_radius);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n; ++i) {
    if (!caps[i].valid) continue;
    for (int j = i + 1; j < n; ++j)
      if (CapsOverlap(caps[i], caps[j])) edges.emplace_back(i, j);
  }
  return OcclusionGraph(n, edges);
}

std::vector<bool> ComputeVisibility3d(const std::vector<Vec3>& positions,
                                      int target, double body_radius,
                                      const std::vector<bool>& rendered) {
  const int n = static_cast<int>(positions.size());
  AFTER_CHECK_EQ(static_cast<int>(rendered.size()), n);
  const std::vector<ViewCap> caps =
      ComputeViewCaps(positions, target, body_radius);
  std::vector<bool> visible(n, false);
  for (int w = 0; w < n; ++w) {
    if (w == target || !rendered[w]) continue;
    bool blocked = false;
    for (int u = 0; u < n; ++u) {
      if (u == w || u == target || !rendered[u]) continue;
      if (caps[u].distance < caps[w].distance &&
          CapsOverlap(caps[u], caps[w])) {
        blocked = true;
        break;
      }
    }
    visible[w] = !blocked;
  }
  return visible;
}

}  // namespace after
