#include "perfbench/schedule.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace after {
namespace perfbench {
namespace {

// Splits one run seed into independent streams per purpose and lane.
uint64_t StreamSeed(uint64_t seed, uint64_t purpose, uint64_t lane) {
  return seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL +
         lane * 0x94D049BB133111EBULL + 1;
}

}  // namespace

ZipfSampler::ZipfSampler(int n, double exponent) {
  AFTER_CHECK_GT(n, 0);
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent);
    cdf_[static_cast<size_t>(k)] = total;
  }
  for (double& value : cdf_) value /= total;
  cdf_.back() = 1.0;
}

int ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

TargetSampler::TargetSampler(const std::vector<int>& room_sizes,
                             double room_exponent, double user_exponent,
                             int user_support, uint64_t seed)
    : rooms_(static_cast<int>(room_sizes.size()), room_exponent) {
  Rng rng(StreamSeed(seed, 1, 0));
  for (int size : room_sizes) {
    users_.emplace_back(user_support > 0 ? std::min(size, user_support) : size,
                        user_exponent);
    std::vector<int> order(static_cast<size_t>(size));
    for (int u = 0; u < size; ++u) order[static_cast<size_t>(u)] = u;
    rng.Shuffle(order);
    rank_to_user_.push_back(std::move(order));
  }
}

void TargetSampler::Sample(Rng& rng, int* room, int* user) const {
  *room = rooms_.Sample(rng);
  const size_t r = static_cast<size_t>(*room);
  *user = rank_to_user_[r][static_cast<size_t>(users_[r].Sample(rng))];
}

std::vector<Arrival> PoissonArrivals(uint64_t seed, int lane,
                                     double rate_per_s, double duration_s,
                                     const TargetSampler& targets) {
  AFTER_CHECK_GT(rate_per_s, 0.0);
  Rng rng(StreamSeed(seed, 2, static_cast<uint64_t>(lane)));
  std::vector<Arrival> plan;
  plan.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  const double end_ns = duration_s * 1e9;
  double t_ns = 0.0;
  while (true) {
    // 1 - Uniform() is in (0, 1], so the log is finite.
    t_ns += -std::log(1.0 - rng.Uniform()) / rate_per_s * 1e9;
    if (t_ns >= end_ns) break;
    Arrival arrival;
    arrival.due_ns = static_cast<int64_t>(t_ns);
    targets.Sample(rng, &arrival.room, &arrival.user);
    plan.push_back(arrival);
  }
  return plan;
}

std::vector<TickDue> TickSchedule(uint64_t seed, int rooms, double period_ms,
                                  double duration_s) {
  AFTER_CHECK_GT(period_ms, 0.0);
  AFTER_CHECK_GT(rooms, 0);
  Rng rng(StreamSeed(seed, 3, 0));
  const int64_t period_ns = static_cast<int64_t>(period_ms * 1e6);
  const int64_t end_ns = static_cast<int64_t>(duration_s * 1e9);
  // Evenly spread phases (so no two rooms pile onto one instant), all
  // shifted by one seeded offset within the spacing.
  const double spacing = static_cast<double>(period_ns) / rooms;
  const double offset = rng.Uniform() * spacing;
  std::vector<TickDue> plan;
  for (int room = 0; room < rooms; ++room) {
    const int64_t phase = static_cast<int64_t>(offset + room * spacing);
    for (int64_t due = phase; due < end_ns; due += period_ns)
      plan.push_back(TickDue{due, room});
  }
  std::sort(plan.begin(), plan.end(), [](const TickDue& a, const TickDue& b) {
    return a.due_ns != b.due_ns ? a.due_ns < b.due_ns : a.room < b.room;
  });
  return plan;
}

}  // namespace perfbench
}  // namespace after
