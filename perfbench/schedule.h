#ifndef AFTER_PERFBENCH_SCHEDULE_H_
#define AFTER_PERFBENCH_SCHEDULE_H_

// Seeded load plans for the serving benchmark: open-loop Poisson request
// arrivals, fixed-period staggered tick schedules, and the Zipf samplers
// that pick request targets. Pure computation (no clocks, no sockets),
// so the same seed always yields the same plan, bit for bit.

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace after {
namespace perfbench {

/// Samples ranks in [0, n) with P(k) proportional to (k + 1)^-exponent;
/// exponent 0 is uniform. Inverse-CDF lookup, O(log n) per draw.
class ZipfSampler {
 public:
  ZipfSampler(int n, double exponent);
  int Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Picks (room, user) request targets: rooms by Zipf popularity rank
/// (room id == rank), users by Zipf rank within the room. `user_support`
/// > 0 caps the distinct targets per room (the Zipf is over the first
/// that many ranks). A seeded permutation per room maps user ranks to
/// user ids, so the hot set is scattered across the room instead of
/// being users 0..k.
class TargetSampler {
 public:
  TargetSampler(const std::vector<int>& room_sizes, double room_exponent,
                double user_exponent, int user_support, uint64_t seed);
  void Sample(Rng& rng, int* room, int* user) const;

 private:
  ZipfSampler rooms_;
  std::vector<ZipfSampler> users_;
  std::vector<std::vector<int>> rank_to_user_;
};

/// One planned request, due `due_ns` after the plan's time zero.
struct Arrival {
  int64_t due_ns = 0;
  int room = 0;
  int user = 0;
};

/// Poisson arrivals (exponential gaps) at `rate_per_s` over
/// [0, duration_s) for one sender lane. Lanes draw from independent
/// streams, so their union is again Poisson at the summed rate.
std::vector<Arrival> PoissonArrivals(uint64_t seed, int lane,
                                     double rate_per_s, double duration_s,
                                     const TargetSampler& targets);

/// One planned room tick.
struct TickDue {
  int64_t due_ns = 0;
  int room = 0;
};

/// Every room ticks every `period_ms` over [0, duration_s). Phases are
/// spread evenly across the period behind one seeded offset; the plan is
/// sorted by due time.
std::vector<TickDue> TickSchedule(uint64_t seed, int rooms, double period_ms,
                                  double duration_s);

}  // namespace perfbench
}  // namespace after

#endif  // AFTER_PERFBENCH_SCHEDULE_H_
