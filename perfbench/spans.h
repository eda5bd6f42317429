#ifndef AFTER_PERFBENCH_SPANS_H_
#define AFTER_PERFBENCH_SPANS_H_

// Statistics for the serving benchmark: the tail-percentile rule (a
// percentile is only reported when at least `min_beyond` samples rank
// above it) and span-tree self times (a span's duration minus the part
// of it its child spans cover). Pure functions.

#include <cstdint>
#include <vector>

namespace after {
namespace perfbench {

/// Nearest-rank q-quantile (q in (0, 1]) of `samples`, which is sorted
/// in place. Returns false, leaving *value untouched, when the sample is
/// empty or fewer than `min_beyond` samples rank above the quantile.
bool TailPercentile(std::vector<double>* samples, double q, int min_beyond,
                    double* value);

/// One sample stamped with when it was taken.
struct TimedSample {
  int64_t at_ns = 0;
  double value = 0.0;
};

/// Median over time blocks of a per-block percentile: [start_ns, end_ns)
/// is cut into the largest number of equal blocks, at most `max_blocks`,
/// in which every block's q-quantile has `min_beyond` samples beyond it;
/// the result is the median of those block quantiles (the mean of the
/// middle two for an even count). A stall then moves one block, not the
/// result. Returns false when even one block is too small.
bool BlockedPercentile(const std::vector<TimedSample>& samples,
                       int64_t start_ns, int64_t end_ns, double q,
                       int min_beyond, int max_blocks, double* value);

/// Median over the quietest time blocks of a per-block percentile:
/// [start_ns, end_ns) is cut into noise.size() equal blocks, noise[b] is
/// the interference measured during block b (host steal time), and only
/// blocks whose noise is at most the lower quartile (nearest rank) of
/// the blocks' noise count. The result is the median of their
/// q-quantiles. Returns false when there are no blocks or a counted
/// block has fewer than `min_beyond` samples beyond.
bool QuietBlocksPercentile(const std::vector<TimedSample>& samples,
                           int64_t start_ns, int64_t end_ns, double q,
                           int min_beyond, const std::vector<double>& noise,
                           double* value);

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& samples);

/// One timed interval of a request's span tree. `parent` indexes the
/// enclosing span in the same vector (-1 for the root).
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent. Never negative.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
}  // namespace after

#endif  // AFTER_PERFBENCH_SPANS_H_
