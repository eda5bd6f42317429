#include "perfbench/spans.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace after {
namespace perfbench {

bool TailPercentile(std::vector<double>* samples, double q, int min_beyond,
                    double* value) {
  const int64_t n = static_cast<int64_t>(samples->size());
  if (n == 0 || q <= 0.0 || q > 1.0) return false;
  // Nearest rank: the smallest rank k with k >= q * n (1-based).
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  if (n - rank < min_beyond) return false;
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  *value = (*samples)[static_cast<size_t>(rank - 1)];
  return true;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : 0.5 * (samples[mid - 1] + samples[mid]);
}

bool BlockedPercentile(const std::vector<TimedSample>& samples,
                       int64_t start_ns, int64_t end_ns, double q,
                       int min_beyond, int max_blocks, double* value) {
  if (end_ns <= start_ns) return false;
  for (int blocks = std::max(1, max_blocks); blocks >= 1; --blocks) {
    const double width =
        static_cast<double>(end_ns - start_ns) / static_cast<double>(blocks);
    std::vector<std::vector<double>> split(static_cast<size_t>(blocks));
    for (const TimedSample& sample : samples) {
      if (sample.at_ns < start_ns || sample.at_ns >= end_ns) continue;
      const int block = std::min(
          blocks - 1, static_cast<int>(static_cast<double>(
                                           sample.at_ns - start_ns) /
                                       width));
      split[static_cast<size_t>(block)].push_back(sample.value);
    }
    std::vector<double> block_values;
    for (std::vector<double>& block : split) {
      double block_value = 0.0;
      if (!TailPercentile(&block, q, min_beyond, &block_value)) break;
      block_values.push_back(block_value);
    }
    if (static_cast<int>(block_values.size()) == blocks) {
      *value = Median(std::move(block_values));
      return true;
    }
  }
  return false;
}

bool QuietBlocksPercentile(const std::vector<TimedSample>& samples,
                           int64_t start_ns, int64_t end_ns, double q,
                           int min_beyond, const std::vector<double>& noise,
                           double* value) {
  const int blocks = static_cast<int>(noise.size());
  if (blocks == 0 || end_ns <= start_ns) return false;
  const double width =
      static_cast<double>(end_ns - start_ns) / static_cast<double>(blocks);
  std::vector<std::vector<double>> split(static_cast<size_t>(blocks));
  for (const TimedSample& sample : samples) {
    if (sample.at_ns < start_ns || sample.at_ns >= end_ns) continue;
    const int block = std::min(
        blocks - 1,
        static_cast<int>(static_cast<double>(sample.at_ns - start_ns) / width));
    split[static_cast<size_t>(block)].push_back(sample.value);
  }
  std::vector<double> ranked = noise;
  double noise_cut = 0.0;
  TailPercentile(&ranked, 0.25, 0, &noise_cut);
  std::vector<double> block_values;
  for (int b = 0; b < blocks; ++b) {
    if (noise[static_cast<size_t>(b)] > noise_cut) continue;
    double block_value = 0.0;
    if (!TailPercentile(&split[static_cast<size_t>(b)], q, min_beyond,
                        &block_value))
      return false;
    block_values.push_back(block_value);
  }
  *value = Median(std::move(block_values));
  return true;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (double sample : samples) total += sample;
  return total / static_cast<double>(samples.size());
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start)
      children[static_cast<size_t>(span.parent)].emplace_back(start, end);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    bool open = false;
    for (const auto& [start, end] : covered) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) union_ns += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) union_ns += run_end - run_start;
    self[i] = std::max<int64_t>(
        0, spans[i].end_ns - spans[i].start_ns - union_ns);
  }
  return self;
}

}  // namespace perfbench
}  // namespace after
