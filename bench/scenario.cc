#include "bench/scenario.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

namespace after {
namespace bench {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// SplitMix64 finaliser — the per-decision hash behind the
/// deterministic accept model and BiasUser probes.
uint64_t MixBits(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double HashToUnit(uint64_t x) {
  // 53 mantissa bits -> [0, 1).
  return static_cast<double>(MixBits(x) >> 11) * 0x1.0p-53;
}

/// Resolves kAtPeak and checks that every event can fire and can run on
/// the configured fleet; on success `*events` is in firing order.
Status ResolveEvents(const WorldConfig& config, const WorldPlan& plan,
                     std::vector<ScenarioEvent>* events) {
  int peak_start = 0;
  for (int t = 0; t < plan.peak_slice; ++t)
    peak_start += plan.slice_totals[static_cast<size_t>(t)];
  bool restart = false, other = false;
  for (ScenarioEvent event : config.events) {
    const std::string name = EventKindName(event.kind);
    if (event.at == kAtPeak) event.at = peak_start;
    if (event.at < 0 || event.at >= config.total_requests)
      return InvalidArgumentError(
          "the " + name + " at request " + std::to_string(event.at) +
          " can never fire: the plan has " +
          std::to_string(config.total_requests) + " requests");
    if (!config.self_contained)
      return InvalidArgumentError("the " + name +
                                  " needs the self-contained fleet");
    if (event.kind == EventKind::kRestart && !config.durable)
      return InvalidArgumentError("the restart needs a durable fleet");
    if (event.kind == EventKind::kRestart)
      restart = true;
    else
      other = true;
    events->push_back(event);
  }
  if (restart && other)
    return InvalidArgumentError(
        "the restart cannot be combined with the kill or the add");
  std::stable_sort(events->begin(), events->end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return std::tie(a.at, a.kind) < std::tie(b.at, b.kind);
                   });
  return OkStatus();
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kKill:
      return "kill";
    case EventKind::kAdd:
      return "add";
    case EventKind::kRestart:
      return "restart";
  }
  return "?";
}

void Fnv1a::Mix(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xFFu;
    hash_ *= 1099511628211ULL;  // FNV prime
  }
}

void Fnv1a::MixDouble(double value) {
  Mix(static_cast<uint64_t>(
      static_cast<int64_t>(std::llround(value * 1e9))));
}

std::vector<int> ZipfRoomSizes(int rooms, int max_users, int min_users,
                               double exponent) {
  std::vector<int> sizes;
  sizes.reserve(static_cast<size_t>(std::max(0, rooms)));
  for (int r = 0; r < rooms; ++r) {
    const double raw =
        static_cast<double>(max_users) * std::pow(r + 1.0, -exponent);
    const int size = static_cast<int>(std::lround(raw));
    sizes.push_back(std::clamp(size, min_users, max_users));
  }
  return sizes;
}

std::vector<double> DiurnalWeights(int slices, double ratio) {
  std::vector<double> weights;
  weights.reserve(static_cast<size_t>(std::max(0, slices)));
  for (int t = 0; t < slices; ++t) {
    // Raised cosine with the trough at the window edges and the peak
    // mid-window; w in [1, ratio] so the off-peak load never vanishes.
    const double phase = (t + 0.5) / static_cast<double>(slices);
    weights.push_back(1.0 +
                      (ratio - 1.0) * 0.5 * (1.0 - std::cos(2.0 * kPi * phase)));
  }
  return weights;
}

std::vector<int> ApportionRequests(const std::vector<double>& weights,
                                   int total) {
  const size_t n = weights.size();
  std::vector<int> counts(n, 0);
  if (n == 0 || total <= 0) return counts;
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (sum <= 0.0) {
    counts[0] = total;
    return counts;
  }
  std::vector<double> remainders(n, 0.0);
  int assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double share = total * weights[i] / sum;
    counts[i] = static_cast<int>(share);  // floor (shares are >= 0)
    remainders[i] = share - counts[i];
    assigned += counts[i];
  }
  // Largest remainder first; ties broken toward the earlier slice so
  // the apportionment is a pure function of the weights.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return remainders[a] > remainders[b];
  });
  for (size_t k = 0; assigned < total; ++k, ++assigned)
    ++counts[order[k % n]];
  return counts;
}

std::vector<int> ReconnectStormWaves(int total_connections,
                                     int max_concurrent) {
  std::vector<int> waves;
  if (max_concurrent <= 0) return waves;
  int remaining = std::max(0, total_connections);
  while (remaining > 0) {
    const int wave = std::min(remaining, max_concurrent);
    waves.push_back(wave);
    remaining -= wave;
  }
  return waves;
}

Result<WorldPlan> BuildWorldPlan(const WorldConfig& config) {
  if (config.rooms < 1 || config.slices < 1 || config.total_requests < 1)
    return InvalidArgumentError("rooms, slices and requests must be >= 1");
  WorldPlan plan;
  plan.room_sizes = ZipfRoomSizes(config.rooms, config.max_room_users,
                                  config.min_room_users,
                                  config.zipf_exponent);
  plan.diurnal_weights = DiurnalWeights(config.slices, config.diurnal_ratio);
  plan.slice_totals =
      ApportionRequests(plan.diurnal_weights, config.total_requests);
  plan.peak_slice = static_cast<int>(
      std::max_element(plan.diurnal_weights.begin(),
                       plan.diurnal_weights.end()) -
      plan.diurnal_weights.begin());
  const Status events = ResolveEvents(config, plan, &plan.events);
  if (!events.ok()) return events;
  int flash_start = config.flash_start;
  int flash_end = config.flash_end;
  if (flash_start < 0 || flash_end < 0) {
    flash_start = plan.peak_slice;
    flash_end = plan.peak_slice + 1;
  }
  // The flash crowd hits the SMALLEST rooms: sort rank descending.
  std::vector<int> by_size(plan.room_sizes.size());
  std::iota(by_size.begin(), by_size.end(), 0);
  std::stable_sort(by_size.begin(), by_size.end(), [&](int a, int b) {
    return plan.room_sizes[a] < plan.room_sizes[b];
  });
  std::vector<bool> flash_room(plan.room_sizes.size(), false);
  for (int k = 0; k < config.flash_rooms &&
                  k < static_cast<int>(by_size.size());
       ++k)
    flash_room[static_cast<size_t>(by_size[static_cast<size_t>(k)])] = true;

  Rng rng(config.seed);
  std::vector<int> population(plan.room_sizes);
  for (int t = 0; t < config.slices; ++t) {
    if (t > 0 && config.churn_fraction > 0.0 && population.size() > 1) {
      // Churn: a fraction of each room's population walks out, then
      // re-enters rooms weighted by where everyone else already is
      // (rich-get-richer, matching the Zipf shape).
      std::vector<int> leaving(population.size(), 0);
      for (size_t r = 0; r < population.size(); ++r)
        leaving[r] = static_cast<int>(config.churn_fraction *
                                      static_cast<double>(population[r]));
      std::vector<double> attract(population.begin(), population.end());
      for (size_t r = 0; r < population.size(); ++r) {
        population[r] -= leaving[r];
        for (int m = 0; m < leaving[r]; ++m)
          ++population[static_cast<size_t>(rng.SampleWeighted(attract))];
      }
    }
    plan.populations.push_back(population);

    std::vector<double> room_weights(population.begin(), population.end());
    const bool flash_now = t >= flash_start && t < flash_end;
    if (flash_now)
      for (size_t r = 0; r < room_weights.size(); ++r)
        if (flash_room[r]) room_weights[r] *= config.flash_boost;

    std::vector<SliceRequest> requests;
    requests.reserve(static_cast<size_t>(plan.slice_totals[
        static_cast<size_t>(t)]));
    for (int i = 0; i < plan.slice_totals[static_cast<size_t>(t)]; ++i) {
      SliceRequest request;
      request.room = rng.SampleWeighted(room_weights);
      // User ids stay within the room's NATIVE dataset range: churn
      // moves load between rooms, not rows between datasets.
      request.user =
          rng.UniformInt(plan.room_sizes[static_cast<size_t>(request.room)]);
      requests.push_back(request);
    }
    plan.schedule.push_back(std::move(requests));
  }

  Fnv1a hasher;
  hasher.Mix(config.seed);
  for (int size : plan.room_sizes) hasher.Mix(size);
  for (double weight : plan.diurnal_weights) hasher.MixDouble(weight);
  for (int count : plan.slice_totals) hasher.Mix(count);
  for (const auto& pops : plan.populations)
    for (int p : pops) hasher.Mix(p);
  for (const auto& slice : plan.schedule) {
    for (const SliceRequest& request : slice) {
      hasher.Mix(request.room);
      hasher.Mix(request.user);
    }
  }
  // Mixed in only when present, so an event-free plan keeps the
  // fingerprint it had before plans carried events.
  for (const ScenarioEvent& event : plan.events) {
    hasher.Mix(static_cast<int>(event.kind));
    hasher.Mix(event.at);
  }
  plan.fingerprint = hasher.digest();
  return plan;
}

SocialGraphEvolution::SocialGraphEvolution(int num_users, uint64_t seed,
                                           double accept_prob,
                                           double edge_add,
                                           double ignore_decay)
    : num_users_(num_users),
      seed_(seed),
      accept_prob_(accept_prob),
      edge_add_(edge_add),
      ignore_decay_(ignore_decay),
      weights_(static_cast<size_t>(num_users) * static_cast<size_t>(num_users),
               0.0),
      exposures_(weights_.size(), 0),
      degree_(static_cast<size_t>(num_users), 0.0) {}

double& SocialGraphEvolution::weight(int a, int b) {
  return weights_[static_cast<size_t>(a) * static_cast<size_t>(num_users_) +
                  static_cast<size_t>(b)];
}

double SocialGraphEvolution::weight_at(int a, int b) const {
  return weights_[static_cast<size_t>(a) * static_cast<size_t>(num_users_) +
                  static_cast<size_t>(b)];
}

bool SocialGraphEvolution::Observe(int user, int candidate) {
  if (user < 0 || user >= num_users_ || candidate < 0 ||
      candidate >= num_users_ || user == candidate)
    return false;
  const size_t pair = static_cast<size_t>(user) *
                          static_cast<size_t>(num_users_) +
                      static_cast<size_t>(candidate);
  const uint32_t exposure = exposures_[pair]++;
  // Per-(pair, exposure) hash: reproducible no matter how observations
  // of OTHER pairs interleave with this one.
  const uint64_t key = seed_ ^ (static_cast<uint64_t>(user) << 40) ^
                       (static_cast<uint64_t>(candidate) << 16) ^ exposure;
  const bool accepted = HashToUnit(key) < accept_prob_;
  double& forward = weight(user, candidate);
  double& backward = weight(candidate, user);
  if (accepted) {
    degree_[static_cast<size_t>(user)] += edge_add_;
    degree_[static_cast<size_t>(candidate)] += edge_add_;
    forward += edge_add_;
    backward += edge_add_;
    ++accepts_;
  } else {
    degree_[static_cast<size_t>(user)] -= forward * (1.0 - ignore_decay_);
    degree_[static_cast<size_t>(candidate)] -=
        backward * (1.0 - ignore_decay_);
    forward *= ignore_decay_;
    backward *= ignore_decay_;
    ++ignores_;
  }
  return accepted;
}

int SocialGraphEvolution::BiasUser(int user) const {
  if (num_users_ <= 1 || user < 0 || user >= num_users_) return user;
  // Probe set: the scheduled user plus two hashed alternates. The
  // highest evolved degree wins (ties keep the original), so traffic
  // drifts toward accepted-edge hubs as the graph rewires.
  int best = user;
  double best_degree = degree_[static_cast<size_t>(user)];
  for (uint64_t probe = 0; probe < 2; ++probe) {
    const int alt = static_cast<int>(
        MixBits(seed_ ^ (static_cast<uint64_t>(user) << 8) ^ probe) %
        static_cast<uint64_t>(num_users_));
    if (degree_[static_cast<size_t>(alt)] > best_degree) {
      best = alt;
      best_degree = degree_[static_cast<size_t>(alt)];
    }
  }
  return best;
}

double SocialGraphEvolution::DriftL1() const {
  double total = 0.0;
  for (double w : weights_) total += std::abs(w);
  return total;
}

uint64_t SocialGraphEvolution::Fingerprint() const {
  Fnv1a hasher;
  hasher.Mix(static_cast<uint64_t>(accepts_));
  hasher.Mix(static_cast<uint64_t>(ignores_));
  for (double w : weights_)
    if (w != 0.0) hasher.MixDouble(w);
  return hasher.digest();
}

}  // namespace bench
}  // namespace after
