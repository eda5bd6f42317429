// Serving benchmark: one seeded open-loop workload against the serving
// system as it ships, printing end-to-end metrics (or, with --trace 1,
// per-layer metrics from spans recorded around each layer's public
// interface). See README.md in this directory.
//
//   perfbench --workload fleet-durable --seed 1 --seconds 45 --trace 0
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// preceded by a {"report": ..} line with every metric, including the
// ones the last line leaves out. Exit 0 on a valid, correct run; 1 when
// a correctness check fails; 2 on bad flags or set-up failure; 3 when
// the run is invalid (the generator fell behind, a request went
// unaccounted, or a percentile lacks samples beyond it).

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <unistd.h>
#include <vector>

#include "perfbench/schedule.h"
#include "perfbench/spans.h"
#include "perfbench/trace.h"
#include "perfbench/world.h"
#include "serve/net_client.h"
#include "serve/wire.h"

namespace after {
namespace perfbench {
namespace {

constexpr int kMinBeyond = 10;
constexpr int64_t kNsPerS = 1000000000LL;
constexpr double kDrainSeconds = 5.0;
constexpr int kCheckSamples = 64;
constexpr int kBlocks = 20;

// Untimed lead-in before the window: lazily dialed mux links and the
// hot set's occlusion graphs reach steady state well within it.
constexpr double kWarmupSeconds = 3.0;
// Set-ups per run: 24 pinned to the CPUs in turn (setup_s is the median
// over CPUs of their per-CPU medians) and the one the run uses.
constexpr int kSetups = 25;
// A run whose generator sent later than this at p99 (block median) is
// invalid: the generator could not keep up. Healthy runs read 0.02-5 ms
// (mega-room's in-process lane reads the most when the host is busy), so
// the limit leaves a noisier host 4x room; the lag is inside every
// latency anyway, since requests are timed from when they were due.
constexpr double kLagLimitMs = 20.0;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string work_dir;
};

enum class Kind : uint8_t {
  kPending,
  kOk,
  /// Transport error, shed, timeout, unavailable, not owner or any other
  /// error status: all count against fail_share.
  kFailed,
  kMalformed,  // OK status, but the answer has the wrong shape
};

struct Record {
  int64_t due = 0;
  int64_t send = 0;
  int64_t done = 0;
  int room = 0;
  int user = 0;
  Kind kind = Kind::kPending;
  bool fallback = false;
  bool claimed = false;  // holds the pair's slot
  bool traced = false;
  SpanStamps spans;
};

struct Lane {
  std::vector<Arrival> plan;
  std::vector<Record> records;
  int64_t sent = 0;
  std::atomic<int64_t> completed{0};
  std::string error;
  bool realtime = false;
};

struct TickRecord {
  int64_t due = 0;
  int64_t start = 0;
  int64_t end = 0;
  int64_t cpu_ns = 0;  // ticker thread CPU time inside TickRoom
  bool ok = true;
  int moved = -1;
  int carried = 0;
  bool delta = false;
  int64_t journal_bytes = 0;
};

void TightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

// Sender lanes stand in for clients on other machines, so they run at
// the lowest real-time priority where the system allows it: a woken
// server thread then cannot preempt a lane and make it send late. The
// lanes only sleep, send and read, so they never starve the system.
// Returns false when the priority could not be raised (lag still bounds
// the run).
bool RaiseLanePriority() {
  sched_param param{};
  param.sched_priority = 1;
  return pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
}

void SleepUntilNs(int64_t when) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(when)));
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// CPU time of the calling thread. The kernel leaves out time the
// hypervisor gave this vCPU to another guest (steal) and time the thread
// waited for a core, so a tick's CPU time follows its work more closely
// than its wall time does when a shared host gets busy.
int64_t ThreadCpuNs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<int64_t>(now.tv_sec) * kNsPerS + now.tv_nsec;
}

// Host steal time so far, in clock ticks summed over every vCPU: time
// the hypervisor ran another guest while a vCPU of this one had work.
// 0 where /proc/stat has no steal column.
int64_t HostStealTicks() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  long long fields[8] = {};
  const int read =
      std::fscanf(stat, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                  &fields[0], &fields[1], &fields[2], &fields[3], &fields[4],
                  &fields[5], &fields[6], &fields[7]);
  std::fclose(stat);
  return read == 8 ? fields[7] : 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// Shared state of one measured run.
struct Run {
  const WorkloadSpec* spec = nullptr;
  World* world = nullptr;
  Tracer* tracer = nullptr;
  int64_t t0 = 0;
  int64_t window_start = 0;
  int64_t window_end = 0;

  // Traced runs alternate 1 s blocks with span recording off and on
  // across the window, so the overhead is measured on the same load.
  bool TracedAt(int64_t due) const {
    if (tracer == nullptr || due < window_start || due >= window_end)
      return false;
    return ((due - window_start) / kNsPerS) % 2 == 1;
  }

  // Fills the record for a due arrival. In traced runs the pair is
  // claimed first; a pair already in flight moves the request to the
  // next free user of the room, so one pair never has two requests out.
  void Prepare(const Arrival& arrival, Record* record) const {
    record->due = t0 + arrival.due_ns;
    record->room = arrival.room;
    record->user = arrival.user;
    if (tracer == nullptr) return;
    const int n = spec->room_sizes[static_cast<size_t>(arrival.room)];
    for (int k = 0; k < n; ++k) {
      const int user = (arrival.user + k) % n;
      Slot* slot = tracer->SlotFor(arrival.room, user);
      bool expected = false;
      if (slot->busy.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
        record->user = user;
        record->claimed = true;
        record->traced = TracedAt(record->due);
        Tracer::Arm(slot, record->traced);
        return;
      }
    }
  }

  void Complete(Record* record, const serve::FriendResponse& response,
                int64_t now) const {
    record->done = now;
    if (response.status.ok()) {
      const size_t n = static_cast<size_t>(
          spec->room_sizes[static_cast<size_t>(record->room)]);
      const bool shaped =
          response.recommended.size() == n &&
          !response.recommended[static_cast<size_t>(record->user)];
      record->kind = shaped ? Kind::kOk : Kind::kMalformed;
      record->fallback = response.used_fallback;
    } else {
      record->kind = Kind::kFailed;
    }
    Release(record);
  }

  void Release(Record* record) const {
    if (!record->claimed) return;
    record->spans =
        Tracer::Collect(tracer->SlotFor(record->room, record->user));
  }
};

// One TCP connection to the router front, driven by one thread: sends
// every request as it falls due and reads responses in between, with
// ppoll sleeping until the next due time or readable data.
void RunTcpLane(const Run& run, Lane* lane) {
  TightTimerSlack();
  lane->realtime = RaiseLanePriority();
  auto dialed = serve::net_detail::DialBlocking(
      "127.0.0.1", run.world->router_port(), 2000.0);
  if (!dialed.ok()) {
    lane->error = "dial: " + dialed.status().ToString();
    return;
  }
  const int fd = dialed.value();
  lane->records.resize(lane->plan.size());
  const size_t n = lane->plan.size();
  size_t next = 0;
  int64_t outstanding = 0;
  std::string out;
  std::string in;
  std::vector<char> buffer(1 << 16);
  int64_t drain_deadline = 0;

  auto fail_outstanding = [&](const std::string& why) {
    lane->error = why;
    const int64_t now = NowNs();
    for (size_t i = 0; i < next; ++i) {
      Record& record = lane->records[i];
      if (record.kind != Kind::kPending) continue;
      record.kind = Kind::kFailed;
      record.done = now;
      run.Release(&record);
    }
  };
  auto handle_frame = [&](const serve::wire::Frame& frame, int64_t now) {
    uint64_t id = 0;
    if (!serve::wire::PeekCorrelationId(frame.payload, &id) || id == 0 ||
        id > next)
      return false;
    Record& record = lane->records[id - 1];
    if (record.kind != Kind::kPending) return false;  // duplicate answer
    if (frame.type == serve::wire::MessageType::kResponse) {
      auto decoded = serve::wire::DecodeResponse(frame.payload);
      if (!decoded.ok()) return false;
      run.Complete(&record, decoded.value().response, now);
    } else if (frame.type == serve::wire::MessageType::kNotOwner) {
      serve::FriendResponse response;
      response.status = NotOwnerError("not owner");
      run.Complete(&record, response, now);
    } else {
      return false;
    }
    --outstanding;
    return true;
  };

  while (true) {
    const int64_t now = NowNs();
    out.clear();
    const size_t first = next;
    while (next < n && run.t0 + lane->plan[next].due_ns <= now) {
      Record& record = lane->records[next];
      run.Prepare(lane->plan[next], &record);
      serve::FriendRequest request;
      request.room = record.room;
      request.user = record.user;
      serve::wire::AppendRequestFrame(next + 1, request, &out);
      ++next;
    }
    if (!out.empty()) {
      const int64_t send = NowNs();
      for (size_t i = first; i < next; ++i) lane->records[i].send = send;
      outstanding += static_cast<int64_t>(next - first);
      lane->sent += static_cast<int64_t>(next - first);
      const Status sent = serve::net_detail::SendAllFd(fd, out);
      if (!sent.ok()) {
        fail_outstanding("send: " + sent.ToString());
        break;
      }
    }
    if (next == n) {
      if (outstanding == 0) break;
      if (drain_deadline == 0)
        drain_deadline = NowNs() + static_cast<int64_t>(kDrainSeconds * 1e9);
      if (NowNs() >= drain_deadline) {
        fail_outstanding("responses still missing after the drain timeout");
        break;
      }
    }
    const int64_t wake =
        next < n ? run.t0 + lane->plan[next].due_ns : drain_deadline;
    const int64_t wait = std::max<int64_t>(0, wake - NowNs());
    timespec timeout{static_cast<time_t>(wait / kNsPerS),
                     static_cast<long>(wait % kNsPerS)};
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      fail_outstanding(std::string("ppoll: ") + std::strerror(errno));
      break;
    }
    if (ready <= 0) continue;
    bool broken = false;
    while (true) {
      const ssize_t got = recv(fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
      if (got > 0) {
        in.append(buffer.data(), static_cast<size_t>(got));
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got < 0 && errno == EINTR) continue;
      broken = true;  // EOF or hard error
      break;
    }
    const int64_t received = NowNs();
    size_t offset = 0;
    while (!broken) {
      serve::wire::Frame frame;
      size_t consumed = 0;
      const Status extracted = serve::wire::ExtractFrame(
          std::string_view(in).substr(offset), &frame, &consumed);
      if (!extracted.ok()) broken = true;
      if (broken || consumed == 0) break;
      offset += consumed;
      if (!handle_frame(frame, received)) broken = true;
    }
    in.erase(0, offset);
    if (broken) {
      fail_outstanding("connection to the router broke or spoke garbage");
      break;
    }
  }
  close(fd);
}

// The socket-free lane: calls the shard handler in-process as each
// request falls due; completions arrive on server worker threads.
void RunLocalLane(const Run& run, Lane* lane) {
  TightTimerSlack();
  lane->realtime = RaiseLanePriority();
  lane->records.resize(lane->plan.size());
  const serve::RequestHandler& handler = run.world->local_handler();
  for (size_t i = 0; i < lane->plan.size(); ++i) {
    const int64_t due = run.t0 + lane->plan[i].due_ns;
    if (NowNs() < due) SleepUntilNs(due);
    Record* record = &lane->records[i];
    run.Prepare(lane->plan[i], record);
    serve::FriendRequest request;
    request.room = record->room;
    request.user = record->user;
    record->send = NowNs();
    ++lane->sent;
    handler(request, [&run, lane, record](const serve::FriendResponse& r) {
      run.Complete(record, r, NowNs());
      lane->completed.fetch_add(1, std::memory_order_release);
    });
  }
  const int64_t deadline = NowNs() + static_cast<int64_t>(kDrainSeconds * 1e9);
  while (lane->completed.load(std::memory_order_acquire) < lane->sent) {
    if (NowNs() >= deadline) {
      lane->error = "responses still missing after the drain timeout";
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void RunTicker(const Run& run, const std::vector<TickDue>& plan,
               std::vector<TickRecord>* records) {
  TightTimerSlack();
  const std::vector<TickTarget>& targets = run.world->tick_targets();
  records->resize(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    const TickTarget& target = targets[static_cast<size_t>(plan[i].room)];
    TickRecord& record = (*records)[i];
    record.due = run.t0 + plan[i].due_ns;
    if (NowNs() < record.due) SleepUntilNs(record.due);
    // The journal size gauge is stored after each tick's append (before
    // any rotation), and only this thread appends tick records.
    std::atomic<int64_t>& journal = target.server->metrics().journal_bytes;
    const int64_t journal_before = journal.load(std::memory_order_relaxed);
    record.start = NowNs();
    const int64_t cpu_before = ThreadCpuNs();
    record.ok = target.server->TickRoom(target.room).ok();
    record.cpu_ns = ThreadCpuNs() - cpu_before;
    record.end = NowNs();
    if (run.tracer != nullptr) {
      const int64_t journal_after = journal.load(std::memory_order_relaxed);
      record.journal_bytes = journal_after >= journal_before
                                 ? journal_after - journal_before
                                 : journal_after;  // rotated to empty
      const auto room = target.server->FindRoom(target.room);
      if (room != nullptr) {
        const auto snapshot = room->snapshot();
        record.moved = snapshot->num_moved();
        record.carried = snapshot->delta_carried();
        record.delta = snapshot->built_by_delta();
      }
    }
  }
}

// Counter reads at a window edge: ServerMetrics, NetFrontMetrics,
// ShardRouter::Metrics, the tracer's counters and process CPU time.
struct Counters {
  int64_t wall = 0;
  double cpu = 0.0;
  int64_t submitted = 0, shed = 0, timeouts = 0, fallbacks = 0, errors = 0,
          pruned = 0, journal_records = 0, checkpoints = 0;
  int32_t queue_depth_max = 0;
  int64_t net_bytes = 0;
  int64_t routed = 0, retried = 0, link_reuse = 0, connects = 0,
          not_owner = 0;
  int64_t infer_calls = 0, infer_targets = 0, infer_candidates = 0,
          shard_errors = 0;
};

Counters ReadCounters(const World& world, const Tracer* tracer) {
  Counters c;
  c.wall = NowNs();
  c.cpu = CpuSeconds();
  constexpr auto kRelaxed = std::memory_order_relaxed;
  for (const auto& shard : world.shards()) {
    serve::ServerMetrics& m = shard->metrics();
    c.submitted += m.requests_submitted.load(kRelaxed);
    c.shed += m.shed.load(kRelaxed);
    c.timeouts += m.timeouts.load(kRelaxed);
    c.fallbacks += m.total_fallbacks();
    c.errors += m.errors.load(kRelaxed);
    c.pruned += m.pruned_requests.load(kRelaxed);
    c.journal_records += m.journal_records.load(kRelaxed);
    c.checkpoints += m.checkpoints_written.load(kRelaxed);
    c.queue_depth_max =
        std::max(c.queue_depth_max, m.max_queue_depth.load(kRelaxed));
  }
  auto add_front = [&c](const serve::NetFrontMetrics& m) {
    c.net_bytes += m.bytes_in.load(kRelaxed) + m.bytes_out.load(kRelaxed);
  };
  for (const auto& net : world.shard_nets()) add_front(net->metrics());
  if (world.router_net() != nullptr) add_front(world.router_net()->metrics());
  if (world.router() != nullptr) {
    const serve::ShardRouter::Metrics& m = world.router()->metrics();
    c.routed = m.routed.load(kRelaxed);
    c.retried = m.retried.load(kRelaxed);
    c.link_reuse = m.link_reuse.load(kRelaxed);
    c.connects = m.connects.load(kRelaxed);
    c.not_owner = m.not_owner.load(kRelaxed);
  }
  if (tracer != nullptr) {
    c.infer_calls = tracer->infer_calls.load(kRelaxed);
    c.infer_targets = tracer->infer_targets.load(kRelaxed);
    c.infer_candidates = tracer->infer_candidates.load(kRelaxed);
    c.shard_errors = tracer->shard_error_responses.load(kRelaxed);
  }
  return c;
}

// Window deltas of the monotonic counters; the gauge keeps its value.
Counters Minus(const Counters& a, const Counters& b) {
  Counters d = a;
  d.wall -= b.wall;
  d.cpu -= b.cpu;
  d.submitted -= b.submitted;
  d.shed -= b.shed;
  d.timeouts -= b.timeouts;
  d.fallbacks -= b.fallbacks;
  d.errors -= b.errors;
  d.pruned -= b.pruned;
  d.journal_records -= b.journal_records;
  d.checkpoints -= b.checkpoints;
  d.net_bytes -= b.net_bytes;
  d.routed -= b.routed;
  d.retried -= b.retried;
  d.link_reuse -= b.link_reuse;
  d.connects -= b.connects;
  d.not_owner -= b.not_owner;
  d.infer_calls -= b.infer_calls;
  d.infer_targets -= b.infer_targets;
  d.infer_candidates -= b.infer_candidates;
  d.shard_errors -= b.shard_errors;
  return d;
}

// Answers a seeded sample of targets over the workload's own path after
// ticks stop and compares each bit for bit with a direct FrozenPoshgnn
// call on the same snapshot and prune mask. Returns the mismatches.
int CheckAnswers(const World& world, uint64_t seed, std::string* detail) {
  const WorkloadSpec& spec = world.spec();
  const std::unique_ptr<FrozenPoshgnn> oracle = world.FreezeOracle();
  const TargetSampler targets(spec.room_sizes, 0.0, spec.user_zipf,
                              spec.user_support, kWorldSeed);
  Rng rng(seed ^ 0xC0FFEEULL);
  std::unique_ptr<serve::NetClient> client;
  if (spec.tcp) {
    auto connected =
        serve::NetClient::Connect("127.0.0.1", world.router_port());
    if (!connected.ok()) {
      *detail = "check client: " + connected.status().ToString();
      return kCheckSamples;
    }
    client = std::move(connected).value();
  }
  int mismatches = 0;
  for (int i = 0; i < kCheckSamples; ++i) {
    serve::FriendRequest request;
    targets.Sample(rng, &request.room, &request.user);
    serve::FriendResponse response;
    if (client != nullptr) {
      auto called = client->Call(request);
      if (!called.ok()) {
        response.status = called.status();
      } else {
        response = std::move(called).value();
      }
    } else {
      std::mutex mutex;
      std::condition_variable cv;
      bool ready = false;
      world.local_handler()(request, [&](const serve::FriendResponse& r) {
        std::lock_guard<std::mutex> lock(mutex);
        response = r;
        ready = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return ready; });
    }
    const auto room = world.PrimaryFor(request.room)->FindRoom(request.room);
    const auto snapshot = room->snapshot();
    StepContext context = snapshot->ContextFor(request.user);
    std::vector<bool> mask;
    if (spec.max_candidates > 0 &&
        snapshot->PruneCandidates(request.user, spec.max_candidates, &mask))
      context.blocklist = &mask;
    std::vector<bool> expected = oracle->Recommend(context);
    expected[static_cast<size_t>(request.user)] = false;
    if (!response.status.ok() || response.used_fallback ||
        response.tick != snapshot->tick() ||
        response.recommended != expected) {
      ++mismatches;
      if (detail->empty())
        *detail = "room " + std::to_string(request.room) + " user " +
                  std::to_string(request.user) + ": " +
                  response.status.ToString();
    }
  }
  return mismatches;
}

// Ordered name -> (value, unit) map that prints as JSON.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    entries_[name] = {value, unit};
  }
  std::string Json(const std::vector<std::string>* only = nullptr) const {
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto& [name, entry] : entries_) {
      if (only != nullptr &&
          std::find(only->begin(), only->end(), name) == only->end())
        continue;
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entry.first);
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << value << ", \"unit\": \"" << entry.second << "\"}";
      first = false;
    }
    out << "}";
    return out.str();
  }

 private:
  std::map<std::string, std::pair<double, std::string>> entries_;
};

// The metric names BENCHMARK.json registers: the last line carries
// exactly these. Everything else goes to the report line only: the
// tails (req_p90_ms, req_p99_ms, tick_p95_ms) and the tick wall times
// (tick_p50_ms), whose run-to-run spread on a shared VM is wider than
// any bound a regression gate can use, the failure and degraded shares
// (0 on every healthy run), and the layer metrics that only exist where
// there is a network and a router.
const std::vector<std::string>& RegisteredEndToEnd() {
  static const std::vector<std::string> names = {
      "setup_s",     "req_p50_ms", "goodput_rps",
      "tick_cpu_ms", "cpu_util",   "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& RegisteredPerLayer() {
  static const std::vector<std::string> names = {
      "server.pre_model_ms",
      "server.pre_model_p99_ms",
      "server.post_model_ms",
      "server.post_model_p99_ms",
      "server.queue_depth_max",
      "server.shed",
      "server.timeouts",
      "server.fallbacks",
      "infer.forward_ms",
      "infer.forward_p50_ms",
      "infer.forward_p99_ms",
      "infer.calls",
      "infer.targets_per_call",
      "infer.candidates_mean",
      "room.tick_ms",
      "room.tick_p50_ms",
      "room.tick_p95_ms",
      "room.tick_wait_ms",
      "room.delta_share",
      "room.moved_mean",
      "room.carried_mean",
      "graph.cold_lookup_share",
      "graph.pruned_share",
      "durability.journal_bytes_per_s",
      "durability.journal_records",
      "durability.checkpoints_written",
      "durability.failures",
      "loadgen.lag_ms",
      "loadgen.lag_p99_ms",
      "loadgen.sent",
      "loadgen.accounted",
      "trace.overhead_pct",
      "trace.cpu_overhead_pct",
      "trace.unattributed_ms",
      "trace.latency_mean_ms",
  };
  return names;
}

// Layer metrics that exist only where there is a network and a router.
const std::vector<std::string>& NetworkOnly() {
  static const std::vector<std::string> names = {
      "net.client_hop_ms",      "net.client_hop_p99_ms",
      "net.shard_hop_ms",       "net.shard_hop_p99_ms",
      "net.bytes_per_req",      "router.queue_wait_ms",
      "router.queue_wait_p50_ms", "router.queue_wait_p99_ms",
      "router.link_reuse_ratio", "router.connects",
      "router.retried",          "router.not_owner"};
  return names;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Percentile that enforces the samples-beyond rule; a miss makes the
// whole run invalid.
struct Percentiles {
  std::string missing;
  // End-to-end percentiles: the median over up to kBlocks time blocks of
  // the window (see BlockedPercentile).
  double Blocked(const std::string& name,
                 const std::vector<TimedSample>& samples, double q,
                 const Run& run) {
    double value = 0.0;
    if (!BlockedPercentile(samples, run.window_start, run.window_end, q,
                           kMinBeyond, kBlocks, &value) &&
        missing.empty())
      missing = name + " (" + std::to_string(samples.size()) + " samples)";
    return value;
  }
  // The gated median: the same, over the quietest quarter of the 1 s
  // blocks by host steal time (see QuietBlocksPercentile).
  double Quiet(const std::string& name,
               const std::vector<TimedSample>& samples, double q,
               const Run& run, const std::vector<double>& block_steal) {
    double value = 0.0;
    if (!QuietBlocksPercentile(samples, run.window_start, run.window_end, q,
                               kMinBeyond, block_steal, &value) &&
        missing.empty())
      missing = name + " (" + std::to_string(samples.size()) + " samples)";
    return value;
  }
  double Get(const std::string& name, std::vector<double> samples, double q) {
    double value = 0.0;
    if (!TailPercentile(&samples, q, kMinBeyond, &value) && missing.empty())
      missing = name + " (" + std::to_string(samples.size()) + " samples)";
    return value;
  }
};

int Main(const Flags& flags) {
  const WorkloadSpec* spec = FindWorkload(flags.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }
  std::unique_ptr<Tracer> tracer;
  if (flags.trace) tracer = std::make_unique<Tracer>(spec->room_sizes);

  // Set-up, several times; the last one is used. The vCPUs of a shared
  // host run at different speeds (a busy sibling hyperthread on the
  // host), up to 1.4x apart, and back-to-back set-ups stay on one vCPU.
  // So every set-up but the last is pinned to the allowed CPUs in turn,
  // and setup_s is the median over CPUs of each CPU's median set-up. The
  // last one runs unpinned: the threads it starts inherit its mask.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  std::vector<double> setup_s;
  std::vector<std::vector<double>> setup_by_cpu(cpus.size());
  std::unique_ptr<World> world;
  for (int k = 0; k < kSetups; ++k) {
    world.reset();
    cpu_set_t mask = allowed;
    const bool pinned = k + 1 < kSetups && !cpus.empty();
    if (pinned) {
      CPU_ZERO(&mask);
      CPU_SET(cpus[static_cast<size_t>(k) % cpus.size()], &mask);
    }
    sched_setaffinity(0, sizeof(mask), &mask);
    const std::string dir = flags.work_dir + "/setup-" + std::to_string(k);
    const int64_t start = NowNs();
    world = World::Build(*spec, tracer.get(), dir);
    if (world == nullptr) return 2;
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (pinned)
      setup_by_cpu[static_cast<size_t>(k) % cpus.size()].push_back(
          setup_s.back());
  }
  std::vector<double> setup_per_cpu;
  for (const std::vector<double>& samples : setup_by_cpu)
    if (!samples.empty()) setup_per_cpu.push_back(Median(samples));

  // The plans: Poisson arrivals per lane and staggered ticks per copy.
  const double plan_s = kWarmupSeconds + flags.seconds;
  const TargetSampler targets(spec->room_sizes, 0.0, spec->user_zipf,
                              spec->user_support, kWorldSeed);
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int l = 0; l < spec->lanes; ++l) {
    lanes.push_back(std::make_unique<Lane>());
    lanes.back()->plan = PoissonArrivals(
        flags.seed, l, spec->rate_rps / spec->lanes, plan_s, targets);
  }
  const std::vector<TickDue> tick_plan = TickSchedule(
      flags.seed, static_cast<int>(world->tick_targets().size()),
      spec->tick_period_ms, plan_s);

  Run run;
  run.spec = spec;
  run.world = world.get();
  run.tracer = tracer.get();
  run.t0 = NowNs() + 20000000;  // 20 ms to get every thread waiting
  run.window_start = run.t0 + static_cast<int64_t>(kWarmupSeconds * 1e9);
  run.window_end = run.window_start + static_cast<int64_t>(flags.seconds * 1e9);

  std::vector<TickRecord> ticks;
  std::thread ticker(RunTicker, std::cref(run), std::cref(tick_plan), &ticks);
  std::vector<std::thread> senders;
  for (auto& lane : lanes)
    senders.emplace_back(spec->tcp ? RunTcpLane : RunLocalLane,
                         std::cref(run), lane.get());

  // Counters at the window edges; process CPU time at every 1 s edge
  // (cpu_util is the median block, and traced runs compare the blocks
  // with spans on against those with spans off).
  SleepUntilNs(run.window_start);
  const Counters before = ReadCounters(*world, tracer.get());
  std::vector<double> block_cpu;  // CPU seconds per wall second, per block
  std::vector<double> block_steal;  // host steal ticks, per block
  double block_mark = before.cpu;
  int64_t block_wall = before.wall;
  int64_t steal_mark = HostStealTicks();
  for (int64_t edge = run.window_start + kNsPerS; edge <= run.window_end;
       edge += kNsPerS) {
    SleepUntilNs(edge);
    const double cpu = CpuSeconds();
    const int64_t wall = NowNs();
    block_cpu.push_back((cpu - block_mark) / (Ms(wall - block_wall) / 1e3));
    const int64_t steal = HostStealTicks();
    block_steal.push_back(static_cast<double>(steal - steal_mark));
    steal_mark = steal;
    block_mark = cpu;
    block_wall = wall;
  }
  SleepUntilNs(run.window_end);
  const Counters after = ReadCounters(*world, tracer.get());
  for (auto& sender : senders) sender.join();
  ticker.join();

  // Validity and correctness.
  std::string invalid;
  std::string incorrect;
  int64_t sent = 0, accounted = 0, malformed = 0;
  bool realtime = true;
  for (const auto& lane : lanes) {
    realtime = realtime && lane->realtime;
    if (!lane->error.empty() && invalid.empty())
      invalid = "sender lane: " + lane->error;
    sent += lane->sent;
    for (int64_t i = 0; i < lane->sent; ++i) {
      const Record& record = lane->records[static_cast<size_t>(i)];
      if (record.kind != Kind::kPending) ++accounted;
      if (record.kind == Kind::kMalformed) ++malformed;
    }
  }
  if (accounted != sent && invalid.empty())
    invalid = "accounted " + std::to_string(accounted) + " of " +
              std::to_string(sent) + " sent requests";
  if (malformed > 0)
    incorrect = std::to_string(malformed) + " OK answers had the wrong shape";
  for (const TickRecord& tick : ticks)
    if (!tick.ok && incorrect.empty()) incorrect = "a room tick failed";
  std::string check_detail;
  const int mismatches = CheckAnswers(*world, flags.seed, &check_detail);
  if (mismatches > 0 && incorrect.empty())
    incorrect = std::to_string(mismatches) + " of " +
                std::to_string(kCheckSamples) +
                " sampled answers differ from the direct model call (" +
                check_detail + ")";

  // End-to-end metrics over requests and ticks due in the window.
  const double window_s = Ms(run.window_end - run.window_start) / 1e3;
  Percentiles pct;
  std::vector<TimedSample> latency, lag;
  std::vector<double> latency_plain, latency_traced;
  int64_t attempted = 0, failed = 0, degraded = 0, good = 0;
  for (const auto& lane : lanes) {
    for (int64_t i = 0; i < lane->sent; ++i) {
      const Record& r = lane->records[static_cast<size_t>(i)];
      if (r.due < run.window_start || r.due >= run.window_end) continue;
      ++attempted;
      lag.push_back({r.due, Ms(r.send - r.due)});
      if (r.kind != Kind::kOk) {
        ++failed;
        continue;
      }
      const double ms = Ms(r.done - r.due);
      latency.push_back({r.due, ms});
      (run.TracedAt(r.due) ? latency_traced : latency_plain).push_back(ms);
      if (r.fallback) ++degraded;
      else if (ms <= spec->latency_limit_ms) ++good;
    }
  }
  std::vector<TimedSample> tick_latency;
  std::vector<double> tick_busy, tick_wait, tick_cpu;
  int64_t delta_ticks = 0, carried_total = 0, moved_total = 0, moved_ticks = 0,
          journal_bytes = 0;
  for (const TickRecord& tick : ticks) {
    if (tick.due < run.window_start || tick.due >= run.window_end) continue;
    tick_latency.push_back({tick.due, Ms(tick.end - tick.due)});
    tick_cpu.push_back(Ms(tick.cpu_ns));
    tick_busy.push_back(Ms(tick.end - tick.start));
    tick_wait.push_back(Ms(tick.start - tick.due));
    if (tick.delta) ++delta_ticks;
    carried_total += tick.carried;
    journal_bytes += tick.journal_bytes;
    if (tick.moved >= 0) {
      moved_total += tick.moved;
      ++moved_ticks;
    }
  }

  MetricSet e2e;
  e2e.Set("setup_s",
          Median(setup_per_cpu.empty() ? setup_s : setup_per_cpu), "s");
  e2e.Set("req_p50_ms",
          pct.Quiet("req_p50_ms", latency, 0.50, run, block_steal), "ms");
  e2e.Set("req_p90_ms", pct.Blocked("req_p90_ms", latency, 0.90, run), "ms");
  e2e.Set("req_p99_ms", pct.Blocked("req_p99_ms", latency, 0.99, run), "ms");
  e2e.Set("goodput_rps", static_cast<double>(good) / window_s, "req/s");
  e2e.Set("fail_share", Ratio(failed, attempted), "ratio");
  e2e.Set("degraded_share", Ratio(degraded, attempted), "ratio");
  e2e.Set("tick_p50_ms", pct.Blocked("tick_p50_ms", tick_latency, 0.50, run),
          "ms");
  e2e.Set("tick_p95_ms", pct.Blocked("tick_p95_ms", tick_latency, 0.95, run),
          "ms");
  e2e.Set("tick_cpu_ms", Mean(tick_cpu), "ms");
  e2e.Set("cpu_util", Median(block_cpu), "cores");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");

  const double lag_p99 = pct.Blocked("loadgen.lag_p99_ms", lag, 0.99, run);
  if (invalid.empty() && lag_p99 > kLagLimitMs) {
    char text[128];
    std::snprintf(text, sizeof(text),
                  "generator lag p99 %.3f ms exceeds the %.3f ms bound",
                  lag_p99, kLagLimitMs);
    invalid = text;
  }

  MetricSet layer;
  if (tracer != nullptr) {
    // Per-request span trees of traced, answered requests. A layer a
    // request skipped contributes 0; what no span covers is unattributed.
    std::vector<double> client_hop, shard_hop, queue_wait, pre, post, forward,
        root_lag, unattributed, lat_traced;
    std::vector<double> client_hop_all, shard_hop_all, queue_wait_all,
        pre_all, post_all, forward_all;
    int64_t cold = 0, cold_seen = 0;
    for (const auto& lane : lanes) {
      for (int64_t i = 0; i < lane->sent; ++i) {
        const Record& r = lane->records[static_cast<size_t>(i)];
        if (!r.traced || r.kind != Kind::kOk) continue;
        const SpanStamps& s = r.spans;
        std::vector<Span> spans = {{r.due, r.done, -1}};
        int parent = 0;
        int rtt = -1, router = -1, route = -1, shard = -1, model = -1;
        if (spec->tcp) {
          spans.push_back({r.send, r.done, 0});
          rtt = parent = 1;
          if (s.router_in != 0 && s.route_out != 0) {
            spans.push_back({s.router_in, s.route_out, parent});
            router = parent = static_cast<int>(spans.size()) - 1;
          }
          if (s.route_in != 0 && s.route_out != 0) {
            spans.push_back({s.route_in, s.route_out, parent});
            route = parent = static_cast<int>(spans.size()) - 1;
          }
        }
        if (s.shard_in != 0 && s.shard_done != 0) {
          spans.push_back({s.shard_in, s.shard_done, parent});
          shard = parent = static_cast<int>(spans.size()) - 1;
          if (s.cold) ++cold;
          ++cold_seen;
        }
        if (s.model_in != 0 && s.model_out != 0) {
          spans.push_back({s.model_in, s.model_out, parent});
          model = static_cast<int>(spans.size()) - 1;
        }
        const std::vector<int64_t> self = SelfTimes(spans);
        auto take = [&](int index, std::vector<double>* mean_samples,
                        std::vector<double>* present) {
          const double value =
              index < 0 ? 0.0 : Ms(self[static_cast<size_t>(index)]);
          mean_samples->push_back(value);
          if (index >= 0) present->push_back(value);
          return value;
        };
        const double total = Ms(r.done - r.due);
        double attributed = 0.0;
        attributed += Ms(self[0]);
        root_lag.push_back(Ms(self[0]));
        attributed += take(rtt, &client_hop, &client_hop_all);
        attributed += take(router, &queue_wait, &queue_wait_all);
        attributed += take(route, &shard_hop, &shard_hop_all);
        attributed += take(model, &forward, &forward_all);
        double pre_ms = 0.0, post_ms = 0.0;
        if (shard >= 0) {
          if (model >= 0) {
            pre_ms = Ms(s.model_in - s.shard_in);
            post_ms = Ms(s.shard_done - s.model_out);
          } else {
            pre_ms = Ms(self[static_cast<size_t>(shard)]);
          }
          pre_all.push_back(pre_ms);
          post_all.push_back(post_ms);
        }
        pre.push_back(pre_ms);
        post.push_back(post_ms);
        attributed += pre_ms + post_ms;
        lat_traced.push_back(total);
          unattributed.push_back(total - attributed);
      }
    }

    const Counters d = Minus(after, before);
    layer.Set("server.pre_model_ms", Mean(pre), "ms");
    layer.Set("server.pre_model_p99_ms",
              pct.Get("server.pre_model_p99_ms", pre_all, 0.99), "ms");
    layer.Set("server.post_model_ms", Mean(post), "ms");
    layer.Set("server.post_model_p99_ms",
              pct.Get("server.post_model_p99_ms", post_all, 0.99), "ms");
    layer.Set("server.queue_depth_max", d.queue_depth_max, "count");
    layer.Set("server.shed", d.shed, "count");
    layer.Set("server.timeouts", d.timeouts, "count");
    layer.Set("server.fallbacks", d.fallbacks, "count");
    layer.Set("infer.forward_ms", Mean(forward), "ms");
    layer.Set("infer.forward_p50_ms",
              pct.Get("infer.forward_p50_ms", forward_all, 0.50), "ms");
    layer.Set("infer.forward_p99_ms",
              pct.Get("infer.forward_p99_ms", forward_all, 0.99), "ms");
    layer.Set("infer.calls", d.infer_calls, "count");
    layer.Set("infer.targets_per_call", Ratio(d.infer_targets, d.infer_calls),
              "count");
    layer.Set("infer.candidates_mean",
              Ratio(d.infer_candidates, d.infer_targets), "count");
    layer.Set("room.tick_ms", Mean(tick_busy), "ms");
    layer.Set("room.tick_p50_ms", pct.Get("room.tick_p50_ms", tick_busy, 0.50),
              "ms");
    layer.Set("room.tick_p95_ms", pct.Get("room.tick_p95_ms", tick_busy, 0.95),
              "ms");
    layer.Set("room.tick_wait_ms", Mean(tick_wait), "ms");
    layer.Set("room.delta_share",
              Ratio(delta_ticks, static_cast<double>(tick_busy.size())),
              "ratio");
    layer.Set("room.moved_mean", Ratio(moved_total, moved_ticks), "count");
    layer.Set("room.carried_mean",
              Ratio(carried_total, static_cast<double>(tick_busy.size())),
              "count");
    layer.Set("graph.cold_lookup_share", Ratio(cold, cold_seen), "ratio");
    layer.Set("graph.pruned_share", Ratio(d.pruned, d.submitted), "ratio");
    layer.Set("durability.journal_bytes_per_s",
              static_cast<double>(journal_bytes) / window_s, "B/s");
    layer.Set("durability.journal_records", d.journal_records, "count");
    layer.Set("durability.checkpoints_written", d.checkpoints, "count");
    layer.Set("durability.failures", d.errors - d.shard_errors, "count");
    layer.Set("loadgen.lag_ms", Mean(root_lag), "ms");
    layer.Set("loadgen.lag_p99_ms", lag_p99, "ms");
    layer.Set("loadgen.sent", sent, "count");
    layer.Set("loadgen.accounted", accounted, "count");
    double plain_cpu = 0.0, traced_cpu = 0.0;
    int plain_blocks = 0, traced_blocks = 0;
    for (size_t b = 0; b < block_cpu.size(); ++b) {
      if (b % 2 == 1) {
        traced_cpu += block_cpu[b];
        ++traced_blocks;
      } else {
        plain_cpu += block_cpu[b];
        ++plain_blocks;
      }
    }
    const double p50_plain =
        pct.Get("trace.overhead_pct", latency_plain, 0.50);
    const double p50_traced =
        pct.Get("trace.overhead_pct", latency_traced, 0.50);
    layer.Set("trace.overhead_pct",
              100.0 * Ratio(p50_traced - p50_plain, p50_plain), "%");
    layer.Set("trace.cpu_overhead_pct",
              100.0 * Ratio(Ratio(traced_cpu, traced_blocks) -
                                Ratio(plain_cpu, plain_blocks),
                            Ratio(plain_cpu, plain_blocks)),
              "%");
    layer.Set("trace.unattributed_ms", Mean(unattributed), "ms");
    layer.Set("trace.latency_mean_ms", Mean(lat_traced), "ms");
    if (spec->tcp) {
      layer.Set("net.client_hop_ms", Mean(client_hop), "ms");
      layer.Set("net.client_hop_p99_ms",
                pct.Get("net.client_hop_p99_ms", client_hop_all, 0.99), "ms");
      layer.Set("net.shard_hop_ms", Mean(shard_hop), "ms");
      layer.Set("net.shard_hop_p99_ms",
                pct.Get("net.shard_hop_p99_ms", shard_hop_all, 0.99), "ms");
      layer.Set("net.bytes_per_req", Ratio(d.net_bytes, attempted), "B");
      layer.Set("router.queue_wait_ms", Mean(queue_wait), "ms");
      layer.Set("router.queue_wait_p50_ms",
                pct.Get("router.queue_wait_p50_ms", queue_wait_all, 0.50),
                "ms");
      layer.Set("router.queue_wait_p99_ms",
                pct.Get("router.queue_wait_p99_ms", queue_wait_all, 0.99),
                "ms");
      layer.Set("router.link_reuse_ratio", Ratio(d.link_reuse, d.routed),
                "ratio");
      layer.Set("router.connects", d.connects, "count");
      layer.Set("router.retried", d.retried, "count");
      layer.Set("router.not_owner", d.not_owner, "count");
    }
  }
  if (invalid.empty() && !pct.missing.empty())
    invalid = "too few samples beyond " + pct.missing;

  // Report line: every metric by name and unit, and what is absent.
  std::vector<std::string> absent;
  if (tracer != nullptr && !spec->tcp) absent = NetworkOnly();
  std::ostringstream report;
  report << "{\"report\": {\"workload\": \"" << spec->name
         << "\", \"seed\": " << flags.seed << ", \"trace\": "
         << (flags.trace ? 1 : 0) << ", \"seconds\": " << flags.seconds
         << ", \"offered_rps\": " << spec->rate_rps
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"ticks\": " << tick_latency.size()
         << ", \"lag_p99_ms\": " << lag_p99 << ", \"setup_samples_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i)
    report << (i ? ", " : "") << setup_s[i];
  report << "]"
         << ", \"lanes_realtime\": " << (realtime ? "true" : "false")
         << ", \"end_to_end\": " << e2e.Json()
         << ", \"per_layer\": " << layer.Json() << ", \"absent\": [";
  for (size_t i = 0; i < absent.size(); ++i)
    report << (i ? ", " : "") << "\"" << absent[i] << "\"";
  report << "]}}";
  std::printf("%s\n", report.str().c_str());

  world.reset();
  std::error_code ignored;
  std::filesystem::remove_all(flags.work_dir, ignored);

  if (!invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", invalid.c_str());
    std::fflush(stdout);
    return 3;
  }
  if (!incorrect.empty())
    std::fprintf(stderr, "perfbench: incorrect: %s\n", incorrect.c_str());
  const MetricSet& final_set = flags.trace ? layer : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              incorrect.empty() ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed),
              final_set
                  .Json(flags.trace ? &RegisteredPerLayer()
                                    : &RegisteredEndToEnd())
                  .c_str());
  std::fflush(stdout);
  return incorrect.empty() ? 0 : 1;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      flags->workload = value;
      continue;
    }
    if (arg == "--work_dir") {
      flags->work_dir = value;
      continue;
    }
    const double number = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(number)) {
      std::fprintf(stderr, "flag %s: not a number: %s\n", arg.c_str(),
                   value.c_str());
      return false;
    }
    if (arg == "--seed" && number >= 0) {
      flags->seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds" && number >= 1 && number <= 600) {
      flags->seconds = number;
    } else if (arg == "--trace" && (number == 0 || number == 1)) {
      flags->trace = number == 1;
    } else {
      std::fprintf(stderr, "unknown flag or value out of range: %s %s\n",
                   arg.c_str(), value.c_str());
      return false;
    }
  }
  if (flags->workload.empty()) {
    std::string names;
    for (const std::string& name : WorkloadNames()) names += " " + name;
    std::fprintf(stderr, "--workload is required (one of:%s)\n",
                 names.c_str());
    return false;
  }
  if (flags->work_dir.empty())
    flags->work_dir = ".bench_build/perfbench-work-" + std::to_string(getpid());
  return true;
}

}  // namespace
}  // namespace perfbench
}  // namespace after

int main(int argc, char** argv) {
  after::perfbench::Flags flags;
  if (!after::perfbench::ParseFlags(argc, argv, &flags)) return 2;
  return after::perfbench::Main(flags);
}
