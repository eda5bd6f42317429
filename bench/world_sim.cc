// The macro driver: closed-loop load against the partitioned TCP fleet
// with the traffic shapes the paper's XR setting actually has — a
// Zipf-skewed room-size distribution, a diurnal load curve over
// discrete time slices, a flash crowd that makes the smallest rooms
// suddenly hot, cross-room population churn — plus the fleet drills as
// scenario events. Runs on the in-process fleet of bench/fleet_harness.h:
// real loopback sockets, partitioned ownership, replication standbys,
// optional durability. A uniform one-slice plan (--zipf=0
// --min_room_users=U --max_room_users=U --slices=1 --flash_rooms=0
// --churn=0) is the plain throughput run the BENCH_net baselines use.
//
// The whole request schedule is generated up front by the scenario
// library (bench/scenario.h) from --seed alone; its FNV-1a fingerprint
// is printed and written to the JSON, so two runs with the same flags
// are bit-identical at the plan level — that is the reproducibility
// gate CI enforces by running the smoke twice.
//
// Drills are events at an answered-request index, not at a wall-clock
// time, so they land under load at any host speed: once the clients
// have answered N requests, the event runs on the drill thread while
// the clients keep sending. --kill_at=N kills shard 0 (standby
// promotion and RepairPartition under fire; `peak` is the first request
// of the peak slice and also arms a reconnect storm after that slice),
// --add_at=N folds a new shard into the live fleet (AddBackendLive:
// live migration with state handoff), and --restart_at=N, on a durable
// fleet, tears down every shard and the router and rebuilds them from
// --durable_dir alone (kRoomRecover). Events run one at a time, in
// index order; the JSON's `events` list gives the answered count when
// each one fired and finished.
//
// --connections=N holds an idle swarm of N extra connections on the
// front (the C10k shape), a rotating slice of them pinged every ~250
// ms; --pipeline=D keeps D requests in flight per client
// (NetClient::CallPipelined), recording the burst's round trip for each.
//
// --coevolve adds the recommendation–network co-evolution loop
// (PAPERS.md): every served recommendation is deterministically
// accepted or ignored; accepts add social edges, ignores decay them,
// and the evolved per-room graph biases which user each scheduled
// request is issued for (hubs attract traffic). Drift statistics are
// reported but deliberately kept OUT of the scenario fingerprint —
// they depend on live responses.
//
// Exit contract (CI gate): exit 2 if any request is lost, any
// unexpected error class appears (storm included), the healthy shards'
// primaries spread more than 1 + replication, the room-size-weighted
// primary balance exceeds --balance_cap, the swarm misses a connection
// or a pong (unless a restart is armed), a restart loses or changes a
// room, or an armed reconnect storm never sees a fully clean wave. Exit
// 1 on setup errors.
//
// Flags: --shards=N --rooms=N --threads=N --clients=N --requests=N
//        --slices=N --zipf=F --diurnal_ratio=F
//        --max_room_users=N --min_room_users=N
//        --churn=F --flash_rooms=N --flash_boost=F
//        --replication=N (default 1) --durable_dir=PATH
//        --kill_at=N|peak --add_at=N --restart_at=N (drills)
//        --storm_connections=N --storm_wave=N (reconnect storm after
//                                              the peak slice)
//        --connections=N (idle swarm) --pipeline=D
//        --coevolve --seed=N --deadline_ms=F --balance_cap=F
//        --port=N [--host=H] (drive an external front instead; no
//                             drills, and the balance gates are
//                             skipped — no router to inspect)
//        --json=PATH (BENCH_world.json-style summary)

#include <fcntl.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/fleet_harness.h"
#include "bench/scenario.h"
#include "common/timer.h"
#include "data/dataset.h"
#include "serve/metrics.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/router.h"
#include "serve/server.h"

namespace after {
namespace {

/// Every scheduled request ends up in exactly one bucket (a failed
/// connect consumes the request as kUnavailable), so `lost` is
/// computable and gated at zero. `answered` counts them all: it is the
/// clock the scenario events run on.
struct WorldTally {
  std::atomic<long long> ok{0};
  std::atomic<long long> degraded{0};
  std::atomic<long long> shed{0};
  std::atomic<long long> timeouts{0};
  std::atomic<long long> unavailable{0};
  std::atomic<long long> not_owner{0};
  std::atomic<long long> errors{0};
  std::atomic<long long> answered{0};
  serve::LatencyHistogram latency;
};

void Record(WorldTally* tally, const Status& status, bool used_fallback,
            double rtt_ms, serve::LatencyHistogram* slice_latency) {
  tally->latency.RecordMs(rtt_ms);
  if (slice_latency != nullptr) slice_latency->RecordMs(rtt_ms);
  switch (status.code()) {
    case StatusCode::kOk:
      tally->ok.fetch_add(1, std::memory_order_relaxed);
      if (used_fallback)
        tally->degraded.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kResourceExhausted:
      tally->shed.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kTimeout:
      tally->timeouts.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kUnavailable:
      tally->unavailable.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kNotOwner:
      // The router retries these internally; one surfacing here means a
      // migration outlived the retry budget. Accounted but non-fatal,
      // like kUnavailable.
      tally->not_owner.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      tally->errors.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  tally->answered.fetch_add(1, std::memory_order_relaxed);
}

/// Per-room co-evolution state shared by the worker threads. Each room
/// has its own evolution + mutex, so rooms evolve independently and a
/// hot room never serialises traffic to the others.
struct CoevolveState {
  std::vector<std::unique_ptr<bench::SocialGraphEvolution>> rooms;
  std::vector<std::unique_ptr<std::mutex>> locks;
};

/// Issues one contiguous chunk of a slice's scheduled requests through
/// a persistent (reconnecting) client, `pipeline` at a time. Co-evolution,
/// when enabled, rewires the user on the way out and observes the
/// recommendation on the way back.
void WorkerChunk(const std::string& host, int port,
                 const bench::SliceRequest* requests, int count,
                 int pipeline, double deadline_ms,
                 std::unique_ptr<serve::NetClient>* client_slot,
                 CoevolveState* coevolve, WorldTally* tally,
                 serve::LatencyHistogram* slice_latency) {
  std::unique_ptr<serve::NetClient>& client = *client_slot;
  for (int i = 0; i < count;) {
    if (client == nullptr || client->broken()) {
      auto connected = serve::NetClient::Connect(host, port);
      if (!connected.ok()) {
        Record(tally, connected.status(), false, 0.0, slice_latency);
        ++i;
        client.reset();
        // Backoff so an outage window sees reconnect attempts, not a
        // request budget burned in a refused-connection loop.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      client = std::move(connected).value();
    }
    std::vector<serve::FriendRequest> burst(
        static_cast<size_t>(std::min(pipeline, count - i)));
    for (size_t k = 0; k < burst.size(); ++k) {
      serve::FriendRequest& request = burst[k];
      request.room = requests[i + static_cast<int>(k)].room;
      request.user = requests[i + static_cast<int>(k)].user;
      request.deadline_ms = deadline_ms;
      if (coevolve != nullptr) {
        std::lock_guard<std::mutex> lock(
            *coevolve->locks[static_cast<size_t>(request.room)]);
        request.user = coevolve->rooms[static_cast<size_t>(request.room)]
                           ->BiasUser(request.user);
      }
    }
    WallTimer rtt;
    std::vector<Result<serve::FriendResponse>> results;
    if (burst.size() == 1)
      results.push_back(client->Call(burst[0]));
    else
      results = client->CallPipelined(burst);
    const double rtt_ms = rtt.ElapsedMs();
    for (size_t k = 0; k < burst.size(); ++k) {
      if (!results[k].ok()) {
        Record(tally, results[k].status(), false, rtt_ms, slice_latency);
        continue;
      }
      const serve::FriendResponse& response = results[k].value();
      Record(tally, response.status, response.used_fallback, rtt_ms,
             slice_latency);
      if (coevolve == nullptr || !response.status.ok()) continue;
      const auto candidate = std::find(response.recommended.begin(),
                                       response.recommended.end(), true);
      if (candidate == response.recommended.end()) continue;
      const int room = burst[k].room;
      std::lock_guard<std::mutex> lock(
          *coevolve->locks[static_cast<size_t>(room)]);
      coevolve->rooms[static_cast<size_t>(room)]->Observe(
          burst[k].user,
          static_cast<int>(candidate - response.recommended.begin()));
    }
    i += static_cast<int>(burst.size());
  }
}

/// One reconnect-storm wave: `size` fresh connections held open
/// together (so the front really sees a wave-sized burst), each issuing
/// one request. Returns true when every connect succeeded and every
/// answer was OK — the fleet has fully absorbed the outage.
bool StormWave(const std::string& host, int port, int size,
               const std::vector<int>& room_sizes, size_t* cursor,
               double deadline_ms, WorldTally* storm) {
  std::vector<std::unique_ptr<serve::NetClient>> wave;
  wave.reserve(static_cast<size_t>(size));
  bool clean = true;
  for (int k = 0; k < size; ++k) {
    auto connected = serve::NetClient::Connect(host, port);
    if (!connected.ok()) {
      Record(storm, connected.status(), false, 0.0, nullptr);
      clean = false;
      continue;
    }
    wave.push_back(std::move(connected).value());
  }
  for (auto& client : wave) {
    const int room = static_cast<int>((*cursor)++ % room_sizes.size());
    serve::FriendRequest request;
    request.room = room;
    request.user = static_cast<int>(*cursor %
                                    static_cast<size_t>(
                                        room_sizes[static_cast<size_t>(room)]));
    request.deadline_ms = deadline_ms;
    WallTimer rtt;
    auto result = client->Call(request);
    if (result.ok()) {
      Record(storm, result.value().status, result.value().used_fallback,
             rtt.ElapsedMs(), nullptr);
      if (!result.value().status.ok()) clean = false;
    } else {
      Record(storm, result.status(), false, rtt.ElapsedMs(), nullptr);
      clean = false;
    }
  }
  return clean;
}

/// The connection-count axis: a swarm of mostly-idle connections held
/// open against the front while the closed-loop clients run. Every
/// ~250 ms a rotating slice (at most 1024) of them gets a ping burst —
/// bursty wakeups over a large idle set, the C10k traffic shape. Pongs
/// are collected off a private epoll set; the run gates on every ping
/// answered (zero lost wakeups) unless a restart tears down the front.
///
/// The swarm runs in a FORKED CHILD process: RLIMIT_NOFILE is a
/// per-process cap, and the self-contained fleet holds both ends of
/// every socket — 10k connections would be 20k+ descriptors in one fd
/// table, over the hard limit on locked-down containers (no
/// CAP_SYS_RESOURCE). Split across two processes, each side holds ~10k
/// and fits. The child closes every inherited descriptor first, so the
/// kill and restart drills keep their EOF semantics (a socket the
/// parent closes must actually close).
struct SwarmStats {
  long long connected = 0;
  long long pings = 0;
  long long pongs = 0;
  long long swarm_errors = 0;  // dials or sends that failed
};

/// Child-side body. Dials, reports "up <connected>" on stats_fd, runs
/// ping bursts until stop_fd signals (the parent closes its write
/// end), then drains and reports
/// "done <connected> <pings> <pongs> <errors>".
void SwarmChildLoop(const std::string& host, int port, int connections,
                    int stop_fd, int stats_fd) {
  SwarmStats stats;
  struct SwarmConn {
    int fd = -1;
    std::string inbuf;
  };
  const int epoll_fd = ::epoll_create1(0);
  if (epoll_fd < 0) return;
  std::vector<SwarmConn> conns(static_cast<size_t>(connections));
  for (int i = 0; i < connections; ++i) {
    auto dialed = serve::net_detail::DialBlocking(host, port, 5000.0);
    if (!dialed.ok()) {
      ++stats.swarm_errors;
      continue;
    }
    const int fd = dialed.value();
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    struct epoll_event event = {};
    event.events = EPOLLIN;
    event.data.u64 = static_cast<uint64_t>(i);
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      ++stats.swarm_errors;
      continue;
    }
    conns[static_cast<size_t>(i)].fd = fd;
    ++stats.connected;
  }
  {
    char line[64];
    const int len =
        std::snprintf(line, sizeof(line), "up %lld\n", stats.connected);
    (void)!::write(stats_fd, line, static_cast<size_t>(len));
  }

  uint64_t next_id = 1;
  size_t cursor = 0;
  const auto drain = [&](int wait_ms) {
    struct epoll_event events[256];
    const int n = ::epoll_wait(epoll_fd, events, 256, wait_ms);
    for (int e = 0; e < n; ++e) {
      SwarmConn& conn = conns[static_cast<size_t>(events[e].data.u64)];
      if (conn.fd < 0) continue;
      char chunk[4096];
      while (true) {
        const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
          conn.inbuf.append(chunk, static_cast<size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        // EOF or hard error: the front dropped us.
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
        ::close(conn.fd);
        conn.fd = -1;
        ++stats.swarm_errors;
        break;
      }
      while (conn.fd >= 0) {
        serve::wire::Frame frame;
        size_t consumed = 0;
        if (!serve::wire::ExtractFrame(conn.inbuf, &frame, &consumed).ok() ||
            consumed == 0)
          break;
        conn.inbuf.erase(0, consumed);
        if (frame.type == serve::wire::MessageType::kPong) ++stats.pongs;
      }
    }
  };
  const auto stop_requested = [stop_fd] {
    struct pollfd probe = {stop_fd, POLLIN, 0};
    return ::poll(&probe, 1, 0) > 0;  // data or HUP: parent said stop
  };

  // First burst fires immediately, so even a short run exercises the
  // wakeup path over the idle set.
  auto last_burst =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(250);
  while (!stop_requested()) {
    drain(/*wait_ms=*/50);
    const auto now = std::chrono::steady_clock::now();
    if (now - last_burst < std::chrono::milliseconds(250)) continue;
    last_burst = now;
    const size_t slice =
        std::min<size_t>(1024, static_cast<size_t>(connections));
    for (size_t k = 0; k < slice && !conns.empty(); ++k) {
      SwarmConn& conn = conns[cursor++ % conns.size()];
      if (conn.fd < 0) continue;
      std::string ping;
      serve::wire::AppendPingFrame(next_id++, &ping);
      if (serve::net_detail::SendAllFd(conn.fd, ping).ok()) {
        ++stats.pings;
      } else {
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
        ::close(conn.fd);
        conn.fd = -1;
        ++stats.swarm_errors;
      }
    }
  }
  // Final drain: give in-flight pongs a bounded window to land.
  WallTimer drain_timer;
  while (drain_timer.ElapsedMs() < 2000.0 && stats.pongs < stats.pings)
    drain(/*wait_ms=*/50);
  for (SwarmConn& conn : conns)
    if (conn.fd >= 0) ::close(conn.fd);
  ::close(epoll_fd);
  char line[128];
  const int len =
      std::snprintf(line, sizeof(line), "done %lld %lld %lld %lld\n",
                    stats.connected, stats.pings, stats.pongs,
                    stats.swarm_errors);
  (void)!::write(stats_fd, line, static_cast<size_t>(len));
}

/// Parent-side handle for the forked swarm.
struct SwarmHandle {
  pid_t pid = -1;
  int stop_fd = -1;       // closing it tells the child to wrap up
  FILE* stats = nullptr;  // child's "up"/"done" reports
  SwarmStats final_stats;

  bool running() const { return pid > 0; }

  /// Blocks until the child reports its dial phase finished; returns
  /// the number of connections that made it.
  long long WaitUp() {
    char line[128];
    long long connected = 0;
    if (stats != nullptr && std::fgets(line, sizeof(line), stats) != nullptr)
      std::sscanf(line, "up %lld", &connected);
    final_stats.connected = connected;
    return connected;
  }

  /// Signals stop, collects the final stats line, reaps the child.
  void Finish() {
    if (!running()) return;
    ::close(stop_fd);
    stop_fd = -1;
    char line[128];
    if (stats != nullptr && std::fgets(line, sizeof(line), stats) != nullptr)
      std::sscanf(line, "done %lld %lld %lld %lld", &final_stats.connected,
                  &final_stats.pings, &final_stats.pongs,
                  &final_stats.swarm_errors);
    if (stats != nullptr) std::fclose(stats);
    stats = nullptr;
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    pid = -1;
  }
};

/// Forks the swarm child. In the child every inherited descriptor is
/// closed (so a parent-side Shutdown() still severs its sockets for
/// the drills), then SwarmChildLoop runs and the child exits without
/// ever touching the fleet. Returns a non-running handle on failure.
SwarmHandle StartSwarm(const std::string& host, int port, int connections) {
  SwarmHandle handle;
  int stop_pipe[2] = {-1, -1}, stats_pipe[2] = {-1, -1};
  if (::pipe(stop_pipe) != 0) return handle;
  if (::pipe(stats_pipe) != 0) {
    ::close(stop_pipe[0]);
    ::close(stop_pipe[1]);
    return handle;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {stop_pipe[0], stop_pipe[1], stats_pipe[0], stats_pipe[1]})
      ::close(fd);
    return handle;
  }
  if (pid == 0) {
    // Child: drop every inherited fd except stdio and our two pipe ends.
    struct rlimit limit = {};
    ::getrlimit(RLIMIT_NOFILE, &limit);
    for (int fd = 3; fd < static_cast<int>(limit.rlim_cur); ++fd)
      if (fd != stop_pipe[0] && fd != stats_pipe[1]) ::close(fd);
    SwarmChildLoop(host, port, connections, stop_pipe[0], stats_pipe[1]);
    ::_exit(0);
  }
  ::close(stop_pipe[0]);
  ::close(stats_pipe[1]);
  handle.pid = pid;
  handle.stop_fd = stop_pipe[1];
  handle.stats = ::fdopen(stats_pipe[0], "r");
  return handle;
}

/// Raises the soft RLIMIT_NOFILE toward `needed` descriptors, pushing
/// the hard limit too when the container allows it. Logs loudly if it
/// is still short — never a silent cap.
void EnsureFdLimit(rlim_t needed) {
  struct rlimit limit = {};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= needed) return;
  struct rlimit want = limit;
  want.rlim_cur = needed;
  if (want.rlim_max < needed) want.rlim_max = needed;  // root may raise it
  if (::setrlimit(RLIMIT_NOFILE, &want) != 0) {
    // No CAP_SYS_RESOURCE: the hard limit is the ceiling.
    want.rlim_cur = limit.rlim_max;
    want.rlim_max = limit.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &want) != 0) return;
  }
  if (want.rlim_cur < needed)
    std::fprintf(stderr,
                 "[world_sim] WARNING: RLIMIT_NOFILE %llu < %llu "
                 "needed; the swarm may exhaust descriptors\n",
                 static_cast<unsigned long long>(want.rlim_cur),
                 static_cast<unsigned long long>(needed));
}

/// Kills shard 0 and waits (up to 10 s) until the router's repair has
/// moved every copy off it. False when the repair did not finish.
bool KillShardZero(bench::LocalFleet* fleet) {
  std::printf("[world_sim] killing shard 0\n");
  serve::NetServer* victim = nullptr;
  {
    std::lock_guard<std::mutex> lock(fleet->mutex);
    victim = fleet->shard_nets[0].get();
  }
  victim->Shutdown();
  for (WallTimer waited; waited.ElapsedMs() < 10000.0;) {
    bool owned = false;
    for (const auto& entry : fleet->router->AssignmentSnapshot())
      for (int b : entry.second.copies) owned = owned || b == 0;
    if (!owned) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// Starts a fresh shard and folds it into the live fleet, migrating the
/// rooms whose primary moves to it.
bool AddShardLive(bench::LocalFleet* fleet) {
  std::printf("[world_sim] adding a shard\n");
  serve::BackendAddress address;
  if (!bench::AddShard(fleet, fleet->config.threads, /*durable_dir=*/"",
                       &address))
    return false;
  auto added = fleet->router->AddBackendLive(address);
  if (!added.ok()) {
    std::fprintf(stderr, "AddBackendLive: %s\n",
                 added.status().ToString().c_str());
    return false;
  }
  std::printf("[world_sim] shard %d joined at %s (migrations so far: "
              "%lld)\n",
              added.value(), address.ToString().c_str(),
              static_cast<long long>(
                  fleet->router->metrics().migrations.load()));
  return true;
}

/// A scenario event and what happened to it: the answered count when it
/// fired and when it finished (-1: it never did).
struct EventOutcome {
  bench::ScenarioEvent event;
  long long fired_at = -1;
  long long finished_at = -1;
};

int Main(int argc, char** argv) {
  bench::WorldConfig world;
  std::string host = "127.0.0.1", json_path, durable_dir;
  int port = 0, shards = 3, threads = 2, clients = 4, replication = 1;
  int storm_connections = 0, storm_wave = 8, connections = 0, pipeline = 1;
  bool coevolve = false, shards_given = false;
  double deadline_ms = 1000.0, balance_cap = 2.5;
  for (int i = 1; i < argc; ++i) {
    int value = 0;
    double fvalue = 0.0;
    char buffer[256] = {};
    if (std::sscanf(argv[i], "--port=%d", &value) == 1) port = value;
    else if (std::sscanf(argv[i], "--shards=%d", &value) == 1) {
      shards = value;
      shards_given = true;
    }
    else if (std::sscanf(argv[i], "--rooms=%d", &value) == 1)
      world.rooms = value;
    else if (std::sscanf(argv[i], "--threads=%d", &value) == 1)
      threads = value;
    else if (std::sscanf(argv[i], "--clients=%d", &value) == 1)
      clients = value;
    else if (std::sscanf(argv[i], "--requests=%d", &value) == 1)
      world.total_requests = value;
    else if (std::sscanf(argv[i], "--slices=%d", &value) == 1)
      world.slices = value;
    else if (std::sscanf(argv[i], "--max_room_users=%d", &value) == 1)
      world.max_room_users = value;
    else if (std::sscanf(argv[i], "--min_room_users=%d", &value) == 1)
      world.min_room_users = value;
    else if (std::sscanf(argv[i], "--flash_rooms=%d", &value) == 1)
      world.flash_rooms = value;
    else if (std::sscanf(argv[i], "--replication=%d", &value) == 1)
      replication = value;
    else if (std::sscanf(argv[i], "--storm_connections=%d", &value) == 1)
      storm_connections = value;
    else if (std::sscanf(argv[i], "--storm_wave=%d", &value) == 1)
      storm_wave = value;
    else if (std::sscanf(argv[i], "--connections=%d", &value) == 1)
      connections = value;
    else if (std::sscanf(argv[i], "--pipeline=%d", &value) == 1)
      pipeline = value;
    else if (std::strcmp(argv[i], "--kill_at=peak") == 0)
      world.events.push_back({bench::EventKind::kKill, bench::kAtPeak});
    else if (std::sscanf(argv[i], "--kill_at=%d", &value) == 1 && value >= 0)
      world.events.push_back({bench::EventKind::kKill, value});
    else if (std::sscanf(argv[i], "--add_at=%d", &value) == 1 && value >= 0)
      world.events.push_back({bench::EventKind::kAdd, value});
    else if (std::sscanf(argv[i], "--restart_at=%d", &value) == 1 &&
             value >= 0)
      world.events.push_back({bench::EventKind::kRestart, value});
    else if (std::sscanf(argv[i], "--zipf=%lf", &fvalue) == 1)
      world.zipf_exponent = fvalue;
    else if (std::sscanf(argv[i], "--diurnal_ratio=%lf", &fvalue) == 1)
      world.diurnal_ratio = fvalue;
    else if (std::sscanf(argv[i], "--churn=%lf", &fvalue) == 1)
      world.churn_fraction = fvalue;
    else if (std::sscanf(argv[i], "--flash_boost=%lf", &fvalue) == 1)
      world.flash_boost = fvalue;
    else if (std::sscanf(argv[i], "--deadline_ms=%lf", &fvalue) == 1)
      deadline_ms = fvalue;
    else if (std::sscanf(argv[i], "--balance_cap=%lf", &fvalue) == 1)
      balance_cap = fvalue;
    else if (std::sscanf(argv[i], "--seed=%" SCNu64,
                         &world.seed) == 1) {}
    else if (std::strcmp(argv[i], "--coevolve") == 0) coevolve = true;
    else if (std::sscanf(argv[i], "--durable_dir=%255s", buffer) == 1)
      durable_dir = buffer;
    else if (std::sscanf(argv[i], "--host=%255s", buffer) == 1)
      host = buffer;
    else if (std::sscanf(argv[i], "--json=%255s", buffer) == 1)
      json_path = buffer;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (port != 0 && shards_given) {
    std::fprintf(stderr, "--port and --shards are mutually exclusive\n");
    return 1;
  }
  const bool self_contained = port == 0;
  if (!durable_dir.empty() && !self_contained) {
    std::fprintf(stderr, "--durable_dir needs the self-contained fleet\n");
    return 1;
  }
  if (clients < 1 || storm_wave < 1 || pipeline < 1 || connections < 0) {
    std::fprintf(stderr, "clients/storm_wave/pipeline must be >= 1 and "
                         "connections >= 0\n");
    return 1;
  }
  world.self_contained = self_contained;
  world.durable = !durable_dir.empty();
  Result<bench::WorldPlan> built = bench::BuildWorldPlan(world);
  if (!built.ok()) {
    std::fprintf(stderr, "world_sim: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const bench::WorldPlan plan = std::move(built).value();
  bool restart_armed = false;
  for (const bench::ScenarioEvent& event : world.events) {
    if (event.kind == bench::EventKind::kRestart) restart_armed = true;
    // A kill at the peak brings its reconnect storm along.
    if (event.at == bench::kAtPeak && storm_connections == 0)
      storm_connections = 4 * storm_wave;
  }
  std::printf("[world_sim] plan: %d rooms (sizes %d..%d, zipf %.2f), "
              "%d slices (peak %d, ratio %.1f), %d requests, "
              "fingerprint %016" PRIx64 "\n",
              world.rooms, plan.room_sizes.back(), plan.room_sizes.front(),
              world.zipf_exponent, world.slices, plan.peak_slice,
              world.diurnal_ratio, world.total_requests, plan.fingerprint);

  // The swarm's dial side lives in a forked child with its own fd
  // table; this process still holds the accept side of every swarm
  // socket plus client sockets, shard links, and durability files.
  // Raise the limit before anything dials.
  if (connections > 0)
    EnsureFdLimit(static_cast<rlim_t>(connections + 8 * clients +
                                      64 * std::max(1, shards) + 512));

  // One dataset per distinct room size, generated once and owned here
  // so mid-run room rebuilds (standby promotion, added shards, cold
  // restarts) can re-create any room. std::map keeps node addresses
  // stable across inserts.
  std::map<int, Dataset> datasets;
  std::unique_ptr<bench::LocalFleet> fleet;
  if (self_contained) {
    for (int size : plan.room_sizes) {
      if (datasets.count(size) != 0) continue;
      DatasetConfig config;
      config.num_users = size;
      config.num_steps = 2;
      config.num_sessions = 1;
      config.seed = 4242;
      datasets.emplace(size, GenerateTimikLike(config));
    }
    std::printf("[world_sim] starting fleet: %d shard(s), %d rooms, "
                "replication %d%s%s\n",
                shards, world.rooms, replication,
                durable_dir.empty() ? "" : ", durable",
                coevolve ? ", co-evolution on" : "");
    bench::FleetConfig fleet_config;
    fleet_config.shards = shards;
    fleet_config.rooms = world.rooms;
    fleet_config.threads = threads;
    fleet_config.replication = replication;
    fleet_config.durable_base = durable_dir;
    fleet_config.front_max_connections =
        connections + clients * 2 + storm_wave + 64;
    const std::vector<int>* sizes = &plan.room_sizes;
    fleet = bench::StartLocalFleet(
        fleet_config,
        [&datasets, sizes](int r) -> Result<std::unique_ptr<serve::Room>> {
          if (r < 0 || r >= static_cast<int>(sizes->size()))
            return InvalidArgumentError("room id out of plan range");
          serve::Room::Options room_options;
          room_options.id = r;
          room_options.mode = serve::Room::Mode::kLive;
          room_options.seed = 900 + r;
          return serve::Room::Create(
              room_options,
              &datasets.at((*sizes)[static_cast<size_t>(r)]));
        });
    if (fleet == nullptr) return 1;
    host = fleet->router_net->host();
    port = fleet->router_net->port();
  }

  CoevolveState coevolve_state;
  if (coevolve) {
    for (size_t r = 0; r < plan.room_sizes.size(); ++r) {
      coevolve_state.rooms.push_back(
          std::make_unique<bench::SocialGraphEvolution>(
              plan.room_sizes[r], world.seed ^ (0xC0EFULL + r)));
      coevolve_state.locks.push_back(std::make_unique<std::mutex>());
    }
  }

  // The idle swarm dials before the load, so the clients and the drills
  // run against a front already holding `connections` sockets, and qps
  // measures the load, not the one-time dial.
  SwarmHandle swarm;
  if (connections > 0) {
    std::printf("[world_sim] dialing idle swarm: %d connection(s) "
                "(forked load process)\n",
                connections);
    WallTimer dial;
    swarm = StartSwarm(host, port, connections);
    if (!swarm.running()) {
      std::fprintf(stderr, "FAIL: could not fork the swarm process\n");
      return 2;
    }
    const long long connected = swarm.WaitUp();
    std::printf("[world_sim] idle swarm up: %lld/%d connected in %.2f s\n",
                connected, connections, dial.ElapsedSeconds());
  }

  WorldTally tally;
  WorldTally storm_tally;
  serve::LatencyHistogram peak_latency;
  std::vector<std::unique_ptr<serve::NetClient>> client_pool(
      static_cast<size_t>(clients));
  WallTimer run_timer;
  double storm_recovery_ms = -1.0;
  long long storm_waves_needed = 0;

  // The drill thread: each event in firing order, once the clients have
  // answered its index, while they keep sending.
  std::vector<EventOutcome> outcomes;
  for (const bench::ScenarioEvent& event : plan.events)
    outcomes.push_back({event});
  std::atomic<double> kill_ms{-1.0};
  std::atomic<bool> load_ended{false};
  bench::RestartReport restart;
  std::thread drills([&] {
    for (EventOutcome& outcome : outcomes) {
      // Polling costs the clients nothing, and the event still fires
      // within a millisecond of its index.
      while (tally.answered.load() < outcome.event.at && !load_ended.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (tally.answered.load() < outcome.event.at) return;
      outcome.fired_at = tally.answered.load();
      bool done = false;
      switch (outcome.event.kind) {
        case bench::EventKind::kKill:
          kill_ms.store(run_timer.ElapsedMs());
          done = KillShardZero(fleet.get());
          break;
        case bench::EventKind::kAdd:
          done = AddShardLive(fleet.get());
          break;
        case bench::EventKind::kRestart:
          std::printf("[world_sim] cold restart: killing the entire "
                      "fleet\n");
          restart = bench::ColdRestart(fleet.get());
          std::printf("[world_sim] cold restart: %lld room(s) recovered "
                      "(%lld expected), %lld stale replica(s) discarded, "
                      "%lld lost, %lld mismatched\n",
                      restart.recovered, restart.expected, restart.discarded,
                      restart.lost, restart.mismatched);
          done = restart.completed;
          break;
      }
      if (done) outcome.finished_at = tally.answered.load();
    }
  });

  for (int t = 0; t < world.slices; ++t) {
    const std::vector<bench::SliceRequest>& slice =
        plan.schedule[static_cast<size_t>(t)];
    serve::LatencyHistogram* slice_latency =
        t == plan.peak_slice ? &peak_latency : nullptr;
    std::vector<std::thread> workers;
    const int chunk =
        (static_cast<int>(slice.size()) + clients - 1) / clients;
    for (int c = 0; c < clients; ++c) {
      const int begin = c * chunk;
      const int count = std::min<int>(chunk,
                                      static_cast<int>(slice.size()) - begin);
      if (count <= 0) break;
      workers.emplace_back(WorkerChunk, host, port, slice.data() + begin,
                           count, pipeline, deadline_ms,
                           &client_pool[static_cast<size_t>(c)],
                           coevolve ? &coevolve_state : nullptr, &tally,
                           slice_latency);
    }
    for (auto& worker : workers) worker.join();

    // Reconnect storm right after the outage's peak slice: waves of
    // fresh connections (each wave <= --storm_wave, so the front's
    // connection budget is never exceeded) until one wave is fully
    // clean — that marks recovery, timed from the kill.
    if (t == plan.peak_slice && storm_connections > 0) {
      std::printf("[world_sim] reconnect storm: %d connection(s) in waves "
                  "of <= %d\n", storm_connections, storm_wave);
      const double kill_elapsed_ms = kill_ms.load();
      const auto recovery_ms = [&] {
        return kill_elapsed_ms < 0.0 ? 0.0
                                     : run_timer.ElapsedMs() - kill_elapsed_ms;
      };
      size_t cursor = 0;
      for (int wave :
           bench::ReconnectStormWaves(storm_connections, storm_wave)) {
        ++storm_waves_needed;
        const bool clean = StormWave(host, port, wave, plan.room_sizes,
                                     &cursor, deadline_ms, &storm_tally);
        if (clean && storm_recovery_ms < 0.0) storm_recovery_ms = recovery_ms();
      }
      // The budgeted waves all ran while the fleet was still repairing:
      // keep probing with extra waves (bounded) until one is clean, so
      // recovery time measures the fleet, not the storm budget.
      WallTimer extra;
      while (storm_recovery_ms < 0.0 && extra.ElapsedMs() < 15000.0) {
        ++storm_waves_needed;
        if (StormWave(host, port, storm_wave, plan.room_sizes, &cursor,
                      deadline_ms, &storm_tally))
          storm_recovery_ms = recovery_ms();
      }
      if (storm_recovery_ms < 0.0)
        std::fprintf(stderr, "[world_sim] storm never saw a clean wave\n");
    }
  }
  const double elapsed_s = run_timer.ElapsedSeconds();
  load_ended.store(true);
  drills.join();
  swarm.Finish();
  const SwarmStats& swarm_stats = swarm.final_stats;

  const long long total = world.total_requests;
  const long long lost = total - tally.answered.load();
  const double qps = elapsed_s > 0.0 ? tally.ok.load() / elapsed_s : 0.0;
  const double p50 = tally.latency.PercentileMs(0.50);
  const double p95 = tally.latency.PercentileMs(0.95);
  const double p99 = tally.latency.PercentileMs(0.99);
  const double peak_p99 = peak_latency.PercentileMs(0.99);
  const double degraded_share =
      tally.ok.load() > 0
          ? static_cast<double>(tally.degraded.load()) / tally.ok.load()
          : 0.0;

  std::printf(
      "requests clients    ok   dgr  shed   t/o unavail notown  errs  lost"
      "   p50ms   p95ms   p99ms  pk99ms    req/s\n"
      "%8lld %7d %5lld %5lld %5lld %5lld %7lld %6lld %5lld %5lld %7.2f "
      "%7.2f %7.2f %7.2f %8.1f\n",
      total, clients, tally.ok.load(), tally.degraded.load(),
      tally.shed.load(), tally.timeouts.load(), tally.unavailable.load(),
      tally.not_owner.load(), tally.errors.load(), lost, p50, p95, p99,
      peak_p99, qps);
  for (const EventOutcome& outcome : outcomes)
    std::printf("event: %s at %d fired at %lld, finished at %lld "
                "(answered of %lld)\n",
                bench::EventKindName(outcome.event.kind), outcome.event.at,
                outcome.fired_at, outcome.finished_at, total);
  if (storm_connections > 0)
    std::printf("storm: %lld request(s) over %lld wave(s), ok=%lld "
                "unavail=%lld errs=%lld, recovery %.1f ms\n",
                storm_tally.answered.load(), storm_waves_needed,
                storm_tally.ok.load(), storm_tally.unavailable.load(),
                storm_tally.errors.load(), storm_recovery_ms);
  if (connections > 0)
    std::printf("idle swarm: %lld/%d connected, pings=%lld pongs=%lld "
                "errors=%lld\n",
                swarm_stats.connected, connections, swarm_stats.pings,
                swarm_stats.pongs, swarm_stats.swarm_errors);

  // Post-mortem over the healthy shards: the primary spread (in rooms)
  // and the room-size-weighted primary balance are the gates, the
  // measured per-shard and per-room request counts are observability.
  double primary_balance = 0.0;
  double request_balance = 0.0;
  int min_primary = 0, max_primary = 0;
  long long migrations = 0, repairs = 0;
  // A restart that failed part-way may have left no router to inspect.
  const bool inspect = fleet != nullptr && fleet->router != nullptr;
  if (inspect) {
    const auto snapshot = fleet->router->AssignmentSnapshot();
    const int num_backends = fleet->router->num_backends();
    std::vector<double> weighted(static_cast<size_t>(num_backends), 0.0);
    std::vector<int> primaries(static_cast<size_t>(num_backends), 0);
    for (const auto& entry : snapshot) {
      if (entry.second.copies.empty()) continue;
      const int primary = entry.second.copies[0];
      if (primary < 0 || primary >= num_backends) continue;
      ++primaries[static_cast<size_t>(primary)];
      if (entry.first >= 0 &&
          entry.first < static_cast<int>(plan.room_sizes.size()))
        weighted[static_cast<size_t>(primary)] +=
            plan.room_sizes[static_cast<size_t>(entry.first)];
    }
    migrations = fleet->router->metrics().migrations.load();
    repairs = fleet->router->metrics().repairs.load();
    std::printf("partition: %zu rooms, migrations=%lld repairs=%lld "
                "not_owner_reroutes=%lld\n",
                snapshot.size(), migrations, repairs,
                static_cast<long long>(
                    fleet->router->metrics().not_owner.load()));
    double weighted_sum = 0.0, weighted_max = 0.0;
    double requests_sum = 0.0, requests_max = 0.0;
    int healthy = 0;
    min_primary = world.rooms;
    for (int b = 0; b < num_backends; ++b) {
      const bool alive = fleet->router->backend_healthy(b);
      const double shard_requests = static_cast<double>(
          fleet->shards[static_cast<size_t>(b)]
              ->metrics().room_requests.Total());
      std::printf("  shard %d: %d primaries, weighted load %.0f, "
                  "%.0f request(s)%s\n",
                  b, primaries[static_cast<size_t>(b)],
                  weighted[static_cast<size_t>(b)], shard_requests,
                  alive ? "" : "  [dead]");
      if (!alive) continue;
      ++healthy;
      min_primary = std::min(min_primary, primaries[static_cast<size_t>(b)]);
      max_primary = std::max(max_primary, primaries[static_cast<size_t>(b)]);
      weighted_sum += weighted[static_cast<size_t>(b)];
      weighted_max =
          std::max(weighted_max, weighted[static_cast<size_t>(b)]);
      requests_sum += shard_requests;
      requests_max = std::max(requests_max, shard_requests);
    }
    if (healthy == 0) min_primary = max_primary = 0;
    if (healthy > 0 && weighted_sum > 0.0)
      primary_balance = weighted_max / (weighted_sum / healthy);
    if (healthy > 0 && requests_sum > 0.0)
      request_balance = requests_max / (requests_sum / healthy);
    std::printf("balance: primaries %d..%d, weighted primary %.2f (cap "
                "%.2f), measured request %.2f over %d healthy shard(s)\n",
                min_primary, max_primary, primary_balance, balance_cap,
                request_balance, healthy);

    // Per-room histogram from the serve-side counters: did the offered
    // Zipf skew actually reach the rooms?
    std::unordered_map<int, long long> per_room;
    for (const auto& shard : fleet->shards)
      for (const auto& entry : shard->metrics().room_requests.Snapshot())
        per_room[entry.first] += entry.second;
    std::vector<std::pair<int, long long>> hot(per_room.begin(),
                                               per_room.end());
    std::stable_sort(hot.begin(), hot.end(), [](const auto& a,
                                                const auto& b) {
      return a.second > b.second;
    });
    std::printf("hottest rooms:");
    for (size_t k = 0; k < hot.size() && k < 5; ++k)
      std::printf(" r%d=%lld(sz %d)", hot[k].first, hot[k].second,
                  plan.room_sizes[static_cast<size_t>(hot[k].first)]);
    std::printf("\n");
  }

  double drift_l1 = 0.0;
  long long accepts = 0, ignores = 0;
  uint64_t graph_fingerprint = 0;
  if (coevolve) {
    bench::Fnv1a hasher;
    for (const auto& evolution : coevolve_state.rooms) {
      drift_l1 += evolution->DriftL1();
      accepts += evolution->accepts();
      ignores += evolution->ignores();
      hasher.Mix(evolution->Fingerprint());
    }
    graph_fingerprint = hasher.digest();
    std::printf("co-evolution: %lld accept(s), %lld ignore(s), drift L1 "
                "%.1f, graph fingerprint %016" PRIx64 "\n",
                accepts, ignores, drift_l1, graph_fingerprint);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    char fingerprint_hex[32], graph_hex[32];
    std::snprintf(fingerprint_hex, sizeof(fingerprint_hex), "%016" PRIx64,
                  plan.fingerprint);
    std::snprintf(graph_hex, sizeof(graph_hex), "%016" PRIx64,
                  graph_fingerprint);
    out << "{\n"
        << "  \"bench\": \"world_sim\",\n"
        << "  \"seed\": " << world.seed << ",\n"
        << "  \"rooms\": " << world.rooms << ",\n"
        << "  \"shards\": " << (self_contained ? shards : 0) << ",\n"
        << "  \"slices\": " << world.slices << ",\n"
        << "  \"zipf_exponent\": " << world.zipf_exponent << ",\n"
        << "  \"diurnal_ratio\": " << world.diurnal_ratio << ",\n"
        << "  \"coevolve\": " << (coevolve ? "true" : "false") << ",\n"
        << "  \"scenario_fingerprint\": \"" << fingerprint_hex << "\",\n"
        << "  \"requests\": " << total << ",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"connections\": " << connections << ",\n"
        << "  \"pipeline\": " << pipeline << ",\n"
        << "  \"swarm_pings\": " << swarm_stats.pings << ",\n"
        << "  \"swarm_pongs\": " << swarm_stats.pongs << ",\n"
        << "  \"ok\": " << tally.ok.load() << ",\n"
        << "  \"degraded\": " << tally.degraded.load() << ",\n"
        << "  \"shed\": " << tally.shed.load() << ",\n"
        << "  \"timeouts\": " << tally.timeouts.load() << ",\n"
        << "  \"unavailable\": " << tally.unavailable.load() << ",\n"
        << "  \"not_owner\": " << tally.not_owner.load() << ",\n"
        << "  \"errors\": " << tally.errors.load() << ",\n"
        << "  \"lost\": " << lost << ",\n"
        << "  \"recovered_rooms\": " << restart.recovered << ",\n"
        << "  \"recovery_mismatches\": " << restart.mismatched << ",\n"
        << "  \"migrations\": " << migrations << ",\n"
        << "  \"repairs\": " << repairs << ",\n"
        << "  \"qps\": " << qps << ",\n"
        << "  \"p50_ms\": " << p50 << ",\n"
        << "  \"p95_ms\": " << p95 << ",\n"
        << "  \"p99_ms\": " << p99 << ",\n"
        << "  \"peak_p99_ms\": " << peak_p99 << ",\n"
        << "  \"degraded_share\": " << degraded_share << ",\n"
        << "  \"primary_balance\": " << primary_balance << ",\n"
        << "  \"request_balance\": " << request_balance << ",\n"
        << "  \"storm_connections\": " << storm_connections << ",\n"
        << "  \"storm_ok\": " << storm_tally.ok.load() << ",\n"
        << "  \"storm_errors\": " << storm_tally.errors.load() << ",\n"
        << "  \"storm_recovery_ms\": " << storm_recovery_ms << ",\n"
        << "  \"coevolve_accepts\": " << accepts << ",\n"
        << "  \"coevolve_ignores\": " << ignores << ",\n"
        << "  \"coevolve_drift_l1\": " << drift_l1 << ",\n"
        << "  \"graph_fingerprint\": \"" << graph_hex << "\",\n"
        << "  \"events\": [";
    for (size_t e = 0; e < outcomes.size(); ++e)
      out << (e == 0 ? "\n" : ",\n") << "    {\"kind\": \""
          << bench::EventKindName(outcomes[e].event.kind)
          << "\", \"at\": " << outcomes[e].event.at
          << ", \"fired_at\": " << outcomes[e].fired_at
          << ", \"finished_at\": " << outcomes[e].finished_at << "}";
    out << (outcomes.empty() ? "" : "\n  ") << "],\n"
        << "  \"elapsed_s\": " << elapsed_s << "\n"
        << "}\n";
    std::printf("[world_sim] wrote %s\n", json_path.c_str());
  }

  // CI contract (docs/world_sim.md). kUnavailable / kNotOwner answers
  // are legitimate (a killed shard's retries can exhaust; a migration
  // can outlive the retry budget), so they are reported, not failed.
  if (lost != 0) {
    std::fprintf(stderr, "FAIL: %lld request(s) unaccounted\n", lost);
    return 2;
  }
  if (tally.errors.load() != 0 || storm_tally.errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %lld unexpected error status(es)\n",
                 tally.errors.load() + storm_tally.errors.load());
    return 2;
  }
  if (inspect && max_primary - min_primary > 1 + replication) {
    std::fprintf(stderr,
                 "FAIL: primary spread %d..%d across the healthy shards "
                 "exceeds 1 + replication (%d)\n",
                 min_primary, max_primary, 1 + replication);
    return 2;
  }
  if (inspect && primary_balance > balance_cap) {
    std::fprintf(stderr,
                 "FAIL: weighted primary balance %.2f exceeds cap %.2f\n",
                 primary_balance, balance_cap);
    return 2;
  }
  // A restart severs the swarm by design; otherwise every connection
  // must dial and every ping come back.
  if (connections > 0 && !restart_armed) {
    if (swarm_stats.connected != connections) {
      std::fprintf(stderr, "FAIL: idle swarm connected %lld/%d\n",
                   swarm_stats.connected, connections);
      return 2;
    }
    if (swarm_stats.pongs != swarm_stats.pings) {
      std::fprintf(stderr,
                   "FAIL: idle swarm lost %lld ping(s) (%lld sent, "
                   "%lld answered)\n",
                   swarm_stats.pings - swarm_stats.pongs, swarm_stats.pings,
                   swarm_stats.pongs);
      return 2;
    }
  }
  // The restart must complete, bring every room back from disk (not
  // fresh), and every recovered room must match its pre-crash primary.
  if (restart_armed &&
      (!restart.completed || restart.recovered < world.rooms ||
       restart.lost != 0 || restart.mismatched != 0)) {
    std::fprintf(stderr,
                 "FAIL: cold restart %s: %lld/%d room(s) recovered, %lld "
                 "lost, %lld mismatched\n",
                 restart.completed ? "completed" : "did not complete",
                 restart.recovered, world.rooms, restart.lost,
                 restart.mismatched);
    return 2;
  }
  if (storm_connections > 0 && storm_recovery_ms < 0.0) {
    std::fprintf(stderr, "FAIL: reconnect storm never recovered\n");
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace after

int main(int argc, char** argv) { return after::Main(argc, argv); }
