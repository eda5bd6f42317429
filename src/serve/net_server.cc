#include "serve/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "serve/server.h"
#include "serve/shard_control.h"
#include "serve/wire.h"

namespace after {
namespace serve {

namespace {

/// Bounded read slab shared by every connection on the reactor: one
/// recv lands here, then complete frames are peeled off into the
/// per-connection accumulator. 64 KiB keeps the reactor's working set
/// constant no matter how many connections are open.
constexpr size_t kReadSlabBytes = 64 * 1024;
/// Events drained per epoll_wait call.
constexpr int kMaxEvents = 128;
/// Reactor wakeup latency bound when nothing is happening and no idle
/// sweep is configured (Shutdown() also writes the eventfd, so this is
/// belt-and-braces, not the shutdown path).
constexpr int kIdleWaitMs = 250;
/// Compaction threshold for the consumed prefix of an output buffer.
constexpr size_t kCompactBytes = 64 * 1024;

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// The reactor's doorbell, shared (weakly) with every connection:
/// handler completions that could not finish their write push the
/// connection onto `dirty` and ring the eventfd. Owning it by
/// shared_ptr means a completion that races Shutdown() still has a
/// valid object to (no-op) ring.
struct NetServer::Wakeup {
  int fd = -1;  // eventfd
  std::mutex mutex;
  std::vector<std::shared_ptr<Connection>> dirty;

  ~Wakeup() {
    if (fd >= 0) ::close(fd);
  }

  void Wake() {
    uint64_t one = 1;
    // EAGAIN just means a wake is already pending; either way the
    // reactor will run.
    (void)!::write(fd, &one, sizeof(one));
  }
};

/// One accepted client on the reactor. The reactor thread owns the
/// receive side (`inbuf`, `read_paused`, `armed`, `reaped`); the output
/// buffer and `closed` tombstone are guarded by `mutex` because handler
/// completions write from arbitrary threads. Once `closed` is set, late
/// completions become no-ops instead of writing to a dead descriptor.
/// The fd is closed by the destructor, which runs only after the last
/// in-flight completion releases its shared_ptr — so the descriptor can
/// never be reused under a writer.
struct NetServer::Connection {
  int fd = -1;
  std::weak_ptr<Wakeup> wakeup;
  std::shared_ptr<NetFrontMetrics> metrics;
  size_t write_close_bytes = 0;

  // Reactor-thread-only state.
  std::string inbuf;
  bool read_paused = false;
  bool reaped = false;
  uint32_t armed = 0;  // current epoll interest set

  // Cross-thread state.
  std::mutex mutex;
  std::string outbuf;     // guarded by mutex
  size_t out_offset = 0;  // consumed prefix of outbuf; guarded by mutex
  bool closed = false;    // guarded by mutex
  std::atomic<bool> queued{false};  // on the reactor's dirty list
  std::atomic<int64_t> last_activity_ms{0};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  size_t PendingLocked() const { return outbuf.size() - out_offset; }

  /// Sends as much buffered output as the socket accepts right now.
  /// Caller holds `mutex`. A hard send error sets the closed tombstone;
  /// the reactor finishes the cleanup on its next pass.
  void FlushLocked() {
    while (out_offset < outbuf.size()) {
      const ssize_t n = ::send(fd, outbuf.data() + out_offset,
                               outbuf.size() - out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        closed = true;
        ::shutdown(fd, SHUT_RDWR);
        break;
      }
      out_offset += static_cast<size_t>(n);
      if (metrics)
        metrics->bytes_out.fetch_add(n, std::memory_order_relaxed);
      last_activity_ms.store(SteadyNowMs(), std::memory_order_relaxed);
    }
    if (out_offset == outbuf.size()) {
      outbuf.clear();
      out_offset = 0;
    } else if (out_offset > kCompactBytes) {
      outbuf.erase(0, out_offset);
      out_offset = 0;
    }
  }
};

NetServer::NetServer(RequestHandler handler, const NetServerOptions& options)
    : handler_(std::move(handler)),
      options_(options),
      metrics_(std::make_shared<NetFrontMetrics>()) {
  AFTER_CHECK(handler_ != nullptr);
}

NetServer::~NetServer() { Shutdown(); }

Status NetServer::Start() {
  AFTER_CHECK_EQ(listen_fd_, -1);  // Start() is once-only
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return UnavailableError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("bad listen address: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::ostringstream oss;
    oss << "bind " << options_.host << ":" << options_.port << ": "
        << std::strerror(errno);
    ::close(fd);
    return UnavailableError(oss.str());
  }
  // A deep accept queue: a burst of dials that lands while the reactor
  // is busy waits in the kernel instead of having its SYNs dropped (each
  // dropped SYN costs the dialer a 1 s retransmit). The kernel caps the
  // value at net.core.somaxconn. Not SOMAXCONN: older glibc headers
  // define it as 128.
  constexpr int kListenBacklog = 4096;
  if (::listen(fd, kListenBacklog) != 0) {
    const Status status =
        UnavailableError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const Status status =
        UnavailableError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  SetNonBlocking(fd);

  const int epfd = ::epoll_create1(0);
  if (epfd < 0) {
    const Status status =
        UnavailableError(std::string("epoll_create1: ") +
                         std::strerror(errno));
    ::close(fd);
    return status;
  }
  auto wakeup = std::make_shared<Wakeup>();
  wakeup->fd = ::eventfd(0, EFD_NONBLOCK);
  if (wakeup->fd < 0) {
    const Status status =
        UnavailableError(std::string("eventfd: ") + std::strerror(errno));
    ::close(epfd);
    ::close(fd);
    return status;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered for the listener and doorbell
  ev.data.fd = fd;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  ev.data.fd = wakeup->fd;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, wakeup->fd, &ev);

  listen_fd_ = fd;
  epoll_fd_ = epfd;
  wakeup_ = std::move(wakeup);
  port_ = ntohs(bound.sin_port);
  read_slab_.resize(kReadSlabBytes);
  last_idle_sweep_ms_ = SteadyNowMs();
  reactor_thread_ = std::thread(&NetServer::ReactorLoop, this);
  return OkStatus();
}

int64_t NetServer::NowMs() const { return SteadyNowMs(); }

void NetServer::ReactorLoop() {
  const bool sweep_idle = options_.idle_timeout_ms > 0.0;
  const int64_t sweep_interval_ms =
      sweep_idle
          ? std::max<int64_t>(
                10, static_cast<int64_t>(options_.idle_timeout_ms / 4.0))
          : kIdleWaitMs;
  epoll_event events[kMaxEvents];
  while (true) {
    const int wait_ms =
        sweep_idle ? static_cast<int>(sweep_interval_ms) : kIdleWaitMs;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, wait_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const uint32_t triggered = events[i].events;
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (wakeup_ && fd == wakeup_->fd) {
        uint64_t drained = 0;
        while (::read(wakeup_->fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      std::shared_ptr<Connection> connection = it->second;
      if (triggered & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(connection);
        continue;
      }
      // Flush before reading: draining output first frees backpressure
      // so the read below can resume a paused connection in one pass.
      if (triggered & EPOLLOUT) HandleWritable(connection);
      if (triggered & (EPOLLIN | EPOLLRDHUP)) HandleReadable(connection);
    }
    ProcessDirty();
    if (sweep_idle && NowMs() - last_idle_sweep_ms_ >= sweep_interval_ms)
      SweepIdle();
    // Fds closed this batch were pinned so stale events in the same
    // batch could never hit a recycled descriptor; release them now.
    dying_.clear();
    if (stop_.load(std::memory_order_acquire)) break;
  }
  // Teardown: break every connection (clients see EOF), then drop the
  // reactor's references. Descriptors die with the last shared_ptr, so
  // a late handler completion can never write into a recycled fd.
  for (auto& [fd, connection] : connections_) {
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->FlushLocked();
    connection->closed = true;
    connection->reaped = true;
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  connections_.clear();
  dying_.clear();
  metrics_->NoteOpenConnections(0);
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

void NetServer::AcceptReady() {
  while (true) {
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient accept error
    }
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      metrics_->connections_rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(client_fd);  // network-layer shed
      continue;
    }
    SetNonBlocking(client_fd);
    const int one = 1;
    ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection = std::make_shared<Connection>();
    connection->fd = client_fd;
    connection->wakeup = wakeup_;
    connection->metrics = metrics_;
    connection->write_close_bytes = options_.write_close_bytes;
    connection->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
    // Count before the connection is armed: a served response must imply
    // the connection is already visible in connections_accepted().
    metrics_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    connection->armed = EPOLLIN | EPOLLRDHUP | EPOLLET;
    epoll_event ev{};
    ev.events = connection->armed;
    ev.data.fd = client_fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client_fd, &ev) != 0) {
      continue;  // fd dies with the shared_ptr
    }
    connections_[client_fd] = std::move(connection);
    metrics_->NoteOpenConnections(
        static_cast<int32_t>(connections_.size()));
  }
}

void NetServer::UpdateInterestLocked(
    const std::shared_ptr<Connection>& connection) {
  uint32_t want = EPOLLET;
  if (!connection->read_paused) want |= EPOLLIN | EPOLLRDHUP;
  if (connection->PendingLocked() > 0) want |= EPOLLOUT;
  if (want == connection->armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = connection->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &ev) == 0)
    connection->armed = want;
}

void NetServer::HandleReadable(
    const std::shared_ptr<Connection>& connection) {
  if (connection->reaped || connection->read_paused) return;
  while (true) {
    const ssize_t n =
        ::recv(connection->fd, read_slab_.data(), read_slab_.size(), 0);
    if (n == 0) {  // peer closed
      CloseConnection(connection);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      CloseConnection(connection);
      return;
    }
    metrics_->bytes_in.fetch_add(n, std::memory_order_relaxed);
    connection->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
    connection->inbuf.append(read_slab_.data(), static_cast<size_t>(n));
    if (!DrainFrames(connection)) {
      CloseConnection(connection);
      return;
    }
    // Write backpressure: if this batch of requests piled up more
    // output than the peer is draining, stop reading — TCP then pushes
    // back on the peer instead of our buffers growing without bound.
    bool pause = false;
    {
      std::lock_guard<std::mutex> lock(connection->mutex);
      if (connection->closed) {
        // A completion hit a dead socket while we were reading.
        break;
      }
      pause = connection->PendingLocked() >= options_.write_pause_bytes;
      if (pause) {
        connection->read_paused = true;
        UpdateInterestLocked(connection);
      }
    }
    if (pause) return;
  }
  CloseConnection(connection);
}

void NetServer::HandleWritable(
    const std::shared_ptr<Connection>& connection) {
  if (connection->reaped) return;
  bool close = false;
  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->FlushLocked();
    close = connection->closed;
    if (!close) {
      if (connection->read_paused &&
          connection->PendingLocked() <= options_.write_pause_bytes / 2) {
        connection->read_paused = false;
        resume = true;
      }
      UpdateInterestLocked(connection);
    }
  }
  if (close) {
    CloseConnection(connection);
    return;
  }
  // Edge-triggered reads swallowed while paused: drain what buffered.
  if (resume) HandleReadable(connection);
}

void NetServer::ProcessDirty() {
  std::vector<std::shared_ptr<Connection>> batch;
  {
    std::lock_guard<std::mutex> lock(wakeup_->mutex);
    batch.swap(wakeup_->dirty);
  }
  for (const std::shared_ptr<Connection>& connection : batch) {
    // Clear the flag before flushing: an append racing this pass either
    // lands before our flush (and is sent) or re-rings the doorbell.
    connection->queued.store(false, std::memory_order_release);
    if (connection->reaped) continue;
    auto it = connections_.find(connection->fd);
    if (it == connections_.end() || it->second != connection) continue;
    bool close = false;
    bool resume = false;
    {
      std::lock_guard<std::mutex> lock(connection->mutex);
      connection->FlushLocked();
      close = connection->closed;
      if (!close) {
        if (!connection->read_paused &&
            connection->PendingLocked() >= options_.write_pause_bytes) {
          connection->read_paused = true;
        } else if (connection->read_paused &&
                   connection->PendingLocked() <=
                       options_.write_pause_bytes / 2) {
          connection->read_paused = false;
          resume = true;
        }
        UpdateInterestLocked(connection);
      }
    }
    if (close) {
      CloseConnection(connection);
    } else if (resume) {
      HandleReadable(connection);
    }
  }
}

void NetServer::SweepIdle() {
  const int64_t now = NowMs();
  last_idle_sweep_ms_ = now;
  const int64_t cutoff =
      now - static_cast<int64_t>(options_.idle_timeout_ms);
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& [fd, connection] : connections_) {
    if (connection->last_activity_ms.load(std::memory_order_relaxed) <
        cutoff)
      idle.push_back(connection);
  }
  for (const std::shared_ptr<Connection>& connection : idle) {
    metrics_->idle_closed.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(connection);
  }
}

void NetServer::CloseConnection(
    const std::shared_ptr<Connection>& connection) {
  if (connection->reaped) return;
  connection->reaped = true;
  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    // Best-effort final flush so responses to earlier pipelined frames
    // still make it out before a later frame's error closes the stream.
    connection->FlushLocked();
    connection->closed = true;
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
  connections_.erase(connection->fd);
  metrics_->NoteOpenConnections(static_cast<int32_t>(connections_.size()));
  // Pin the fd to the end of this event batch: a stale event already in
  // the drained array must never resolve to a recycled descriptor.
  dying_.push_back(connection);
}

void NetServer::EnqueueOutput(const std::shared_ptr<Connection>& connection,
                              const std::string& bytes) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    if (connection->closed) return;
    connection->outbuf.append(bytes);
    connection->FlushLocked();  // opportunistic: usually completes here
    if (connection->closed) {
      wake = true;  // reactor must reap the tombstoned connection
    } else if (connection->PendingLocked() > 0) {
      wake = true;
      if (connection->PendingLocked() > connection->write_close_bytes) {
        // The peer stopped reading responses entirely; cut it loose
        // rather than buffer without bound.
        if (connection->metrics)
          connection->metrics->backpressure_closed.fetch_add(
              1, std::memory_order_relaxed);
        connection->closed = true;
        ::shutdown(connection->fd, SHUT_RDWR);
      }
    }
    connection->last_activity_ms.store(SteadyNowMs(),
                                       std::memory_order_relaxed);
  }
  if (!wake) return;
  if (connection->queued.exchange(true, std::memory_order_acq_rel)) return;
  std::shared_ptr<Wakeup> wakeup = connection->wakeup.lock();
  if (wakeup == nullptr) {
    connection->queued.store(false, std::memory_order_release);
    return;  // server already gone; the tombstone did its job
  }
  {
    std::lock_guard<std::mutex> lock(wakeup->mutex);
    wakeup->dirty.push_back(connection);
  }
  wakeup->Wake();
}

bool NetServer::DrainFrames(const std::shared_ptr<Connection>& connection) {
  while (true) {
    wire::Frame frame;
    size_t consumed = 0;
    const Status framing =
        wire::ExtractFrame(connection->inbuf, &frame, &consumed);
    if (!framing.ok()) {
      // The stream is unframeable from here on; drop the connection.
      metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (consumed == 0) return true;  // incomplete; read more
    connection->inbuf.erase(0, consumed);
    metrics_->frames_in.fetch_add(1, std::memory_order_relaxed);

    switch (frame.type) {
      case wire::MessageType::kPing: {
        auto ping = wire::DecodePingPong(frame.payload);
        if (!ping.ok()) {
          metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        std::string pong;
        wire::AppendPongFrame(ping.value(), &pong);
        EnqueueOutput(connection, pong);
        break;
      }
      case wire::MessageType::kRequest: {
        auto decoded = wire::DecodeRequest(frame.payload);
        if (!decoded.ok()) {
          // Framing was sound, so answer on-protocol: echo the id if
          // the payload got that far, and say what was wrong.
          metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
          uint64_t id = 0;
          wire::PeekCorrelationId(frame.payload, &id);
          FriendResponse response;
          response.status = decoded.status();
          std::string out;
          wire::AppendResponseFrame(id, response, &out);
          EnqueueOutput(connection, out);
          break;
        }
        const uint64_t id = decoded.value().id;
        const int room = decoded.value().request.room;
        if (room_control_.owns && !room_control_.owns(room)) {
          // Partitioned serving: this shard is healthy but not
          // responsible for the room; tell the caller to re-route.
          metrics_->not_owner_replies.fetch_add(1,
                                                std::memory_order_relaxed);
          const uint64_t epoch =
              room_control_.epoch ? room_control_.epoch(room) : 0;
          std::string out;
          wire::AppendNotOwnerFrame(id, room, epoch, &out);
          EnqueueOutput(connection, out);
          break;
        }
        handler_(decoded.value().request,
                 [connection, id](const FriendResponse& response) {
                   std::string out;
                   wire::AppendResponseFrame(id, response, &out);
                   EnqueueOutput(connection, out);
                 });
        break;
      }
      case wire::MessageType::kRoomAssign: {
        if (!room_control_.assign) {
          // No control plane installed: ownership frames are protocol
          // confusion, exactly like a stray response.
          metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        auto decoded = wire::DecodeRoomAssign(frame.payload);
        if (!decoded.ok()) {
          metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        metrics_->control_frames.fetch_add(1, std::memory_order_relaxed);
        const wire::RoomAssignFrame& grant = decoded.value();
        // Synchronous on the reactor thread: control traffic is rare
        // and per-connection ordering is exactly what the router's
        // migration sequencing relies on.
        FriendResponse ack;
        ack.status = room_control_.assign(grant.room, grant.epoch,
                                          grant.state, grant.primary);
        std::string out;
        wire::AppendResponseFrame(grant.id, ack, &out);
        EnqueueOutput(connection, out);
        break;
      }
      case wire::MessageType::kRoomRecover: {
        if (!room_control_.owns && !room_control_.assign) {
          // No control plane at all: recovery frames are protocol
          // confusion, like any other ownership frame.
          metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        auto decoded = wire::DecodeRoomRecoverQuery(frame.payload);
        if (!decoded.ok()) {
          metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        metrics_->control_frames.fetch_add(1, std::memory_order_relaxed);
        const uint64_t query_id = decoded.value();
        // A shard without durability answers an empty report: it hosts
        // nothing from disk, which is true.
        Result<std::vector<wire::RecoveredRoom>> report{
            std::vector<wire::RecoveredRoom>{}};
        if (room_control_.recover) report = room_control_.recover();
        std::string out;
        if (report.ok()) {
          wire::AppendRoomRecoverReportFrame(query_id, report.value(), &out);
        } else {
          FriendResponse nack;
          nack.status = report.status();
          wire::AppendResponseFrame(query_id, nack, &out);
        }
        EnqueueOutput(connection, out);
        break;
      }
      case wire::MessageType::kRoomRelease: {
        if (!room_control_.release) {
          metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        auto decoded = wire::DecodeRoomRelease(frame.payload);
        if (!decoded.ok()) {
          metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        metrics_->control_frames.fetch_add(1, std::memory_order_relaxed);
        const wire::RoomReleaseFrame& revoke = decoded.value();
        Result<std::string> state =
            room_control_.release(revoke.room, revoke.epoch);
        std::string out;
        if (state.ok()) {
          // The release ack is a kRoomAssign frame carrying the final
          // state, so the router can forward it to the new owner (the
          // primary flag is meaningless in this direction: 0).
          wire::AppendRoomAssignFrame(revoke.id, revoke.room, revoke.epoch,
                                      /*primary=*/false, state.value(),
                                      &out);
        } else {
          FriendResponse nack;
          nack.status = state.status();
          wire::AppendResponseFrame(revoke.id, nack, &out);
        }
        EnqueueOutput(connection, out);
        break;
      }
      case wire::MessageType::kResponse:
      case wire::MessageType::kPong:
      case wire::MessageType::kNotOwner:
        // Clients never originate these; treat as protocol confusion.
        metrics_->frames_rejected.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
  }
}

void NetServer::Shutdown() {
  if (stop_.exchange(true)) {
    // Second caller (destructor after explicit Shutdown): nothing left.
    return;
  }
  if (wakeup_) wakeup_->Wake();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // In-flight handler completions may still hold shared_ptrs; their
  // writes hit the `closed` tombstone and the fds die with the last ref.
}

RequestHandler NetServer::HandlerFor(RecommendationServer* server) {
  AFTER_CHECK(server != nullptr);
  return [server](const FriendRequest& request,
                  std::function<void(const FriendResponse&)> done) {
    server->Submit(request, std::move(done));
  };
}

void NetServer::set_room_control(RoomControl control) {
  AFTER_CHECK_EQ(listen_fd_, -1);  // install before Start()
  room_control_ = std::move(control);
}

RoomControl NetServer::ControlFor(ShardControl* control) {
  AFTER_CHECK(control != nullptr);
  RoomControl hooks;
  hooks.owns = [control](int room) { return control->Owns(room); };
  hooks.epoch = [control](int room) { return control->EpochFor(room); };
  hooks.assign = [control](int room, uint64_t epoch,
                           const std::string& state, bool primary) {
    return control->Assign(room, epoch, state, primary);
  };
  hooks.release = [control](int room, uint64_t epoch) {
    return control->Release(room, epoch);
  };
  hooks.recover = [control] { return control->RecoverFromDurable(); };
  return hooks;
}

}  // namespace serve
}  // namespace after
