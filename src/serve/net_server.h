#ifndef AFTER_SERVE_NET_SERVER_H_
#define AFTER_SERVE_NET_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/metrics.h"
#include "serve/server_types.h"
#include "serve/wire.h"

namespace after {
namespace serve {

class RecommendationServer;
class ShardControl;

/// What a NetServer serves: an asynchronous request handler with the
/// same shape as RecommendationServer::Submit. The completion callback
/// may run on any thread and must be invoked exactly once. The two
/// in-repo handlers are a RecommendationServer front (a shard worker,
/// tools/serve_shard) and a ShardRouter front (tools/shard_router).
using RequestHandler = std::function<void(
    const FriendRequest&, std::function<void(const FriendResponse&)>)>;

/// Room-ownership hooks for partitioned serving (serve/shard_control.h).
/// When installed, requests for rooms `owns` rejects are answered with a
/// kNotOwner frame instead of reaching the handler, and kRoomAssign /
/// kRoomRelease control frames are dispatched to `assign` / `release`
/// (synchronously, on the reactor thread — control traffic is rare and
/// strictly ordered per connection). Without a RoomControl, control
/// frames are protocol confusion and close the connection, which is
/// exactly the pre-partitioning behavior.
struct RoomControl {
  std::function<bool(int room)> owns;
  /// The shard's latest epoch for a room (0 if never seen); echoed in
  /// kNotOwner replies so routers can order their view.
  std::function<uint64_t(int room)> epoch;
  std::function<Status(int room, uint64_t epoch, const std::string& state,
                       bool primary)>
      assign;
  std::function<Result<std::string>(int room, uint64_t epoch)> release;
  /// kRoomRecover: replay durable state (idempotent) and report what the
  /// shard hosts from disk. Optional — absent means the shard has no
  /// durability and answers an empty report.
  std::function<Result<std::vector<wire::RecoveredRoom>>()> recover;
};

struct NetServerOptions {
  /// Listen address. The default binds loopback only: the fleet is a
  /// localhost topology until there is authn on the wire.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via port() after Start().
  int port = 0;
  /// Accepted connections beyond this are closed immediately (the
  /// network-layer analogue of queue-full shedding). Raise it for C10k
  /// fronts — and raise RLIMIT_NOFILE with it.
  int max_connections = 256;
  /// Connections with no bytes in either direction for this long are
  /// closed by the reactor's idle sweep (slow-loris reaping). 0 = never:
  /// mostly-idle XR clients may legitimately sit quiet between bursts.
  double idle_timeout_ms = 0.0;
  /// Write backpressure, per connection. Above write_pause_bytes of
  /// undelivered output the reactor stops reading that connection (so a
  /// peer that pipelines requests faster than it drains responses is
  /// throttled by TCP instead of ballooning our buffers); above
  /// write_close_bytes the peer has plainly stopped reading and the
  /// connection is closed as a slow peer.
  size_t write_pause_bytes = 1u << 20;
  size_t write_close_bytes = 8u << 20;
};

/// TCP front for the serving runtime: a single-threaded edge-triggered
/// epoll reactor speaking the length-prefixed wire protocol
/// (serve/wire.h). Every socket is nonblocking; the reactor drains
/// readable connections into per-connection input buffers through one
/// bounded, reused read slab, extracts complete frames, and hands each
/// request to the RequestHandler. Responses are correlated by request
/// id, never by arrival order, so one connection can pipeline many
/// requests: handler completions (any thread) append the response frame
/// to the connection's output buffer, flush opportunistically, and wake
/// the reactor through an eventfd when the socket backs up; the reactor
/// finishes the write under EPOLLOUT. Pings are answered inline with
/// pongs.
///
/// Slow peers are handled gracefully instead of by thread exhaustion:
/// per-connection output buffers are bounded (write backpressure pauses
/// reads, then disconnects — see NetServerOptions), idle connections
/// are reaped on a timeout, and the connection count is capped; all of
/// it surfaces in NetFrontMetrics (serve/metrics.h).
///
/// A malformed frame closes the connection — framing errors are
/// unrecoverable mid-stream — while a well-framed but undecodable
/// request payload is answered with a kInvalidArgument response so the
/// client can tell what it sent.
///
/// The full degradation ladder of the in-process server travels the
/// wire unchanged: shed/timeout/fallback surface as the response's
/// status code + used_fallback flag (docs/serving.md).
class NetServer {
 public:
  NetServer(RequestHandler handler, const NetServerOptions& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and spawns the reactor thread. kUnavailable when
  /// the address cannot be bound.
  Status Start();

  /// The bound port (resolves port 0 to the actual ephemeral port).
  /// Valid after a successful Start().
  int port() const { return port_; }
  const std::string& host() const { return options_.host; }

  /// Stops the reactor, closes every connection, joins the thread.
  /// In-flight handler completions are safely dropped. Idempotent.
  void Shutdown();

  /// Full network-front counters (serve/metrics.h).
  const NetFrontMetrics& metrics() const { return *metrics_; }

  int64_t connections_accepted() const {
    return metrics_->connections_accepted.load(std::memory_order_relaxed);
  }
  int64_t frames_rejected() const {
    return metrics_->frames_rejected.load(std::memory_order_relaxed);
  }
  int64_t not_owner_replies() const {
    return metrics_->not_owner_replies.load(std::memory_order_relaxed);
  }
  int64_t control_frames() const {
    return metrics_->control_frames.load(std::memory_order_relaxed);
  }

  /// Adapter: serve an in-process RecommendationServer (which must
  /// outlive the NetServer).
  static RequestHandler HandlerFor(RecommendationServer* server);

  /// Installs the ownership hooks. Call before Start(); the control
  /// object must outlive the NetServer.
  void set_room_control(RoomControl control);

  /// Adapter: ownership hooks backed by a ShardControl (which must
  /// outlive the NetServer).
  static RoomControl ControlFor(ShardControl* control);

 private:
  struct Connection;
  struct Wakeup;

  void ReactorLoop();
  void AcceptReady();
  void HandleReadable(const std::shared_ptr<Connection>& connection);
  void HandleWritable(const std::shared_ptr<Connection>& connection);
  void ProcessDirty();
  void SweepIdle();
  /// Dispatches every complete frame in the connection's input buffer.
  /// Returns false when the connection must close (framing or protocol
  /// error).
  bool DrainFrames(const std::shared_ptr<Connection>& connection);
  /// Removes the connection from the reactor (epoll + map) and shuts the
  /// socket down; pending output gets one last best-effort flush. Safe
  /// to call twice. Reactor thread only.
  void CloseConnection(const std::shared_ptr<Connection>& connection);
  /// Re-arms the connection's epoll interest set to match its state
  /// (EPOLLOUT while output is pending, EPOLLIN unless reads are
  /// paused). Reactor thread only; caller holds the connection mutex.
  void UpdateInterestLocked(const std::shared_ptr<Connection>& connection);
  /// Appends bytes to the connection's output buffer with an
  /// opportunistic direct send; wakes the reactor when the socket backs
  /// up. Any thread. Static on purpose: handler completions capture
  /// only the connection, so a completion that outlives Shutdown()
  /// cannot dangle on the server.
  static void EnqueueOutput(const std::shared_ptr<Connection>& connection,
                            const std::string& bytes);
  /// Monotonic milliseconds for activity stamps and the idle sweep.
  int64_t NowMs() const;

  RequestHandler handler_;
  RoomControl room_control_;  // empty hooks = partitioning disabled
  NetServerOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread reactor_thread_;

  /// Reactor-thread state: live connections by fd, the bounded read
  /// slab reused across every connection, and connections closed this
  /// event batch (their shared_ptrs — and so their fds — are held to
  /// the end of the batch so a stale event can never hit a recycled
  /// descriptor).
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  std::vector<char> read_slab_;
  std::vector<std::shared_ptr<Connection>> dying_;
  int64_t last_idle_sweep_ms_ = 0;

  /// Shared with every connection (weakly) so handler completions can
  /// wake the reactor even while the server is tearing down.
  std::shared_ptr<Wakeup> wakeup_;
  std::shared_ptr<NetFrontMetrics> metrics_;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_NET_SERVER_H_
