#ifndef AFTER_SERVE_NET_CLIENT_H_
#define AFTER_SERVE_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/server_types.h"
#include "serve/wire.h"

namespace after {
namespace serve {

/// Shared socket plumbing for the two wire-protocol clients (NetClient
/// here, MuxLink in serve/net_mux.h). Both helpers are robust against
/// the classic POSIX sharp edges: EINTR at every call site (with the
/// remaining connect budget recomputed, not restarted) and short
/// write()s (send keeps going until every byte is accepted, polling for
/// writability on EAGAIN so it also holds on nonblocking sockets).
namespace net_detail {
/// Dials host:port with a bounded nonblocking connect, then returns a
/// connected *blocking* fd with TCP_NODELAY set. kUnavailable on
/// timeout or refusal, kInvalidArgument on an unparseable address.
Result<int> DialBlocking(const std::string& host, int port,
                         double connect_timeout_ms);
/// Writes all of `bytes` to fd. kUnavailable on a hard transport error.
Status SendAllFd(int fd, std::string_view bytes);
}  // namespace net_detail

struct NetClientOptions {
  /// TCP connect budget.
  double connect_timeout_ms = 2000.0;
  /// Per-call receive budget: how long Call()/Ping() waits for the
  /// response frame before declaring the backend unreachable.
  double io_timeout_ms = 5000.0;
};

/// Synchronous client for the wire protocol (serve/wire.h): one TCP
/// connection, correlation ids checked on every response. Call() keeps
/// one request in flight; CallPipelined() bursts many length-prefixed
/// frames before reading anything back, which is how a closed-loop
/// client exercises the server's pipelining path. NOT thread-safe — use
/// one client per thread, or let ShardRouter multiplex calls over its
/// persistent per-shard links (serve/net_mux.h).
///
/// Error taxonomy, chosen so the shard router can decide retries:
///  - kUnavailable: transport-level failure (connect/send/recv error,
///    peer hung up, response timed out). The backend may be dead; the
///    call is safe to retry on another shard.
///  - kInvalidArgument: the peer broke the wire protocol. Not retried.
///  - any other code: the backend's own FriendResponse.status, passed
///    through untouched (shed/timeout/fallback semantics intact).
class NetClient {
 public:
  /// Connects (bounded by connect_timeout_ms); kUnavailable on failure.
  static Result<std::unique_ptr<NetClient>> Connect(
      const std::string& host, int port, const NetClientOptions& options = {});

  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Sends one FriendRequest and blocks for the matching response. A
  /// kNotOwner reply (partitioned serving) surfaces as a FriendResponse
  /// whose status is kNotOwner — the shard is healthy, the request just
  /// has to be re-routed to the room's current owner.
  Result<FriendResponse> Call(const FriendRequest& request);

  /// Pipelined batch: writes every request frame back-to-back on the
  /// single connection, then collects the responses in whatever order
  /// the server finishes them, matched by correlation id. One network
  /// round trip of latency for the whole burst instead of one per call.
  /// The returned vector is index-aligned with `requests`; a transport
  /// failure mid-collect fails every still-unanswered slot with
  /// kUnavailable (the whole connection is then broken()). The
  /// io_timeout_ms budget covers the entire batch.
  std::vector<Result<FriendResponse>> CallPipelined(
      const std::vector<FriendRequest>& requests);

  /// Round-trips a ping frame; OK means the backend is alive and
  /// speaking the protocol.
  Status Ping();

  const std::string& host() const { return host_; }
  int port() const { return port_; }

  /// True once any call failed at the transport level; the connection
  /// is then dead and the client should be discarded.
  bool broken() const { return broken_; }

 private:
  NetClient(int fd, std::string host, int port, const NetClientOptions& opts);

  Status SendAll(const std::string& bytes);
  /// Reads until one complete frame is extracted or the io timeout hits.
  Status ReadFrame(wire::Frame* frame);

  int fd_ = -1;
  std::string host_;
  int port_ = 0;
  NetClientOptions options_;
  uint64_t next_id_ = 1;
  std::string buffer_;  // unconsumed bytes between frames
  bool broken_ = false;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_NET_CLIENT_H_
