#ifndef AFTER_SERVE_NET_MUX_H_
#define AFTER_SERVE_NET_MUX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/net_client.h"
#include "serve/server_types.h"
#include "serve/wire.h"

namespace after {
namespace serve {

/// One persistent, multiplexed wire-protocol channel to a shard: many
/// caller threads share a single TCP connection, with requests
/// correlated to responses by the u64 id that leads every frame payload
/// (wire::PeekCorrelationId). This is the router half of the C10k
/// collapse — thousands of client connections fan into the router, and
/// the router fans them onto a handful of MuxLinks per shard instead of
/// one pooled connection per in-flight request.
///
/// Mechanics: Roundtrip() registers an id -> waiter entry, appends its
/// frame under the send lock (so frames interleave at frame granularity,
/// never mid-frame), and blocks on a condition variable. A dedicated
/// reader thread extracts frames off the connection, peeks each
/// correlation id, and completes the matching waiter; frames for ids
/// nobody waits on (a caller that timed out) are dropped. Any transport
/// failure — EOF, recv error, mid-stream garbage, a send failure, a
/// response timeout — marks the link broken() and fails every in-flight
/// waiter with kUnavailable, which is exactly the signal ShardRouter
/// uses to eject the backend and fail over.
///
/// Same error taxonomy as NetClient: kUnavailable is retryable
/// transport, kInvalidArgument is a protocol break (never retried),
/// anything else is the backend's own answer passed through.
class MuxLink {
 public:
  /// Connects (bounded by options.connect_timeout_ms); kUnavailable on
  /// failure. The returned link is immediately usable from any thread.
  static Result<std::shared_ptr<MuxLink>> Connect(
      const std::string& host, int port, const NetClientOptions& options = {});

  ~MuxLink();

  MuxLink(const MuxLink&) = delete;
  MuxLink& operator=(const MuxLink&) = delete;

  /// Sends one FriendRequest and blocks for the matching response
  /// (bounded by options.io_timeout_ms). A kNotOwner reply surfaces as a
  /// FriendResponse whose status is kNotOwner, mirroring NetClient.
  Result<FriendResponse> Call(const FriendRequest& request);

  /// Round-trips a ping frame; OK means the backend is alive and
  /// speaking the protocol.
  Status Ping();

  /// Room-ownership control plane, same contracts as NetClient:
  /// AssignRoom returns the shard's ack status; ReleaseRoom returns the
  /// room's final tick frame, encoded; RecoverRooms returns the
  /// durable-state report. Control calls multiplex over the same link
  /// as data traffic — ordering across calls is enforced by the caller
  /// (ShardRouter's migration steps each block for their ack).
  Status AssignRoom(int room, uint64_t epoch, const std::string& state,
                    bool primary = false);
  Result<std::string> ReleaseRoom(int room, uint64_t epoch);
  Result<std::vector<wire::RecoveredRoom>> RecoverRooms();

  const std::string& host() const { return host_; }
  int port() const { return port_; }

  /// True once any call failed at the transport level; the link is then
  /// dead (every future call fails fast) and should be discarded.
  bool broken() const { return broken_.load(std::memory_order_acquire); }

  /// Calls currently blocked waiting for their response — the router's
  /// cheap congestion signal for deciding when to dial an extra link.
  int inflight() const;

 private:
  struct Waiter {
    bool done = false;
    Status status;  // transport verdict; frame valid only when ok
    wire::Frame frame;
  };

  MuxLink(int fd, std::string host, int port, const NetClientOptions& opts);

  /// Registers a waiter for `id`, sends `frame_bytes`, blocks until the
  /// reader completes the waiter or the io timeout expires. Returns the
  /// raw response frame; the typed wrappers validate its type.
  Result<wire::Frame> Roundtrip(const std::string& frame_bytes, uint64_t id);

  void ReaderLoop();
  /// Marks the link broken and fails every registered waiter. Safe from
  /// any thread.
  void FailAll(const Status& status);

  int fd_ = -1;
  std::string host_;
  int port_ = 0;
  NetClientOptions options_;
  std::atomic<bool> broken_{false};
  std::atomic<uint64_t> next_id_{1};

  /// Serializes frame writes so concurrent calls interleave at frame
  /// granularity on the wire.
  std::mutex send_mutex_;

  /// Waiter table. One condition variable for the whole link: response
  /// completions are cheap broadcasts, and per-waiter cvs would buy
  /// nothing at router fan-in widths.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Waiter> waiters_;

  std::thread reader_;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_NET_MUX_H_
