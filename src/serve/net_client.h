#ifndef AFTER_SERVE_NET_CLIENT_H_
#define AFTER_SERVE_NET_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/server_types.h"
#include "serve/wire.h"

namespace after {
namespace serve {

/// Socket plumbing under NetClient, also used by callers that dial raw
/// sockets. Both helpers are robust against the classic POSIX sharp
/// edges: EINTR at every call site (with the remaining connect budget
/// recomputed, not restarted) and short write()s (send keeps going
/// until every byte is accepted, polling for writability on EAGAIN so
/// it also holds on nonblocking sockets).
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
  /// Per-call receive budget: how long a call (a whole pipelined burst
  /// included) waits for its responses before declaring the backend
  /// unreachable.
  double io_timeout_ms = 5000.0;
};

/// The client of the wire protocol (serve/wire.h): one persistent TCP
/// connection that any number of caller threads share, with requests
/// correlated to responses by the u64 id that leads every frame payload
/// (wire::PeekCorrelationId). The shard router keeps one per shard, so
/// thousands of client connections into the router fan onto one
/// shard-side socket each; a load client keeps one per thread and
/// bursts CallPipelined() through it.
///
/// Mechanics: a call registers an id -> waiter entry per frame, appends
/// its frames under the send lock (so concurrent calls interleave at
/// frame granularity, never mid-frame), and blocks on a condition
/// variable. A dedicated reader thread extracts frames off the
/// connection, peeks each correlation id, and completes the matching
/// waiter; frames for ids nobody waits on (a caller that timed out, a
/// stray pong) are dropped. Any transport failure — EOF, recv error,
/// mid-stream garbage, a send failure, a response timeout — marks the
/// client broken() and fails every in-flight waiter, which is exactly
/// the signal ShardRouter uses to eject the backend and fail over.
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
  /// Connects (bounded by options.connect_timeout_ms); kUnavailable on
  /// failure. The returned client is immediately usable from any
  /// thread.
  static Result<std::unique_ptr<NetClient>> Connect(
      const std::string& host, int port, const NetClientOptions& options = {});

  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Sends one FriendRequest and blocks for the matching response
  /// (bounded by options.io_timeout_ms). A kNotOwner reply (partitioned
  /// serving) surfaces as a FriendResponse whose status is kNotOwner —
  /// the shard is healthy, the request just has to be re-routed to the
  /// room's current owner.
  Result<FriendResponse> Call(const FriendRequest& request);

  /// Pipelined batch: writes every request frame back to back in one
  /// send, then waits for the responses in whatever order the server
  /// finishes them. One network round trip of latency for the whole
  /// burst instead of one per call. The returned vector is
  /// index-aligned with `requests`; one io_timeout_ms budget covers the
  /// whole burst, and when the connection breaks every still-unanswered
  /// slot fails with its error.
  std::vector<Result<FriendResponse>> CallPipelined(
      const std::vector<FriendRequest>& requests);

  /// Round-trips a ping frame; OK means the backend is alive and
  /// speaking the protocol.
  Status Ping();

  /// Room-ownership control plane: AssignRoom returns the shard's ack
  /// status; ReleaseRoom returns the room's final tick frame, encoded;
  /// RecoverRooms returns the durable-state report. Control calls share
  /// the connection with data traffic — ordering across calls is
  /// enforced by the caller (ShardRouter's migration steps each block
  /// for their ack).
  Status AssignRoom(int room, uint64_t epoch, const std::string& state,
                    bool primary = false);
  Result<std::string> ReleaseRoom(int room, uint64_t epoch);
  Result<std::vector<wire::RecoveredRoom>> RecoverRooms();

  /// True once any call failed at the transport level or the peer broke
  /// the protocol; the connection is then dead (every future call fails
  /// fast) and the client should be discarded.
  bool broken() const { return broken_.load(std::memory_order_acquire); }

 private:
  struct Waiter {
    /// The calling thread's, notified (under mutex_) when this waiter
    /// completes, so a response wakes its own caller and no other.
    std::condition_variable* wake = nullptr;
    bool done = false;
    Status status;  // transport verdict; frame valid only when ok
    wire::Frame frame;
  };

  NetClient(int fd, const NetClientOptions& options);

  /// Registers a waiter for each id in [first_id, first_id + count),
  /// sends `frames` (theirs, back to back) in one write, and blocks
  /// until the reader completes every waiter or io_timeout_ms runs out.
  /// Moves waiter i into out[i]: its frame when answered, else the
  /// error that broke the connection.
  void Roundtrip(std::string_view frames, uint64_t first_id, size_t count,
                 Waiter* out);

  /// Decodes a reply frame of `type` with `decode`. A frame of another
  /// type, or a payload that does not decode, is a protocol break: the
  /// client is marked broken and the error returned.
  template <typename T>
  Result<T> Expect(const wire::Frame& frame, wire::MessageType type,
                   Result<T> (*decode)(std::string_view));
  /// A call's answer: a kResponse frame's FriendResponse, or a kNotOwner
  /// frame as a FriendResponse whose status is kNotOwner.
  Result<FriendResponse> Answer(Waiter& waiter);
  /// The status a plain kResponse reply carries: a control call's ack,
  /// or its refusal.
  Status AckStatus(const wire::Frame& frame);

  void ReaderLoop();
  /// Marks the client broken, fails every registered waiter with
  /// `status`, then shuts the socket down. Safe from any thread.
  void FailAll(const Status& status);

  int fd_ = -1;
  NetClientOptions options_;
  std::atomic<bool> broken_{false};
  std::atomic<uint64_t> next_id_{1};

  /// Serializes frame writes so concurrent calls interleave at frame
  /// granularity on the wire.
  std::mutex send_mutex_;

  /// Waiter table. Each call waits on its own condition variable: the
  /// router funnels every thread that reaches a shard onto this one
  /// client, and a broadcast per response would wake all of them.
  std::mutex mutex_;
  std::unordered_map<uint64_t, Waiter> waiters_;

  std::thread reader_;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_NET_CLIENT_H_
