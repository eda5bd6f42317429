#ifndef AFTER_SERVE_SERVER_TYPES_H_
#define AFTER_SERVE_SERVER_TYPES_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/recommender.h"

namespace after {
namespace serve {

/// One online friend-discovery query: "which users should be rendered
/// for `user` in `room` right now?" (Definition 1 at the current tick).
struct FriendRequest {
  int room = 0;
  int user = 0;
  /// Latency budget in milliseconds, measured from admission (so queue
  /// wait counts). 0 = use the server default; < 0 = no deadline.
  double deadline_ms = 0.0;
};

struct FriendResponse {
  /// OK (possibly degraded, see used_fallback), kTimeout (deadline
  /// expired while queued), kResourceExhausted (shed at admission),
  /// kNotFound / kInvalidData (bad room / user).
  Status status;
  /// recommended[w] == true => render w for the requesting user. The
  /// requesting user's own slot is always false. Empty on error.
  std::vector<bool> recommended;
  /// True when the answer came from the degradation fallback because the
  /// primary model missed the deadline or misbehaved.
  bool used_fallback = false;
  /// Tick of the room snapshot the answer was computed against.
  int tick = -1;
  /// End-to-end latency (admission -> response), milliseconds.
  double latency_ms = 0.0;
};

/// Creates the server's primary. Called exactly once, at server
/// construction; the instance must be thread_safe(), since every room
/// and worker shares it.
using RecommenderFactory = std::function<std::unique_ptr<Recommender>()>;

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_SERVER_TYPES_H_
