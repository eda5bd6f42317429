#include "serve/net_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "common/timer.h"

namespace after {
namespace serve {

namespace {

Status Transport(const std::string& what, int saved_errno) {
  std::ostringstream oss;
  oss << what;
  if (saved_errno != 0) oss << ": " << std::strerror(saved_errno);
  return UnavailableError(oss.str());
}

}  // namespace

namespace net_detail {

Result<int> DialBlocking(const std::string& host, int port,
                         double connect_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Transport("socket", errno);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("bad backend address: " + host);
  }

  // Non-blocking connect so the timeout is enforceable, then back to
  // blocking for the simple send path.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const int saved = errno;
    ::close(fd);
    std::ostringstream oss;
    oss << "connect " << host << ":" << port;
    return Transport(oss.str(), saved);
  }
  if (rc != 0) {
    // Wait for writability under the remaining budget. A signal can
    // interrupt poll at any time; retry with the budget recomputed so
    // EINTR storms neither extend nor skip the timeout.
    const Deadline deadline = Deadline::ExpiresIn(connect_timeout_ms);
    int ready = 0;
    while (true) {
      const double remaining_ms = deadline.RemainingMs();
      if (remaining_ms <= 0.0) {
        ready = 0;  // timed out
        break;
      }
      pollfd pfd{fd, POLLOUT, 0};
      ready = ::poll(&pfd, 1, 1 + static_cast<int>(remaining_ms));
      if (ready < 0 && errno == EINTR) continue;
      break;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (ready > 0) ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (ready <= 0 || soerr != 0) {
      ::close(fd);
      std::ostringstream oss;
      oss << "connect " << host << ":" << port
          << (ready <= 0 ? ": timed out" : "");
      return Transport(oss.str(), ready <= 0 ? 0 : soerr);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SendAllFd(int fd, std::string_view bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + offset,
                             bytes.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Caller handed us a nonblocking fd with a full socket buffer;
        // wait for writability instead of spinning or failing.
        pollfd pfd{fd, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, -1);
        if (ready < 0 && errno != EINTR) return Transport("poll", errno);
        continue;
      }
      return Transport("send", errno);
    }
    offset += static_cast<size_t>(n);
  }
  return OkStatus();
}

}  // namespace net_detail

NetClient::NetClient(int fd, std::string host, int port,
                     const NetClientOptions& options)
    : fd_(fd), host_(std::move(host)), port_(port), options_(options) {}

NetClient::~NetClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<NetClient>> NetClient::Connect(
    const std::string& host, int port, const NetClientOptions& options) {
  Result<int> fd =
      net_detail::DialBlocking(host, port, options.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<NetClient>(
      new NetClient(fd.value(), host, port, options));
}

Status NetClient::SendAll(const std::string& bytes) {
  const Status status = net_detail::SendAllFd(fd_, bytes);
  if (!status.ok()) broken_ = true;
  return status;
}

Status NetClient::ReadFrame(wire::Frame* frame) {
  const Deadline deadline = Deadline::ExpiresIn(options_.io_timeout_ms);
  char chunk[16384];
  while (true) {
    size_t consumed = 0;
    const Status framing = wire::ExtractFrame(buffer_, frame, &consumed);
    if (!framing.ok()) {
      broken_ = true;  // mid-stream garbage is unrecoverable
      return framing;
    }
    if (consumed > 0) {
      buffer_.erase(0, consumed);
      return OkStatus();
    }
    const double remaining_ms = deadline.RemainingMs();
    if (remaining_ms <= 0.0) {
      broken_ = true;
      return Transport("response timed out", 0);
    }
    // Short poll slices so a caller-side deadline never overshoots by
    // more than ~50 ms.
    const int wait_ms =
        1 + static_cast<int>(std::min(remaining_ms, 50.0));
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0 && errno != EINTR) {
      broken_ = true;
      return Transport("poll", errno);
    }
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      broken_ = true;
      return Transport("peer closed the connection", 0);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      broken_ = true;
      return Transport("recv", errno);
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<FriendResponse> NetClient::Call(const FriendRequest& request) {
  if (broken_) return Transport("connection already broken", 0);
  const uint64_t id = next_id_++;
  std::string out;
  wire::AppendRequestFrame(id, request, &out);
  AFTER_RETURN_IF_ERROR(SendAll(out));

  // One call in flight at a time, but tolerate stray pongs between
  // frames (a pooled connection may have a health probe's answer queued).
  while (true) {
    wire::Frame frame;
    AFTER_RETURN_IF_ERROR(ReadFrame(&frame));
    if (frame.type == wire::MessageType::kPong) continue;
    if (frame.type == wire::MessageType::kNotOwner) {
      auto not_owner = wire::DecodeNotOwner(frame.payload);
      if (!not_owner.ok()) {
        broken_ = true;
        return not_owner.status();
      }
      if (not_owner.value().id != id) continue;  // stale; skip it
      FriendResponse response;
      std::ostringstream oss;
      oss << "shard does not own room " << not_owner.value().room
          << " (epoch " << not_owner.value().epoch << ")";
      response.status = NotOwnerError(oss.str());
      return response;
    }
    if (frame.type != wire::MessageType::kResponse) {
      broken_ = true;
      return InvalidArgumentError("wire: unexpected frame type from server");
    }
    auto decoded = wire::DecodeResponse(frame.payload);
    if (!decoded.ok()) {
      broken_ = true;
      return decoded.status();
    }
    if (decoded.value().id != id) {
      // A response to a call we gave up on earlier; skip it.
      continue;
    }
    return std::move(decoded).value().response;
  }
}

std::vector<Result<FriendResponse>> NetClient::CallPipelined(
    const std::vector<FriendRequest>& requests) {
  std::vector<Result<FriendResponse>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i)
    results.emplace_back(Transport("pipelined call unanswered", 0));
  if (requests.empty()) return results;
  if (broken_) return results;

  // Phase 1: one contiguous burst of frames, one send. The server
  // answers in completion order, not arrival order, so no round trip
  // gates the next frame going out.
  std::unordered_map<uint64_t, size_t> slot_for_id;
  slot_for_id.reserve(requests.size());
  std::string burst;
  for (size_t i = 0; i < requests.size(); ++i) {
    const uint64_t id = next_id_++;
    slot_for_id.emplace(id, i);
    wire::AppendRequestFrame(id, requests[i], &burst);
  }
  const Status sent = SendAll(burst);
  if (!sent.ok()) {
    for (auto& result : results) result = sent;
    return results;
  }

  // Phase 2: collect until every slot is answered. ReadFrame enforces
  // the io timeout per read; a transport failure leaves the remaining
  // slots holding the error.
  size_t outstanding = requests.size();
  while (outstanding > 0) {
    wire::Frame frame;
    const Status read = ReadFrame(&frame);
    if (!read.ok()) {
      for (const auto& [id, slot] : slot_for_id) results[slot] = read;
      return results;
    }
    if (frame.type == wire::MessageType::kPong) continue;  // stale probe
    if (frame.type == wire::MessageType::kNotOwner) {
      auto not_owner = wire::DecodeNotOwner(frame.payload);
      if (!not_owner.ok()) {
        broken_ = true;
        continue;
      }
      auto slot = slot_for_id.find(not_owner.value().id);
      if (slot == slot_for_id.end()) continue;  // stale; skip it
      FriendResponse response;
      std::ostringstream oss;
      oss << "shard does not own room " << not_owner.value().room
          << " (epoch " << not_owner.value().epoch << ")";
      response.status = NotOwnerError(oss.str());
      results[slot->second] = response;
      slot_for_id.erase(slot);
      --outstanding;
      continue;
    }
    if (frame.type != wire::MessageType::kResponse) {
      broken_ = true;
      const Status confused =
          InvalidArgumentError("wire: unexpected frame type from server");
      for (auto& [id, slot] : slot_for_id) results[slot] = confused;
      return results;
    }
    auto decoded = wire::DecodeResponse(frame.payload);
    if (!decoded.ok()) {
      broken_ = true;
      for (auto& [id, slot] : slot_for_id) results[slot] = decoded.status();
      return results;
    }
    auto slot = slot_for_id.find(decoded.value().id);
    if (slot == slot_for_id.end()) continue;  // an abandoned earlier call
    results[slot->second] = std::move(decoded).value().response;
    slot_for_id.erase(slot);
    --outstanding;
  }
  return results;
}

Status NetClient::Ping() {
  if (broken_) return Transport("connection already broken", 0);
  const uint64_t id = next_id_++;
  std::string out;
  wire::AppendPingFrame(id, &out);
  AFTER_RETURN_IF_ERROR(SendAll(out));
  while (true) {
    wire::Frame frame;
    AFTER_RETURN_IF_ERROR(ReadFrame(&frame));
    if (frame.type != wire::MessageType::kPong) continue;  // stale response
    auto decoded = wire::DecodePingPong(frame.payload);
    if (!decoded.ok()) {
      broken_ = true;
      return decoded.status();
    }
    if (decoded.value() == id) return OkStatus();
  }
}

}  // namespace serve
}  // namespace after
