#include "serve/net_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

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

NetClient::NetClient(int fd, const NetClientOptions& options)
    : fd_(fd), options_(options) {}

Result<std::unique_ptr<NetClient>> NetClient::Connect(
    const std::string& host, int port, const NetClientOptions& options) {
  Result<int> fd =
      net_detail::DialBlocking(host, port, options.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  std::unique_ptr<NetClient> client(new NetClient(fd.value(), options));
  client->reader_ = std::thread(&NetClient::ReaderLoop, client.get());
  return client;
}

NetClient::~NetClient() {
  broken_.store(true, std::memory_order_release);
  ::shutdown(fd_, SHUT_RDWR);  // wakes the reader's blocking recv
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

void NetClient::FailAll(const Status& status) {
  broken_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, waiter] : waiters_) {
      if (waiter.done) continue;
      waiter.done = true;
      waiter.status = status;
      waiter.wake->notify_one();
    }
  }
  // Only now end the reader: its own FailAll finds every waiter failed
  // already, so each caller sees the error that broke the connection.
  ::shutdown(fd_, SHUT_RDWR);
}

void NetClient::ReaderLoop() {
  std::string buffer;
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      FailAll(Transport("peer closed the connection", 0));
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      FailAll(Transport("recv", errno));
      return;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    while (true) {
      wire::Frame frame;
      size_t consumed = 0;
      const Status framing = wire::ExtractFrame(buffer, &frame, &consumed);
      if (!framing.ok()) {
        // Mid-stream garbage is unrecoverable; the peer broke protocol.
        FailAll(framing);
        return;
      }
      if (consumed == 0) break;  // incomplete; read more
      buffer.erase(0, consumed);
      uint64_t id = 0;
      if (!wire::PeekCorrelationId(frame.payload, &id)) {
        FailAll(
            InvalidArgumentError("wire: response payload too short for id"));
        return;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = waiters_.find(id);
      if (it == waiters_.end()) continue;  // a caller that timed out
      it->second.done = true;
      it->second.frame = std::move(frame);
      it->second.wake->notify_one();
    }
  }
}

void NetClient::Roundtrip(std::string_view frames, uint64_t first_id,
                          size_t count, Waiter* out) {
  // Register before sending: a response can race back before this
  // thread re-takes the lock. Test broken() under the same lock: FailAll
  // marks the client broken before it takes the lock, so either it fails
  // these waiters or this call sees the mark, and no waiter is left to
  // wait out the timeout on a connection whose reader has exited.
  // `wake` outlives every notify: its waiters leave the table under the
  // lock the notifiers hold, before this call returns.
  std::condition_variable wake;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (broken()) {
      for (size_t i = 0; i < count; ++i)
        out[i].status = Transport("connection already broken", 0);
      return;
    }
    for (size_t i = 0; i < count; ++i) waiters_[first_id + i].wake = &wake;
  }

  Status sent;
  {
    std::lock_guard<std::mutex> lock(send_mutex_);
    sent = net_detail::SendAllFd(fd_, frames);
  }
  // The connection is dead for everyone, not just this call.
  if (!sent.ok()) FailAll(sent);

  std::unique_lock<std::mutex> lock(mutex_);
  const auto answered = [this, first_id, count] {
    for (size_t i = 0; i < count; ++i)
      if (!waiters_.find(first_id + i)->second.done) return false;
    return true;
  };
  if (!wake.wait_for(
          lock,
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  options_.io_timeout_ms)),
          answered)) {
    // A connection that stops answering is indistinguishable from a
    // dead backend; poison it so in-flight peers fail over too.
    lock.unlock();
    FailAll(Transport("response timed out", 0));
    lock.lock();
  }
  for (size_t i = 0; i < count; ++i) {
    auto it = waiters_.find(first_id + i);
    out[i] = std::move(it->second);
    waiters_.erase(it);
  }
}

template <typename T>
Result<T> NetClient::Expect(const wire::Frame& frame, wire::MessageType type,
                            Result<T> (*decode)(std::string_view)) {
  if (frame.type != type) {
    broken_.store(true, std::memory_order_release);
    return InvalidArgumentError("wire: unexpected frame type from server");
  }
  Result<T> decoded = decode(frame.payload);
  if (!decoded.ok()) broken_.store(true, std::memory_order_release);
  return decoded;
}

Result<FriendResponse> NetClient::Answer(Waiter& waiter) {
  if (!waiter.status.ok()) return waiter.status;
  if (waiter.frame.type == wire::MessageType::kNotOwner) {
    auto not_owner = Expect(waiter.frame, wire::MessageType::kNotOwner,
                            wire::DecodeNotOwner);
    if (!not_owner.ok()) return not_owner.status();
    FriendResponse response;
    std::ostringstream oss;
    oss << "shard does not own room " << not_owner.value().room << " (epoch "
        << not_owner.value().epoch << ")";
    response.status = NotOwnerError(oss.str());
    return response;
  }
  auto decoded = Expect(waiter.frame, wire::MessageType::kResponse,
                        wire::DecodeResponse);
  if (!decoded.ok()) return decoded.status();
  return std::move(decoded).value().response;
}

Status NetClient::AckStatus(const wire::Frame& frame) {
  auto ack = Expect(frame, wire::MessageType::kResponse, wire::DecodeResponse);
  return ack.ok() ? ack.value().response.status : ack.status();
}

Result<FriendResponse> NetClient::Call(const FriendRequest& request) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::string out;
  wire::AppendRequestFrame(id, request, &out);
  Waiter waiter;
  Roundtrip(out, id, 1, &waiter);
  return Answer(waiter);
}

std::vector<Result<FriendResponse>> NetClient::CallPipelined(
    const std::vector<FriendRequest>& requests) {
  std::vector<Result<FriendResponse>> results;
  if (requests.empty()) return results;
  // One contiguous burst of frames, one send. The server answers in
  // completion order, not arrival order, so no round trip gates the
  // next frame going out.
  const uint64_t first_id =
      next_id_.fetch_add(requests.size(), std::memory_order_relaxed);
  std::string burst;
  for (size_t i = 0; i < requests.size(); ++i)
    wire::AppendRequestFrame(first_id + i, requests[i], &burst);
  std::vector<Waiter> waiters(requests.size());
  Roundtrip(burst, first_id, waiters.size(), waiters.data());
  results.reserve(waiters.size());
  for (Waiter& waiter : waiters) results.push_back(Answer(waiter));
  return results;
}

Status NetClient::Ping() {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::string out;
  wire::AppendPingFrame(id, &out);
  Waiter waiter;
  Roundtrip(out, id, 1, &waiter);
  if (!waiter.status.ok()) return waiter.status;
  return Expect(waiter.frame, wire::MessageType::kPong, wire::DecodePingPong)
      .status();
}

Status NetClient::AssignRoom(int room, uint64_t epoch,
                             const std::string& state, bool primary) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::string out;
  wire::AppendRoomAssignFrame(id, room, epoch, primary, state, &out);
  Waiter waiter;
  Roundtrip(out, id, 1, &waiter);
  if (!waiter.status.ok()) return waiter.status;
  return AckStatus(waiter.frame);
}

Result<std::string> NetClient::ReleaseRoom(int room, uint64_t epoch) {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::string out;
  wire::AppendRoomReleaseFrame(id, room, epoch, &out);
  Waiter waiter;
  Roundtrip(out, id, 1, &waiter);
  if (!waiter.status.ok()) return waiter.status;
  // Success acks arrive as a kRoomAssign frame carrying the final
  // state; failures come back as a plain response frame.
  if (waiter.frame.type == wire::MessageType::kRoomAssign) {
    auto granted = Expect(waiter.frame, wire::MessageType::kRoomAssign,
                          wire::DecodeRoomAssign);
    if (!granted.ok()) return granted.status();
    return std::move(granted).value().state;
  }
  const Status refused = AckStatus(waiter.frame);
  if (refused.ok())
    return InvalidArgumentError("wire: release ack without state");
  return refused;
}

Result<std::vector<wire::RecoveredRoom>> NetClient::RecoverRooms() {
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::string out;
  wire::AppendRoomRecoverQueryFrame(id, &out);
  Waiter waiter;
  Roundtrip(out, id, 1, &waiter);
  if (!waiter.status.ok()) return waiter.status;
  // Success acks echo a kRoomRecover frame carrying the report;
  // failures come back as a plain response frame.
  if (waiter.frame.type == wire::MessageType::kRoomRecover) {
    auto report = Expect(waiter.frame, wire::MessageType::kRoomRecover,
                         wire::DecodeRoomRecoverReport);
    if (!report.ok()) return report.status();
    return std::move(report).value().rooms;
  }
  const Status refused = AckStatus(waiter.frame);
  if (refused.ok())
    return InvalidArgumentError("wire: recover ack without report");
  return refused;
}

}  // namespace serve
}  // namespace after
