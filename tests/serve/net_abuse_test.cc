// Protocol-abuse and slow-peer tests for the epoll reactor
// (serve/net_server.h): the network-front behaviors that only show up
// against misbehaving clients — slow-loris partial headers, pipelined
// frames arriving byte-split and answered out of submission order,
// hostile frame sizes, peers that stop reading their responses, and
// rapid connection churn (the TSan target for accept/close races).

#include "serve/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "serve/net_client.h"
#include "serve/wire.h"

namespace after {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Handler that answers inline on the reactor thread. `tick` echoes a
/// marker so tests can tell which request produced which response.
RequestHandler EchoHandler() {
  return [](const FriendRequest& request,
            std::function<void(const FriendResponse&)> done) {
    FriendResponse response;
    response.tick = 1000 + request.user;
    done(response);
  };
}

int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

/// True when the server closes its end (recv sees EOF or a reset)
/// within the timeout; false when the connection stays open.
bool WaitForClose(int fd, int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  char chunk[512];
  while (Clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return true;  // EOF or error: the server cut us off
  }
  return false;
}

/// Accumulates bytes off the socket until `count` complete frames are
/// extracted (or the timeout runs out).
std::vector<wire::Frame> ReadFrames(int fd, size_t count, int timeout_ms) {
  std::vector<wire::Frame> frames;
  std::string buffer;
  char chunk[4096];
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (frames.size() < count && Clock::now() < deadline) {
    wire::Frame frame;
    size_t consumed = 0;
    const Status status = wire::ExtractFrame(buffer, &frame, &consumed);
    if (!status.ok()) break;
    if (consumed > 0) {
      buffer.erase(0, consumed);
      frames.push_back(std::move(frame));
      continue;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return frames;
}

/// Non-blocking client whose tiny receive buffer keeps its TCP window
/// from absorbing a response burst for it.
int SmallWindowConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Sends every byte on a non-blocking socket; the number sent.
size_t SendAll(int fd, const std::string& bytes, Clock::time_point deadline) {
  size_t sent = 0;
  while (sent < bytes.size() && Clock::now() < deadline) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 50);
    } else {
      break;
    }
  }
  return sent;
}

/// Handler that parks every request with its completion until the test
/// takes them, modelling a backend that finishes a pile of work at once.
struct ParkingHandler {
  struct Parked {
    FriendRequest request;
    std::function<void(const FriendResponse&)> done;
  };

  RequestHandler handler() {
    return [this](const FriendRequest& request,
                  std::function<void(const FriendResponse&)> done) {
      std::lock_guard<std::mutex> lock(mutex);
      parked.push_back({request, std::move(done)});
    };
  }

  /// Waits until `count` requests are parked, then hands them over.
  std::vector<Parked> Take(size_t count, Clock::time_point deadline) {
    while (Clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (parked.size() == count) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<Parked> out;
    std::lock_guard<std::mutex> lock(mutex);
    out.swap(parked);
    return out;
  }

  std::mutex mutex;
  std::vector<Parked> parked;
};

TEST(NetAbuseTest, SlowLorisPartialHeaderIsClosedByIdleTimeout) {
  NetServerOptions options;
  options.idle_timeout_ms = 200.0;
  NetServer net(EchoHandler(), options);
  ASSERT_TRUE(net.Start().ok());

  // A slow-loris peer: open the connection, trickle 3 bytes of header,
  // then go silent. Without the idle sweep this fd would be pinned
  // forever; with it the reactor reaps the connection.
  const int fd = RawConnect(net.port());
  ASSERT_EQ(::send(fd, "\x31\x57\x46", 3, MSG_NOSIGNAL), 3);
  EXPECT_TRUE(WaitForClose(fd, 3000));
  EXPECT_GE(net.metrics().idle_closed.load(), 1);
  ::close(fd);
  net.Shutdown();
}

TEST(NetAbuseTest, InterleavedPipelinedFramesAreAnsweredById) {
  // Handler: room 0 answers ~150 ms late from another thread, any other
  // room answers inline. Joining the workers at scope exit keeps the
  // test TSan-clean.
  std::mutex mutex;
  std::vector<std::thread> workers;
  RequestHandler handler =
      [&](const FriendRequest& request,
          std::function<void(const FriendResponse&)> done) {
        if (request.room == 0) {
          std::lock_guard<std::mutex> lock(mutex);
          workers.emplace_back([request, done = std::move(done)] {
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
            FriendResponse response;
            response.tick = 1000 + request.user;
            done(response);
          });
        } else {
          FriendResponse response;
          response.tick = 1000 + request.user;
          done(response);
        }
      };
  auto net = std::make_unique<NetServer>(handler, NetServerOptions{});
  ASSERT_TRUE(net->Start().ok());

  // Three pipelined frames on one connection: a slow request, a fast
  // request, and a ping — delivered byte-split so the second frame's
  // header straddles two TCP segments.
  std::string slow_bytes;
  wire::AppendRequestFrame(7, {.room = 0, .user = 1, .deadline_ms = -1.0},
                           &slow_bytes);
  std::string rest;
  wire::AppendRequestFrame(9, {.room = 1, .user = 2, .deadline_ms = -1.0},
                           &rest);
  wire::AppendPingFrame(11, &rest);
  const std::string bytes = slow_bytes + rest;
  const size_t split = slow_bytes.size() + 5;  // mid-header of frame 2

  const int fd = RawConnect(net->port());
  ASSERT_EQ(::send(fd, bytes.data(), split, MSG_NOSIGNAL),
            static_cast<ssize_t>(split));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::send(fd, bytes.data() + split, bytes.size() - split,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size() - split));

  const std::vector<wire::Frame> frames = ReadFrames(fd, 3, 5000);
  ASSERT_EQ(frames.size(), 3u);

  // Responses are correlated by id, not arrival order: the fast request
  // and the ping overtake the slow request, whose answer comes last and
  // still carries its own id + payload.
  std::vector<uint64_t> order;
  for (const wire::Frame& frame : frames) {
    if (frame.type == wire::MessageType::kResponse) {
      auto decoded = wire::DecodeResponse(frame.payload);
      ASSERT_TRUE(decoded.ok());
      order.push_back(decoded.value().id);
      if (decoded.value().id == 7) {
        EXPECT_EQ(decoded.value().response.tick, 1001);
      }
      if (decoded.value().id == 9) {
        EXPECT_EQ(decoded.value().response.tick, 1002);
      }
    } else {
      ASSERT_EQ(frame.type, wire::MessageType::kPong);
      auto decoded = wire::DecodePingPong(frame.payload);
      ASSERT_TRUE(decoded.ok());
      order.push_back(decoded.value());
    }
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 9u);
  EXPECT_EQ(order[1], 11u);
  EXPECT_EQ(order[2], 7u);

  ::close(fd);
  net->Shutdown();
  net.reset();
  for (std::thread& worker : workers) worker.join();
}

TEST(NetAbuseTest, OversizedFrameIsRejected) {
  NetServer net(EchoHandler(), NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  // A well-formed header declaring a payload one byte over the cap: the
  // framing layer must fail fast instead of allocating the claimed
  // megabyte-plus and waiting for it.
  std::string header;
  const uint32_t magic = wire::kMagic;
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((magic >> (8 * i)) & 0xff));
  header.push_back(static_cast<char>(wire::kProtocolVersion));
  header.push_back(static_cast<char>(wire::MessageType::kPing));
  header.push_back(0);
  header.push_back(0);
  const uint32_t oversized = wire::kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i)
    header.push_back(static_cast<char>((oversized >> (8 * i)) & 0xff));
  ASSERT_EQ(header.size(), wire::kHeaderBytes);

  const int fd = RawConnect(net.port());
  ASSERT_EQ(::send(fd, header.data(), header.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(header.size()));
  EXPECT_TRUE(WaitForClose(fd, 2000));
  EXPECT_GE(net.metrics().frames_rejected.load(), 1);
  ::close(fd);
  net.Shutdown();
}

TEST(NetAbuseTest, BackpressureSlowReaderIsDisconnected) {
  // Responses are withheld until the test releases them all at once,
  // for a peer that meanwhile stopped reading. (Inline responses can't
  // trip the close cap — the pause threshold throttles the reads first;
  // only asynchronous completions landing on an already-paused
  // connection can grow the buffer past it.)
  ParkingHandler parking;
  NetServerOptions options;
  options.write_pause_bytes = 4 * 1024;
  options.write_close_bytes = 16 * 1024;
  auto net = std::make_unique<NetServer>(parking.handler(), options);
  ASSERT_TRUE(net->Start().ok());

  const int fd = SmallWindowConnect(net->port());
  const int kRequests = 64;
  std::string blast;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    wire::AppendRequestFrame(id, {.room = 0, .user = 1, .deadline_ms = -1.0},
                             &blast);
  }
  auto deadline = Clock::now() + std::chrono::seconds(10);
  ASSERT_EQ(SendAll(fd, blast, deadline), blast.size());

  // Wait for the reactor to hand every request to the handler, then
  // complete them all. The responses (far more bytes than the client
  // will ever drain) must cross write_close_bytes and cut the peer
  // loose instead of buffering without bound.
  const std::vector<ParkingHandler::Parked> release =
      parking.Take(kRequests, deadline);
  ASSERT_EQ(static_cast<int>(release.size()), kRequests);
  // Maximum-size responses: the kernel's send buffer can silently
  // absorb megabytes on loopback, so the burst has to be big enough
  // that undelivered bytes land back in the server's own buffer.
  FriendResponse response;
  response.tick = 7;
  response.recommended.assign(wire::kMaxRecommendedBits, false);
  for (const auto& parked : release) parked.done(response);

  deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline &&
         net->metrics().backpressure_closed.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(net->metrics().backpressure_closed.load(), 1);
  ::close(fd);
  net->Shutdown();
}

TEST(NetAbuseTest, BackpressureSlowReaderDrainsEveryResponseOnce) {
  // The drain twin of the test above: the peer stops reading until the
  // server holds output beyond the kernel buffers, but under
  // write_close_bytes, then reads everything. The reactor must arm
  // EPOLLOUT for the backlog and flush it as the peer drains, delivering
  // every response exactly once under its own correlation id.
  ParkingHandler parking;
  NetServerOptions options;
  options.write_close_bytes = 64u << 20;
  auto net = std::make_unique<NetServer>(parking.handler(), options);
  ASSERT_TRUE(net->Start().ok());

  const int fd = SmallWindowConnect(net->port());
  const int kRequests = 48;
  std::string blast;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    wire::AppendRequestFrame(
        id, {.room = 0, .user = static_cast<int>(id), .deadline_ms = -1.0},
        &blast);
  }
  auto deadline = Clock::now() + std::chrono::seconds(10);
  ASSERT_EQ(SendAll(fd, blast, deadline), blast.size());

  const std::vector<ParkingHandler::Parked> release =
      parking.Take(kRequests, deadline);
  ASSERT_EQ(static_cast<int>(release.size()), kRequests);
  // 48 maximum-size responses, ~6 MiB: more than loopback's kernel
  // buffers hold for a peer that is not reading, far under the cap.
  size_t total_bytes = 0;
  for (const auto& parked : release) {
    FriendResponse response;
    response.tick = 1000 + parked.request.user;
    response.recommended.assign(wire::kMaxRecommendedBits, false);
    std::string encoded;
    wire::AppendResponseFrame(static_cast<uint64_t>(parked.request.user),
                              response, &encoded);
    total_bytes += encoded.size();
    parked.done(response);
  }
  ASSERT_LT(total_bytes, options.write_close_bytes);

  // Let the server fill the kernel buffers until it can send no more:
  // what it has not sent by then waits in its own output buffer.
  int64_t sent = -1;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const int64_t now = net->metrics().bytes_out.load();
    if (now == sent) break;
    sent = now;
  }
  ASSERT_LT(sent, static_cast<int64_t>(total_bytes))
      << "the kernel absorbed the whole burst; nothing was left to flush";

  const std::vector<wire::Frame> frames = ReadFrames(fd, kRequests, 30000);
  ASSERT_EQ(static_cast<int>(frames.size()), kRequests);
  std::vector<int> seen(kRequests + 1, 0);
  for (const wire::Frame& frame : frames) {
    ASSERT_EQ(frame.type, wire::MessageType::kResponse);
    auto decoded = wire::DecodeResponse(frame.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const uint64_t id = decoded.value().id;
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, static_cast<uint64_t>(kRequests));
    ++seen[id];
    EXPECT_EQ(decoded.value().response.tick, 1000 + static_cast<int>(id));
  }
  for (int id = 1; id <= kRequests; ++id)
    EXPECT_EQ(seen[id], 1) << "id " << id;
  EXPECT_EQ(net->metrics().bytes_out.load(),
            static_cast<int64_t>(total_bytes));
  EXPECT_EQ(net->metrics().backpressure_closed.load(), 0);
  ::close(fd);
  net->Shutdown();
}

TEST(NetAbuseTest, ConnectionChurn1kIsClean) {
  // The TSan target: many threads racing connect/ping/close against the
  // reactor's accept path and teardown. Every ping must round-trip and
  // the server must stay serviceable throughout.
  NetServer net(EchoHandler(), NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  const int kThreads = 4, kPerThread = 250;
  std::atomic<int> ok{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto client = NetClient::Connect("127.0.0.1", net.port());
        if (!client.ok()) {
          failed.fetch_add(1);
          continue;
        }
        if (client.value()->Ping().ok())
          ok.fetch_add(1);
        else
          failed.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(net.metrics().connections_accepted.load(),
            kThreads * kPerThread);
  // The churned connections are all gone; the front is still healthy.
  auto survivor = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(survivor.ok());
  EXPECT_TRUE(survivor.value()->Ping().ok());
  net.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace after
