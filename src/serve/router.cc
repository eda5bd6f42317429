#include "serve/router.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "nn/serialize.h"

namespace after {
namespace serve {

std::string BackendAddress::ToString() const {
  std::ostringstream oss;
  oss << host << ":" << port;
  return oss.str();
}

namespace {

/// 64-bit avalanche finalizer (MurmurHash3 fmix64) applied on top of
/// Fnv1a64. FNV alone has weak high-bit avalanche on short sequential
/// keys ("room-0", "room-1", ...): hashes differing only in the last
/// byte land within ~255 * prime of each other, so ring points and room
/// keys cluster into narrow bands and backends end up owning wildly
/// uneven arcs (measured: 48% vs 3% of the ring for equal vnode
/// counts). The mixer restores a uniform spread.
uint64_t MixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

uint64_t RoomHash(int room) {
  std::ostringstream oss;
  oss << "room-" << room;
  return MixHash(Fnv1a64(oss.str()));
}

bool Contains(const std::vector<int>& values, int needle) {
  return std::find(values.begin(), values.end(), needle) != values.end();
}

}  // namespace

ShardRouter::ShardRouter(std::vector<BackendAddress> backends,
                         const RouterOptions& options)
    : options_(options) {
  AFTER_CHECK(!backends.empty());
  backends_.reserve(backends.size());
  for (auto& address : backends) {
    auto backend = std::make_unique<Backend>();
    backend->address = std::move(address);
    backends_.push_back(std::move(backend));
  }
  RebuildRingLocked();  // construction is single-threaded; no lock yet
  if (options_.health_check_interval_ms > 0.0) {
    prober_ = std::thread([this] {
      const auto interval = std::chrono::duration<double, std::milli>(
          options_.health_check_interval_ms);
      while (!stop_.load(std::memory_order_acquire)) {
        ProbeAll();
        // Dead backends just got ejected; move their rooms while the
        // standbys are still covering.
        RepairPartition();
        // Sleep in small slices so Shutdown() is prompt.
        auto remaining = interval;
        while (remaining.count() > 0.0 &&
               !stop_.load(std::memory_order_acquire)) {
          const auto slice = std::min(
              remaining, std::chrono::duration<double, std::milli>(20.0));
          std::this_thread::sleep_for(slice);
          remaining -= slice;
        }
      }
    });
  }
}

void ShardRouter::RebuildRingLocked() {
  // kVirtualNodes points per backend, keyed by the backend's address so
  // the mapping is a pure function of the fleet layout (two routers over
  // the same fleet route identically).
  ring_.clear();
  ring_.reserve(backends_.size() * kVirtualNodes);
  for (int b = 0; b < static_cast<int>(backends_.size()); ++b) {
    const std::string base = backends_[b]->address.ToString();
    for (int v = 0; v < kVirtualNodes; ++v) {
      std::ostringstream oss;
      oss << base << "#" << v;
      ring_.emplace_back(MixHash(Fnv1a64(oss.str())), b);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

ShardRouter::~ShardRouter() { Shutdown(); }

void ShardRouter::Shutdown() {
  if (stop_.exchange(true)) return;
  if (prober_.joinable()) prober_.join();
  std::shared_lock<std::shared_mutex> topology(topology_mutex_);
  for (auto& backend : backends_) {
    std::lock_guard<std::mutex> lock(backend->mutex);
    backend->link.reset();
  }
}

int ShardRouter::ShardFor(int room) const {
  std::shared_lock<std::shared_mutex> lock(topology_mutex_);
  const uint64_t h = RoomHash(room);
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(h, std::numeric_limits<int>::max()));
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

std::vector<int> ShardRouter::RingOrderLocked(int room) const {
  const uint64_t h = RoomHash(room);
  auto start = std::upper_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(h, std::numeric_limits<int>::max()));
  std::vector<int> order;
  order.reserve(backends_.size());
  for (size_t step = 0; step < ring_.size() &&
                        order.size() < backends_.size();
       ++step) {
    auto it = start + static_cast<long>(step);
    if (it >= ring_.end()) it -= static_cast<long>(ring_.size());
    const int b = it->second;
    if (std::find(order.begin(), order.end(), b) == order.end())
      order.push_back(b);
  }
  return order;
}

int ShardRouter::num_backends() const {
  std::shared_lock<std::shared_mutex> lock(topology_mutex_);
  return static_cast<int>(backends_.size());
}

ShardRouter::Backend& ShardRouter::BackendAt(int index) const {
  std::shared_lock<std::shared_mutex> lock(topology_mutex_);
  return *backends_[index];
}

bool ShardRouter::Ejected(Backend& backend) const {
  std::lock_guard<std::mutex> lock(backend.mutex);
  return Clock::now() < backend.ejected_until;
}

void ShardRouter::Eject(Backend& backend) {
  metrics_.ejections.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(backend.mutex);
  backend.ejected_until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             options_.ejection_ms));
  backend.link.reset();  // a link to a dead peer is useless
}

bool ShardRouter::backend_healthy(int index) const {
  return !Ejected(BackendAt(index));
}

std::shared_ptr<NetClient> ShardRouter::AcquireLink(Backend& backend,
                                                    bool* reused) {
  {
    std::lock_guard<std::mutex> lock(backend.mutex);
    *reused = backend.link != nullptr && !backend.link->broken();
    if (*reused) return backend.link;
  }
  auto connected = NetClient::Connect(backend.address.host,
                                      backend.address.port, options_.client);
  if (!connected.ok()) return nullptr;
  metrics_.connects.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<NetClient> link = std::move(connected).value();
  std::lock_guard<std::mutex> lock(backend.mutex);
  // A racing dial may have stored a live link first; it wins, and this
  // one serves its one call, then dies with its last reference.
  if (backend.link == nullptr || backend.link->broken()) backend.link = link;
  return link;
}

FriendResponse ShardRouter::Route(const FriendRequest& request) {
  metrics_.routed.fetch_add(1, std::memory_order_relaxed);
  // Rooms whose every owner answered kNotOwner are mid-migration: the
  // table is about to settle, so re-read it briefly instead of failing
  // the request.
  constexpr int kOwnerRounds = 40;
  constexpr auto kOwnerRetrySleep = std::chrono::milliseconds(5);

  Status last_error;
  int tried = 0;
  for (int round = 0; round < kOwnerRounds; ++round) {
    std::vector<int> owners;
    {
      std::lock_guard<std::mutex> lock(partition_mutex_);
      auto it = assignment_.find(request.room);
      if (it != assignment_.end()) owners = it->second.copies;
    }
    if (owners.empty()) {
      FriendResponse response;
      response.status = NotFoundError("room " + std::to_string(request.room) +
                                      " is outside the partition");
      return response;
    }
    std::vector<Backend*> candidates;
    {
      std::shared_lock<std::shared_mutex> lock(topology_mutex_);
      candidates.reserve(owners.size());
      for (int b : owners) candidates.push_back(backends_[b].get());
    }
    // Healthy owners first; ejected ones last rather than never, so a
    // room whose every owner looks dead is still tried, not blacked out.
    std::stable_partition(candidates.begin(), candidates.end(),
                          [this](Backend* b) { return !Ejected(*b); });

    bool saw_not_owner = false;
    for (Backend* candidate : candidates) {
      Backend& backend = *candidate;
      if (tried > 0) metrics_.retried.fetch_add(1, std::memory_order_relaxed);
      ++tried;
      bool reused = false;
      std::shared_ptr<NetClient> link = AcquireLink(backend, &reused);
      if (link == nullptr) {
        last_error = UnavailableError("connect to " +
                                      backend.address.ToString() + " failed");
        Eject(backend);
        continue;
      }
      auto result = link->Call(request);
      if (result.ok()) {
        const StatusCode code = result.value().status.code();
        // kNotFound is the drain-side twin of kNotOwner: the request
        // passed the ownership check but the room was released before its
        // request ran. Every routed room has an owner, so both mean "ask the
        // current owner".
        if (code == StatusCode::kNotOwner || code == StatusCode::kNotFound) {
          // The shard is healthy but no longer responsible (a racing
          // migration): move on to the next owner, no ejection.
          metrics_.not_owner.fetch_add(1, std::memory_order_relaxed);
          saw_not_owner = true;
          last_error =
              result.value().status.Annotate(backend.address.ToString());
          continue;
        }
        if (reused)
          metrics_.link_reuse.fetch_add(1, std::memory_order_relaxed);
        return std::move(result).value();
      }
      // Transport failure: the backend may be dead. Anything else (a
      // protocol error) is not retryable — report it as-is.
      last_error = result.status().Annotate(backend.address.ToString());
      if (result.status().code() != StatusCode::kUnavailable) {
        FriendResponse response;
        response.status = last_error;
        return response;
      }
      Eject(backend);
    }
    if (!saw_not_owner) break;
    std::this_thread::sleep_for(kOwnerRetrySleep);
  }

  metrics_.exhausted.fetch_add(1, std::memory_order_relaxed);
  FriendResponse response;
  std::ostringstream oss;
  oss << "all " << tried << " attempted shard(s) unavailable for room "
      << request.room;
  response.status =
      UnavailableError(oss.str() + (last_error.ok()
                                        ? ""
                                        : " (last: " + last_error.ToString() +
                                              ")"));
  return response;
}

void ShardRouter::ProbeAll() {
  for (int b = 0; b < num_backends(); ++b) {
    Backend& backend = BackendAt(b);
    bool reused = false;
    std::shared_ptr<NetClient> link = AcquireLink(backend, &reused);
    if (link == nullptr) {
      Eject(backend);
      continue;
    }
    if (link->Ping().ok()) {
      // Lift any ejection early: the backend answered a full round trip.
      std::lock_guard<std::mutex> lock(backend.mutex);
      backend.ejected_until = Clock::time_point::min();
    } else {
      Eject(backend);  // also drops the broken link
    }
  }
}

std::unordered_map<int, ShardRouter::RoomAssignment>
ShardRouter::AssignmentSnapshot() const {
  std::lock_guard<std::mutex> lock(partition_mutex_);
  return assignment_;
}

std::vector<int> ShardRouter::ActiveBackends() const {
  const int backends = num_backends();
  std::vector<int> active;
  for (int b = 0; b < backends; ++b)
    if (backend_healthy(b)) active.push_back(b);
  if (active.empty()) {
    // Everyone looks dead: assigning to possibly-dead backends beats
    // assigning to nobody (the two-pass Route tries ejected ones too).
    for (int b = 0; b < backends; ++b) active.push_back(b);
  }
  return active;
}

int ShardRouter::CopiesPerRoom(int active) const {
  return 1 + std::max(0, std::min(options_.replication_factor, active - 1));
}

std::unordered_map<int, std::vector<int>> ShardRouter::ComputeAssignment(
    const std::vector<int>& active, int num_rooms) const {
  AFTER_CHECK(!active.empty());
  const int n = static_cast<int>(active.size());
  const int copies_per_room = CopiesPerRoom(n);
  // Load caps turn pure hash affinity into a balanced placement: walking
  // rooms in ascending id, each room takes the first ring-order backend
  // still under its cap, so the primary spread stays within one room of
  // even while most rooms keep their hash-preferred shard.
  const int primary_cap = (num_rooms + n - 1) / n;
  const int total_cap = (num_rooms * copies_per_room + n - 1) / n;
  std::unordered_map<int, int> primary_count;
  std::unordered_map<int, int> total_count;
  std::unordered_map<int, std::vector<int>> out;
  for (int room = 0; room < num_rooms; ++room) {
    std::vector<int> order;
    for (int b : RingOrderLocked(room))
      if (Contains(active, b)) order.push_back(b);
    AFTER_CHECK(!order.empty());
    std::vector<int> copies;
    int primary = -1;
    for (int b : order)
      if (primary_count[b] < primary_cap) {
        primary = b;
        break;
      }
    if (primary < 0) primary = order.front();
    copies.push_back(primary);
    ++primary_count[primary];
    ++total_count[primary];
    // Standbys: ring order under the total cap, relaxed on a second
    // pass so replication never silently drops below the request.
    for (int pass = 0;
         pass < 2 && static_cast<int>(copies.size()) < copies_per_room;
         ++pass) {
      for (int b : order) {
        if (static_cast<int>(copies.size()) >= copies_per_room) break;
        if (Contains(copies, b)) continue;
        if (pass == 0 && total_count[b] >= total_cap) continue;
        copies.push_back(b);
        ++total_count[b];
      }
    }
    out[room] = std::move(copies);
  }
  return out;
}

Result<std::shared_ptr<NetClient>> ShardRouter::LinkTo(
    int index, std::string* address) {
  Backend& backend = BackendAt(index);
  *address = backend.address.ToString();
  bool reused = false;
  std::shared_ptr<NetClient> link = AcquireLink(backend, &reused);
  if (link == nullptr)
    return UnavailableError("connect to " + *address + " failed");
  return link;
}

Status ShardRouter::SendAssign(int backend, int room, uint64_t epoch,
                               const std::string& state, bool primary) {
  std::string address;
  Result<std::shared_ptr<NetClient>> link = LinkTo(backend, &address);
  if (!link.ok()) return link.status();
  return link.value()->AssignRoom(room, epoch, state, primary).Annotate(
      "assign room " + std::to_string(room) + " to " + address);
}

Result<std::vector<wire::RecoveredRoom>> ShardRouter::SendRecover(
    int backend) {
  std::string address;
  Result<std::shared_ptr<NetClient>> link = LinkTo(backend, &address);
  if (!link.ok()) return link.status();
  Result<std::vector<wire::RecoveredRoom>> report =
      link.value()->RecoverRooms();
  if (!report.ok())
    return report.status().Annotate("recover query to " + address);
  return report;
}

Result<std::string> ShardRouter::SendRelease(int backend, int room,
                                             uint64_t epoch) {
  std::string address;
  Result<std::shared_ptr<NetClient>> link = LinkTo(backend, &address);
  if (!link.ok()) return link.status();
  Result<std::string> state = link.value()->ReleaseRoom(room, epoch);
  if (!state.ok())
    return state.status().Annotate("release room " + std::to_string(room) +
                                   " from " + address);
  return state;
}

int ShardRouter::ApplyAssignment(
    const std::unordered_map<int, std::vector<int>>& target,
    Status* first_error, std::atomic<int64_t>* counter) {
  // Ascending room order: deterministic control traffic, and epochs that
  // read naturally in logs.
  std::vector<int> rooms;
  rooms.reserve(target.size());
  for (const auto& [room, copies] : target) rooms.push_back(room);
  std::sort(rooms.begin(), rooms.end());

  int changed = 0;
  for (int room : rooms) {
    const std::vector<int>& want = target.at(room);
    AFTER_CHECK(!want.empty());
    std::vector<int> have;
    uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(partition_mutex_);
      auto it = assignment_.find(room);
      if (it != assignment_.end()) have = it->second.copies;
      if (have == want) continue;
      epoch = ++next_epoch_;
    }
    // Release the losers first. The old primary's ack carries the
    // room's final state; standby releases are acknowledged but their
    // state is redundant. A primary merely *demoted* to standby is
    // released too — its exact state must follow the primary role — and
    // re-granted fresh below. A dead backend cannot ack — that is
    // exactly the repair case, and its standby keeps serving meanwhile.
    std::string state;
    const bool primary_moved = !have.empty() && have[0] != want[0];
    const bool demote_old_primary =
        primary_moved && Contains(want, have[0]);
    for (int b : have) {
      const bool is_old_primary = b == have[0];
      if (Contains(want, b) && !(demote_old_primary && is_old_primary))
        continue;
      Result<std::string> released = SendRelease(b, room, epoch);
      if (released.ok() && is_old_primary)
        state = std::move(released).value();
    }
    // Grant the gainers. The moved primary inherits the released state
    // (the migration handoff) — even if it already hosts a standby
    // replica, which the grant overwrites with the exact state. A
    // standby promoted with no state to inherit (the old primary died)
    // is still re-granted, empty, at the fresh epoch: the shard keeps
    // its live replica untouched but its durable ledger learns the
    // primary role. New standbys (including the demoted old primary,
    // which needs a newer epoch than its own release) start from a
    // fresh-seeded room.
    uint64_t final_epoch = epoch;
    for (int b : want) {
      const bool inherits = primary_moved && b == want[0] && !state.empty();
      const bool promote = primary_moved && b == want[0];
      const bool regrant = demote_old_primary && b == have[0];
      if (Contains(have, b) && !inherits && !promote && !regrant) continue;
      uint64_t grant_epoch = epoch;
      if (regrant) {
        std::lock_guard<std::mutex> lock(partition_mutex_);
        grant_epoch = final_epoch = ++next_epoch_;
      }
      const Status granted =
          SendAssign(b, room, grant_epoch, inherits ? state : std::string(),
                     /*primary=*/b == want[0]);
      if (granted.ok() && inherits)
        metrics_.migrations.fetch_add(1, std::memory_order_relaxed);
      if (!granted.ok() && first_error != nullptr && first_error->ok())
        *first_error = granted;
    }
    // Count first: whoever sees the new owners also sees the count.
    if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(partition_mutex_);
      RoomAssignment& entry = assignment_[room];
      entry.copies = want;
      entry.epoch = final_epoch;
    }
    ++changed;
  }
  return changed;
}

int ShardRouter::Rebalance(const std::vector<int>& active, int num_rooms,
                           Status* first_error,
                           std::atomic<int64_t>* counter) {
  std::unordered_map<int, std::vector<int>> target;
  {
    std::shared_lock<std::shared_mutex> lock(topology_mutex_);
    target = ComputeAssignment(active, num_rooms);
  }
  return ApplyAssignment(target, first_error, counter);
}

Status ShardRouter::EnablePartition(int num_rooms) {
  AFTER_CHECK_GT(num_rooms, 0);
  {
    std::lock_guard<std::mutex> lock(partition_mutex_);
    AFTER_CHECK_EQ(partition_rooms_, 0);  // EnablePartition is once-only
    partition_rooms_ = num_rooms;
  }
  Status first_error;
  Rebalance(ActiveBackends(), num_rooms, &first_error);
  return first_error;
}

Status ShardRouter::RecoverPartition(int num_rooms) {
  AFTER_CHECK_GT(num_rooms, 0);
  {
    std::lock_guard<std::mutex> lock(partition_mutex_);
    AFTER_CHECK_EQ(partition_rooms_, 0);  // recovery precedes serving
  }
  // Phase 1: every backend replays its durable state and reports what it
  // hosts. An unreachable backend simply recovers nothing — its rooms
  // are won by another replica or rebuilt fresh.
  struct Replica {
    int backend = 0;
    wire::RecoveredRoom info;
  };
  std::vector<Replica> replicas;
  uint64_t max_epoch = 0;
  const int backends = num_backends();
  for (int b = 0; b < backends; ++b) {
    Result<std::vector<wire::RecoveredRoom>> report = SendRecover(b);
    if (!report.ok()) continue;
    for (const wire::RecoveredRoom& info : report.value()) {
      if (info.room < 0 || info.room >= num_rooms) continue;
      replicas.push_back(Replica{b, info});
      max_epoch = std::max(max_epoch, info.epoch);
    }
  }
  // Phase 2: reconcile. Per room the newest replica wins — primary role
  // outranks standby, then higher epoch, then higher tick (a deeper
  // journal replay), then the lowest backend index for determinism.
  std::unordered_map<int, Replica> winners;
  for (const Replica& replica : replicas) {
    auto it = winners.find(replica.info.room);
    if (it == winners.end()) {
      winners.emplace(replica.info.room, replica);
      continue;
    }
    const auto rank = [](const Replica& r) {
      return std::make_tuple(r.info.primary ? 1 : 0, r.info.epoch,
                             static_cast<int64_t>(r.info.tick),
                             -r.backend);
    };
    if (rank(replica) > rank(it->second)) it->second = replica;
  }
  // Epochs resume above everything any replica ever saw, so no durable
  // pre-crash grant can fence out what the router does from here on.
  {
    std::lock_guard<std::mutex> lock(partition_mutex_);
    next_epoch_ = std::max(next_epoch_, max_epoch);
  }
  // Phase 3: release the stale replicas, discarding their state — the
  // winner's is strictly newer. A failed release leaves the loser
  // hosting a room no request will route to; a later grant at a newer
  // epoch overwrites it.
  int64_t discarded = 0;
  for (const Replica& replica : replicas) {
    auto winner = winners.find(replica.info.room);
    if (winner != winners.end() && winner->second.backend == replica.backend)
      continue;
    uint64_t release_epoch = 0;
    {
      std::lock_guard<std::mutex> lock(partition_mutex_);
      release_epoch = ++next_epoch_;
    }
    (void)SendRelease(replica.backend, replica.info.room, release_epoch);
    ++discarded;
  }
  metrics_.discarded_replicas.fetch_add(discarded,
                                        std::memory_order_relaxed);
  metrics_.recovered_rooms.fetch_add(static_cast<int64_t>(winners.size()),
                                     std::memory_order_relaxed);
  // Phase 4: seed the ownership table with the winners and rebalance
  // onto the current fleet. ApplyAssignment migrates a recovered room
  // whose primary belongs elsewhere with the usual release -> state ->
  // assign handoff, and grants never-recovered rooms fresh.
  {
    std::lock_guard<std::mutex> lock(partition_mutex_);
    partition_rooms_ = num_rooms;
    for (const auto& [room, replica] : winners) {
      RoomAssignment& entry = assignment_[room];
      entry.copies = {replica.backend};
      entry.epoch = replica.info.epoch;
    }
  }
  Status first_error;
  Rebalance(ActiveBackends(), num_rooms, &first_error);
  return first_error;
}

Result<int> ShardRouter::AddBackendLive(const BackendAddress& address) {
  int index = -1;
  {
    std::unique_lock<std::shared_mutex> lock(topology_mutex_);
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    backends_.push_back(std::move(backend));
    index = static_cast<int>(backends_.size()) - 1;
    RebuildRingLocked();
  }
  int rooms = 0;
  {
    std::lock_guard<std::mutex> lock(partition_mutex_);
    if (partition_rooms_ == 0) return index;  // nothing placed yet
    rooms = partition_rooms_;
  }
  // The new backend takes its hash-fair share; rooms whose primary
  // moves are migrated with a full state handoff.
  Status first_error;
  Rebalance(ActiveBackends(), rooms, &first_error);
  if (!first_error.ok()) return first_error;
  return index;
}

int ShardRouter::RepairPartition() {
  const std::vector<int> active = ActiveBackends();
  // Patch, don't recompute: surviving copies keep the room (a promoted
  // standby serves its live state bit-exactly), and only the dead
  // copies are replaced, following ring order over healthy backends.
  std::unordered_map<int, std::vector<int>> current;
  int rooms = 0;
  {
    std::lock_guard<std::mutex> lock(partition_mutex_);
    rooms = partition_rooms_;
    for (const auto& [room, entry] : assignment_)
      current[room] = entry.copies;
  }
  std::unordered_map<int, std::vector<int>> target;
  for (const auto& [room, copies] : current) {
    std::vector<int> live;
    for (int b : copies)
      if (Contains(active, b)) live.push_back(b);
    if (live == copies) continue;  // all owners healthy
    const int need = CopiesPerRoom(static_cast<int>(active.size()));
    if (static_cast<int>(live.size()) < need) {
      std::shared_lock<std::shared_mutex> lock(topology_mutex_);
      for (int b : RingOrderLocked(room)) {
        if (static_cast<int>(live.size()) >= need) break;
        if (!Contains(active, b) || Contains(live, b)) continue;
        live.push_back(b);
      }
    }
    if (live.empty()) continue;  // nothing healthy to grant to
    target[room] = std::move(live);
  }
  if (target.empty()) return 0;
  Status first_error;
  int repaired = ApplyAssignment(target, &first_error, &metrics_.repairs);

  // The patch promotes a dead primary's standbys where they stand, so a
  // survivor holding most of them ends up with most of the primaries.
  // Past one room of spread, rebalance the way AddBackendLive does: a
  // primary that moves is alive and hands its state over. It places
  // over the patch's `active`, not a fresh read: the patch waits out
  // each release to a backend that never answers, long enough for its
  // ejection to run out and make it look healthy again.
  std::unordered_map<int, int> primaries;
  for (int b : active) primaries[b] = 0;
  {
    std::lock_guard<std::mutex> lock(partition_mutex_);
    for (const auto& [room, entry] : assignment_) {
      auto it = primaries.find(entry.copies.front());
      if (it != primaries.end()) ++it->second;
    }
  }
  const auto [fewest, most] = std::minmax_element(
      primaries.begin(), primaries.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  if (most->second - fewest->second > 1)
    repaired += Rebalance(active, rooms, &first_error, &metrics_.repairs);
  return repaired;
}

}  // namespace serve
}  // namespace after
