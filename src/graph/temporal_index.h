#ifndef AFTER_GRAPH_TEMPORAL_INDEX_H_
#define AFTER_GRAPH_TEMPORAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.h"

namespace after {

/// Temporal candidate pre-filter (docs/ticking.md, TGLib idiom from
/// PAPERS.md): a per-(target, candidate) recency/co-presence score that
/// caps the candidate set handed to the POSHGNN ranker in large rooms.
///
/// The score is a sentinel-encoded "last co-presence" value:
///   - kCoPresent  — the pair is within `kCoPresenceRadius` right now;
///   - a tick      — the last tick at which the pair was co-present;
///   - kNever      — the pair has never been co-present (since the last
///                   full Rebuild, which forgets history by design).
/// Ranking candidates by (score descending, index ascending) is exactly
/// recency ranking — currently-co-present first, then most recently
/// co-present, then never-met — without any decay arithmetic, which is
/// what makes the incremental update cheap: a pair's score can only
/// change when one of its endpoints moved, so a tick with |M| movers
/// costs O(|M| * n) instead of O(n^2).

/// Immutable published view of the score matrix, one immutable row per
/// user. Snapshots hold one of these via shared_ptr, and consecutive
/// views share every row that did not change between them (see
/// TemporalIndex::PublishView).
class TemporalView {
 public:
  static constexpr std::int32_t kCoPresent = INT32_MAX;
  static constexpr std::int32_t kNever = INT32_MIN;

  int num_users() const { return static_cast<int>(rows_.size()); }

  /// Score for candidate `c` in target `t`'s view (symmetric).
  std::int32_t score(int t, int c) const { return (*rows_[t])[c]; }

  /// Fills `mask` (resized to n) with true for every candidate that is
  /// NOT in the target's top-`k` by (score desc, index asc). The target
  /// itself is never masked. With k <= 0 or k >= n-1 nothing is pruned.
  /// The mask plugs into StepContext::blocklist, so ranking among the
  /// surviving candidates is exactly the unpruned ranking restricted to
  /// them (the accuracy contract of ServerOptions::max_candidates).
  void FillPruneMask(int target, int k, std::vector<bool>* mask) const;

  /// The target's top-`k` candidate indices in rank order (for tests
  /// and introspection).
  std::vector<int> TopCandidates(int target, int k) const;

 private:
  friend class TemporalIndex;
  std::vector<std::shared_ptr<const std::vector<std::int32_t>>> rows_;
};

/// Incrementally maintained recency/co-presence index owned by a Room
/// and updated under its tick lock. Not thread-safe by itself; the
/// published views are immutable and safe to read from any thread.
/// Rows are copy-on-write: the index never writes a row a published
/// view holds, so a tick pays for the rows whose scores it changes.
class TemporalIndex {
 public:
  /// Pairs within this distance (m) count as co-present.
  static constexpr double kCoPresenceRadius = 2.0;

  TemporalIndex() = default;

  int num_users() const { return static_cast<int>(rows_.size()); }

  /// Rebuilds from scratch at `tick`: currently-co-present pairs score
  /// kCoPresent, everything else kNever. Historical recency is lost —
  /// the documented behavior after migration / cold-restart recovery.
  void Rebuild(const std::vector<Vec2>& positions, std::int64_t tick);

  /// Incremental tick update: re-evaluates only pairs with at least one
  /// endpoint in `moved` (sorted ascending). A pair leaving co-presence
  /// is stamped with the previous update's tick (its last co-present
  /// tick); untouched pairs cannot have changed co-presence status, so
  /// their scores are already correct. Idempotent for doubly-moved
  /// pairs. Writes only the scores that change, each into both of its
  /// rows, copying a row before its first write after a publish.
  void Update(const std::vector<Vec2>& positions,
              const std::vector<int>& moved, std::int64_t tick);

  /// Publishes an immutable view of the current scores: the last
  /// published view when no row changed since, otherwise a new view
  /// holding the current rows (O(n) pointer copies, no score copies).
  std::shared_ptr<const TemporalView> PublishView();

 private:
  using Row = std::vector<std::int32_t>;

  static bool CoPresent(const Vec2& a, const Vec2& b) {
    return (a - b).NormSq() <= kCoPresenceRadius * kCoPresenceRadius;
  }
  /// Sets score (u, c), first copying row u if the last published view
  /// holds it.
  void Write(int u, int c, std::int32_t score);

  std::int64_t last_tick_ = -1;
  /// One row per user. A row the last published view holds is copied
  /// before it is written; a row created since is written in place. A
  /// row an older view holds is either held by the last view too or no
  /// longer here.
  std::vector<std::shared_ptr<Row>> rows_;
  /// The last published view; null before the first publish and after
  /// a Rebuild.
  std::shared_ptr<const TemporalView> published_;
};

}  // namespace after

#endif  // AFTER_GRAPH_TEMPORAL_INDEX_H_
