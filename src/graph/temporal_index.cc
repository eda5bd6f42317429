#include "graph/temporal_index.h"

#include <algorithm>

#include "common/check.h"

namespace after {

void TemporalView::FillPruneMask(int target, int k,
                                 std::vector<bool>* mask) const {
  const int n = num_users();
  AFTER_CHECK(mask != nullptr);
  AFTER_CHECK_GE(target, 0);
  AFTER_CHECK_LT(target, n);
  mask->assign(n, false);
  if (k <= 0 || k >= n - 1) return;  // nothing to prune
  std::vector<int> cand;
  cand.reserve(n - 1);
  for (int i = 0; i < n; ++i) {
    if (i != target) cand.push_back(i);
  }
  // (score desc, index asc) is a strict total order, so the top-k set is
  // unique and the mask deterministic.
  const std::vector<std::int32_t>& row = *rows_[target];
  const auto better = [&row](int a, int b) {
    if (row[a] != row[b]) return row[a] > row[b];
    return a < b;
  };
  std::nth_element(cand.begin(), cand.begin() + k, cand.end(), better);
  for (auto it = cand.begin() + k; it != cand.end(); ++it) {
    (*mask)[*it] = true;
  }
}

std::vector<int> TemporalView::TopCandidates(int target, int k) const {
  const int n = num_users();
  AFTER_CHECK_GE(target, 0);
  AFTER_CHECK_LT(target, n);
  std::vector<int> cand;
  cand.reserve(n - 1);
  for (int i = 0; i < n; ++i) {
    if (i != target) cand.push_back(i);
  }
  const std::vector<std::int32_t>& row = *rows_[target];
  const auto better = [&row](int a, int b) {
    if (row[a] != row[b]) return row[a] > row[b];
    return a < b;
  };
  const size_t take = std::min<size_t>(k < 0 ? 0 : k, cand.size());
  std::partial_sort(cand.begin(), cand.begin() + take, cand.end(), better);
  cand.resize(take);
  return cand;
}

void TemporalIndex::Rebuild(const std::vector<Vec2>& positions,
                            std::int64_t tick) {
  const int n = static_cast<int>(positions.size());
  rows_.clear();
  for (int i = 0; i < n; ++i)
    rows_.push_back(std::make_shared<Row>(n, TemporalView::kNever));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (CoPresent(positions[i], positions[j])) {
        (*rows_[i])[j] = TemporalView::kCoPresent;
        (*rows_[j])[i] = TemporalView::kCoPresent;
      }
    }
  }
  last_tick_ = tick;
  // Every row is new, so the next publish makes a new view.
  published_.reset();
}

void TemporalIndex::Update(const std::vector<Vec2>& positions,
                           const std::vector<int>& moved,
                           std::int64_t tick) {
  const int n = num_users();
  AFTER_CHECK_EQ(static_cast<int>(positions.size()), n);
  for (int m : moved) {
    AFTER_CHECK_GE(m, 0);
    AFTER_CHECK_LT(m, n);
    for (int c = 0; c < n; ++c) {
      if (c == m) continue;
      // Scores are symmetric, so the mover's own row holds the pair's.
      // Write may replace the row, so it is looked up every time.
      const std::int32_t old = (*rows_[m])[c];
      std::int32_t now = old;
      if (CoPresent(positions[m], positions[c])) {
        now = TemporalView::kCoPresent;
      } else if (old == TemporalView::kCoPresent) {
        // The pair just separated; it was last co-present at the
        // previous update. (A doubly-moved pair hits this branch only
        // on its first visit — the second sees the stamped tick.)
        now = static_cast<std::int32_t>(last_tick_);
      }
      if (now == old) continue;
      Write(m, c, now);
      Write(c, m, now);
    }
  }
  last_tick_ = tick;
}

void TemporalIndex::Write(int u, int c, std::int32_t score) {
  if (published_ != nullptr && published_->rows_[u] == rows_[u])
    rows_[u] = std::make_shared<Row>(*rows_[u]);
  (*rows_[u])[c] = score;
}

std::shared_ptr<const TemporalView> TemporalIndex::PublishView() {
  // Every row still the one the last view holds: nothing changed.
  if (published_ != nullptr &&
      std::equal(rows_.begin(), rows_.end(), published_->rows_.begin(),
                 published_->rows_.end()))
    return published_;
  auto view = std::make_shared<TemporalView>();
  view->rows_.assign(rows_.begin(), rows_.end());
  published_ = view;
  return published_;
}

}  // namespace after
