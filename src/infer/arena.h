#ifndef AFTER_INFER_ARENA_H_
#define AFTER_INFER_ARENA_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/occlusion_converter.h"

namespace after {
namespace infer {

/// Bump allocator over 64-byte-aligned float blocks. One forward pass
/// carves all of its activations out of the arena and Reset() rewinds
/// the cursor — after the arena has warmed up to a room's peak working
/// set, steady-state serving performs zero heap allocations per
/// request.
///
/// Growth never invalidates live pointers: when the current block is
/// exhausted mid-forward an overflow block is chained, and the *next*
/// Reset() coalesces the total footprint into one contiguous block. The
/// bench/test hook for the zero-allocation claim is block_count() +
/// capacity(): both are stable across steady-state forwards.
class Arena {
 public:
  explicit Arena(std::size_t initial_floats = 0);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `count` zero-initialized floats aligned to
  /// kTensorAlignment. Valid until the next Reset().
  float* Allocate(std::size_t count);

  /// Rewinds the cursor; coalesces overflow blocks into one block sized
  /// for the peak observed footprint.
  void Reset();

  /// Total floats the arena can hand out before growing again.
  std::size_t capacity() const { return capacity_; }
  /// 1 in steady state; >1 only between an overflow and the next Reset.
  std::size_t block_count() const { return blocks_.size(); }
  /// Floats handed out since the last Reset.
  std::size_t used() const { return used_; }
  /// High-water mark across all forwards (drives coalescing).
  std::size_t peak() const { return peak_; }

 private:
  struct Block {
    explicit Block(std::size_t floats);
    ~Block();
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;
    float* data;
    std::size_t size;
    std::size_t offset = 0;
  };

  std::vector<std::unique_ptr<Block>> blocks_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
};

/// All per-request scratch state of one fused forward: the activation
/// arena plus the decode scratch vectors (kept outside the arena so
/// their capacity also persists across requests). One workspace serves
/// one forward at a time; concurrent requests each hold their own.
struct Workspace {
  Arena arena;
  /// Decode scratch (candidate indices + scores), reused across calls.
  /// Scores are double so the budgeted top-k ordering matches the
  /// reference decoder's comparisons as closely as possible.
  std::vector<int> candidates;
  std::vector<double> decode_score;
  /// Per-node degree of the occlusion adjacency (float for the fused
  /// LWP e0-degree term; see docs/inference.md).
  std::vector<float> degree;
  /// MIA mask scratch (PhysicallyBlockedUsers): the target's view arcs
  /// when the context has none, the MR flags, the nearest-first
  /// physical arcs, and the blocked mask.
  std::vector<ViewArc> arcs;
  std::vector<bool> physical;
  std::vector<ViewArc> blockers;
  std::vector<bool> blocked;

  explicit Workspace(std::size_t initial_floats = 0)
      : arena(initial_floats) {}
};

/// Free-list of workspaces shared by all threads serving one frozen
/// model. Acquire pops (or creates) a workspace; Release returns it.
/// The lock guards only the pointer swap — the forward itself runs
/// lock-free on the acquired workspace, so a shared FrozenPoshgnn stays
/// wait-free in the model code and TSan-clean under concurrent rooms.
class WorkspacePool {
 public:
  class Handle {
   public:
    Handle(WorkspacePool* pool, std::unique_ptr<Workspace> workspace)
        : pool_(pool), workspace_(std::move(workspace)) {}
    ~Handle() {
      if (workspace_ != nullptr) pool_->Release(std::move(workspace_));
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    Workspace* get() { return workspace_.get(); }
    Workspace* operator->() { return workspace_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<Workspace> workspace_;
  };

  /// Pops a warmed workspace or creates a fresh one.
  Handle Acquire();

  /// Workspaces created over the pool's lifetime (a steady-state serving
  /// mix should plateau at the peak concurrency, not grow per request).
  std::size_t created() const;

 private:
  void Release(std::unique_ptr<Workspace> workspace);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Workspace>> free_;
  std::size_t created_ = 0;
};

}  // namespace infer
}  // namespace after

#endif  // AFTER_INFER_ARENA_H_
