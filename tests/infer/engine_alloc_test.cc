// Heap allocations of one warm serving forward, counted by a replaced
// global operator new. The replacement covers every allocation in this
// binary, which is why the test has a binary of its own.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/poshgnn.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "serve/room.h"
#include "sim/xr_world.h"

namespace {

std::atomic<long> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace after {
namespace {

TEST(EngineAllocationTest, WarmArcsForwardAllocatesOnlyItsSelection) {
  // A crowded live room: an MR target has many physical users in front
  // of it, so its MIA mask sorts and scans a long blocker list.
  DatasetConfig dataset_config;
  dataset_config.num_users = 128;
  dataset_config.num_steps = 2;
  dataset_config.num_sessions = 1;
  dataset_config.room_side = 8.0;
  dataset_config.seed = 15;
  const Dataset dataset = GenerateTimikLike(dataset_config);
  serve::Room::Options options;
  options.mode = serve::Room::Mode::kLive;
  const std::unique_ptr<serve::Room> room =
      serve::Room::Create(options, &dataset).value();
  ASSERT_TRUE(room->Tick().ok());
  const std::shared_ptr<const serve::RoomSnapshot> snapshot = room->snapshot();

  const std::vector<Interface>& interfaces = dataset.sessions[0].interfaces();
  int mr_target = -1, vr_target = -1, mr_users = 0;
  for (int u = 0; u < static_cast<int>(interfaces.size()); ++u) {
    if (interfaces[u] == Interface::kMR) {
      ++mr_users;
      if (mr_target < 0) mr_target = u;
    } else if (vr_target < 0) {
      vr_target = u;
    }
  }
  ASSERT_GE(mr_target, 0);
  ASSERT_GE(vr_target, 0);
  ASSERT_GT(mr_users, 16);

  PoshgnnConfig model_config;
  model_config.hidden_dim = 8;
  model_config.seed = 9;
  FrozenPoshgnn model{Poshgnn(model_config)};
  std::vector<StepContext> contexts;
  for (const int target : {mr_target, vr_target}) {
    contexts.push_back(snapshot->ContextFor(target));
    ASSERT_NE(contexts.back().arcs, nullptr);
    model.Recommend(contexts.back());  // warm the workspace
  }
  for (const StepContext& context : contexts) {
    SCOPED_TRACE(::testing::Message() << "target " << context.target);
    const long before = g_allocations.load();
    const std::vector<bool> selection = model.Recommend(context);
    const long allocations = g_allocations.load() - before;
    EXPECT_EQ(selection.size(), interfaces.size());
    EXPECT_EQ(allocations, 1) << "only the returned selection may allocate";
  }
}

}  // namespace
}  // namespace after
