#include "common/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace fastjoin {
namespace {

TEST(Arena, FirstAllocationFetchesOneChunk) {
  Arena arena;
  void* p = arena.allocate(64, 8);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.stats().chunk_allocs, 1u);
  EXPECT_EQ(arena.stats().bump_allocs, 1u);
  arena.deallocate(p, 64, 8);
}

TEST(Arena, FreelistRecyclesFreedBlock) {
  Arena arena;
  void* a = arena.allocate(48, 8);
  arena.deallocate(a, 48, 8);
  // Same size class (64-byte class holds 33..64) must reuse the block
  // without touching the bump pointer or the global allocator.
  void* b = arena.allocate(60, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.stats().freelist_allocs, 1u);
  EXPECT_EQ(arena.stats().bump_allocs, 1u);
  arena.deallocate(b, 60, 8);
}

TEST(Arena, DistinctSizeClassesDoNotAlias) {
  Arena arena;
  void* small = arena.allocate(16, 8);
  void* big = arena.allocate(1024, 8);
  EXPECT_NE(small, big);
  arena.deallocate(small, 16, 8);
  // A larger request must not be served from the 16-byte free list.
  void* big2 = arena.allocate(512, 8);
  EXPECT_NE(big2, small);
  arena.deallocate(big, 1024, 8);
  arena.deallocate(big2, 512, 8);
}

TEST(Arena, OversizeBlocksFallBackToGlobal) {
  Arena arena(/*chunk_bytes=*/1024);
  ASSERT_EQ(arena.max_block_bytes(), 512u);
  void* p = arena.allocate(600, 8);  // > max_block_bytes
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.stats().fallback_allocs, 1u);
  EXPECT_EQ(arena.stats().chunk_allocs, 0u);
  arena.deallocate(p, 600, 8);  // must route to ::operator delete
  EXPECT_EQ(arena.stats().frees, 1u);
}

TEST(Arena, OveralignedRequestsFallBackToGlobal) {
  Arena arena;
  void* p = arena.allocate(64, 64);  // stricter than max_align_t
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  EXPECT_EQ(arena.stats().fallback_allocs, 1u);
  arena.deallocate(p, 64, 64);
}

TEST(Arena, BudgetExhaustionStillServesAndRecycles) {
  // Budget admits exactly one 1KiB chunk; everything past it must be
  // served from the heap but stay arena-owned (freed on destruction,
  // recyclable through the free lists). ASan's leak check on this test
  // is the real assertion for ownership.
  Arena arena(/*chunk_bytes=*/1024, /*max_bytes=*/1024);
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(arena.allocate(64, 8));
  for (void* p : blocks) ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.stats().chunk_allocs, 1u);
  EXPECT_EQ(arena.stats().bytes_reserved, 1024u);
  EXPECT_GT(arena.stats().fallback_allocs, 0u);

  // Post-exhaustion blocks recycle like any other block.
  const std::uint64_t fallbacks = arena.stats().fallback_allocs;
  for (void* p : blocks) arena.deallocate(p, 64, 8);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    void* p = arena.allocate(64, 8);
    ASSERT_NE(p, nullptr);
    arena.deallocate(p, 64, 8);
  }
  EXPECT_EQ(arena.stats().fallback_allocs, fallbacks);
  EXPECT_GE(arena.stats().freelist_allocs, blocks.size());
}

TEST(Arena, ZeroByteAllocationIsServed) {
  Arena arena;
  void* p = arena.allocate(0, 1);
  ASSERT_NE(p, nullptr);
  arena.deallocate(p, 0, 1);
}

TEST(ArenaAllocator, NullArenaDegradesToGlobalAllocator) {
  ArenaAllocator<int> alloc;  // no arena
  std::deque<int, ArenaAllocator<int>> dq(alloc);
  for (int i = 0; i < 1000; ++i) dq.push_back(i);
  EXPECT_EQ(dq.size(), 1000u);
  EXPECT_EQ(dq.front(), 0);
  EXPECT_EQ(dq.back(), 999);
}

TEST(ArenaAllocator, DequeChurnRecyclesThroughArena) {
  Arena arena;
  {
    std::deque<int, ArenaAllocator<int>> dq{ArenaAllocator<int>(&arena)};
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 500; ++i) dq.push_back(i);
      while (!dq.empty()) dq.pop_front();
    }
  }
  const ArenaStats& s = arena.stats();
  EXPECT_GT(s.bump_allocs + s.freelist_allocs, 0u);
  // Steady-state churn must hit the free lists, not fresh chunks.
  EXPECT_GT(s.freelist_allocs, 0u);
  EXPECT_LE(s.chunk_allocs, 2u);
}

TEST(ArenaAllocator, UnorderedMapNodesLiveOnArena) {
  Arena arena;
  using Alloc = ArenaAllocator<std::pair<const int, int>>;
  {
    std::unordered_map<int, int, std::hash<int>, std::equal_to<int>,
                       Alloc>
        map(16, std::hash<int>(), std::equal_to<int>(), Alloc(&arena));
    for (int i = 0; i < 2000; ++i) map[i] = i * 2;
    EXPECT_EQ(map.at(1234), 2468);
  }
  EXPECT_GT(arena.stats().bump_allocs, 0u);
  EXPECT_EQ(arena.stats().frees,
            arena.stats().bump_allocs + arena.stats().freelist_allocs +
                arena.stats().fallback_allocs);
}

}  // namespace
}  // namespace fastjoin
