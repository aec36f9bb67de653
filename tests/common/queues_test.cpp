#include "common/queues.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

namespace fastjoin {
namespace {

TEST(SpscRing, PushPopSingleThread) {
  SpscRing<int> q(8);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_EQ(q.size_approx(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscRing, FullRejectsPush) {
  SpscRing<int> q(2);  // rounded up; usable capacity >= 2
  std::size_t pushed = 0;
  while (q.try_push(static_cast<int>(pushed))) ++pushed;
  EXPECT_GE(pushed, 2u);
  EXPECT_FALSE(q.try_push(99));
  EXPECT_EQ(q.try_pop().value(), 0);
  EXPECT_TRUE(q.try_push(99));  // freed one slot
}

TEST(SpscRing, WrapsAround) {
  SpscRing<int> q(4);
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(q.try_push(round));
    ASSERT_EQ(q.try_pop().value(), round);
  }
  EXPECT_TRUE(q.empty_approx());
}

TEST(SpscRing, ConcurrentTransferPreservesSequence) {
  SpscRing<int> q(1024);
  const int n = 200'000;
  std::thread producer([&] {
    for (int i = 0; i < n; ++i) {
      while (!q.try_push(i)) std::this_thread::yield();
    }
  });
  long long sum = 0;
  int expected = 0;
  while (expected < n) {
    if (auto v = q.try_pop()) {
      ASSERT_EQ(*v, expected);  // FIFO, no loss, no duplication
      sum += *v;
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(n - 1) * n / 2);
}

TEST(SpscRing, BatchPushPopSingleThread) {
  SpscRing<int> q(8);
  int in[5] = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.try_push_batch(in, 5), 5u);
  int out[8] = {};
  EXPECT_EQ(q.try_pop_batch(out, 3), 3u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(q.try_pop_batch(out, 8), 2u);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(q.try_pop_batch(out, 8), 0u);
}

TEST(SpscRing, BatchPushStopsAtCapacity) {
  SpscRing<int> q(4);  // rounds up to 8 slots, 7 usable
  std::vector<int> in(100);
  std::iota(in.begin(), in.end(), 0);
  const std::size_t pushed = q.try_push_batch(in.data(), in.size());
  EXPECT_EQ(pushed, q.capacity());
  EXPECT_FALSE(q.try_push(999));  // really full
  int out[100];
  EXPECT_EQ(q.try_pop_batch(out, 100), pushed);
  for (std::size_t i = 0; i < pushed; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(SpscRing, BatchWrapsAroundPowerOfTwoBoundary) {
  SpscRing<int> q(8);  // 8 slots internally (mask 7)
  int out[8];
  int next_in = 0, next_out = 0;
  // Walk the indices across several wraparounds with mixed batch sizes
  // so batches straddle the power-of-two boundary in both directions.
  for (int round = 0; round < 200; ++round) {
    int in[3];
    for (int i = 0; i < 3; ++i) in[i] = next_in++;
    ASSERT_EQ(q.try_push_batch(in, 3), 3u);
    const std::size_t got = q.try_pop_batch(out, 3);
    ASSERT_EQ(got, 3u);
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i], next_out++) << "round " << round;
    }
  }
  EXPECT_TRUE(q.empty_approx());
}

TEST(SpscRing, CloseRejectsPushDrainsPop) {
  SpscRing<int> q(8);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(3));
  int batch[2] = {4, 5};
  EXPECT_EQ(q.try_push_batch(batch, 2), 0u);
  EXPECT_EQ(q.try_pop().value(), 1);  // drains what was in flight
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscRing, ConcurrentBatchTransferPreservesSequence) {
  SpscRing<int> q(256);
  const int n = 200'000;
  std::thread producer([&] {
    int buf[33];
    int next = 0;
    while (next < n) {
      const int want = std::min(33, n - next);
      for (int i = 0; i < want; ++i) buf[i] = next + i;
      std::size_t done = 0;
      while (done < static_cast<std::size_t>(want)) {
        const std::size_t k =
            q.try_push_batch(buf + done, want - done);
        if (k == 0) std::this_thread::yield();
        done += k;
      }
      next += want;
    }
  });
  int out[57];
  int expected = 0;
  while (expected < n) {
    const std::size_t k = q.try_pop_batch(out, 57);
    if (k == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(out[i], expected);  // FIFO, no loss, no duplication
      ++expected;
    }
  }
  producer.join();
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscRing, ConcurrentCloseDrainsCleanly) {
  // Producer pushes until the ring is closed under it; the consumer
  // drains to closed-and-empty. Every value the producer reported as
  // pushed must come out exactly once — the poison convention the live
  // runtime relies on at finish().
  SpscRing<int> q(64);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    int v = 0;
    for (;;) {
      if (q.try_push(v)) {
        pushed.store(++v, std::memory_order_release);
      } else if (q.closed()) {
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  producer.join();
  int expected = 0;
  while (auto v = q.try_pop()) {
    ASSERT_EQ(*v, expected);
    ++expected;
  }
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(expected, pushed.load(std::memory_order_acquire));
}

TEST(SpscRing, ManyLanesOneDrainerAtCapacityBoundary) {
  // The live-engine lane shape: each producer owns its own SPSC ring
  // (so the single-producer contract holds per lane) and ONE worker
  // thread drains all of them round-robin. Tiny capacity keeps every
  // lane bouncing off the full/empty boundary, which is where the
  // cached-index fast paths and the wraparound arithmetic earn (or
  // lose) their keep. Per-lane FIFO with no loss or duplication is the
  // invariant the worker's consumed-watermark dedup depends on.
  constexpr int kLanes = 5;
  constexpr int kPerLane = 60'000;
  constexpr std::size_t kCapacity = 4;  // rounds up to 8 slots, 7 usable
  std::vector<std::unique_ptr<SpscRing<std::uint64_t>>> lanes;
  for (int l = 0; l < kLanes; ++l) {
    lanes.push_back(std::make_unique<SpscRing<std::uint64_t>>(kCapacity));
  }

  std::vector<std::thread> producers;
  for (int l = 0; l < kLanes; ++l) {
    producers.emplace_back([&lanes, l] {
      auto& ring = *lanes[l];
      std::uint64_t buf[kCapacity + 3];  // deliberately > capacity
      std::uint64_t next = 0;
      while (next < kPerLane) {
        const std::size_t want = std::min<std::uint64_t>(
            kCapacity + 3, kPerLane - next);
        for (std::size_t i = 0; i < want; ++i) {
          // Lane id in the high bits so cross-lane leaks are detected.
          buf[i] = (static_cast<std::uint64_t>(l) << 32) | (next + i);
        }
        std::size_t done = 0;
        while (done < want) {
          const std::size_t k =
              ring.try_push_batch(buf + done, want - done);
          if (k == 0) std::this_thread::yield();
          done += k;
        }
        next += want;
      }
    });
  }

  // One drainer over all lanes, micro-batch pops like drain_lanes().
  std::vector<std::uint64_t> expected(kLanes, 0);
  std::uint64_t total = 0;
  std::uint64_t out[16];
  while (total < static_cast<std::uint64_t>(kLanes) * kPerLane) {
    bool progressed = false;
    for (int l = 0; l < kLanes; ++l) {
      const std::size_t k = lanes[l]->try_pop_batch(out, 16);
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(out[i] >> 32, static_cast<std::uint64_t>(l));
        ASSERT_EQ(out[i] & 0xffffffffu, expected[l]);
        ++expected[l];
      }
      total += k;
      progressed |= k > 0;
    }
    if (!progressed) std::this_thread::yield();
  }
  for (auto& p : producers) p.join();
  for (int l = 0; l < kLanes; ++l) {
    EXPECT_FALSE(lanes[l]->try_pop().has_value());
    EXPECT_EQ(expected[l], static_cast<std::uint64_t>(kPerLane));
  }
}

TEST(BoundedQueue, BasicPushPop) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));  // closed
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());  // drained + closed
}

TEST(BoundedQueue, BackpressureBlocksUntilSpace) {
  BoundedQueue<int> q(1);
  q.push(1);
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(q.try_pop().value(), 1);
  });
  EXPECT_TRUE(q.push(2));  // blocks until the pop frees a slot
  t.join();
  EXPECT_EQ(q.try_pop().value(), 2);
}

TEST(BoundedQueue, MpmcStress) {
  BoundedQueue<int> q(64);
  const int producers = 3;
  const int per_producer = 20'000;
  std::atomic<long long> sum{0};
  std::atomic<int> got{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        q.push(p * per_producer + i);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (got.load() < producers * per_producer) {
        if (auto v = q.try_pop()) {
          sum += *v;
          ++got;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const long long n = static_cast<long long>(producers) * per_producer;
  EXPECT_EQ(sum.load(), (n - 1) * n / 2);
}

TEST(BoundedQueue, MoveOnlyPayload) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  q.push(std::make_unique<int>(5));
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

}  // namespace
}  // namespace fastjoin
