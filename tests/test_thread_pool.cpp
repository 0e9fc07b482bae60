// util::ThreadPool: coverage semantics, nested regions, exception
// propagation, slot stability. Also the stress suite the TSan build
// (ODLP_SANITIZE=thread) exercises.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace odlp {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_slotted(0, n, 3,
                              [&](std::size_t b, std::size_t e, std::size_t) {
                                for (std::size_t i = b; i < e; ++i) {
                                  hits[i].fetch_add(1);
                                }
                              });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPool, ChunksRespectGrain) {
  util::ThreadPool pool(3);
  std::atomic<std::size_t> max_chunk{0};
  pool.parallel_for_slotted(10, 95, 7,
                            [&](std::size_t b, std::size_t e, std::size_t) {
                              ASSERT_LE(b, e);
                              std::size_t len = e - b;
                              std::size_t prev = max_chunk.load();
                              while (len > prev &&
                                     !max_chunk.compare_exchange_weak(prev, len)) {
                              }
                            });
  EXPECT_LE(max_chunk.load(), 7u);
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  util::ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for_slotted(0, 10, 4,
                            [&](std::size_t b, std::size_t e, std::size_t lane) {
                              EXPECT_EQ(lane, 0u);
                              for (std::size_t i = b; i < e; ++i) {
                                order.push_back(static_cast<int>(i));
                              }
                            });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // chunk order == submission order when inline
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for_slotted(
      0, 8, 1, [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t outer = b; outer < e; ++outer) {
          pool.parallel_for_slotted(
              0, 8, 1, [&](std::size_t ib, std::size_t ie, std::size_t) {
                for (std::size_t inner = ib; inner < ie; ++inner) {
                  hits[outer * 8 + inner].fetch_add(1);
                }
              });
        }
      });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToSubmitter) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_slotted(
                   0, 100, 1,
                   [&](std::size_t b, std::size_t, std::size_t) {
                     if (b == 42) throw std::runtime_error("chunk 42");
                   }),
               std::runtime_error);
  // Pool stays usable after a failed region.
  std::atomic<int> sum{0};
  pool.parallel_for_slotted(0, 10, 1,
                            [&](std::size_t b, std::size_t e, std::size_t) {
                              for (std::size_t i = b; i < e; ++i) {
                                sum.fetch_add(static_cast<int>(i));
                              }
                            });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, SlotIdsStayInRange) {
  util::ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.parallel_for_slotted(0, 200, 1,
                            [&](std::size_t, std::size_t, std::size_t lane) {
                              if (lane >= pool.lanes()) ok = false;
                            });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, SlotScratchNeedsNoSynchronization) {
  // One scratch accumulator per lane; lanes run one chunk at a time, so
  // unsynchronized lane-indexed writes must be race-free (TSan checks this).
  util::ThreadPool pool(4);
  std::vector<long> scratch(pool.lanes(), 0);
  pool.parallel_for_slotted(0, 5000, 16,
                            [&](std::size_t b, std::size_t e, std::size_t lane) {
                              for (std::size_t i = b; i < e; ++i) {
                                scratch[lane] += static_cast<long>(i);
                              }
                            });
  long total = 0;
  for (long v : scratch) total += v;
  EXPECT_EQ(total, 5000L * 4999L / 2);
}

TEST(ThreadPool, ResizeChangesLaneCount) {
  util::ThreadPool pool(2);
  EXPECT_EQ(pool.lanes(), 2u);
  pool.resize(5);
  EXPECT_EQ(pool.lanes(), 5u);
  std::atomic<int> sum{0};
  pool.parallel_for_slotted(0, 100, 1,
                            [&](std::size_t b, std::size_t e, std::size_t) {
                              sum.fetch_add(static_cast<int>(e - b));
                            });
  EXPECT_EQ(sum.load(), 100);
  pool.resize(1);
  EXPECT_EQ(pool.lanes(), 1u);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  util::ThreadPool& pool = util::ThreadPool::global();
  EXPECT_GE(pool.lanes(), 1u);
  std::atomic<int> sum{0};
  pool.parallel_for_slotted(0, 64, 1,
                            [&](std::size_t b, std::size_t e, std::size_t) {
                              sum.fetch_add(static_cast<int>(e - b));
                            });
  EXPECT_EQ(sum.load(), 64);
}

TEST(ThreadPool, DefaultPoolStartsAtHardwareConcurrency) {
  const std::size_t hw = std::thread::hardware_concurrency();
  util::ThreadPool pool;
  EXPECT_EQ(pool.lanes(), std::clamp<std::size_t>(hw, 1, 64));
}

TEST(ThreadPool, StressManySmallRegions) {
  // Back-to-back regions reusing the same workers; primarily a TSan target.
  util::ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for_slotted(0, 37, 2,
                              [&](std::size_t b, std::size_t e, std::size_t) {
                                sum.fetch_add(static_cast<int>(e - b));
                              });
    ASSERT_EQ(sum.load(), 37);
  }
}

}  // namespace
}  // namespace odlp
