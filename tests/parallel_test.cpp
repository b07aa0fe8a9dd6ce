// Tests for the fork-join thread pool: exact index coverage (every index
// visited exactly once regardless of thread count or chunk size), worker-id
// bounds, pool reuse across dispatches, the serial fast path, and the
// spreading of background workers over distinct CPUs.
#include "common/parallel.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ida {
namespace {

TEST(HardwareConcurrencyTest, AtLeastOne) {
  EXPECT_GE(HardwareConcurrency(), 1);
}

TEST(ThreadPoolTest, NumThreadsMatchesRequest) {
  EXPECT_EQ(ThreadPool(1).num_threads(), 1);
  EXPECT_EQ(ThreadPool(3).num_threads(), 3);
  EXPECT_EQ(ThreadPool(0).num_threads(), HardwareConcurrency());
  EXPECT_EQ(ThreadPool(-5).num_threads(), HardwareConcurrency());
}

// Every index in [0, n) must be claimed by exactly one chunk, with a valid
// worker id, for serial and parallel pools and for chunk sizes that do and
// do not divide n.
TEST(ThreadPoolTest, ParallelForCoversEachIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                     size_t{1000}}) {
      for (size_t chunk : {size_t{1}, size_t{3}, size_t{16}}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        pool.ParallelFor(n, chunk,
                         [&](size_t begin, size_t end, int worker) {
                           ASSERT_GE(worker, 0);
                           ASSERT_LT(worker, pool.num_threads());
                           ASSERT_LE(begin, end);
                           ASSERT_LE(end, n);
                           // Serial pools dispatch the whole range as one
                           // chunk; real pools never exceed the chunk size.
                           if (pool.num_threads() > 1) {
                             ASSERT_LE(end - begin, chunk);
                           }
                           for (size_t i = begin; i < end; ++i) {
                             hits[i].fetch_add(1);
                           }
                         });
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "threads=" << threads << " n=" << n << " chunk=" << chunk
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossDispatches) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(100, 7, [&](size_t begin, size_t end, int) {
      total.fetch_add(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 2000u);
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  int calls = 0;
  pool.ParallelFor(10, 4, [&](size_t begin, size_t end, int worker) {
    EXPECT_EQ(worker, 0);
    (void)begin;
    (void)end;
    ++calls;
  });
  // Serial fast path dispatches the whole range as one chunk.
  EXPECT_EQ(calls, 1);
}

#if defined(__linux__)
/// The CPUs the calling thread may run on.
std::set<int> AllowedCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::set<int> cpus;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.insert(cpu);
  }
  return cpus;
}

TEST(SpreadCpusTest, DistinctCpusOfTheMaskOrNone) {
  const std::set<int> allowed = AllowedCpus();
  ASSERT_FALSE(allowed.empty());
  EXPECT_TRUE(SpreadCpus(0).empty());
  for (size_t count = 1; count <= allowed.size() + 1; ++count) {
    const std::vector<int> spread = SpreadCpus(count);
    if (count + 1 > allowed.size()) {
      // No room to keep the caller's CPU free: left to the scheduler.
      EXPECT_TRUE(spread.empty()) << "count=" << count;
      continue;
    }
    ASSERT_EQ(spread.size(), count);
    const std::set<int> distinct(spread.begin(), spread.end());
    EXPECT_EQ(distinct.size(), count);
    for (int cpu : spread) {
      EXPECT_EQ(allowed.count(cpu), 1u) << cpu;
    }
  }
}

// Each background worker runs bound to its own CPU when the mask has room
// for them and the caller; otherwise the workers keep the caller's mask.
TEST(ThreadPoolTest, BackgroundWorkersRunOnDistinctCpus) {
  const std::set<int> allowed = AllowedCpus();
  const int threads = 3;
  const bool spread = allowed.size() >= static_cast<size_t>(threads);
  ThreadPool pool(threads);
  std::vector<std::set<int>> masks(static_cast<size_t>(threads));
  std::vector<std::atomic<int>> chunks(static_cast<size_t>(threads));
  for (auto& c : chunks) c.store(0);
  // Every chunk waits until each worker has run one, so all take part.
  pool.ParallelFor(static_cast<size_t>(threads), 1,
                   [&](size_t, size_t, int worker) {
                     masks[static_cast<size_t>(worker)] = AllowedCpus();
                     chunks[static_cast<size_t>(worker)].fetch_add(1);
                     for (;;) {
                       int ran = 0;
                       for (auto& c : chunks) ran += c.load() > 0 ? 1 : 0;
                       if (ran == threads) break;
                       std::this_thread::yield();
                     }
                   });
  std::set<int> bound;
  for (int w = 1; w < threads; ++w) {
    const std::set<int>& mask = masks[static_cast<size_t>(w)];
    if (spread) {
      ASSERT_EQ(mask.size(), 1u) << "worker " << w;
      bound.insert(*mask.begin());
    } else {
      EXPECT_EQ(mask, allowed) << "worker " << w;
    }
  }
  if (spread) {
    EXPECT_EQ(bound.size(), static_cast<size_t>(threads - 1));
  }
  // The caller is never bound.
  EXPECT_EQ(masks[0], allowed);
}
#endif

}  // namespace
}  // namespace ida
