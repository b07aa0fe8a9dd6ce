// Small fork-join thread pool with chunked dynamic scheduling, for
// parallelizing embarrassingly-parallel loops (distance-matrix rows, batch
// prediction, LOOCV queries) without per-call thread spawning.
//
// Scheduling model: ParallelFor splits [0, n) into fixed-size chunks that
// workers claim from a shared atomic counter (chunked self-scheduling).
// Later chunks are claimed by whichever worker drains its share first, so
// skewed per-index costs — e.g. upper-triangle rows whose length shrinks
// with the row index — balance automatically.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ida {

/// std::thread::hardware_concurrency() clamped to >= 1 (the standard
/// permits 0 when the value is unknown).
int HardwareConcurrency();

/// CPUs for `count` threads the calling thread is about to start for one
/// parallel phase: distinct CPUs of its affinity mask, taken in order after
/// the CPU it runs on, so no two of them and the caller share one. Empty
/// when the mask has fewer than count + 1 CPUs or cannot be read; the
/// threads are then left to the scheduler.
///
/// Why bind at all: the kernel sometimes starts a phase's new threads on
/// the caller's CPU and leaves them there while the other CPUs idle. A
/// 3-thread LOOCV sweep of 0.25 s then ran on one CPU from its first chunk
/// to its last (user time equal to wall time, 2.7x slower), in a share of
/// runs that came and went with the host's load.
std::vector<int> SpreadCpus(size_t count);

/// Binds the calling thread to `cpu` for the rest of its life; a no-op
/// for a negative `cpu` or where binding is unsupported.
void BindCurrentThread(int cpu);

/// Fixed-size fork-join pool. The constructing thread participates in
/// every ParallelFor as worker 0, so a pool of size T keeps T - 1
/// background threads, each bound to one of SpreadCpus(T - 1). Pools are
/// cheap enough to create per matrix build but are reusable across calls;
/// ParallelFor itself allocates nothing.
///
/// Thread-safety: ParallelFor may only be issued from the thread that
/// constructed the pool, one loop at a time (fork-join, not a task queue).
class ThreadPool {
 public:
  /// num_threads <= 0 selects HardwareConcurrency(); 1 runs every loop
  /// inline on the calling thread with no background workers.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers including the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs body(begin, end, worker) over disjoint chunks covering [0, n),
  /// blocking until every chunk has finished. `worker` is in
  /// [0, num_threads()) and is stable within one chunk — use it to index
  /// per-thread scratch state. `chunk` (clamped to >= 1) trades scheduling
  /// overhead against load balance.
  void ParallelFor(size_t n, size_t chunk,
                   const std::function<void(size_t begin, size_t end,
                                            int worker)>& body);

 private:
  void WorkerLoop(int worker);
  void RunChunks(int worker);

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar start_cv_;
  CondVar done_cv_;
  /// Bumped once per ParallelFor so sleeping workers can tell a new loop
  /// from a spurious wake.
  uint64_t generation_ IDA_GUARDED_BY(mu_) = 0;
  /// Workers still draining the current loop.
  int active_ IDA_GUARDED_BY(mu_) = 0;
  bool shutdown_ IDA_GUARDED_BY(mu_) = false;

  // Current-loop state, written before the generation bump and read-only
  // while workers run.
  std::atomic<size_t> next_{0};
  size_t n_ = 0;
  size_t chunk_ = 1;
  const std::function<void(size_t, size_t, int)>* body_ = nullptr;
};

}  // namespace ida
