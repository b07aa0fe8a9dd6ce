#include "common/parallel.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>

namespace ida {

int HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<int> SpreadCpus(size_t count) {
  std::vector<int> spread;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (count == 0 || sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    return spread;
  }
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) allowed.push_back(cpu);
  }
  if (allowed.size() < count + 1) return spread;
  const auto here =
      std::find(allowed.begin(), allowed.end(), sched_getcpu());
  const size_t first =
      here == allowed.end()
          ? 0
          : static_cast<size_t>(here - allowed.begin()) + 1;
  for (size_t i = 0; i < count; ++i) {
    spread.push_back(allowed[(first + i) % allowed.size()]);
  }
#else
  (void)count;
#endif
  return spread;
}

void BindCurrentThread(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // Best effort: a refused binding leaves the thread to the scheduler.
  (void)sched_setaffinity(0, sizeof(one), &one);
#else
  (void)cpu;
#endif
}

ThreadPool::ThreadPool(int num_threads) {
  int resolved = num_threads <= 0 ? HardwareConcurrency() : num_threads;
  const size_t background = static_cast<size_t>(resolved - 1);
  const std::vector<int> cpus = SpreadCpus(background);
  workers_.reserve(background);
  for (int w = 1; w < resolved; ++w) {
    const int cpu = cpus.empty() ? -1 : cpus[static_cast<size_t>(w - 1)];
    workers_.emplace_back([this, w, cpu] {
      BindCurrentThread(cpu);
      WorkerLoop(w);
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(int worker) {
  for (;;) {
    size_t begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= n_) break;
    size_t end = std::min(n_, begin + chunk_);
    (*body_)(begin, end, worker);
  }
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen = 0;
  for (;;) {
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && generation_ == seen) start_cv_.wait(lock);
      if (shutdown_) return;
      seen = generation_;
    }
    RunChunks(worker);
    {
      MutexLock lock(&mu_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t chunk,
    const std::function<void(size_t begin, size_t end, int worker)>& body) {
  if (n == 0) return;
  if (workers_.empty()) {
    body(0, n, 0);
    return;
  }
  {
    MutexLock lock(&mu_);
    n_ = n;
    chunk_ = std::max<size_t>(1, chunk);
    body_ = &body;
    next_.store(0, std::memory_order_relaxed);
    active_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  RunChunks(0);
  {
    MutexLock lock(&mu_);
    while (active_ != 0) done_cv_.wait(lock);
    body_ = nullptr;
  }
}

}  // namespace ida
