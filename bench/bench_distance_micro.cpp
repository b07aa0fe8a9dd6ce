// Micro-benchmarks of the session distance (Zhang-Shasha tree edit
// distance over n-contexts) — the inner loop of both kNN search and
// distance-matrix construction. Besides the google-benchmark suites, the
// binary leads with a kernel-only throughput row (cells/µs of the bare DP
// loop, no ground metrics) as machine-readable JSON, tagged with the
// compiler and the widest vector ISA the build targets so kernel numbers
// from different machines/flag sets are comparable.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "distance/ted.h"
#include "distance/zhang_shasha.h"
#include "session/ncontext.h"
#include "synth/dataset.h"
#include "synth/agent.h"

namespace ida {
namespace {

// A long synthetic session to carve n-contexts from.
const SessionTree& LongSession() {
  static SessionTree* tree = [] {
    SynthDataset d = MakeScenarioDataset(ScenarioKind::kMalwareBeacon, 800, 3);
    AgentProfile profile;
    profile.min_steps = 9;
    profile.max_steps = 9;
    AnalystAgent agent(&d, profile, 17);
    ActionExecutor exec;
    auto t = agent.RunSession("micro", "u", exec);
    return new SessionTree(std::move(*t));
  }();
  return *tree;
}

void BM_TreeEditDistance(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const SessionTree& tree = LongSession();
  int t = tree.num_steps();
  NContext a = ExtractNContext(tree, t, n);
  NContext b = ExtractNContext(tree, t - 1, n);
  SessionDistance metric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric.Distance(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_TreeEditDistance)->DenseRange(1, 11, 2)->Complexity();

void BM_ExtractNContext(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const SessionTree& tree = LongSession();
  int t = tree.num_steps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractNContext(tree, t, n));
  }
}
BENCHMARK(BM_ExtractNContext)->Arg(3)->Arg(7)->Arg(11);

void BM_DistanceMatrix(benchmark::State& state) {
  const SessionTree& tree = LongSession();
  std::vector<NContext> contexts;
  for (int t = 0; t <= tree.num_steps(); ++t) {
    for (int n : {3, 5, 7}) contexts.push_back(ExtractNContext(tree, t, n));
  }
  // Replicate to the requested population size.
  size_t want = static_cast<size_t>(state.range(0));
  while (contexts.size() < want) {
    contexts.push_back(contexts[contexts.size() % 30]);
  }
  contexts.resize(want);
  for (auto _ : state) {
    // A fresh metric per build, as every caller builds.
    benchmark::DoNotOptimize(BuildDistanceMatrix(contexts, SessionDistance()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() *
                                               want * (want - 1) / 2));
}
BENCHMARK(BM_DistanceMatrix)->Arg(32)->Arg(64)->Arg(128);

// ---------------------------------------------------------------------------
// Kernel-only throughput row.

/// The widest SIMD register width the compilation targets, in bits (what
/// the auto-vectorizer of the pass-A loops has to work with).
constexpr int VectorWidthBits() {
#if defined(__AVX512F__)
  return 512;
#elif defined(__AVX2__) || defined(__AVX__)
  return 256;
#elif defined(__SSE2__) || defined(__x86_64__) || defined(__ARM_NEON)
  return 128;
#else
  return 0;
#endif
}

/// A path-shaped FlatContext of `length` nodes — the n-context tree shape
/// (every node's leftmost leaf is position 0, single keyroot), but longer
/// than any real n-context so the anchored fast path dominates the timing.
FlatContext MakeChain(size_t length, uint64_t salt) {
  FlatContext t;
  t.post.resize(length);
  for (size_t i = 0; i < length; ++i) {
    t.post[i].leftmost = 0;
    // A jagged dyadic per-node feature for the positional alter functor.
    t.post[i].log_rows =
        static_cast<double>((i * 29 + salt * 13 + 7) % 32) / 8.0;
  }
  t.keyroots = {static_cast<int>(length) - 1};
  return t;
}

/// Times the restructured Zhang–Shasha kernel in isolation: a positional
/// alter functor (two loads, one subtract, one multiply) instead of the
/// real ground metrics, so the row measures the DP loop itself. DP cell
/// count per call = Σ over keyroot-block pairs of (ni-1)(nj-1); for two
/// chains that is a single length x length block.
void PrintKernelThroughput() {
  constexpr size_t kLen = 96;
  constexpr size_t kIters = 2000;
  constexpr int kReps = 5;
  const FlatContext a = MakeChain(kLen, 1);
  const FlatContext b = MakeChain(kLen, 2);
  TedWorkspace ws;
  auto alter = [&](int i, int j) {
    const double da = a.post[static_cast<size_t>(i)].log_rows;
    const double db = b.post[static_cast<size_t>(j)].log_rows;
    return 0.125 * (da < db ? db - da : da - db);
  };
  double sink = 0.0;
  // Warm the workspace buffers and the branch predictors once.
  sink += internal::ZhangShashaCompute(a, b, 1.0, &ws, alter);
  double best_seconds = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t it = 0; it < kIters; ++it) {
      sink += internal::ZhangShashaCompute(a, b, 1.0, &ws, alter);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best_seconds = std::min(best_seconds, elapsed.count());
  }
  const double cells = static_cast<double>(kLen * kLen * kIters);
  const double cells_per_us = cells / (best_seconds * 1e6);
  std::printf(
      "{\"bench\":\"distance_micro\",\"config\":\"ted_kernel\","
      "\"chain_len\":%zu,\"cells_per_call\":%zu,"
      "\"cells_per_us\":%.1f,\"compiler\":\"%s\","
      "\"vector_width_bits\":%d,\"checksum\":%.3f}\n",
      kLen, kLen * kLen, cells_per_us, __VERSION__, VectorWidthBits(), sink);
}

}  // namespace
}  // namespace ida

int main(int argc, char** argv) {
  ida::PrintKernelThroughput();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
