// Macro-benchmark of pairwise distance-matrix construction — the hottest
// offline path of the system (kNN-LOOCV, I-SVM kernels and hyper-parameter
// sweeps all consume this matrix). Reports build time and pairs/sec at
// n in {50, 200, 500} contexts, one JSON line per configuration (the
// BENCH_*.json trajectory format: flat objects, one per line).
//
// Every timed build gets a fresh metric, as every caller builds: nothing
// carries over from one build to the next.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "actions/executor.h"
#include "common/parallel.h"
#include "distance/ted.h"
#include "session/ncontext.h"
#include "synth/agent.h"
#include "synth/dataset.h"

namespace ida {
namespace {

// Carves a diverse population of n-contexts (paper-default size 7) out of
// synthetic analyst sessions until `want` contexts are available.
std::vector<NContext> MakeContexts(size_t want) {
  std::vector<NContext> contexts;
  ActionExecutor exec;
  SynthDataset d = MakeScenarioDataset(ScenarioKind::kMalwareBeacon, 800, 3);
  for (uint64_t seed = 1; contexts.size() < want; ++seed) {
    AgentProfile profile;
    profile.min_steps = 7;
    profile.max_steps = 9;
    AnalystAgent agent(&d, profile, seed);
    auto tree = agent.RunSession("bench", "u", exec);
    if (!tree.ok()) continue;
    for (int t = 0; t <= tree->num_steps() && contexts.size() < want; ++t) {
      contexts.push_back(ExtractNContext(*tree, t, 7));
    }
  }
  return contexts;
}

double TimeBuildSeconds(const std::vector<NContext>& contexts, int threads) {
  SessionDistanceOptions options;
  options.num_threads = threads;
  const SessionDistance metric(options);
  auto start = std::chrono::steady_clock::now();
  auto matrix = BuildDistanceMatrix(contexts, metric);
  auto stop = std::chrono::steady_clock::now();
  // Touch the result so the build cannot be elided.
  volatile double sink = matrix[0][contexts.size() - 1];
  (void)sink;
  return std::chrono::duration<double>(stop - start).count();
}

void RunOne(const std::vector<NContext>& contexts, int threads) {
  const size_t n = contexts.size();
  // Best of three cold builds.
  double secs = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    secs = std::min(secs, TimeBuildSeconds(contexts, threads));
  }
  double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  std::printf(
      "{\"bench\":\"distance_matrix\",\"n\":%zu,\"threads\":%d,"
      "\"seconds\":%.6f,\"pairs_per_sec\":%.1f}\n",
      n, threads, secs, pairs / secs);
  std::fflush(stdout);
}

}  // namespace
}  // namespace ida

int main() {
  const int hw = ida::HardwareConcurrency();
  for (size_t n : {50, 200, 500}) {
    std::vector<ida::NContext> contexts = ida::MakeContexts(n);
    ida::RunOne(contexts, 1);
    if (hw > 1) ida::RunOne(contexts, hw);
  }
  return 0;
}
