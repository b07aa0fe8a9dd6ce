// Macro-benchmark of the engine train/serve split: times each phase of
// the model lifecycle separately — Fit (replay + label + training set),
// Save/Load of the versioned artifact, single-query Predict (the paper
// reports ~6.04 ms per prediction) and batched Predict over the serving
// thread pool. One JSON line per phase (the BENCH_*.json trajectory
// format: flat objects, one per line).
//
// `--load` runs the artifact load study instead (BENCH_load.json): for
// indexed models at n=2000 and n=10000 it times Predictor::LoadFromFile,
// which serves the artifact zero-copy off a file mapping (mode "v4_mmap",
// after the file that defines the layout). Each probe runs in a forked
// child so cold-load wall time, the VmRSS delta across the load, and the
// process peak RSS (VmHWM) are clean — heap arenas from training never
// leak into the measurement. The loaded model's first prediction is
// cross-checked against the in-memory model; a divergence fails the
// bench.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "engine/engine.h"
#include "index/vptree.h"
#include "synth/generator.h"

namespace ida {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Emit(const char* phase, double seconds, size_t items,
          const char* items_key) {
  std::printf(
      "{\"bench\":\"train_serve\",\"phase\":\"%s\",\"seconds\":%.6f,"
      "\"%s\":%zu,\"per_item_ms\":%.3f}\n",
      phase, seconds, items_key, items,
      items > 0 ? seconds * 1e3 / static_cast<double>(items) : 0.0);
  std::fflush(stdout);
}

void Run() {
  GeneratorOptions options;
  options.num_users = 12;
  options.num_sessions = 120;
  options.rows_per_dataset = 1200;
  options.seed = 99;
  auto bench = GenerateBenchmark(options);
  if (!bench.ok()) std::exit(1);

  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -1e300;  // keep every state: serving-scale model
  engine::Trainer trainer(config);

  // --- Fit: the whole offline phase (replay + label + training set).
  auto fit_start = Clock::now();
  auto model = trainer.Fit(bench->log, bench->registry);
  double fit_secs = SecondsSince(fit_start);
  if (!model.ok()) std::exit(1);
  Emit("fit", fit_secs, model->size(), "samples");

  // --- Save / Load of the versioned artifact.
  const std::string path = "/tmp/ida_bench_train_serve.idamodel";
  auto save_start = Clock::now();
  if (!model->SaveToFile(path).ok()) std::exit(1);
  Emit("save", SecondsSince(save_start), model->Serialize().size(), "bytes");

  auto load_start = Clock::now();
  auto served = engine::Predictor::LoadFromFile(path);
  double load_secs = SecondsSince(load_start);
  if (!served.ok()) std::exit(1);
  Emit("load", load_secs, served->train_size(), "samples");

  // --- Serving: hold out a few contexts as queries.
  std::vector<NContext> queries;
  for (size_t i = 0; i < 8 && i < model->size(); ++i) {
    queries.push_back(model->samples()[i * 7 % model->size()].context);
  }

  // Single-query latency (warm one round first so the display cache is in
  // steady state, as it would be in a long-lived serving process).
  for (const NContext& q : queries) served->Predict(q);
  const size_t kRounds = 4;
  auto predict_start = Clock::now();
  for (size_t r = 0; r < kRounds; ++r) {
    for (const NContext& q : queries) served->Predict(q);
  }
  Emit("predict", SecondsSince(predict_start), kRounds * queries.size(),
       "queries");

  // Batched prediction over the serving thread pool.
  auto batch_start = Clock::now();
  for (size_t r = 0; r < kRounds; ++r) served->PredictBatch(queries);
  Emit("predict_batch", SecondsSince(batch_start), kRounds * queries.size(),
       "queries");
}

// ---------------------------------------------------------------------------
// The artifact load study (--load).

constexpr size_t kLoadSizes[] = {2000, 10000};
constexpr size_t kLoadTrials = 5;

/// One artifact load measurement, filled in by a forked child.
struct LoadProbe {
  double cold_ms = 0.0;   // first load in a fresh process
  double best_ms = 0.0;   // min over kLoadTrials loads
  long rss_delta_kb = 0;  // VmRSS growth across the first load
  long peak_rss_kb = 0;   // VmHWM after all trials
  int label = -1;         // the probe query's prediction, for cross-checks
  double confidence = 0.0;
};

/// Reads one "Key:  <kb> kB" field from /proc/self/status.
long ProcStatusKb(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::strtol(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// The child-side body: loads `path`, measures the cold load and RSS,
/// answers `query` once, then re-loads for the min-of-trials figure.
LoadProbe ProbeLoad(const std::string& path, const NContext& query) {
  // Return freed arena pages inherited from the parent to the OS so the
  // load's allocations genuinely grow VmRSS instead of landing in
  // already-resident copy-on-write pages, and reset the inherited VmHWM
  // so the reported peak reflects this probe alone.
  malloc_trim(0);
  if (FILE* cr = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", cr);
    std::fclose(cr);
  }
  LoadProbe probe;
  const long rss_before = ProcStatusKb("VmRSS:");
  auto cold_start = Clock::now();
  auto served = engine::Predictor::LoadFromFile(path);
  probe.cold_ms = SecondsSince(cold_start) * 1e3;
  if (!served.ok()) std::exit(1);
  probe.rss_delta_kb = ProcStatusKb("VmRSS:") - rss_before;
  Prediction p = served->Predict(query);
  probe.label = p.label;
  probe.confidence = p.confidence;
  probe.best_ms = probe.cold_ms;
  for (size_t trial = 1; trial < kLoadTrials; ++trial) {
    auto start = Clock::now();
    auto again = engine::Predictor::LoadFromFile(path);
    const double ms = SecondsSince(start) * 1e3;
    if (!again.ok()) std::exit(1);
    probe.best_ms = std::min(probe.best_ms, ms);
  }
  probe.peak_rss_kb = ProcStatusKb("VmHWM:");
  return probe;
}

/// Forks, runs ProbeLoad in the child, and reads the result back over a
/// pipe. Exits the bench if the child fails.
LoadProbe ProbeLoadInChild(const std::string& path, const NContext& query) {
  int fds[2];
  if (pipe(fds) != 0) std::exit(1);
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) std::exit(1);
  if (pid == 0) {
    close(fds[0]);
    LoadProbe probe = ProbeLoad(path, query);
    const ssize_t n = write(fds[1], &probe, sizeof probe);
    _exit(n == static_cast<ssize_t>(sizeof probe) ? 0 : 1);
  }
  close(fds[1]);
  LoadProbe probe;
  const ssize_t n = read(fds[0], &probe, sizeof probe);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof probe) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::printf("{\"bench\":\"load\",\"error\":\"probe child failed\"}\n");
    std::exit(1);
  }
  return probe;
}

/// Trains an indexed model of exactly `n` samples over 56 users and
/// 1000-row datasets.
engine::TrainedModel BuildLoadModel(size_t n) {
  GeneratorOptions options;
  options.num_users = 56;
  // ~3.9 samples survive per generated session; a third of the target
  // gives ~1.3x headroom.
  options.num_sessions = std::max<size_t>(600, n / 3);
  options.rows_per_dataset = 1000;
  options.seed = 4242;
  auto bench = GenerateBenchmark(options);
  if (!bench.ok()) std::exit(1);

  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -1e300;  // keep every state: serving-scale model
  config.knn.distance_threshold = 0.25;
  config.use_index = true;
  engine::Trainer trainer(config);
  auto full = trainer.Fit(bench->log, bench->registry);
  if (!full.ok() || full->size() < n) std::exit(1);

  std::vector<TrainingSample> subset(
      full->samples().begin(), full->samples().begin() + static_cast<long>(n));
  std::vector<FlatContext> prepared;
  prepared.reserve(subset.size());
  for (const TrainingSample& s : subset) {
    prepared.push_back(SessionDistance::Prepare(s.context));
  }
  auto tree = std::make_shared<const index::VpTree>(index::VpTree::Build(
      prepared, SessionDistance(config.distance), index::VpTreeOptions{}));
  return engine::TrainedModel(config, std::move(subset), std::move(tree));
}

void EmitLoadLine(const char* mode, size_t n, size_t artifact_bytes,
                  const LoadProbe& probe) {
  std::printf(
      "{\"bench\":\"load\",\"mode\":\"%s\",\"n\":%zu,"
      "\"artifact_bytes\":%zu,\"cold_load_ms\":%.2f,\"best_load_ms\":%.3f,"
      "\"rss_delta_kb\":%ld,\"peak_rss_kb\":%ld}\n",
      mode, n, artifact_bytes, probe.cold_ms, probe.best_ms,
      probe.rss_delta_kb, probe.peak_rss_kb);
  std::fflush(stdout);
}

void RunLoad() {
  for (size_t n : kLoadSizes) {
    const std::string path = "/tmp/ida_bench_load.idamodel";
    size_t size = 0;
    NContext query;
    Prediction expected;
    {
      // Scoped so the probe child doesn't inherit the trained model's
      // footprint (the query's displays stay alive via shared_ptr).
      const engine::TrainedModel model = BuildLoadModel(n);
      query = model.samples()[7 % model.size()].context;
      auto in_memory = engine::Predictor::Load(model);
      if (!in_memory.ok()) std::exit(1);
      expected = in_memory->Predict(query);
      size = model.Serialize().size();
      if (!model.SaveToFile(path).ok()) std::exit(1);
    }

    const LoadProbe mapped = ProbeLoadInChild(path, query);
    EmitLoadLine("v4_mmap", n, size, mapped);

    // The loaded model must answer the probe query as the in-memory one.
    if (mapped.label != expected.label ||
        // Exact float comparison is deliberate here: bitwise-identical
        // serving after save/load is the contract under test.
        mapped.confidence != expected.confidence) {  // ida-lint: allow(float-eq)
      std::printf(
          "{\"bench\":\"load\",\"n\":%zu,\"error\":\"loaded model "
          "disagrees with the in-memory model on the probe prediction\"}\n",
          n);
      std::exit(1);
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ida

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--load") == 0) {
    ida::RunLoad();
  } else {
    ida::Run();
  }
  return 0;
}
