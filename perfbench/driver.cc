// The repository benchmark driver (perfbench/README.md). It runs one seeded
// workload against the library's public API, checks the answers, and
// prints one JSON result line:
//
//   perfbench_driver --workload replay_cold|replay_open
//                    --seed N --seconds S --trace 0|1
//                    [--root DIR] [--out-dir DIR]
//
// Every workload repeats the same round until --seconds are spent —
// Trainer::Fit, SaveToFile (v4), EvaluateLoocv, then a serving unit that
// replays a seeded trace through a SessionManager — so every end-to-end
// metric is measured on every workload, as a median over samples spread
// across the whole run (see World for what the seed drives). The
// workloads differ in their serving unit: a closed-loop replay pass
// (replay_cold) or an unthrottled 3-worker pass plus an open-loop Poisson
// pass at the reporting rate (replay_open). The checks afterwards load the
// artifact back with Predictor::LoadFromFile.
//
// --trace 0 measures the end-to-end metrics with the program's default
// ObsConfig (metrics on, no trace sink, no capture), as tools/loadgen does.
// --trace 1 is a separate run that reports the per-layer metrics: it keeps
// spans (name, start, end, parent, request id) in memory around the
// layers' public calls, derives self times from them, and writes them to
// <out-dir>/spans-<workload>-<seed>.jsonl when it ends. Nothing inside the
// library is instrumented for this; counters come from what the library
// already returns (PredictStats, TedTally, index::IndexStats, TrainReport
// and the ida.* metrics registry).
//
// Exit status: 0 with a result line; 1 with a result line whose "correct"
// is false when a correctness check failed; 2 on bad flags or a setup
// error; 3 when the open-loop load generator fell behind schedule (the run
// is invalid, not slow).
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "actions/executor.h"
#include "common/rng.h"
#include "distance/ground.h"
#include "distance/ted.h"
#include "engine/engine.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "predict/knn.h"
#include "replay/replay.h"
#include "replay/stats.h"
#include "serve/session_manager.h"
#include "session/ncontext.h"
#include "session/tree.h"
#include "synth/generator.h"

namespace ida::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// World seed of the checked-in experiments/serve.trace fixture.
constexpr uint64_t kFixtureSeed = 424242;
/// Open-loop advise latency limit (p99, timed from each request's due
/// time): the usual "feels instant" bound for interactive UIs.
constexpr double kLatencyLimitS = 0.100;
/// Replay workers of the open-loop workload (3 of the 4 cores).
constexpr int kOpenWorkers = 3;
/// The open-loop rate ladder in events/s. The middle rung is the reporting
/// rate; the outer rungs bracket it for the sustained-rate verdict.
/// BENCHMARK.json documents these values; change both together.
constexpr std::array<double, 3> kRates = {100.0, 200.0, 600.0};
constexpr size_t kReportingRung = 1;
/// Thread pool of LOOCV.
constexpr int kEvalThreads = 3;
/// A run repeats rounds until `--seconds` are spent, at least this many.
/// Each round sets up once more, fits kFitsPerRound times, saves, runs one
/// LOOCV and one serving unit, so every metric is a median over samples
/// spread across the whole run rather than over one stretch of it.
constexpr size_t kMinRounds = 3;
constexpr int kFitsPerRound = 2;
/// Artifact loads of the traced run (engine.load_s is their median).
constexpr int kLoadsPerCycle = 20;
/// Every k-th advise of a replay is checked against the one-shot oracle.
constexpr size_t kOracleStride = 8;
/// Samples checked index-vs-brute and loaded-vs-in-memory.
constexpr size_t kSampleChecks = 32;
/// A traced replay_cold run fails unless the decomposed layers account for
/// the measured advise time within this share.
constexpr double kReconcileTolerance = 0.10;
/// An open-loop pass is invalid when the generator-health probe woke this
/// late (p99) behind its schedule: a fifth of the latency limit.
constexpr double kGeneratorLateLimitS = 0.020;
/// Open-loop passes retried after an invalid (generator-late) attempt.
constexpr int kInvalidRetries = 3;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return replay::Median(v);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Flags and the result line.

struct Args {
  std::string workload;
  uint64_t seed = kFixtureSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string out_dir = ".bench_build/perfbench";
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "replay_cold|replay_open --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--out-dir DIR]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--root") {
      a.root = value;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      Usage();
    }
  }
  if (a.workload != "replay_cold" && a.workload != "replay_open") Usage();
  if (!(a.seconds > 0.0)) Usage();
  return a;
}

/// Collects metrics, operation counts and failed checks, and prints the
/// result line: {"correct", "attempted", "failed", "metrics"}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Count(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }

  /// Prints the result line; returns the process exit status.
  int Print() const {
    for (const std::string& f : failures_) {
      std::printf("{\"perfbench\":\"check_failed\",\"what\":\"%s\"}\n",
                  f.c_str());
    }
    std::string line = "{\"correct\": ";
    line += failures_.empty() ? "true" : "false";
    line += ", \"attempted\": " +
            std::to_string(std::max<size_t>(attempted_, 1));
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      line += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + metrics_[i].unit +
              "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return failures_.empty() ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Spans.

/// In-memory span recorder: one span per timed public call, linked to the
/// span that caused it and to the request it served. A span's self time is
/// its duration minus the durations of its recorded children. Children of
/// a serve.* span are measured on a mirror of the same state right after
/// the real call, so they are linked to it rather than nested in its
/// interval.
class Tracer {
 public:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int64_t Add(const char* name, double start, double end, int64_t parent,
              int64_t request) {
    spans_.push_back({name, start, end, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Summed self time per span name.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        covered[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - covered[i];
    }
    return out;
  }

  void WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\":%zu,\"parent\":%lld,\"request\":%lld,"
                    "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                    i, static_cast<long long>(s.parent),
                    static_cast<long long>(s.request), s.name, s.start * 1e6,
                    s.end * 1e6);
      out << buf;
    }
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
    }
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int64_t parent;
    int64_t request;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs.

/// The serve.trace world shape (tools/loadgen --make-trace defaults).
GeneratorOptions TraceWorld(uint64_t seed) {
  GeneratorOptions w;
  w.num_users = 16;
  w.num_sessions = 150;
  w.rows_per_dataset = 800;
  w.seed = seed;
  return w;
}

/// tools/loadgen's serving configuration: keep every state, theta_delta
/// 0.25, indexed; `threads` sizes the model's thread pool.
ModelConfig KeepAllConfig(int threads) {
  ModelConfig config = DefaultNormalizedConfig();
  config.theta_interest = -1e300;
  config.knn.distance_threshold = 0.25;
  config.use_index = true;
  config.distance.num_threads = threads;
  return config;
}

/// A workload's inputs: the fixture world, which trains the model, and a
/// trace of its sessions synthesized with SynthesizeTrace's defaults (64
/// sessions of at most 12 steps) and an arrival seed derived from the
/// run's seed. The fixed world keeps every run's work comparable: with a
/// world of the run's seed, the served query mix alone moved advise p99 by
/// 30% between seeds. The seed drives the session interleaving (closed
/// loop) and, with the Poisson stream seeded from it too, the arrival
/// times (open loop). At the fixture seed the trace is byte for byte
/// experiments/serve.trace.
struct World {
  SynthBenchmark bench;
  obs::Trace trace;
};

/// SynthesizeTrace options whose arrival seed is derived from the run's
/// seed; the fixture seed maps to the fixture's own arrival seed.
replay::SyntheticTraceOptions TraceOptions(uint64_t seed) {
  replay::SyntheticTraceOptions options;
  options.seed ^= seed ^ kFixtureSeed;
  return options;
}

std::unique_ptr<World> BuildWorld(uint64_t seed) {
  auto w = std::make_unique<World>();
  w->bench = Must(GenerateBenchmark(TraceWorld(kFixtureSeed)),
                  "world generation");
  w->trace = Must(replay::SynthesizeTrace(w->bench, TraceWorld(kFixtureSeed),
                                          TraceOptions(seed)),
                  "trace synthesis");
  return w;
}

/// The model with its thread pool resized (LOOCV runs on kEvalThreads
/// whatever pool the served model was trained with).
engine::TrainedModel WithThreads(const engine::TrainedModel& model,
                                 int threads) {
  ModelConfig config = model.config();
  config.distance.num_threads = threads;
  return engine::TrainedModel(config, model.samples(), model.index());
}

std::shared_ptr<const engine::Predictor> LoadPredictor(
    const engine::TrainedModel& model) {
  return std::make_shared<const engine::Predictor>(
      Must(engine::Predictor::Load(model), "model load"));
}

/// The classifier Predictor::Load builds, constructed the same way so a
/// decomposed pass serves from an identical, separately cached model.
IKnnClassifier MirrorClassifier(const engine::TrainedModel& model) {
  const ModelConfig& config = model.config();
  return IKnnClassifier(std::vector<TrainingSample>(model.samples()),
                        SessionDistance(config.distance), config.knn,
                        config.use_index ? model.index() : nullptr,
                        config.approx);
}

// ---------------------------------------------------------------------------
// Correctness.

bool BitEqual(double a, double b) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

bool SameAnswer(const Prediction& a, const Prediction& b) {
  return a.label == b.label && BitEqual(a.confidence, b.confidence);
}

bool SameAnswers(const std::vector<Prediction>& a,
                 const std::vector<Prediction>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameAnswer(a[i], b[i])) return false;
  }
  return true;
}

/// FNV-1a over the ordered (label, confidence bits) answers.
uint64_t Digest(const std::vector<Prediction>& answers) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (const Prediction& p : answers) {
    uint64_t bits = 0;
    std::memcpy(&bits, &p.confidence, sizeof(bits));
    mix(static_cast<uint64_t>(static_cast<int64_t>(p.label)));
    mix(bits);
  }
  return h;
}

/// The trace synthesized at the fixture seed must be byte-identical to the
/// checked-in experiments/serve.trace.
void CheckFixture(const Args& a, const World& w, Report* report) {
  const std::string synthesized = obs::SerializeTrace(
      Must(replay::SynthesizeTrace(w.bench, TraceWorld(kFixtureSeed),
                                   TraceOptions(kFixtureSeed)),
           "fixture trace synthesis"));
  std::ifstream in(a.root + "/experiments/serve.trace", std::ios::binary);
  const std::string fixture((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  report->Check(!fixture.empty() && fixture == synthesized,
                "trace synthesized at seed 424242 differs from "
                "experiments/serve.trace");
}

/// Rebuilds each traced session one-shot and compares every
/// kOracleStride-th advise answer with Predictor::PredictState.
void CheckOracle(const World& w, const engine::TrainedModel& model,
                 const std::vector<Prediction>& answers, Report* report) {
  const std::shared_ptr<const engine::Predictor> oracle = LoadPredictor(model);
  ActionExecutor exec;
  std::map<std::string, std::unique_ptr<SessionTree>> live;
  size_t slot = 0;
  size_t checked = 0;
  size_t mismatches = 0;
  for (const obs::CaptureRecord& r : w.trace.records) {
    switch (r.kind) {
      case obs::CaptureKind::kOpen:
        live[r.session_id] = std::make_unique<SessionTree>(
            r.session_id, "", r.payload,
            Display::MakeRoot(w.bench.registry.at(r.payload)));
        break;
      case obs::CaptureKind::kAppend:
        Must(live.at(r.session_id)
                 ->ApplyFrom(r.parent,
                             Must(Action::Parse(r.payload), "action parse"),
                             exec),
             "oracle append");
        break;
      case obs::CaptureKind::kAdvise:
        if (slot % kOracleStride == 0 && slot < answers.size()) {
          const SessionTree& tree = *live.at(r.session_id);
          ++checked;
          if (!SameAnswer(oracle->PredictState(tree, tree.num_steps()),
                          answers[slot])) {
            ++mismatches;
          }
        }
        ++slot;
        break;
      case obs::CaptureKind::kClose:
        live.erase(r.session_id);
        break;
      case obs::CaptureKind::kPredict:
        break;
    }
  }
  report->Check(checked > 0 && mismatches == 0,
                "replay answers differ from Predictor::PredictState on " +
                    std::to_string(mismatches) + " of " +
                    std::to_string(checked) + " sampled states");
}

/// The loaded artifact answers like the in-memory model, and indexed
/// leave-one-out answers like a brute-force classifier over the same
/// samples, on a fixed sample of training states.
void CheckModel(const engine::TrainedModel& model, const std::string& path,
                Report* report) {
  const engine::Predictor in_memory =
      Must(engine::Predictor::Load(model), "model load");
  const engine::Predictor loaded =
      Must(engine::Predictor::LoadFromFile(path), "artifact load");
  const ModelConfig& config = model.config();
  const IKnnClassifier indexed = MirrorClassifier(model);
  const IKnnClassifier brute(std::vector<TrainingSample>(model.samples()),
                             SessionDistance(config.distance), config.knn,
                             nullptr, config.approx);
  const size_t n = model.size();
  size_t load_mismatches = 0;
  size_t loo_mismatches = 0;
  for (size_t k = 0; k < kSampleChecks && n > 0; ++k) {
    const size_t i = (k * n) / kSampleChecks;
    const NContext& query = model.samples()[i].context;
    if (!SameAnswer(in_memory.Predict(query), loaded.Predict(query))) {
      ++load_mismatches;
    }
    if (!SameAnswer(indexed.PredictLoo(i), brute.PredictLoo(i))) {
      ++loo_mismatches;
    }
  }
  report->Check(load_mismatches == 0,
                "loaded artifact differs from the in-memory model on " +
                    std::to_string(load_mismatches) + " queries");
  report->Check(loo_mismatches == 0,
                "indexed PredictLoo differs from brute force on " +
                    std::to_string(loo_mismatches) + " samples");
}

// ---------------------------------------------------------------------------
// The lifecycle, once per round: Fit -> SaveToFile (v4) -> EvaluateLoocv. The
// artifact is loaded by CheckModel; load time is a per-layer metric
// (engine.load_s) because sub-millisecond mapped loads varied 1.7x
// between runs of identical work.

struct Lifecycle {
  std::optional<engine::TrainedModel> model;
  std::vector<double> fit_s, loocv_qps;
  double accuracy = -1.0;
  double artifact_bytes = 0.0;
  size_t cycles = 0;  // rounds run
};

void RunCycle(const World& w, const ModelConfig& config,
              const std::string& path, Lifecycle* life, Report* report) {
  Clock::time_point t;
  for (int i = 0; i < kFitsPerRound; ++i) {
    t = Clock::now();
    life->model.emplace(
        Must(engine::Trainer(config).Fit(w.bench.log, w.bench.registry),
             "training"));
    life->fit_s.push_back(Since(t));
  }
  const Status saved = life->model->SaveToFile(path);
  if (!saved.ok()) Die("model save", saved);
  life->artifact_bytes =
      static_cast<double>(std::filesystem::file_size(path));
  report->Count(kFitsPerRound + 1, 0);
  const engine::TrainedModel eval_model =
      WithThreads(*life->model, kEvalThreads);
  t = Clock::now();
  Result<engine::EvaluationReport> eval = engine::EvaluateLoocv(eval_model);
  const double seconds = Since(t);
  if (!eval.ok()) Die("loocv", eval.status());
  report->Count(eval->samples, 0);
  life->loocv_qps.push_back(static_cast<double>(eval->samples) / seconds);
  if (life->cycles > 0) {
    report->Check(BitEqual(eval->knn.accuracy, life->accuracy),
                  "LOOCV accuracy differs between rounds");
  }
  life->accuracy = eval->knn.accuracy;
  ++life->cycles;
}

// ---------------------------------------------------------------------------
// Serving.

/// One ReplayTrace pass against a fresh SessionManager over a freshly
/// loaded predictor, so every pass starts from the same cold caches.
replay::ReplayReport RunReplay(const World& w,
                               const engine::TrainedModel& model,
                               const replay::ReplayOptions& options) {
  serve::SessionManager manager(LoadPredictor(model));
  return Must(replay::ReplayTrace(manager, w.bench.registry, w.trace, options),
              "replay");
}

replay::ReplayOptions Unthrottled(int workers) {
  replay::ReplayOptions options;
  options.workers = workers;
  options.speed = 0.0;
  return options;
}

/// Per-round serving figures of a run; each end-to-end figure is their
/// median.
struct Serving {
  std::vector<double> p50, p95, append_p50, qps;
  std::vector<Prediction> answers;  // the one-worker answers, trace order
};

/// Closed loop, one client: one unthrottled one-worker pass.
void ServeClosedRound(const World& w, const engine::TrainedModel& model,
                      Serving* s, Report* report) {
  const replay::ReplayReport r = RunReplay(w, model, Unthrottled(1));
  report->Count(r.executed, r.errors);
  s->p50.push_back(r.advise_service.p50);
  s->p95.push_back(r.advise_service.p95);
  s->append_p50.push_back(r.append_service.p50);
  s->qps.push_back(r.advise_qps);
  if (s->answers.empty()) {
    s->answers = r.predictions;
  } else {
    report->Check(SameAnswers(s->answers, r.predictions),
                  "closed-loop answers differ between passes");
  }
}

/// Seed of the Poisson arrival stream of the `pass`-th open-loop pass,
/// derived from the workload seed.
uint64_t ArrivalSeed(uint64_t seed, size_t pass) {
  return seed * 1000003ULL + pass + 1;
}

/// One open-loop pass: ReplayTrace with Poisson arrivals on a helper
/// thread, while this thread follows the same schedule as a generator-
/// health probe and records how late each of its wake-ups came.
struct OpenPass {
  replay::ReplayReport report;
  double generator_late_p99_s = 0.0;
  double generator_late_max_s = 0.0;
};

OpenPass RunOpenPass(const World& w, const engine::TrainedModel& model,
                     double rate, uint64_t seed) {
  replay::ReplayOptions options;
  options.workers = kOpenWorkers;
  options.speed = 1.0;
  options.arrivals = replay::ArrivalMode::kPoisson;
  options.poisson_rate = rate;
  options.seed = seed;
  serve::SessionManager manager(LoadPredictor(model));
  std::optional<Result<replay::ReplayReport>> result;
  const Clock::time_point start = Clock::now();
  std::thread runner([&]() {
    result.emplace(
        replay::ReplayTrace(manager, w.bench.registry, w.trace, options));
  });
  Rng rng(seed);
  double offset = 0.0;
  std::vector<double> late;
  late.reserve(w.trace.records.size());
  for (size_t i = 0; i < w.trace.records.size(); ++i) {
    offset += rng.Exponential(rate);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset));
    std::this_thread::sleep_until(due);
    late.push_back(Since(due));
  }
  runner.join();
  OpenPass pass;
  pass.report = Must(std::move(*result), "open-loop replay");
  std::sort(late.begin(), late.end());
  pass.generator_late_p99_s = replay::Percentile(late, 0.99);
  pass.generator_late_max_s = late.back();
  return pass;
}

/// True when the pass's backlog did not grow: the replay drained within
/// the latency limit after its last scheduled arrival, without errors.
bool NoBacklog(const replay::ReplayReport& r) {
  return r.errors == 0 &&
         r.wall_seconds - r.virtual_seconds <= kLatencyLimitS;
}

/// Runs one open-loop pass whose generator kept its schedule, retrying
/// invalid passes; exits with status 3 when none is valid.
OpenPass ValidOpenPass(const World& w, const engine::TrainedModel& model,
                       double rate, uint64_t seed, size_t* pass_counter) {
  for (int attempt = 0; attempt <= kInvalidRetries; ++attempt) {
    OpenPass pass =
        RunOpenPass(w, model, rate, ArrivalSeed(seed, (*pass_counter)++));
    const replay::ReplayReport& r = pass.report;
    std::printf(
        "{\"perfbench\":\"open_pass\",\"rate\":%.1f,\"advise_p50_ms\":%.3f,"
        "\"advise_p99_ms\":%.3f,\"max_lag_ms\":%.3f,\"drain_ms\":%.3f,"
        "\"generator_late_p99_ms\":%.3f,\"generator_late_max_ms\":%.3f,"
        "\"meets_limit\":%s}\n",
        rate, r.advise_total.p50 * 1e3, r.advise_total.p99 * 1e3,
        r.max_lag_seconds * 1e3, (r.wall_seconds - r.virtual_seconds) * 1e3,
        pass.generator_late_p99_s * 1e3, pass.generator_late_max_s * 1e3,
        NoBacklog(r) && r.advise_total.p99 <= kLatencyLimitS ? "true"
                                                              : "false");
    if (pass.generator_late_p99_s <= kGeneratorLateLimitS) return pass;
  }
  std::printf("{\"perfbench\":\"invalid\",\"rate\":%.1f,"
              "\"reason\":\"load generator fell behind schedule\"}\n",
              rate);
  std::exit(3);
}

/// Open-loop passes per ladder rung: advise p99 of each pass, and whether
/// every pass drained without a growing backlog.
struct Ladder {
  size_t passes = 0;  // numbers the passes' arrival seeds
  std::array<std::vector<double>, kRates.size()> p99;
  std::array<bool, kRates.size()> drained = {true, true, true};

  bool Meets(size_t rung) const {
    return !p99[rung].empty() && drained[rung] &&
           MedianOf(p99[rung]) <= kLatencyLimitS;
  }
};

/// One open-loop pass at a ladder rung. Every pass's advise p99 from due
/// time feeds the sustained-rate verdict; a pass at the reporting rate also
/// adds its advise and append service times (time inside SessionManager,
/// shard-lock waits included) to `s`. The end-to-end figures leave out the
/// replay queue's wait: queueing amplified the host's speed drift so much
/// that p95 from due time spread by 0.22-0.34 between runs.
void RungPass(const Args& a, const World& w, const engine::TrainedModel& model,
              size_t rung, Ladder* ladder, Serving* s, Report* report) {
  const OpenPass pass =
      ValidOpenPass(w, model, kRates[rung], a.seed, &ladder->passes);
  const replay::ReplayReport& r = pass.report;
  report->Count(r.executed, r.errors);
  report->Check(SameAnswers(s->answers, r.predictions),
                "open-loop answers differ from the one-worker replay");
  ladder->drained[rung] = ladder->drained[rung] && NoBacklog(r);
  ladder->p99[rung].push_back(r.advise_total.p99);
  if (rung == kReportingRung) {
    s->p50.push_back(r.advise_service.p50);
    s->p95.push_back(r.advise_service.p95);
    s->append_p50.push_back(r.append_service.p50);
  }
}

/// Open loop, kOpenWorkers workers: one unthrottled pass, whose advise
/// throughput is the capacity under contention (advise_qps; a paced pass's
/// throughput is only its offered rate), then one Poisson pass at the
/// reporting rate. The first round also makes the one-worker reference
/// answers that every multi-worker pass must reproduce bitwise.
void ServeOpenRound(const Args& a, const World& w,
                    const engine::TrainedModel& model, Ladder* ladder,
                    Serving* s, Report* report) {
  if (s->answers.empty()) {
    s->answers = RunReplay(w, model, Unthrottled(1)).predictions;
  }
  const replay::ReplayReport r =
      RunReplay(w, model, Unthrottled(kOpenWorkers));
  report->Count(r.executed, r.errors);
  report->Check(r.errors == 0 && SameAnswers(s->answers, r.predictions),
                "replay answers differ between 1 and 3 workers");
  s->qps.push_back(r.advise_qps);
  RungPass(a, w, model, kReportingRung, ladder, s, report);
}

/// The highest ladder rate whose median-pass advise p99 met the limit with
/// no pass growing a backlog (0 when none did). The top rung gets one
/// pass; the bottom rung gets one only when the reporting rung missed,
/// the only case in which it can decide the verdict.
double SustainedRate(const Args& a, const World& w,
                     const engine::TrainedModel& model, Ladder* ladder,
                     Serving* s, Report* report) {
  RungPass(a, w, model, kRates.size() - 1, ladder, s, report);
  if (!ladder->Meets(kReportingRung)) {
    RungPass(a, w, model, 0, ladder, s, report);
  }
  double sustained = 0.0;
  for (size_t i = 0; i < kRates.size(); ++i) {
    if (ladder->Meets(i)) sustained = kRates[i];
  }
  return sustained;
}

// ---------------------------------------------------------------------------
// Per-layer accounting (traced runs).

/// Sums over the decomposed kNN queries of a traced run.
struct QueryTotals {
  size_t queries = 0;
  size_t abstained = 0;
  size_t indexed = 0;
  size_t candidates = 0;  // training samples each query could match
  double predict_s = 0.0;
  double resolve_s = 0.0;
  double distance_s = 0.0;
  double vote_s = 0.0;
  double index_search_s = 0.0;
  uint64_t nodes = 0;
  uint64_t pool_hits = 0;
  index::IndexStats index;
  TedTally ted;

  void Add(const PredictStats& st, const Prediction& p,
           const FlatContext& query, double predict_seconds,
           double resolve_seconds) {
    ++queries;
    if (!p.HasPrediction()) ++abstained;
    predict_s += predict_seconds;
    resolve_s += resolve_seconds;
    distance_s += st.distance_seconds;
    vote_s += st.vote_seconds;
    if (st.used_index) {
      ++indexed;
      index_search_s += st.distance_seconds;
      index.Merge(st.index);
    }
    ted.ted_calls += st.ted.ted_calls;
    ted.display_l1_hits += st.ted.display_l1_hits;
    ted.display_shared_hits += st.ted.display_shared_hits;
    ted.display_computes += st.ted.display_computes;
    ted.display_memo_lookups += st.ted.display_memo_lookups;
    ted.display_memo_probes += st.ted.display_memo_probes;
    for (const FlatContext::Node& n : query.post) {
      ++nodes;
      if (n.display_id >= 0) ++pool_hits;
    }
  }
};

/// Layer figures measured outside the decomposed queries.
struct LayerExtras {
  double serve_advise_s = 0.0;  // mean per Advise
  double serve_append_s = 0.0;  // mean per Append
  double advise_self_s = 0.0;
  double queue_wait_s = 0.0;
  double lag_ms = 0.0;
  double context_s = 0.0;  // mean per Append
  double context_nodes = 0.0;
  double ground_call_us = 0.0;
  double ted_pair_us = 0.0;
  double actions_replay_s = 0.0;
  double actions_executed = 0.0;
  double label_s = 0.0;
  double fit_index_s = 0.0;
  double fit_build_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double artifact_bytes = 0.0;
  double loocv_s = 0.0;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Emits every per-layer metric. Times are means per request in seconds
/// unless the unit says otherwise; counts are means per query.
void AddLayerMetrics(const QueryTotals& t, const LayerExtras& x,
                     Report* report) {
  const auto per_q = [&](double total) {
    return Ratio(total, static_cast<double>(t.queries));
  };
  const auto per_i = [&](uint64_t total) {
    return Ratio(static_cast<double>(total), static_cast<double>(t.indexed));
  };
  report->Add("serve.advise_s", x.serve_advise_s, "s");
  report->Add("serve.append_s", x.serve_append_s, "s");
  report->Add("serve.advise_self_s", x.advise_self_s, "s");
  report->Add("replay.queue_wait_s", x.queue_wait_s, "s");
  report->Add("replay.lag_ms", x.lag_ms, "ms");
  report->Add("session.context_s", x.context_s, "s");
  report->Add("session.context_nodes", x.context_nodes, "count");
  report->Add("predict.resolve_s", per_q(t.resolve_s), "s");
  report->Add("predict.pool_hit_ratio",
              Ratio(static_cast<double>(t.pool_hits),
                    static_cast<double>(t.nodes)),
              "ratio");
  report->Add("predict.search_s", per_q(t.predict_s), "s");
  report->Add("predict.distance_s", per_q(t.distance_s), "s");
  report->Add("predict.vote_s", per_q(t.vote_s), "s");
  report->Add("predict.abstain_ratio",
              per_q(static_cast<double>(t.abstained)), "ratio");
  report->Add("index.search_s",
              Ratio(t.index_search_s, static_cast<double>(t.indexed)), "s");
  report->Add("index.exact_teds", per_i(t.index.exact_teds), "count");
  report->Add("index.core_teds", per_i(t.index.core_teds), "count");
  report->Add("index.nodes_visited", per_i(t.index.nodes_visited), "count");
  report->Add("index.pruned_ratio",
              1.0 - Ratio(static_cast<double>(t.index.exact_teds),
                          static_cast<double>(t.indexed * t.candidates)),
              "ratio");
  report->Add("index.stage_pruned.size", per_i(t.index.lb_pruned), "count");
  report->Add("index.stage_pruned.structure", per_i(t.index.structure_pruned),
              "count");
  report->Add("index.stage_pruned.hist", per_i(t.index.hist_pruned), "count");
  report->Add("index.stage_pruned.triangle", per_i(t.index.triangle_pruned),
              "count");
  report->Add("index.stage_pruned.core", per_i(t.index.core_pruned), "count");
  report->Add("distance.ted_calls",
              per_q(static_cast<double>(t.ted.ted_calls)), "count");
  report->Add("distance.ground_computes",
              per_q(static_cast<double>(t.ted.display_computes)), "count");
  report->Add("distance.ground_l1_hits",
              per_q(static_cast<double>(t.ted.display_l1_hits)), "count");
  report->Add("distance.ground_shared_hits",
              per_q(static_cast<double>(t.ted.display_shared_hits)), "count");
  const double hits = static_cast<double>(t.ted.display_l1_hits +
                                          t.ted.display_shared_hits);
  report->Add("distance.ground_hit_ratio",
              Ratio(hits, hits + static_cast<double>(t.ted.display_computes)),
              "ratio");
  report->Add("distance.memo_probes_per_lookup",
              Ratio(static_cast<double>(t.ted.display_memo_probes),
                    static_cast<double>(t.ted.display_memo_lookups)),
              "count");
  report->Add("distance.ground_call_us", x.ground_call_us, "us");
  report->Add("distance.ted_pair_us", x.ted_pair_us, "us");
  report->Add("actions.replay_s", x.actions_replay_s, "s");
  report->Add("actions.executed", x.actions_executed, "count");
  report->Add("offline.label_s", x.label_s, "s");
  report->Add("engine.fit_index_s", x.fit_index_s, "s");
  report->Add("engine.fit_build_s", x.fit_build_s, "s");
  report->Add("engine.save_s", x.save_s, "s");
  report->Add("engine.load_s", x.load_s, "s");
  report->Add("engine.artifact_bytes", x.artifact_bytes, "bytes");
  report->Add("eval.loocv_s", x.loocv_s, "s");
}

/// The distinct displays of `contexts`, in first-seen order.
std::vector<DisplayPtr> DistinctDisplays(
    const std::vector<const NContext*>& contexts) {
  std::vector<DisplayPtr> out;
  std::unordered_set<const Display*> seen;
  for (const NContext* c : contexts) {
    for (const NContextNode& n : c->nodes()) {
      if (seen.insert(n.display.get()).second) out.push_back(n.display);
    }
  }
  return out;
}

/// Mean cost of one DisplayContentDistance call over a fixed sample of the
/// workload's own (query display, pool display) pairs.
double GroundCallMicros(const std::vector<DisplayPtr>& queries,
                        const std::vector<DisplayPtr>& pool) {
  constexpr size_t kPairs = 4096;
  std::vector<std::pair<DisplayView, DisplayView>> pairs;
  pairs.reserve(kPairs);
  for (size_t i = 0; i < kPairs; ++i) {
    pairs.emplace_back(queries[(i * 7919) % queries.size()]->View(),
                       pool[(i * 104729) % pool.size()]->View());
  }
  double sink = 0.0;
  size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (const auto& [a, b] : pairs) sink += DisplayContentDistance(a, b);
    calls += pairs.size();
  } while (Since(t0) < 0.25);
  const double seconds = Since(t0);
  if (!(sink >= 0.0)) std::fprintf(stderr, "perfbench: bad distance sum\n");
  return seconds / static_cast<double>(calls) * 1e6;
}

/// Mean cost of one SessionDistance::Distance over query x candidate pairs:
/// 32 strided queries against 32 strided candidates, each query row
/// starting from a cleared workspace display memo.
double TedPairMicros(const std::vector<const NContext*>& queries,
                     const std::vector<const NContext*>& candidates,
                     const SessionDistanceOptions& options) {
  constexpr size_t kSide = 32;
  std::vector<FlatContext> q;
  std::vector<FlatContext> c;
  for (size_t i = 0; i < kSide; ++i) {
    q.push_back(SessionDistance::Prepare(*queries[i * queries.size() / kSide]));
    c.push_back(SessionDistance::Prepare(
        *candidates[(i * 7919 + 13) % candidates.size()]));
  }
  const SessionDistance metric(options);
  TedWorkspace ws;
  double sink = 0.0;
  size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (const FlatContext& a : q) {
      ws.InvalidateDisplayMemo();
      for (const FlatContext& b : c) sink += metric.Distance(a, b, &ws);
    }
    calls += kSide * kSide;
  } while (Since(t0) < 0.25);
  const double seconds = Since(t0);
  if (!(sink >= 0.0)) std::fprintf(stderr, "perfbench: bad distance sum\n");
  return seconds / static_cast<double>(calls) * 1e6;
}

/// Decomposes Trainer::Fit through its public stages: engine::Replay (the
/// actions layer), then Fit over the replayed repository with a private
/// registry whose fit.* histograms split labeling, training-set build and
/// index build.
engine::TrainedModel DecomposeFit(const World& w, const ModelConfig& config,
                                  Tracer* tracer, LayerExtras* x) {
  const double t0 = tracer->Now();
  const ReplayedRepository repo =
      Must(engine::Replay(w.bench.log, w.bench.registry), "log replay");
  const double t1 = tracer->Now();
  obs::MetricsRegistry registry;
  obs::ObsConfig obs;
  obs.registry = &registry;
  engine::TrainReport train;
  engine::TrainedModel model =
      Must(engine::Trainer(config, obs).Fit(repo, &train), "training");
  const double t2 = tracer->Now();
  x->actions_replay_s = t1 - t0;
  x->actions_executed = static_cast<double>(repo.total_steps());
  x->label_s = train.label_seconds;
  x->fit_build_s =
      registry.GetHistogram("ida.engine.fit.build_seconds")->sum();
  x->fit_index_s =
      registry.GetHistogram("ida.engine.fit.index_build_seconds")->sum();
  const int64_t fit = tracer->Add("engine.fit", t0, t2, -1, -1);
  tracer->Add("actions.replay", t0, t1, fit, -1);
  double at = t1;
  tracer->Add("offline.label", at, at + x->label_s, fit, -1);
  at += x->label_s;
  tracer->Add("engine.fit_build", at, at + x->fit_build_s, fit, -1);
  at += x->fit_build_s;
  tracer->Add("engine.fit_index", at, at + x->fit_index_s, fit, -1);
  return model;
}

/// One live session of the decomposed pass.
struct MirrorSession {
  MirrorSession(const std::string& sid, const std::string& dataset,
                DisplayPtr root)
      : tree(sid, "", dataset, std::move(root)), builder(&tree) {}
  SessionTree tree;
  NContextBuilder builder;
  NContext context;
  FlatContext flat;
  PredictScratch scratch;
};

/// Result of the sequential traced replay.
struct TracedReplay {
  QueryTotals queries;
  double advise_s = 0.0;   // summed real Advise time
  double append_s = 0.0;   // summed real Append time
  double context_s = 0.0;  // summed mirror Extract + Prepare time
  uint64_t context_nodes = 0;
  size_t advises = 0;
  size_t appends = 0;
  std::vector<double> advise_latency;
  std::vector<NContext> advised;  // advised contexts (for the unit probes)
};

/// Replays the trace in order with one client, timing every
/// SessionManager call (serve.* spans), then decomposes each call through
/// the layers' public calls on a mirror of the same session state served
/// by an identically built, separately cached classifier:
///   serve.append -> actions.apply (SessionTree::ApplyFrom),
///                   session.context (NContextBuilder::Extract + Prepare)
///   serve.advise -> predict.search (IKnnClassifier::PredictFlat)
///                     -> predict.resolve (ResolveQueryDisplayIds, the
///                        work PredictFlat repeats first), predict.distance
///                        and predict.vote (its PredictStats phases)
TracedReplay RunTracedReplay(const World& w, const engine::TrainedModel& model,
                             Tracer* tracer, Report* report) {
  TracedReplay out;
  serve::SessionManager manager(LoadPredictor(model));
  const IKnnClassifier knn = MirrorClassifier(model);
  out.queries.candidates = knn.train().size();
  const int n = model.config().n_context_size;
  ActionExecutor exec;
  std::map<std::string, std::unique_ptr<MirrorSession>> mirror;
  size_t mismatches = 0;
  size_t failed = 0;
  int64_t request = 0;
  for (const obs::CaptureRecord& r : w.trace.records) {
    ++request;
    switch (r.kind) {
      case obs::CaptureKind::kOpen: {
        const DisplayPtr root =
            Display::MakeRoot(w.bench.registry.at(r.payload));
        const double t0 = tracer->Now();
        const bool ok = manager.Open(r.session_id, root, "", r.payload).ok();
        tracer->Add("serve.open", t0, tracer->Now(), -1, request);
        if (!ok) ++failed;
        auto m = std::make_unique<MirrorSession>(r.session_id, r.payload, root);
        m->builder.Extract(0, n, &m->context);
        m->flat = SessionDistance::Prepare(m->context);
        mirror[r.session_id] = std::move(m);
        break;
      }
      case obs::CaptureKind::kAppend: {
        const Action action = Must(Action::Parse(r.payload), "action parse");
        const double t0 = tracer->Now();
        const bool ok = manager.Append(r.session_id, r.parent, action).ok();
        const double t1 = tracer->Now();
        const int64_t span = tracer->Add("serve.append", t0, t1, -1, request);
        if (!ok) ++failed;
        out.append_s += t1 - t0;
        ++out.appends;
        MirrorSession& m = *mirror.at(r.session_id);
        const double a0 = tracer->Now();
        Must(m.tree.ApplyFrom(r.parent, action, exec), "mirror append");
        const double a1 = tracer->Now();
        m.builder.Extract(m.tree.num_steps(), n, &m.context);
        m.flat = SessionDistance::Prepare(m.context);
        const double a2 = tracer->Now();
        tracer->Add("actions.apply", a0, a1, span, request);
        tracer->Add("session.context", a1, a2, span, request);
        out.context_s += a2 - a1;
        out.context_nodes += m.flat.size();
        break;
      }
      case obs::CaptureKind::kAdvise: {
        const double t0 = tracer->Now();
        Result<Prediction> served = manager.Advise(r.session_id);
        const double t1 = tracer->Now();
        const int64_t span = tracer->Add("serve.advise", t0, t1, -1, request);
        if (!served.ok()) ++failed;
        out.advise_s += t1 - t0;
        out.advise_latency.push_back(t1 - t0);
        ++out.advises;
        MirrorSession& m = *mirror.at(r.session_id);
        const double r0 = tracer->Now();
        knn.ResolveQueryDisplayIds(&m.flat);
        const double r1 = tracer->Now();
        PredictStats st;
        const Prediction p = knn.PredictFlat(m.flat, m.scratch, &st);
        const double r2 = tracer->Now();
        const int64_t predict =
            tracer->Add("predict.search", r1, r2, span, request);
        tracer->Add("predict.resolve", r0, r1, predict, request);
        tracer->Add("predict.distance", r1, r1 + st.distance_seconds, predict,
                    request);
        tracer->Add("predict.vote", r1 + st.distance_seconds,
                    r1 + st.distance_seconds + st.vote_seconds, predict,
                    request);
        out.queries.Add(st, p, m.flat, r2 - r1, r1 - r0);
        if (served.ok() && !SameAnswer(served.value(), p)) ++mismatches;
        out.advised.push_back(m.context);
        break;
      }
      case obs::CaptureKind::kClose: {
        const double t0 = tracer->Now();
        const bool ok = manager.Close(r.session_id).ok();
        tracer->Add("serve.close", t0, tracer->Now(), -1, request);
        if (!ok) ++failed;
        mirror.erase(r.session_id);
        break;
      }
      case obs::CaptureKind::kPredict:
        break;
    }
  }
  report->Count(w.trace.records.size(), failed);
  report->Check(mismatches == 0,
                "decomposed predictions differ from SessionManager::Advise "
                "on " + std::to_string(mismatches) + " advises");
  return out;
}

std::string ArtifactPath(const Args& a) {
  return a.out_dir + "/" + a.workload + "-" + std::to_string(a.seed) +
         ".idamodel";
}

/// The traced run: per-layer metrics from spans around the layers' public
/// calls (see RunTracedReplay and DecomposeFit).
int RunTraced(const Args& a, const World& w, const ModelConfig& config) {
  Report report;
  Tracer tracer;
  LayerExtras x;
  const engine::TrainedModel model = DecomposeFit(w, config, &tracer, &x);

  const std::string path = ArtifactPath(a);
  double t = tracer.Now();
  const Status saved = model.SaveToFile(path);
  if (!saved.ok()) Die("model save", saved);
  x.save_s = tracer.Now() - t;
  tracer.Add("engine.save", t, t + x.save_s, -1, -1);
  x.artifact_bytes = static_cast<double>(std::filesystem::file_size(path));
  std::vector<double> loads;
  for (int i = 0; i < kLoadsPerCycle; ++i) {
    t = tracer.Now();
    Must(engine::Predictor::LoadFromFile(path), "artifact load");
    loads.push_back(tracer.Now() - t);
    tracer.Add("engine.load", t, t + loads.back(), -1, -1);
  }
  std::filesystem::remove(path);
  x.load_s = MedianOf(loads);
  const engine::TrainedModel eval_model = WithThreads(model, kEvalThreads);
  t = tracer.Now();
  const engine::EvaluationReport eval =
      Must(engine::EvaluateLoocv(eval_model), "loocv");
  x.loocv_s = tracer.Now() - t;
  tracer.Add("eval.loocv", t, t + x.loocv_s, -1, -1);
  report.Count(2 + kLoadsPerCycle + eval.samples, 0);

  const TracedReplay traced = RunTracedReplay(w, model, &tracer, &report);
  const double predict_mean =
      Ratio(traced.queries.predict_s, static_cast<double>(traced.advises));
  x.serve_advise_s =
      Ratio(traced.advise_s, static_cast<double>(traced.advises));
  x.serve_append_s =
      Ratio(traced.append_s, static_cast<double>(traced.appends));
  x.advise_self_s = x.serve_advise_s - predict_mean;
  x.context_s = Ratio(traced.context_s, static_cast<double>(traced.appends));
  x.context_nodes = Ratio(static_cast<double>(traced.context_nodes),
                          static_cast<double>(traced.appends));

  std::vector<const NContext*> pool;
  for (const TrainingSample& s : model.samples()) pool.push_back(&s.context);
  std::vector<const NContext*> queries;
  for (const NContext& c : traced.advised) queries.push_back(&c);
  x.ground_call_us =
      GroundCallMicros(DistinctDisplays(queries), DistinctDisplays(pool));
  x.ted_pair_us = TedPairMicros(queries, pool, config.distance);

  if (a.workload == "replay_open") {
    // Under concurrency the serve layer is measured in an open-loop pass at
    // the reporting rate; its advise time beyond the decomposed
    // (uncontended) predict time is lock, cache and CPU contention.
    size_t pass_counter = 0;
    const OpenPass open = ValidOpenPass(w, model, kRates[kReportingRung],
                                        a.seed, &pass_counter);
    report.Count(open.report.executed, open.report.errors);
    x.serve_advise_s = open.report.advise_service.mean;
    x.serve_append_s = open.report.append_service.mean;
    x.advise_self_s = x.serve_advise_s - predict_mean;
    x.queue_wait_s =
        open.report.advise_total.mean - open.report.advise_service.mean;
    x.lag_ms = open.report.max_lag_seconds * 1e3;
  }

  if (a.workload == "replay_cold") {
    // Reconciliation: the decomposed layers must account for the measured
    // advise time; what they leave over is serve.advise's own self time.
    const double unexplained = std::fabs(x.advise_self_s) / x.serve_advise_s;
    report.Check(unexplained <= kReconcileTolerance,
                 "traced layers leave " + std::to_string(unexplained * 100) +
                     "% of serve.advise unexplained (tolerance " +
                     std::to_string(kReconcileTolerance * 100) + "%)");
    const replay::ReplayReport untraced = RunReplay(w, model, Unthrottled(1));
    std::vector<double> lat = traced.advise_latency;
    std::sort(lat.begin(), lat.end());
    const double traced_p50 = replay::Median(lat);
    std::printf(
        "{\"perfbench\":\"tracing_overhead\",\"untraced_advise_p50_ms\":%.4f,"
        "\"traced_advise_p50_ms\":%.4f,\"overhead\":%.4f,"
        "\"reconcile_unexplained\":%.4f,\"reconcile_tolerance\":%.2f}\n",
        untraced.advise_service.p50 * 1e3, traced_p50 * 1e3,
        traced_p50 / untraced.advise_service.p50 - 1.0, unexplained,
        kReconcileTolerance);
  }
  for (const auto& [name, self] : tracer.SelfSeconds()) {
    std::printf("{\"perfbench\":\"self_time\",\"span\":\"%s\","
                "\"seconds\":%.6f}\n",
                name.c_str(), self);
  }
  tracer.WriteJsonl(a.out_dir + "/spans-" + a.workload + "-" +
                    std::to_string(a.seed) + ".jsonl");
  AddLayerMetrics(traced.queries, x, &report);
  return report.Print();
}

/// Times one set-up: world generation and trace synthesis.
std::unique_ptr<World> TimedSetup(uint64_t seed, std::vector<double>* setups) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<World> w = BuildWorld(seed);
  setups->push_back(Since(t0));
  return w;
}

int Run(const Args& a) {
  std::vector<double> setups;
  const std::unique_ptr<World> w = TimedSetup(a.seed, &setups);
  // The served model's thread pool is one thread; LOOCV runs on
  // kEvalThreads.
  const ModelConfig config = KeepAllConfig(1);
  if (a.trace) return RunTraced(a, *w, config);

  Report report;
  const std::string path = ArtifactPath(a);
  Lifecycle life;
  Serving serving;
  Ladder ladder;
  const bool open = a.workload == "replay_open";
  // A round starts only when one as long as the last still fits in
  // `seconds`, so a run does not overshoot its budget by a round.
  const Clock::time_point t0 = Clock::now();
  double round_s = 0.0;
  while (life.cycles < kMinRounds || Since(t0) + round_s <= a.seconds) {
    const Clock::time_point r0 = Clock::now();
    // One more set-up per round, so setup_s is sampled across the run too.
    TimedSetup(a.seed, &setups);
    RunCycle(*w, config, path, &life, &report);
    if (open) {
      ServeOpenRound(a, *w, *life.model, &ladder, &serving, &report);
    } else {
      ServeClosedRound(*w, *life.model, &serving, &report);
    }
    round_s = Since(r0);
  }
  const engine::TrainedModel& model = *life.model;

  // The high-water mark of the lifecycle and serving, before the checks
  // build their own predictors.
  const double peak_rss_mb = PeakRssMb();

  if (open) {
    std::printf("{\"perfbench\":\"sustained\",\"events_per_s\":%.1f,"
                "\"limit_p99_ms\":%.1f}\n",
                SustainedRate(a, *w, model, &ladder, &serving, &report),
                kLatencyLimitS * 1e3);
  }

  // Checks, outside the timed regions.
  CheckModel(model, path, &report);
  std::filesystem::remove(path);
  CheckOracle(*w, model, serving.answers, &report);
  if (!open) {
    CheckFixture(a, *w, &report);
    const replay::ReplayReport wide =
        RunReplay(*w, model, Unthrottled(kOpenWorkers));
    report.Check(wide.errors == 0 &&
                     SameAnswers(serving.answers, wide.predictions),
                 "replay answers differ between 1 and 3 workers");
  }

  std::printf("{\"perfbench\":\"%s\",\"seed\":%llu,\"rounds\":%zu,"
              "\"samples\":%zu,\"advises_per_pass\":%zu,"
              "\"answer_digest\":\"%016llx\"}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              life.cycles, model.size(), serving.answers.size(),
              static_cast<unsigned long long>(Digest(serving.answers)));
  report.Add("setup_s", MedianOf(setups), "s");
  report.Add("advise_p50_ms", MedianOf(serving.p50) * 1e3, "ms");
  report.Add("advise_p95_ms", MedianOf(serving.p95) * 1e3, "ms");
  report.Add("append_p50_us", MedianOf(serving.append_p50) * 1e6, "us");
  report.Add("advise_qps", MedianOf(serving.qps), "1/s");
  report.Add("fit_s", MedianOf(life.fit_s), "s");
  report.Add("loocv_qps", MedianOf(life.loocv_qps), "1/s");
  report.Add("loocv_accuracy", life.accuracy, "ratio");
  report.Add("artifact_mb", life.artifact_bytes / (1024.0 * 1024.0), "MB");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  return report.Print();
}

}  // namespace
}  // namespace ida::perfbench

int main(int argc, char** argv) {
  const ida::perfbench::Args args = ida::perfbench::ParseArgs(argc, argv);
  std::filesystem::create_directories(args.out_dir);
  return ida::perfbench::Run(args);
}
