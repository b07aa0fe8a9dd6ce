// loadgen — the trace-driven load harness CLI (DESIGN.md §15, README
// "Load testing & SLOs").
//
// Two modes:
//
//   loadgen --make-trace serve.trace [--sessions N] [--max-steps N]
//           [--session-rate R] [--step-rate R] [--trace-seed S]
//           [--world-users N] [--world-sessions N] [--world-rows N]
//           [--world-seed S]
//     Generates a deterministic open-loop workload trace from a synthetic
//     world (replay/replay.h SynthesizeTrace). The world's generator
//     options are embedded in the trace, so a replayer needs nothing but
//     the file.
//
//   loadgen --trace serve.trace [--workers N] [--speed X] [--poisson R]
//           [--seed S] [--model artifact] [--save-model artifact]
//           [--reload artifact] [--check-determinism] [--no-index]
//           [--metrics-json path] [--slo-p99-us N]
//     Replays the trace against a fresh SessionManager (training a model
//     from the trace's embedded world unless --model is given) and prints
//     the repo's JSON bench lines: provenance, one replay line with
//     p50/p95/p99 latency + throughput, an optional determinism line, and
//     a verdict line. Exit status is nonzero on replay errors, a failed
//     determinism check, or a busted absolute SLO (--slo-p99-us 0
//     disables the absolute gate; CI's regression gate is relative, see
//     tools/check_bench.py).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "obs/capture.h"
#include "obs/obs.h"
#include "replay/replay.h"
#include "serve/session_manager.h"
#include "synth/generator.h"

namespace ida {
namespace {

struct Flags {
  std::string make_trace;
  std::string trace;
  size_t sessions = 64;
  size_t max_steps = 12;
  double session_rate = 4.0;
  double step_rate = 2.0;
  uint64_t trace_seed = 20190326;
  size_t world_users = 16;
  size_t world_sessions = 150;
  size_t world_rows = 800;
  uint64_t world_seed = 424242;
  int workers = 4;
  double speed = 1.0;
  double poisson = 0.0;  // > 0 selects Poisson arrivals at this rate
  uint64_t seed = 1;
  std::string model;
  std::string save_model;
  std::string reload;
  bool check_determinism = false;
  bool no_index = false;
  std::string metrics_json;
  uint64_t slo_p99_us = 0;  // 0 = no absolute gate (relative gate is CI's)
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --make-trace PATH [workload flags]\n"
      "       %s --trace PATH [replay flags]\n"
      "see tools/loadgen/main.cc and README 'Load testing & SLOs'\n",
      argv0, argv0);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) Usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--make-trace") == 0) {
      f.make_trace = value(i);
    } else if (std::strcmp(a, "--trace") == 0) {
      f.trace = value(i);
    } else if (std::strcmp(a, "--sessions") == 0) {
      f.sessions = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--max-steps") == 0) {
      f.max_steps = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--session-rate") == 0) {
      f.session_rate = std::strtod(value(i), nullptr);
    } else if (std::strcmp(a, "--step-rate") == 0) {
      f.step_rate = std::strtod(value(i), nullptr);
    } else if (std::strcmp(a, "--trace-seed") == 0) {
      f.trace_seed = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--world-users") == 0) {
      f.world_users = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--world-sessions") == 0) {
      f.world_sessions = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--world-rows") == 0) {
      f.world_rows = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--world-seed") == 0) {
      f.world_seed = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--workers") == 0) {
      f.workers = static_cast<int>(std::strtol(value(i), nullptr, 10));
    } else if (std::strcmp(a, "--speed") == 0) {
      f.speed = std::strtod(value(i), nullptr);
    } else if (std::strcmp(a, "--poisson") == 0) {
      f.poisson = std::strtod(value(i), nullptr);
    } else if (std::strcmp(a, "--seed") == 0) {
      f.seed = std::strtoull(value(i), nullptr, 10);
    } else if (std::strcmp(a, "--model") == 0) {
      f.model = value(i);
    } else if (std::strcmp(a, "--save-model") == 0) {
      f.save_model = value(i);
    } else if (std::strcmp(a, "--reload") == 0) {
      f.reload = value(i);
    } else if (std::strcmp(a, "--check-determinism") == 0) {
      f.check_determinism = true;
    } else if (std::strcmp(a, "--no-index") == 0) {
      f.no_index = true;
    } else if (std::strcmp(a, "--metrics-json") == 0) {
      f.metrics_json = value(i);
    } else if (std::strcmp(a, "--slo-p99-us") == 0) {
      f.slo_p99_us = std::strtoull(value(i), nullptr, 10);
    } else {
      std::fprintf(stderr, "loadgen: unknown flag %s\n", a);
      Usage(argv[0]);
    }
  }
  if (f.make_trace.empty() == f.trace.empty()) Usage(argv[0]);
  return f;
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::printf("{\"bench\":\"serve_slo\",\"error\":\"%s: %s\"}\n",
              what.c_str(), status.ToString().c_str());
  std::exit(1);
}

/// The serving-scale model configuration: keep every state so the
/// training set is dense enough to serve against.
ModelConfig ServeConfig(bool no_index) {
  ModelConfig config = DefaultNormalizedConfig();
  config.theta_interest = -1e300;
  config.knn.distance_threshold = 0.25;
  config.use_index = !no_index;
  return config;
}

std::string SummaryJsonMicros(const replay::LatencySummary& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%zu,\"mean\":%.1f,\"p50\":%.1f,\"p95\":%.1f,"
                "\"p99\":%.1f,\"max\":%.1f}",
                s.count, s.mean * 1e6, s.p50 * 1e6, s.p95 * 1e6, s.p99 * 1e6,
                s.max * 1e6);
  return buf;
}

bool BitEqual(double a, double b) {
  uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

int MakeTrace(const Flags& f) {
  GeneratorOptions world;
  world.num_users = f.world_users;
  world.num_sessions = f.world_sessions;
  world.rows_per_dataset = f.world_rows;
  world.seed = f.world_seed;
  Result<SynthBenchmark> bench = GenerateBenchmark(world);
  if (!bench.ok()) Die("world generation failed", bench.status());

  replay::SyntheticTraceOptions opt;
  opt.num_sessions = f.sessions;
  opt.max_steps = f.max_steps;
  opt.session_rate = f.session_rate;
  opt.step_rate = f.step_rate;
  opt.seed = f.trace_seed;
  Result<obs::Trace> trace =
      replay::SynthesizeTrace(bench.value(), world, opt);
  if (!trace.ok()) Die("trace synthesis failed", trace.status());
  Status st = obs::WriteTraceFile(trace.value(), f.make_trace);
  if (!st.ok()) Die("trace write failed", st);

  size_t advises = 0;
  for (const obs::CaptureRecord& r : trace.value().records) {
    if (r.kind == obs::CaptureKind::kAdvise) ++advises;
  }
  const uint64_t span_us = trace.value().records.empty()
                               ? 0
                               : trace.value().records.back().arrival_us;
  std::printf(
      "{\"bench\":\"serve_slo\",\"config\":\"make_trace\",\"path\":\"%s\","
      "\"sessions\":%zu,\"events\":%zu,\"advises\":%zu,"
      "\"virtual_seconds\":%.2f,\"world_users\":%zu,\"world_sessions\":%zu,"
      "\"world_rows\":%zu,\"world_seed\":%llu,\"trace_seed\":%llu}\n",
      f.make_trace.c_str(), f.sessions, trace.value().records.size(),
      advises, static_cast<double>(span_us) / 1e6, f.world_users,
      f.world_sessions, f.world_rows,
      static_cast<unsigned long long>(f.world_seed),
      static_cast<unsigned long long>(f.trace_seed));
  return 0;
}

replay::ReplayOptions ReplayOptionsFor(const Flags& f) {
  replay::ReplayOptions opt;
  opt.workers = f.workers;
  opt.speed = f.speed;
  if (f.poisson > 0.0) {
    opt.arrivals = replay::ArrivalMode::kPoisson;
    opt.poisson_rate = f.poisson;
  }
  opt.seed = f.seed;
  opt.reload_path = f.reload;
  return opt;
}

void PrintReplayLine(const Flags& f, const replay::ReplayReport& r,
                     const char* run) {
  std::printf(
      "{\"bench\":\"serve_slo\",\"mode\":\"replay\",\"run\":\"%s\","
      "\"workers\":%d,\"speed\":%.2f,\"arrivals\":\"%s\","
      "\"events\":%zu,\"executed\":%zu,\"skipped\":%zu,\"errors\":%zu,"
      "\"opens\":%zu,\"appends\":%zu,\"advises\":%zu,\"closes\":%zu,"
      "\"wall_seconds\":%.3f,\"virtual_seconds\":%.3f,"
      "\"throughput_events_per_sec\":%.1f,\"advise_qps\":%.1f,"
      "\"max_lag_us\":%.1f,"
      "\"advise_service_us\":%s,\"advise_total_us\":%s,"
      "\"append_service_us\":%s}\n",
      run, f.workers, f.speed, f.poisson > 0.0 ? "poisson" : "recorded",
      r.events, r.executed, r.skipped, r.errors, r.opens, r.appends,
      r.advises, r.closes, r.wall_seconds, r.virtual_seconds,
      r.throughput_events_per_sec, r.advise_qps, r.max_lag_seconds * 1e6,
      SummaryJsonMicros(r.advise_service).c_str(),
      SummaryJsonMicros(r.advise_total).c_str(),
      SummaryJsonMicros(r.append_service).c_str());
}

int Replay(const Flags& f) {
  Result<obs::Trace> trace_in = obs::ReadTraceFile(f.trace);
  if (!trace_in.ok()) Die("trace read failed", trace_in.status());
  const obs::Trace& trace = trace_in.value();
  if (!trace.world.has_value()) {
    Die("trace carries no world provenance",
        Status::FailedPrecondition(
            "replay needs the embedded generator options to rebuild the "
            "datasets (re-capture with SetWorld, or regenerate with "
            "--make-trace)"));
  }

  GeneratorOptions world;
  world.num_users = trace.world->num_users;
  world.num_sessions = trace.world->num_sessions;
  world.rows_per_dataset = trace.world->rows_per_dataset;
  world.seed = trace.world->seed;
  Result<SynthBenchmark> bench = GenerateBenchmark(world);
  if (!bench.ok()) Die("world regeneration failed", bench.status());

  // The served model: loaded from an artifact, or trained from the
  // trace's own world (deterministic — same trace, same model).
  std::shared_ptr<const engine::Predictor> predictor;
  const char* model_source = "trained";
  if (!f.model.empty()) {
    model_source = "loaded";
    Result<engine::Predictor> loaded =
        engine::Predictor::LoadFromFile(f.model);
    if (!loaded.ok()) Die("model load failed", loaded.status());
    predictor = std::make_shared<const engine::Predictor>(
        std::move(loaded.value()));
  } else {
    engine::Trainer trainer(ServeConfig(f.no_index));
    Result<engine::TrainedModel> model =
        trainer.Fit(bench.value().log, bench.value().registry);
    if (!model.ok()) Die("training failed", model.status());
    if (!f.save_model.empty()) {
      Status st = model.value().SaveToFile(f.save_model);
      if (!st.ok()) Die("model save failed", st);
    }
    Result<engine::Predictor> loaded =
        engine::Predictor::Load(std::move(model.value()));
    if (!loaded.ok()) Die("model load failed", loaded.status());
    predictor = std::make_shared<const engine::Predictor>(
        std::move(loaded.value()));
  }

  std::printf(
      "{\"bench\":\"serve_slo\",\"config\":\"provenance\",\"trace\":\"%s\","
      "\"events\":%zu,\"model\":\"%s\",\"train_size\":%zu,"
      "\"use_index\":%s,\"world_users\":%u,\"world_sessions\":%u,"
      "\"world_rows\":%u,\"world_seed\":%llu}\n",
      f.trace.c_str(), trace.records.size(), model_source,
      predictor->train_size(), predictor->config().use_index ? "true" : "false",
      trace.world->num_users, trace.world->num_sessions,
      trace.world->rows_per_dataset,
      static_cast<unsigned long long>(trace.world->seed));

  const replay::ReplayOptions opt = ReplayOptionsFor(f);
  serve::SessionManager manager(predictor);
  Result<replay::ReplayReport> run =
      replay::ReplayTrace(manager, bench.value().registry, trace, opt);
  if (!run.ok()) Die("replay failed", run.status());
  const replay::ReplayReport& report = run.value();
  PrintReplayLine(f, report, f.speed > 0.0 ? "paced" : "unthrottled");

  // Determinism: a second, fresh manager replays the same trace with the
  // pacing removed (arrival times never feed the prediction math); the
  // advise answers must match the measured run bit for bit.
  bool deterministic = true;
  if (f.check_determinism) {
    replay::ReplayOptions unpaced = opt;
    unpaced.speed = 0.0;
    serve::SessionManager manager2(predictor);
    Result<replay::ReplayReport> rerun =
        replay::ReplayTrace(manager2, bench.value().registry, trace, unpaced);
    if (!rerun.ok()) Die("determinism replay failed", rerun.status());
    const std::vector<Prediction>& a = report.predictions;
    const std::vector<Prediction>& b = rerun.value().predictions;
    size_t mismatches = 0;
    if (a.size() != b.size()) {
      mismatches = a.size() > b.size() ? a.size() : b.size();
    } else {
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].label != b[i].label ||
            !BitEqual(a[i].confidence, b[i].confidence)) {
          ++mismatches;
        }
      }
    }
    deterministic = mismatches == 0 && rerun.value().errors == 0;
    std::printf(
        "{\"bench\":\"serve_slo\",\"config\":\"determinism\",\"runs\":2,"
        "\"predictions\":%zu,\"mismatches\":%zu,"
        "\"bitwise_identical\":%s}\n",
        a.size(), mismatches, deterministic ? "true" : "false");
  }

  if (!f.metrics_json.empty()) {
    Status st = obs::WriteMetricsJson(f.metrics_json);
    if (!st.ok()) Die("metrics snapshot failed", st);
  }

  const double p99_us = report.advise_service.p99 * 1e6;
  const bool meets_slo =
      f.slo_p99_us == 0 || p99_us <= static_cast<double>(f.slo_p99_us);
  const bool ok = report.errors == 0 && deterministic && meets_slo;
  std::printf(
      "{\"bench\":\"serve_slo\",\"config\":\"verdict\",\"advise_p99_us\":"
      "%.1f,\"slo_p99_us\":%llu,\"errors\":%zu,\"deterministic\":%s,"
      "\"meets_slo\":%s,\"ok\":%s}\n",
      p99_us, static_cast<unsigned long long>(f.slo_p99_us), report.errors,
      deterministic ? "true" : "false", meets_slo ? "true" : "false",
      ok ? "true" : "false");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ida

int main(int argc, char** argv) {
  ida::Flags flags = ida::ParseFlags(argc, argv);
  if (!flags.make_trace.empty()) return ida::MakeTrace(flags);
  return ida::Replay(flags);
}
