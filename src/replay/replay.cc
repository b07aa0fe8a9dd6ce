#include "replay/replay.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "actions/display.h"
#include "actions/executor.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace ida::replay {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

uint64_t Micros(double seconds) {
  return static_cast<uint64_t>(seconds * 1e6 + 0.5);
}

// Scheduled start offsets (seconds from run start) for every event:
// the scaled recorded timeline, or a seeded Poisson resampling of it.
// speed <= 0 collapses the whole schedule to "due immediately".
Result<std::vector<double>> BuildSchedule(
    const std::vector<obs::CaptureRecord>& records,
    const ReplayOptions& options) {
  std::vector<double> offsets(records.size(), 0.0);
  if (options.arrivals == ArrivalMode::kPoisson &&
      options.poisson_rate <= 0.0) {
    return Status::InvalidArgument(
        "poisson_rate must be > 0 in Poisson arrival mode");
  }
  if (options.speed <= 0.0) return offsets;
  if (options.arrivals == ArrivalMode::kPoisson) {
    Rng rng(options.seed);
    double t = 0.0;
    for (size_t i = 0; i < records.size(); ++i) {
      t += rng.Exponential(options.poisson_rate);
      offsets[i] = t / options.speed;
    }
    return offsets;
  }
  uint64_t base = records.front().arrival_us;
  for (const obs::CaptureRecord& r : records) {
    if (r.arrival_us < base) base = r.arrival_us;
  }
  for (size_t i = 0; i < records.size(); ++i) {
    offsets[i] =
        static_cast<double>(records[i].arrival_us - base) / 1e6 /
        options.speed;
  }
  return offsets;
}

}  // namespace

Result<ReplayReport> ReplayTrace(serve::SessionManager& manager,
                                 const DatasetRegistry& datasets,
                                 const obs::Trace& trace,
                                 const ReplayOptions& options) {
  const std::vector<obs::CaptureRecord>& records = trace.records;
  if (records.empty()) {
    return Status::InvalidArgument("cannot replay an empty trace");
  }
  const size_t n = records.size();
  const size_t workers =
      options.workers < 1 ? 1 : static_cast<size_t>(options.workers);

  IDA_ASSIGN_OR_RETURN(std::vector<double> offsets,
                       BuildSchedule(records, options));

  ReplayReport report;
  report.events = n;

  // Static session-affinity partition: one session's events replay in
  // trace order on one worker; kPredict records are not replayable
  // through the manager and are skipped up front.
  std::vector<std::vector<size_t>> plan(workers);
  std::vector<size_t> advise_slot(n, 0);
  size_t advises = 0;
  for (size_t i = 0; i < n; ++i) {
    const obs::CaptureRecord& r = records[i];
    if (r.kind == obs::CaptureKind::kPredict) {
      ++report.skipped;
      continue;
    }
    if (r.kind == obs::CaptureKind::kAdvise) advise_slot[i] = advises++;
    plan[std::hash<std::string>{}(r.session_id) % workers].push_back(i);
  }
  report.predictions.assign(advises, Prediction{});

  // Per-event outcome slots, written only by the owning worker.
  std::vector<double> service(n, -1.0);
  std::vector<double> total(n, -1.0);
  std::vector<size_t> worker_errors(workers, 0);
  std::vector<double> worker_lag(workers, 0.0);

  const auto execute = [&](const obs::CaptureRecord& r,
                           size_t index) -> bool {
    switch (r.kind) {
      case obs::CaptureKind::kOpen: {
        auto it = datasets.find(r.payload);
        if (it == datasets.end()) return false;
        return manager
            .Open(r.session_id, Display::MakeRoot(it->second), "", r.payload)
            .ok();
      }
      case obs::CaptureKind::kAppend: {
        Result<Action> action = Action::Parse(r.payload);
        if (!action.ok()) return false;
        return manager.Append(r.session_id, r.parent, action.value()).ok();
      }
      case obs::CaptureKind::kAdvise: {
        Result<Prediction> p = manager.Advise(r.session_id);
        if (!p.ok()) return false;
        report.predictions[advise_slot[index]] = p.value();
        return true;
      }
      case obs::CaptureKind::kClose:
        return manager.Close(r.session_id).ok();
      case obs::CaptureKind::kPredict:
        return false;  // unreachable: filtered out of the plan
    }
    return false;
  };

  double max_offset = 0.0;
  for (double o : offsets) {
    if (o > max_offset) max_offset = o;
  }
  report.virtual_seconds = max_offset;

  // Several workers get a CPU each (the calling thread only waits); one
  // worker is left to the scheduler.
  const std::vector<int> cpus =
      workers > 1 ? SpreadCpus(workers) : std::vector<int>();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w]() {
      BindCurrentThread(cpus.empty() ? -1 : cpus[w]);
      for (size_t i : plan[w]) {
        const Clock::time_point target = start + FromSeconds(offsets[i]);
        if (offsets[i] > 0.0) std::this_thread::sleep_until(target);
        const Clock::time_point t0 = Clock::now();
        const bool ok = execute(records[i], i);
        const Clock::time_point t1 = Clock::now();
        service[i] = Seconds(t1 - t0);
        total[i] = Seconds(t1 - target);
        const double lag = Seconds(t0 - target);
        if (lag > worker_lag[w]) worker_lag[w] = lag;
        if (!ok) ++worker_errors[w];
      }
    });
  }
  // Optional hot reload at the timeline midpoint: the epoch swap happens
  // while replay traffic is in flight.
  bool reload_failed = false;
  std::thread reloader;
  if (!options.reload_path.empty()) {
    reloader = std::thread([&]() {
      std::this_thread::sleep_until(start + FromSeconds(max_offset / 2.0));
      reload_failed = !manager.ReloadFromFile(options.reload_path).ok();
    });
  }
  for (std::thread& t : pool) t.join();
  if (reloader.joinable()) reloader.join();
  report.wall_seconds = Seconds(Clock::now() - start);

  std::vector<double> advise_service, advise_total, append_service;
  for (size_t i = 0; i < n; ++i) {
    if (service[i] < 0.0) continue;
    ++report.executed;
    switch (records[i].kind) {
      case obs::CaptureKind::kOpen:
        ++report.opens;
        break;
      case obs::CaptureKind::kAppend:
        ++report.appends;
        append_service.push_back(service[i]);
        break;
      case obs::CaptureKind::kAdvise:
        ++report.advises;
        advise_service.push_back(service[i]);
        advise_total.push_back(total[i]);
        break;
      case obs::CaptureKind::kClose:
        ++report.closes;
        break;
      case obs::CaptureKind::kPredict:
        break;
    }
  }
  for (size_t w = 0; w < workers; ++w) {
    report.errors += worker_errors[w];
    if (worker_lag[w] > report.max_lag_seconds) {
      report.max_lag_seconds = worker_lag[w];
    }
  }
  if (reload_failed) ++report.errors;
  report.advise_service = Summarize(std::move(advise_service));
  report.advise_total = Summarize(std::move(advise_total));
  report.append_service = Summarize(std::move(append_service));
  if (report.wall_seconds > 0.0) {
    report.throughput_events_per_sec =
        static_cast<double>(report.executed) / report.wall_seconds;
    report.advise_qps =
        static_cast<double>(report.advises) / report.wall_seconds;
  }
  return report;
}

Result<obs::Trace> SynthesizeTrace(const SynthBenchmark& bench,
                                   const GeneratorOptions& world,
                                   const SyntheticTraceOptions& options) {
  // Probe every recorded session for its longest executable prefix; the
  // surviving scripts are the workload's session vocabulary.
  struct Script {
    std::string dataset_id;
    std::vector<std::pair<int, Action>> steps;
  };
  ActionExecutor exec;
  std::vector<Script> scripts;
  for (const SessionRecord& record : bench.log.records()) {
    auto it = bench.registry.find(record.dataset_id);
    if (it == bench.registry.end()) continue;
    SessionTree tree(record.session_id, record.user_id, record.dataset_id,
                     Display::MakeRoot(it->second));
    Script script;
    script.dataset_id = record.dataset_id;
    for (const auto& [parent, action] : record.steps) {
      if (!tree.ApplyFrom(parent, action, exec).ok()) break;
      script.steps.emplace_back(parent, action);
      if (script.steps.size() >= options.max_steps) break;
    }
    if (!script.steps.empty()) scripts.push_back(std::move(script));
  }
  if (scripts.empty()) {
    return Status::FailedPrecondition(
        "no session in the generated world replays successfully");
  }

  obs::Trace trace;
  trace.world = obs::TraceWorld{
      static_cast<uint32_t>(world.num_users),
      static_cast<uint32_t>(world.num_sessions),
      static_cast<uint32_t>(world.rows_per_dataset), world.seed};

  Rng rng(options.seed);
  double session_start = 0.0;
  for (size_t i = 0; i < options.num_sessions; ++i) {
    const Script& script = scripts[i % scripts.size()];
    const std::string sid = "s-" + std::to_string(i);
    session_start += rng.Exponential(options.session_rate);
    double t = session_start;

    obs::CaptureRecord open;
    open.kind = obs::CaptureKind::kOpen;
    open.arrival_us = Micros(t);
    open.session_id = sid;
    open.payload = script.dataset_id;
    trace.records.push_back(std::move(open));

    for (size_t k = 0; k < script.steps.size(); ++k) {
      t += rng.Exponential(options.step_rate);
      obs::CaptureRecord append;
      append.kind = obs::CaptureKind::kAppend;
      append.arrival_us = Micros(t);
      append.session_id = sid;
      append.step = static_cast<int32_t>(k + 1);
      append.parent = script.steps[k].first;
      append.payload = script.steps[k].second.Serialize();
      trace.records.push_back(std::move(append));

      obs::CaptureRecord advise;
      advise.kind = obs::CaptureKind::kAdvise;
      advise.arrival_us = Micros(t);
      advise.session_id = sid;
      advise.step = static_cast<int32_t>(k + 1);
      trace.records.push_back(std::move(advise));
    }

    t += rng.Exponential(options.step_rate);
    obs::CaptureRecord close;
    close.kind = obs::CaptureKind::kClose;
    close.arrival_us = Micros(t);
    close.session_id = sid;
    close.step = static_cast<int32_t>(script.steps.size());
    trace.records.push_back(std::move(close));
  }

  // Interleave sessions on the global timeline. The sort is stable and
  // each session's events were emitted in nondecreasing time order, so
  // per-session lifecycle order survives ties.
  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [](const obs::CaptureRecord& a,
                      const obs::CaptureRecord& b) {
                     return a.arrival_us < b.arrival_us;
                   });
  return trace;
}

}  // namespace ida::replay
