// Entry point of the observability subsystem (DESIGN.md §10): ObsConfig —
// the ModelConfig-style bundle of observability knobs threaded through
// Trainer / Predictor / EvaluateLoocv — plus the RAII ScopedTimer that
// records a phase into a histogram and/or emits a TraceSpan, and the JSON
// snapshot writer behind the examples' `--metrics-json` flag.
//
// Cost contract (the "zero-overhead when disabled" guarantee):
//   - IDA_OBS=OFF (compile time): every instrument is an empty inline
//     stub, metrics_on()/trace_on() are constant false, and instrumented
//     branches fold away entirely.
//   - enabled == false (runtime): instrumented code paths are guarded by
//     one branch on a plain bool; no clocks are read, no atomics touched.
//   - enabled (the default): lock-free atomic updates plus two monotonic
//     clock reads per timed phase — bench/bench_obs_overhead.cpp holds
//     the predict-path total under 2%.
#pragma once

#include <string>
#include <utility>

#include "common/status.h"
#include "obs/capture.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ida::obs {

/// Observability configuration, passed by value alongside a ModelConfig.
/// Copies are cheap (a bool, borrowed pointers and one usually-empty
/// string). The registry and sinks are borrowed: all must outlive every
/// component configured with them (the process-wide Default() registry
/// trivially does).
struct ObsConfig {
  /// Runtime master switch for metric recording and span emission.
  bool enabled = true;
  /// Metrics destination; nullptr selects MetricsRegistry::Default().
  MetricsRegistry* registry = nullptr;
  /// Optional per-session span sink; nullptr disables tracing. Must be
  /// thread-safe if the configured component is used from many threads.
  TraceSink* trace = nullptr;
  /// Optional serving-traffic capture sink (obs/capture.h): when set (and
  /// `enabled`), Predictor::Predict and the SessionManager lifecycle
  /// methods append one CaptureRecord per request for later replay by
  /// tools/loadgen. Borrowed and thread-safe, like `trace`; independent
  /// of IDA_OBS — it only costs when a recorder is attached.
  TraceRecorder* capture = nullptr;
  /// Convenience knob for components that should own their recorder: a
  /// non-empty path makes Predictor::Load / the SessionManager
  /// constructor create a TraceRecorder(path) of their own (shared by
  /// copies) when `capture` is null; the trace file is flushed when the
  /// last sharing component is destroyed. Attach one explicit recorder
  /// instead when several independently-constructed components must feed
  /// a single trace.
  std::string capture_path;

  /// True when metric recording is active (compiled in AND enabled).
  bool metrics_on() const {
#if IDA_OBS_ENABLED
    return enabled;
#else
    return false;
#endif
  }

  /// True when span emission is active (enabled AND a sink is attached).
  /// Tracing is independent of IDA_OBS: it only costs when a sink is set.
  bool trace_on() const { return enabled && trace != nullptr; }

  /// True when request capture is active (enabled AND a recorder is
  /// attached — directly or resolved from `capture_path`).
  bool capture_on() const { return enabled && capture != nullptr; }

  /// The effective registry (Default() when none was injected).
  MetricsRegistry& reg() const {
    return registry != nullptr ? *registry : MetricsRegistry::Default();
  }

  /// Emits one completed span if trace_on(). `start` is process-relative
  /// seconds (ProcessSeconds() at phase start).
  void EmitSpan(const char* name, double start, double duration,
                std::string detail = {}) const {
    if (trace_on()) {
      trace->OnSpan(TraceSpan{name, start, duration, std::move(detail)});
    }
  }
};

/// An ObsConfig with everything off — convenience for benchmarks and
/// overhead-sensitive callers.
inline ObsConfig DisabledObsConfig() {
  ObsConfig config;
  config.enabled = false;
  return config;
}

/// RAII phase timer: on destruction (or explicit Stop) records the elapsed
/// seconds into an optional histogram and emits an optional span through
/// `obs`. Does not read any clock when neither output is active. Not
/// thread-safe; stack-allocate one per phase.
class ScopedTimer {
 public:
  /// `span_name` must outlive the timer (string literals do); pass
  /// nullptr to skip span emission, nullptr `histogram` to skip metrics.
  ScopedTimer(const ObsConfig& obs, const char* span_name,
              Histogram* histogram = nullptr)
      : obs_(obs),
        span_name_(span_name),
        histogram_(histogram),
        active_(obs.metrics_on() || obs.trace_on()) {
    if (active_) {
      start_ = TraceNow();
      process_start_ = ProcessSeconds();
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { Stop(); }

  /// Attaches a human-readable annotation to the span (e.g. "abstained").
  void set_detail(std::string detail) { detail_ = std::move(detail); }

  /// Stops the timer early and records; idempotent. Returns the elapsed
  /// seconds (0 when the timer was inactive or already stopped).
  double Stop() {
    if (!active_) return 0.0;
    active_ = false;
    const double seconds = SecondsSince(start_);
    if (histogram_ != nullptr && obs_.metrics_on()) {
      histogram_->Observe(seconds);
    }
    if (span_name_ != nullptr) {
      obs_.EmitSpan(span_name_, process_start_, seconds, std::move(detail_));
    }
    return seconds;
  }

 private:
  const ObsConfig& obs_;
  const char* span_name_;
  Histogram* histogram_;
  bool active_;
  TracePoint start_{};
  double process_start_ = 0.0;
  std::string detail_;
};

/// Writes a registry's JSON snapshot to `path` (the `--metrics-json`
/// implementation). nullptr selects the Default() registry. Returns
/// IoError when the file cannot be written.
Status WriteMetricsJson(const std::string& path,
                        MetricsRegistry* registry = nullptr);

}  // namespace ida::obs
