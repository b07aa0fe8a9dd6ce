// The replay half of the record→replay load harness (DESIGN.md §15):
// drives a serve::SessionManager end-to-end (Open/Append/Advise/Close,
// optional mid-run hot reload) from an obs::Trace, scheduling each event's
// start time open-loop — every arrival fires at its scheduled offset from
// the recorded (or Poisson-resampled) timeline whether or not earlier
// requests have completed, which is what exposes queueing under load
// (a closed-loop driver would politely wait and hide it).
//
// Ordering and determinism. Events are partitioned across the worker pool
// by a hash of the session id, so one session's lifecycle replays in
// trace order on one worker while different sessions interleave freely —
// the same concurrency shape a live deployment sees. Because sessions are
// independent and the engine's shared display-distance memo holds values
// of pure functions of display content (DESIGN.md §14), the sequence of
// predictions is bitwise identical across runs, worker counts and speed
// settings; only the measured latencies vary. (With
// `ServeOptions::max_live_sessions` set, cross-worker eviction timing can
// fail a session mid-replay, so run the manager unbounded when asserting
// determinism.)
//
// SynthesizeTrace generates the checked-in fixture's shape: replayable
// session scripts from a src/synth/ world, arrival times drawn from a
// seeded Poisson process (common/rng.h), world provenance embedded so the
// replayer can regenerate the exact datasets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/capture.h"
#include "predict/knn.h"
#include "replay/stats.h"
#include "serve/session_manager.h"
#include "session/log.h"
#include "synth/generator.h"

namespace ida::replay {

/// Where the open-loop scheduler takes each event's arrival time from.
enum class ArrivalMode {
  kRecorded = 0,  ///< the trace's captured arrival_us timeline
  kPoisson = 1,   ///< resampled: exponential gaps at `poisson_rate`
};

/// Knobs of one replay run.
struct ReplayOptions {
  /// Worker threads; sessions are statically partitioned by id hash.
  int workers = 4;
  /// Timeline scale: 2.0 replays the trace twice as fast as recorded.
  /// <= 0 removes pacing entirely (every event is due immediately) —
  /// the maximum-throughput and determinism-test mode.
  double speed = 1.0;
  ArrivalMode arrivals = ArrivalMode::kRecorded;
  /// Mean arrival rate (events/second) when `arrivals` is kPoisson.
  double poisson_rate = 100.0;
  /// Seed of the Poisson resampling stream (ida::Rng).
  uint64_t seed = 1;
  /// Non-empty: hot-reload this model artifact (ReloadFromFile) from a
  /// side thread at the timeline midpoint, exercising the epoch swap
  /// under live replay traffic.
  std::string reload_path;
};

/// What one replay run measured. Latencies are in seconds; "service" is
/// the manager call duration alone, "total" additionally includes the
/// time the event sat behind its scheduled arrival (the open-loop queueing
/// delay — under an overloaded schedule total ≫ service).
struct ReplayReport {
  size_t events = 0;    ///< events in the trace
  size_t executed = 0;  ///< events actually driven (events - skipped)
  size_t opens = 0;
  size_t appends = 0;
  size_t advises = 0;
  size_t closes = 0;
  /// kPredict records (one-shot captures with no session lifecycle) are
  /// not replayable through a SessionManager and are skipped.
  size_t skipped = 0;
  /// Events whose manager call failed (missing dataset, malformed action,
  /// evicted session, failed reload). 0 on a healthy run.
  size_t errors = 0;
  double wall_seconds = 0.0;     ///< measured run duration
  double virtual_seconds = 0.0;  ///< scheduled span of the (scaled) timeline
  double throughput_events_per_sec = 0.0;  ///< executed / wall
  double advise_qps = 0.0;                 ///< advises / wall
  /// Worst observed start lag behind schedule (backlog indicator).
  double max_lag_seconds = 0.0;
  LatencySummary advise_service;  ///< Advise call durations
  LatencySummary advise_total;    ///< Advise durations incl. queueing delay
  LatencySummary append_service;  ///< Append call durations
  /// Advise answers in trace order (one per kAdvise event; error slots
  /// keep the default abstention) — the bitwise determinism surface.
  std::vector<Prediction> predictions;
};

/// Replays `trace` against `manager`, resolving kOpen dataset ids through
/// `datasets`. The manager should be freshly constructed (resident
/// sessions with colliding ids fail the trace's Opens). InvalidArgument
/// on an empty trace or nonpositive poisson_rate in kPoisson mode;
/// individual event failures are counted in ReplayReport::errors instead
/// of aborting the run.
Result<ReplayReport> ReplayTrace(serve::SessionManager& manager,
                                 const DatasetRegistry& datasets,
                                 const obs::Trace& trace,
                                 const ReplayOptions& options);

/// Shape of a synthesized workload (SynthesizeTrace).
struct SyntheticTraceOptions {
  /// Session lifecycles to synthesize (scripts are reused round-robin
  /// when the world has fewer replayable sessions).
  size_t num_sessions = 64;
  /// Per-session cap on replayed steps.
  size_t max_steps = 12;
  /// Session arrival rate (sessions/second, exponential inter-arrivals).
  double session_rate = 4.0;
  /// Within-session step rate (steps/second — analyst think time).
  double step_rate = 2.0;
  /// Seed of the arrival-time stream (independent of the world seed).
  uint64_t seed = 20190326;
};

/// Builds an open-loop trace from a generated world: replays each
/// recorded session to find its longest executable prefix, scripts
/// `num_sessions` lifecycles over those prefixes (Open, then per step an
/// Append immediately followed by an Advise, then Close), and draws all
/// arrival times from seeded Poisson/exponential processes. `world`
/// must be the options `bench` was generated from; it is embedded as the
/// trace's provenance block so replay can regenerate the datasets.
/// FailedPrecondition when no session in the world replays successfully.
Result<obs::Trace> SynthesizeTrace(const SynthBenchmark& bench,
                                   const GeneratorOptions& world,
                                   const SyntheticTraceOptions& options);

}  // namespace ida::replay
