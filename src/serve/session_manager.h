// The stateful multi-session advisor service (`ida_serve`, DESIGN.md §14):
// a long-running serving layer over the one-shot engine. The engine's
// Predict answers isolated queries; a real deployment tracks many
// concurrent analyst sessions, each growing one action at a time with the
// advisor re-consulted at every step. SessionManager keeps those sessions
// live — a sharded (striped-lock) map of SessionTree + incremental
// n-context + per-session serving scratch keyed by session id — so each
// step pays O(affected subtree) context maintenance plus one prepared
// prediction instead of a full re-flatten, while every answer stays
// bitwise-identical to the one-shot Predictor::PredictState on the
// equivalent state.
//
// Concurrency model. Sessions are striped over `num_shards` shards by a
// hash of the session id; every public method is thread-safe and takes
// exactly one shard lock (operations on different shards never contend).
// A session's tree, context builder and scratch are only ever touched
// under its shard's lock. Model hot-reload (Reload/ReloadFromFile) swaps
// a new Predictor in behind a global epoch counter WITHOUT taking any
// shard lock: each shard caches a shared_ptr to the epoch's predictor and
// lazily refreshes it when the atomic epoch advances, so in-flight
// queries finish on the model they started with and a torn model can
// never be observed (the artifact loader's checksum/version machinery
// rejects bad bytes before the swap is attempted).
//
// Capacity. `max_live_sessions` bounds the resident sessions; each shard
// keeps an LRU list (any Open/Append/Advise touch refreshes recency) and
// an Open that would exceed the shard's share evicts its least-recently-
// used session. Evictions and every other event are exported as
// `ida.serve.*` metrics (see DESIGN.md §14 / README operator table).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "actions/executor.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/engine.h"
#include "obs/obs.h"
#include "predict/knn.h"
#include "session/ncontext.h"
#include "session/tree.h"

namespace ida::serve {

/// Operator knobs of the advisor service (README "Serving daemon" rows).
struct ServeOptions {
  /// Lock stripes of the session map: operations on sessions in
  /// different shards proceed fully in parallel. Clamped to >= 1.
  int num_shards = 16;
  /// Ceiling on resident sessions, divided evenly across shards (each
  /// shard holds at most ceil(max / num_shards)). An Open that would
  /// exceed a shard's share evicts that shard's least-recently-used
  /// session first. 0 = unbounded.
  size_t max_live_sessions = 0;
};

/// A point-in-time view of the service for monitoring and tests.
struct ServeInfo {
  uint64_t epoch = 0;          ///< model epoch (1 = the initial model)
  size_t live_sessions = 0;    ///< resident sessions across all shards
  uint64_t evictions = 0;      ///< LRU evictions since construction
};

/// The multi-session advisor service. Construction requires an already
/// loaded Predictor (epoch 1); all public methods are thread-safe.
class SessionManager {
 public:
  /// `obs` configures the service's `ida.serve.*` metrics; the predictor
  /// keeps recording its own `ida.engine.predict.*` under the ObsConfig
  /// it was loaded with. The registry/sink must outlive the manager.
  /// When `obs.capture` is set (or `obs.capture_path` is non-empty, which
  /// resolves into an owned recorder here), every Open/Append/Advise/
  /// Close appends one CaptureRecord for later replay (DESIGN.md §15).
  explicit SessionManager(std::shared_ptr<const engine::Predictor> predictor,
                          ServeOptions options = {},
                          obs::ObsConfig obs = {});

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a live session whose root display is `root`. AlreadyExists if
  /// the id is resident; may LRU-evict the shard's oldest session first.
  Status Open(const std::string& session_id, DisplayPtr root,
              const std::string& user_id = {},
              const std::string& dataset_id = {});

  /// Executes `action` from display node `parent_id` (as
  /// SessionTree::ApplyFrom) and incrementally updates the session's live
  /// n-context + flattened view. Returns the new node id. NotFound when
  /// the session is not resident (closed, evicted or never opened).
  Result<int> Append(const std::string& session_id, int parent_id,
                     const Action& action);

  /// Predicts the dominant-measure label for the session's current state,
  /// through the session's prepared context and scratch. Bitwise-identical
  /// to Predictor::PredictState(tree, num_steps()) on the equivalent
  /// one-shot state (pinned by tests/serve_test.cpp).
  Result<Prediction> Advise(const std::string& session_id);

  /// Batched advise: groups the ids by shard and serves each group
  /// through one Predictor::PredictBatch call under that shard's lock
  /// (per-shard request batching). Output order matches the input order
  /// and each prediction is identical to a lone Advise on that id.
  /// NotFound (naming the first missing id) fails the whole batch.
  Result<std::vector<Prediction>> AdviseBatch(
      const std::vector<std::string>& session_ids);

  /// Closes and releases a live session. NotFound when not resident.
  Status Close(const std::string& session_id);

  /// Hot model reload: validates and loads `model` into a fresh
  /// Predictor (inheriting the current predictor's ObsConfig), then
  /// atomically publishes it as a new epoch. Traffic already in flight
  /// finishes on the previous epoch; a model that fails validation
  /// leaves the service untouched and returns the error.
  Status Reload(engine::TrainedModel model);
  /// Same from a serialized artifact, through the one loader
  /// (Predictor::LoadMapped) with every section checksum verified: torn,
  /// corrupt or version-mismatched files are rejected before any swap
  /// happens, and the new epoch serves the file zero-copy.
  Status ReloadFromFile(const std::string& path);

  /// The current model epoch (starts at 1, +1 per successful reload).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// Number of resident sessions.
  size_t live_sessions() const {
    return live_sessions_.load(std::memory_order_relaxed);
  }
  /// Snapshot of epoch / live sessions / evictions.
  ServeInfo Info() const;
  /// The predictor serving the current epoch.
  std::shared_ptr<const engine::Predictor> predictor() const;

  const ServeOptions& options() const { return options_; }

 private:
  /// One resident analyst session. Lives behind a unique_ptr so the
  /// addresses the context builder and flattened view borrow stay stable
  /// across map rehashes.
  struct LiveSession {
    LiveSession(std::string sid, std::string uid, std::string did,
                DisplayPtr root)
        : tree(std::move(sid), std::move(uid), std::move(did),
               std::move(root)),
          builder(&tree) {}

    SessionTree tree;
    NContextBuilder builder;  ///< incremental extractor bound to `tree`
    PredictScratch scratch;   ///< per-session TED workspace + buffers
    NContext context;         ///< live n-context of the current state
    FlatContext flat;         ///< prepared view borrowing from `context`
    int context_step = -1;    ///< step `context` was extracted at
    int context_n = 0;        ///< n it was extracted with
    std::list<std::string>::iterator lru;  ///< position in the shard LRU
  };

  /// One lock stripe: its sessions, their LRU order (front = most
  /// recently used), and the lazily refreshed epoch predictor cache.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, std::unique_ptr<LiveSession>> sessions
        IDA_GUARDED_BY(mu);
    std::list<std::string> lru IDA_GUARDED_BY(mu);
    std::shared_ptr<const engine::Predictor> predictor IDA_GUARDED_BY(mu);
    uint64_t epoch IDA_GUARDED_BY(mu) = 0;
  };

  /// Metric handles resolved once at construction (nullptr = metrics off).
  struct ServeMetrics {
    obs::Counter* opens = nullptr;
    obs::Counter* closes = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* appends = nullptr;
    obs::Counter* advises = nullptr;
    obs::Counter* batch_calls = nullptr;
    obs::Counter* batch_queries = nullptr;
    obs::Counter* context_updates = nullptr;
    obs::Counter* reloads = nullptr;
    obs::Gauge* live = nullptr;
    obs::Gauge* epoch = nullptr;
    obs::Histogram* advise_seconds = nullptr;
    obs::Histogram* append_seconds = nullptr;
  };

  Shard& ShardFor(const std::string& session_id);
  /// Appends one request-capture record when capture is on (obs/capture.h).
  /// `arrival_us` is the method-entry timestamp; label/confidence/payload
  /// are kind-specific (see CaptureKind).
  void Capture(obs::CaptureKind kind, uint64_t arrival_us,
               const std::string& session_id, const LiveSession& s,
               int parent, const Prediction* answer,
               std::string payload) const;
  /// Returns the shard's cached predictor, refreshing it first when the
  /// global epoch has advanced. Caller must hold `shard.mu`.
  const std::shared_ptr<const engine::Predictor>& Model(Shard& shard)
      IDA_REQUIRES(shard.mu);
  /// Re-extracts `s`'s live context at its tree's current state when the
  /// cached one is stale (step advanced, or the model's n changed across
  /// a reload). Caller must hold the owning shard's lock.
  void RefreshContext(LiveSession& s, const engine::Predictor& model);
  /// Moves `s` to the front of the shard's LRU list. Caller must hold
  /// `shard.mu`.
  static void Touch(Shard& shard, LiveSession& s) IDA_REQUIRES(shard.mu);
  void SetLiveGauge() const;
  /// The current predictor's ObsConfig (inherited by reloaded models).
  obs::ObsConfig PredictorObs() const;
  /// Publishes `next` as the new epoch (Reload's swap step).
  void Publish(engine::Predictor next);

  ServeOptions options_;
  obs::ObsConfig obs_;
  /// Keeps an `obs.capture_path`-resolved recorder alive for the
  /// manager's lifetime (obs_.capture borrows it). Null when the caller
  /// attached their own recorder or capture is off.
  std::shared_ptr<obs::TraceRecorder> owned_capture_;
  ServeMetrics metrics_;
  ActionExecutor exec_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_capacity_ = 0;  ///< per-shard session budget (0 = none)

  /// The published model: swapped under `model_mu_`; `epoch_` is the
  /// lock-free "a new epoch exists" signal the shards poll.
  mutable Mutex model_mu_;
  std::shared_ptr<const engine::Predictor> current_ IDA_GUARDED_BY(model_mu_);
  std::atomic<uint64_t> epoch_{1};

  std::atomic<size_t> live_sessions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace ida::serve
