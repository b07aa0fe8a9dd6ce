// The ida::engine train/serve facade (DESIGN.md §9). The paper's pipeline
// is two-phase — offline analysis over session logs (Sec 3, Algorithms
// 1–2) feeding an online kNN predictor (Sec 4) — and this layer makes the
// split first-class:
//
//   Trainer trainer(config);
//   auto model = trainer.Fit(log, datasets);          // offline, once
//   model->SaveToFile("advisor.idamodel");
//   ...
//   auto served = Predictor::LoadFromFile("advisor.idamodel");  // anywhere
//   Prediction p = served->Predict(context);          // thread-safe
//
// A loaded Predictor reproduces the in-memory model's predictions bitwise
// (see engine/model.h for the artifact format). Predict/PredictBatch are
// safe to call concurrently from many threads: the classifier is immutable
// and its shared display-distance memo is internally synchronized.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/mapped_file.h"
#include "engine/model.h"
#include "eval/metrics.h"
#include "measures/measure.h"
#include "obs/obs.h"
#include "offline/labeling.h"
#include "predict/knn.h"
#include "session/log.h"

namespace ida::engine {

/// Resolves a config's measure names into a MeasureSet; unknown names are
/// an InvalidArgument.
Result<MeasureSet> ResolveMeasures(const std::vector<std::string>& names);

/// Validates a ModelConfig (n >= 1, k >= 1, known measures, sane weights).
Status ValidateConfig(const ModelConfig& config);

/// Replays a session log against its datasets (facade over
/// ReplayedRepository::Build with a default executor).
Result<ReplayedRepository> Replay(const SessionLog& log,
                                  const DatasetRegistry& datasets);

/// Builds the offline labeler the config asks for, ready to label `repo`
/// (the Normalized labeler is preprocessed here). The repository must
/// outlive the labeler.
Result<std::unique_ptr<ActionLabeler>> MakeLabeler(
    const ModelConfig& config, const ReplayedRepository& repo);

/// What Fit did, for logging/monitoring.
struct TrainReport {
  size_t sessions_replayed = 0;
  size_t failed_replays = 0;
  size_t steps_labeled = 0;
  TrainingSetStats training;
  double label_seconds = 0.0;
  double total_seconds = 0.0;
};

/// The offline phase: log -> replay -> label -> training set, under one
/// configuration. Stateless apart from the config; Fit may be called
/// repeatedly.
///
/// Observability (`obs`, optional): when metrics are on, each Fit records
/// the `ida.engine.fit.*` counters and timing histograms; when a trace
/// sink is attached, each Fit emits one span per offline phase
/// ("fit.replay", "fit.label", "fit.build_training_set"). The configured
/// registry/sink must outlive the Trainer.
class Trainer {
 public:
  explicit Trainer(ModelConfig config, obs::ObsConfig obs = {})
      : config_(std::move(config)), obs_(obs) {}

  /// Full offline pass over a session log.
  Result<TrainedModel> Fit(const SessionLog& log,
                           const DatasetRegistry& datasets,
                           TrainReport* report = nullptr) const;

  /// Same from an already-replayed repository (lets callers reuse one
  /// expensive replay across configurations).
  Result<TrainedModel> Fit(const ReplayedRepository& repo,
                           TrainReport* report = nullptr) const;

  const ModelConfig& config() const { return config_; }

 private:
  ModelConfig config_;
  obs::ObsConfig obs_;
};

/// The online phase: an immutable serving handle over a trained model.
/// Cheap to copy (copies share the training set, display-distance memo and
/// metric handles); all prediction entry points are const and thread-safe.
///
/// Observability (`obs`, optional, resolved once at Load): when metrics
/// are on, every prediction records the `ida.engine.predict.*` counters
/// and histograms (latency, per-phase times, nearest-neighbor distance,
/// abstentions) plus the `ida.distance.*` deltas it caused; when a trace
/// sink is attached, each Predict emits its phase breakdown as spans
/// ("predict.prepare" → "predict.distance" → "predict.vote", and
/// "predict.extract" from PredictState). With observability disabled the
/// predict path is byte-identical to the uninstrumented one — no clock
/// reads, no atomics (bench/bench_obs_overhead.cpp enforces < 2% when
/// enabled). The configured registry/sink must outlive the Predictor and
/// all its copies.
class Predictor {
 public:
  /// Builds a serving handle from a trained model (in-memory or loaded).
  static Result<Predictor> Load(TrainedModel model, obs::ObsConfig obs = {});
  /// Loads the artifact at `path` and builds a serving handle: opens it
  /// (MappedArtifact), reads its config (v4::PeekConfig) and serves it
  /// zero-copy (LoadMapped). Records `ida.engine.model.loads` /
  /// `load_seconds` when metrics are on. Predictions are bitwise those of
  /// the in-memory model the artifact was saved from.
  static Result<Predictor> LoadFromFile(const std::string& path,
                                        obs::ObsConfig obs = {});
  /// Zero-copy load of an artifact (DESIGN.md §16): validates the section
  /// directory and flat structures, then serves queries directly off
  /// `art`'s bytes, keeping them alive for the predictor's lifetime (and
  /// that of every copy). `config` must be the artifact's own
  /// configuration (v4::PeekConfig) — it carries the eager-vs-lazy
  /// checksum policy.
  static Result<Predictor> LoadMapped(std::shared_ptr<const MappedArtifact> art,
                                      ModelConfig config,
                                      obs::ObsConfig obs = {});

  /// Predicts the dominant-measure label for a query n-context. The label
  /// indexes into measures(); -1 = abstained.
  Prediction Predict(const NContext& query) const;
  /// Batch prediction over the model's thread pool; output is identical
  /// to calling Predict per query.
  std::vector<Prediction> PredictBatch(
      const std::vector<NContext>& queries) const;
  /// Extracts the n-context of session state S_t (with the model's n) and
  /// predicts — the "live advisor" entry point.
  Prediction PredictState(const SessionTree& tree, int t) const;
  /// Stateful-serving entry point (DESIGN.md §14): predicts over an
  /// already-flattened query with caller-owned per-session scratch
  /// (PredictScratch), recording the same observability as Predict. The
  /// prepare phase is absent — the caller maintains the flattened context
  /// incrementally (see serve/session_manager.h) — so the prepare span is
  /// reported as zero. The query's display ids are resolved against the
  /// model's pool in place (the only mutation of `query`).
  /// Bitwise-identical to Predict on the equivalent NContext.
  Prediction PredictPrepared(FlatContext& query,
                             PredictScratch& scratch) const;

  const ModelConfig& config() const { return config_; }
  /// The resolved measure set I the labels index into.
  const MeasureSet& measures() const { return measures_; }
  size_t train_size() const { return knn_->train().size(); }
  /// The observability configuration this handle serves under.
  const obs::ObsConfig& obs() const { return obs_; }

 private:
  /// Metric handles resolved once at Load (stable registry pointers;
  /// nullptr when metrics are off).
  struct ServeMetrics {
    obs::Counter* predictions = nullptr;
    obs::Counter* abstentions = nullptr;
    obs::Counter* batch_calls = nullptr;
    obs::Counter* distance_evals = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Histogram* prepare_seconds = nullptr;
    obs::Histogram* distance_seconds = nullptr;
    obs::Histogram* vote_seconds = nullptr;
    obs::Histogram* nearest_distance = nullptr;
    /// `ida.index.*` search counters (see index/vptree.h).
    obs::Counter* index_searches = nullptr;
    obs::Counter* index_nodes_visited = nullptr;
    obs::Counter* index_lb_pruned = nullptr;
    obs::Counter* index_triangle_pruned = nullptr;
    obs::Counter* index_core_pruned = nullptr;
    obs::Counter* index_subtree_pruned = nullptr;
    obs::Counter* index_core_teds = nullptr;
    obs::Counter* index_exact_teds = nullptr;
  };

  Predictor(ModelConfig config, MeasureSet measures,
            std::shared_ptr<const IKnnClassifier> knn, obs::ObsConfig obs);

  /// Records one query's stats into metrics and, optionally, trace spans
  /// starting at process-relative time `start` (seconds).
  void RecordPredict(const Prediction& p, const PredictStats& stats,
                     double start, double total_seconds) const;
  /// Adds one query's index search counters onto the resolved
  /// `ida.index.*` handles (metrics-on only).
  void RecordIndexStats(const index::IndexStats& stats) const;
  /// Appends one kPredict CaptureRecord when capture is on (obs/capture.h);
  /// `start` is the request's arrival in process-relative seconds.
  void CapturePredict(const NContext& query, const Prediction& p,
                      double start) const;

  ModelConfig config_;
  MeasureSet measures_;
  std::shared_ptr<const IKnnClassifier> knn_;
  obs::ObsConfig obs_;
  /// Keeps an `obs.capture_path`-resolved TraceRecorder alive across this
  /// handle and all its copies (obs_.capture borrows it); the trace file
  /// is flushed when the last copy is destroyed. Null when the caller
  /// attached their own recorder or capture is off.
  std::shared_ptr<obs::TraceRecorder> owned_capture_;
  ServeMetrics metrics_;
};

/// Leave-one-out evaluation of a trained model (paper Sec 4.2), through
/// the same engine configuration serving uses: I-kNN versus the Best-SM
/// and RANDOM baselines over the model's training set.
struct EvaluationReport {
  EvalMetrics knn;
  EvalMetrics best_sm;
  EvalMetrics random;
  size_t samples = 0;
};

/// Runs every leave-one-out query through the serving classifier (pruned
/// VP-tree search when the model carries an index, full scan otherwise),
/// so the report is bitwise identical either way and reflects exactly
/// what a served query would see.
///
/// Observability: when `obs` metrics are on, records `ida.engine.loocv.*`
/// (runs, samples, seconds) and, on the indexed path, the `ida.index.*`
/// counters; a trace sink receives one span per phase ("loocv.knn",
/// "loocv.baselines").
Result<EvaluationReport> EvaluateLoocv(const TrainedModel& model,
                                       uint64_t random_seed = 17,
                                       const obs::ObsConfig& obs = {});

}  // namespace ida::engine
