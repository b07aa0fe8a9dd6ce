#include "engine/engine.h"

#include <chrono>
#include <utility>

#include "distance/ted.h"
#include "engine/artifact_v4.h"
#include "eval/loocv.h"
#include "offline/training.h"

namespace ida::engine {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Result<MeasureSet> ResolveMeasures(const std::vector<std::string>& names) {
  MeasureSet set;
  set.reserve(names.size());
  for (const std::string& name : names) {
    MeasurePtr m = CreateMeasure(name);
    if (m == nullptr) {
      return Status::InvalidArgument("unknown interestingness measure '" +
                                     name + "'");
    }
    set.push_back(std::move(m));
  }
  return set;
}

Status ValidateConfig(const ModelConfig& config) {
  if (config.n_context_size < 1) {
    return Status::InvalidArgument("n_context_size must be >= 1");
  }
  if (config.knn.k < 1) {
    return Status::InvalidArgument("knn.k must be >= 1");
  }
  if (config.measures.empty()) {
    return Status::InvalidArgument("measure set must not be empty");
  }
  // Negated so NaN fails too: a NaN alter cost would reach the DP's mins.
  if (!(config.distance.display_weight >= 0.0 &&
        config.distance.display_weight <= 1.0)) {
    return Status::InvalidArgument("distance.display_weight must be in [0, 1]");
  }
  if (!(config.knn.distance_threshold >= 0.0)) {
    return Status::InvalidArgument(
        "knn.distance_threshold must be a number >= 0");
  }
  return ResolveMeasures(config.measures).status();
}

Result<ReplayedRepository> Replay(const SessionLog& log,
                                  const DatasetRegistry& datasets) {
  ActionExecutor exec;
  return ReplayedRepository::Build(log, datasets, exec);
}

Result<std::unique_ptr<ActionLabeler>> MakeLabeler(
    const ModelConfig& config, const ReplayedRepository& repo) {
  IDA_ASSIGN_OR_RETURN(MeasureSet measures, ResolveMeasures(config.measures));
  if (config.method == ComparisonMethod::kReferenceBased) {
    return std::unique_ptr<ActionLabeler>(std::make_unique<ReferenceBasedLabeler>(
        std::move(measures), &repo, config.reference));
  }
  auto labeler = std::make_unique<NormalizedLabeler>(std::move(measures));
  IDA_RETURN_NOT_OK(labeler->Preprocess(repo));
  return std::unique_ptr<ActionLabeler>(std::move(labeler));
}

Result<TrainedModel> Trainer::Fit(const SessionLog& log,
                                  const DatasetRegistry& datasets,
                                  TrainReport* report) const {
  obs::ScopedTimer replay_timer(
      obs_, "fit.replay",
      obs_.metrics_on()
          ? obs_.reg().GetHistogram("ida.engine.fit.replay_seconds")
          : nullptr);
  IDA_ASSIGN_OR_RETURN(ReplayedRepository repo, Replay(log, datasets));
  replay_timer.Stop();
  return Fit(repo, report);
}

Result<TrainedModel> Trainer::Fit(const ReplayedRepository& repo,
                                  TrainReport* report) const {
  auto start = std::chrono::steady_clock::now();
  IDA_RETURN_NOT_OK(ValidateConfig(config_));
  TrainReport local;
  local.sessions_replayed = repo.trees().size();
  local.failed_replays = repo.failed_replays();

  IDA_ASSIGN_OR_RETURN(std::unique_ptr<ActionLabeler> labeler,
                       MakeLabeler(config_, repo));
  obs::ScopedTimer label_timer(
      obs_, "fit.label",
      obs_.metrics_on()
          ? obs_.reg().GetHistogram("ida.engine.fit.label_seconds")
          : nullptr);
  auto label_start = std::chrono::steady_clock::now();
  IDA_ASSIGN_OR_RETURN(std::vector<LabeledStep> labeled,
                       LabelRepository(repo, labeler.get()));
  label_timer.Stop();
  local.label_seconds = SecondsSince(label_start);
  local.steps_labeled = labeled.size();

  obs::ScopedTimer build_timer(
      obs_, "fit.build_training_set",
      obs_.metrics_on()
          ? obs_.reg().GetHistogram("ida.engine.fit.build_seconds")
          : nullptr);
  IDA_ASSIGN_OR_RETURN(
      std::vector<TrainingSample> samples,
      BuildTrainingSetFromLabels(repo, labeled, config_.n_context_size,
                                 config_.theta_interest, config_.training,
                                 &local.training));
  build_timer.Stop();

  // Serving index over the finished training set (DESIGN.md §11): built
  // here so every serving process — and the artifact — gets the same
  // deterministic tree for free.
  std::shared_ptr<const index::VpTree> vptree;
  if (config_.use_index && !samples.empty()) {
    obs::ScopedTimer index_timer(
        obs_, "fit.build_index",
        obs_.metrics_on()
            ? obs_.reg().GetHistogram("ida.engine.fit.index_build_seconds")
            : nullptr);
    std::vector<FlatContext> prepared;
    prepared.reserve(samples.size());
    for (const TrainingSample& s : samples) {
      prepared.push_back(SessionDistance::Prepare(s.context));
    }
    vptree = std::make_shared<const index::VpTree>(
        index::VpTree::Build(prepared, SessionDistance(config_.distance)));
  }
  local.total_seconds = SecondsSince(start);
  if (report != nullptr) *report = local;

  if (obs_.metrics_on()) {
    obs::MetricsRegistry& reg = obs_.reg();
    reg.GetCounter("ida.engine.fit.count")->Increment();
    reg.GetCounter("ida.engine.fit.sessions_replayed")
        ->Add(local.sessions_replayed);
    reg.GetCounter("ida.engine.fit.failed_replays")
        ->Add(local.failed_replays);
    reg.GetCounter("ida.engine.fit.steps_labeled")->Add(local.steps_labeled);
    reg.GetCounter("ida.engine.fit.samples")->Add(samples.size());
    reg.GetCounter("ida.engine.fit.filtered_by_theta")
        ->Add(local.training.filtered_by_theta);
    reg.GetHistogram("ida.engine.fit.seconds")->Observe(local.total_seconds);
    if (vptree != nullptr) {
      reg.GetCounter("ida.engine.fit.index_builds")->Increment();
      reg.GetCounter("ida.engine.fit.index_nodes")->Add(vptree->num_nodes());
    }
  }
  return TrainedModel(config_, std::move(samples), std::move(vptree));
}

Predictor::Predictor(ModelConfig config, MeasureSet measures,
                     std::shared_ptr<const IKnnClassifier> knn,
                     obs::ObsConfig obs)
    : config_(std::move(config)),
      measures_(std::move(measures)),
      knn_(std::move(knn)),
      obs_(obs) {
  // Resolve the capture_path convenience knob into a recorder shared by
  // every copy of this handle (obs/capture.h).
  if (obs_.enabled && obs_.capture == nullptr && !obs_.capture_path.empty()) {
    owned_capture_ = std::make_shared<obs::TraceRecorder>(obs_.capture_path);
    obs_.capture = owned_capture_.get();
  }
  if (obs_.metrics_on()) {
    obs::MetricsRegistry& reg = obs_.reg();
    metrics_.predictions = reg.GetCounter("ida.engine.predict.count");
    metrics_.abstentions = reg.GetCounter("ida.engine.predict.abstentions");
    metrics_.batch_calls = reg.GetCounter("ida.engine.predict.batch_calls");
    metrics_.distance_evals =
        reg.GetCounter("ida.engine.predict.distance_evals");
    metrics_.latency = reg.GetHistogram("ida.engine.predict.seconds");
    metrics_.prepare_seconds =
        reg.GetHistogram("ida.engine.predict.prepare_seconds");
    metrics_.distance_seconds =
        reg.GetHistogram("ida.engine.predict.distance_seconds");
    metrics_.vote_seconds =
        reg.GetHistogram("ida.engine.predict.vote_seconds");
    metrics_.nearest_distance = reg.GetHistogram(
        "ida.engine.predict.nearest_distance",
        obs::LinearBuckets(0.05, 0.05, 20));
    metrics_.index_searches = reg.GetCounter("ida.index.searches");
    metrics_.index_nodes_visited = reg.GetCounter("ida.index.nodes_visited");
    metrics_.index_lb_pruned = reg.GetCounter("ida.index.lb_pruned");
    metrics_.index_triangle_pruned =
        reg.GetCounter("ida.index.triangle_pruned");
    metrics_.index_core_pruned = reg.GetCounter("ida.index.core_pruned");
    metrics_.index_subtree_pruned =
        reg.GetCounter("ida.index.subtree_pruned");
    metrics_.index_core_teds = reg.GetCounter("ida.index.core_teds");
    metrics_.index_exact_teds = reg.GetCounter("ida.index.exact_teds");
    metrics_.ted = TedCounters(obs_);
  }
}

void Predictor::RecordIndexStats(const index::IndexStats& s) const {
  metrics_.index_searches->Add(s.searches);
  metrics_.index_nodes_visited->Add(s.nodes_visited);
  metrics_.index_lb_pruned->Add(s.lb_pruned);
  metrics_.index_triangle_pruned->Add(s.triangle_pruned);
  metrics_.index_core_pruned->Add(s.core_pruned);
  metrics_.index_subtree_pruned->Add(s.subtree_pruned);
  metrics_.index_core_teds->Add(s.core_teds);
  metrics_.index_exact_teds->Add(s.exact_teds);
}

Result<Predictor> Predictor::Load(TrainedModel model, obs::ObsConfig obs) {
  IDA_RETURN_NOT_OK(ValidateConfig(model.config()));
  IDA_ASSIGN_OR_RETURN(MeasureSet measures,
                       ResolveMeasures(model.config().measures));
  const int num_classes = static_cast<int>(measures.size());
  for (const TrainingSample& s : model.samples()) {
    if (s.label < 0 || s.label >= num_classes) {
      return Status::FailedPrecondition(
          "trained model has a sample label outside the measure set (" +
          std::to_string(s.label) + " of " + std::to_string(num_classes) +
          " measures)");
    }
  }
  ModelConfig config = model.config();
  auto knn = std::make_shared<const IKnnClassifier>(
      std::vector<TrainingSample>(model.samples()),
      SessionDistance(config.distance), config.knn,
      config.use_index ? model.index() : nullptr);
  return Predictor(std::move(config), std::move(measures), std::move(knn),
                   obs);
}

Result<Predictor> Predictor::LoadMapped(
    std::shared_ptr<const MappedArtifact> art, ModelConfig config,
    obs::ObsConfig obs) {
  IDA_RETURN_NOT_OK(ValidateConfig(config));
  IDA_ASSIGN_OR_RETURN(MeasureSet measures, ResolveMeasures(config.measures));
  IDA_ASSIGN_OR_RETURN(FlatTrainingSet flat,
                       v4::LoadServing(std::move(art), config));
  const int num_classes = static_cast<int>(measures.size());
  for (const TrainingSample& s : flat.meta) {
    if (s.label < 0 || s.label >= num_classes) {
      return Status::FailedPrecondition(
          "trained model has a sample label outside the measure set (" +
          std::to_string(s.label) + " of " + std::to_string(num_classes) +
          " measures)");
    }
  }
  if (!config.use_index) flat.index = nullptr;
  auto knn = std::make_shared<const IKnnClassifier>(
      std::move(flat), SessionDistance(config.distance), config.knn);
  return Predictor(std::move(config), std::move(measures), std::move(knn),
                   obs);
}

Result<Predictor> Predictor::LoadFromFile(const std::string& path,
                                          obs::ObsConfig obs) {
  obs::ScopedTimer timer(
      obs, "model.load",
      obs.metrics_on()
          ? obs.reg().GetHistogram("ida.engine.model.load_seconds")
          : nullptr);
  const auto wrap = [&path](const Status& s) {
    return Status(s.code(), path + ": " + s.message());
  };
  IDA_ASSIGN_OR_RETURN(MappedArtifact mapped, MappedArtifact::Open(path));
  Result<ModelConfig> config = v4::PeekConfig(mapped);
  if (!config.ok()) return wrap(config.status());
  Result<Predictor> served =
      LoadMapped(std::make_shared<const MappedArtifact>(std::move(mapped)),
                 std::move(*config), obs);
  if (!served.ok()) return wrap(served.status());
  if (obs.metrics_on()) {
    obs.reg().GetCounter("ida.engine.model.loads")->Increment();
    obs.reg().GetCounter("ida.engine.model.load_samples")
        ->Add(served->train_size());
  }
  return served;
}

void Predictor::RecordPredict(const Prediction& p, const PredictStats& stats,
                              double start, double total_seconds) const {
  if (obs_.metrics_on()) {
    metrics_.predictions->Increment();
    if (!p.HasPrediction()) metrics_.abstentions->Increment();
    metrics_.distance_evals->Add(stats.distance_evals);
    metrics_.latency->Observe(total_seconds);
    metrics_.prepare_seconds->Observe(stats.prepare_seconds);
    metrics_.distance_seconds->Observe(stats.distance_seconds);
    metrics_.vote_seconds->Observe(stats.vote_seconds);
    if (stats.nearest_distance >= 0.0) {
      metrics_.nearest_distance->Observe(stats.nearest_distance);
    }
    FlushTedTally(stats.ted, metrics_.ted);
    if (stats.used_index) RecordIndexStats(stats.index);
  }
  if (obs_.trace_on()) {
    double at = start;
    obs_.EmitSpan("predict.prepare", at, stats.prepare_seconds);
    at += stats.prepare_seconds;
    obs_.EmitSpan("predict.distance", at, stats.distance_seconds,
                  std::to_string(stats.distance_evals) + " evals");
    at += stats.distance_seconds;
    obs_.EmitSpan(
        "predict.vote", at, stats.vote_seconds,
        p.HasPrediction()
            ? "label=" + std::to_string(p.label) +
                  " admitted=" + std::to_string(stats.admitted_neighbors)
            : "abstained: nearest " +
                  std::to_string(stats.nearest_distance) + " > theta_delta " +
                  std::to_string(config_.knn.distance_threshold));
  }
}

void Predictor::CapturePredict(const NContext& query, const Prediction& p,
                               double start) const {
  if (!obs_.capture_on()) return;
  obs::CaptureRecord r;
  r.kind = obs::CaptureKind::kPredict;
  r.arrival_us = static_cast<uint64_t>(start * 1e6 + 0.5);
  r.step = static_cast<int32_t>(query.size_elements());
  r.context_digest = ContextDigest(query);
  r.label = p.label;
  r.confidence = p.confidence;
  obs_.capture->Record(std::move(r));
}

Prediction Predictor::Predict(const NContext& query) const {
  if (!obs_.metrics_on() && !obs_.trace_on() && !obs_.capture_on()) {
    return knn_->Predict(query);
  }
  const double start = obs::ProcessSeconds();
  if (!obs_.metrics_on() && !obs_.trace_on()) {
    // Capture-only mode: skip the stats plumbing, record the request.
    Prediction p = knn_->Predict(query);
    CapturePredict(query, p, start);
    return p;
  }
  const obs::TracePoint t0 = obs::TraceNow();
  PredictStats stats;
  Prediction p = knn_->Predict(query, &stats);
  RecordPredict(p, stats, start, obs::SecondsSince(t0));
  CapturePredict(query, p, start);
  return p;
}

std::vector<Prediction> Predictor::PredictBatch(
    const std::vector<NContext>& queries) const {
  if (!obs_.metrics_on() && !obs_.trace_on()) {
    return knn_->PredictBatch(queries);
  }
  const double start = obs::ProcessSeconds();
  const obs::TracePoint t0 = obs::TraceNow();
  std::vector<PredictStats> stats;
  std::vector<Prediction> out = knn_->PredictBatch(queries, &stats);
  const double seconds = obs::SecondsSince(t0);
  if (obs_.metrics_on()) {
    metrics_.batch_calls->Increment();
    metrics_.predictions->Add(out.size());
    for (size_t i = 0; i < out.size(); ++i) {
      if (!out[i].HasPrediction()) metrics_.abstentions->Increment();
      metrics_.distance_evals->Add(stats[i].distance_evals);
      metrics_.distance_seconds->Observe(stats[i].distance_seconds);
      metrics_.vote_seconds->Observe(stats[i].vote_seconds);
      if (stats[i].nearest_distance >= 0.0) {
        metrics_.nearest_distance->Observe(stats[i].nearest_distance);
      }
      FlushTedTally(stats[i].ted, metrics_.ted);
      if (stats[i].used_index) RecordIndexStats(stats[i].index);
    }
  }
  obs_.EmitSpan("predict.batch", start, seconds,
                std::to_string(queries.size()) + " queries");
  return out;
}

Prediction Predictor::PredictPrepared(FlatContext& query,
                                      PredictScratch& scratch) const {
  if (!obs_.metrics_on() && !obs_.trace_on()) {
    return knn_->PredictFlat(query, scratch);
  }
  const double start = obs::ProcessSeconds();
  const obs::TracePoint t0 = obs::TraceNow();
  PredictStats stats;
  Prediction p = knn_->PredictFlat(query, scratch, &stats);
  RecordPredict(p, stats, start, obs::SecondsSince(t0));
  return p;
}

Prediction Predictor::PredictState(const SessionTree& tree, int t) const {
  if (!obs_.trace_on()) {
    return Predict(ExtractNContext(tree, t, config_.n_context_size));
  }
  obs::ScopedTimer extract_timer(obs_, "predict.extract");
  NContext context = ExtractNContext(tree, t, config_.n_context_size);
  extract_timer.Stop();
  return Predict(context);
}

Result<EvaluationReport> EvaluateLoocv(const TrainedModel& model,
                                       uint64_t random_seed,
                                       const obs::ObsConfig& obs) {
  IDA_RETURN_NOT_OK(ValidateConfig(model.config()));
  const ModelConfig& config = model.config();
  const std::vector<TrainingSample>& samples = model.samples();
  const int num_classes = static_cast<int>(config.measures.size());
  obs::ScopedTimer total_timer(
      obs, nullptr,
      obs.metrics_on() ? obs.reg().GetHistogram("ida.engine.loocv.seconds")
                       : nullptr);

  EvaluationReport report;
  report.samples = samples.size();
  std::vector<size_t> subset = AllIndices(samples.size());
  // Both branches run the leave-one-out queries through the serving
  // classifier, so the report reflects exactly what a served query would
  // see — including the direction of each distance. (The filter-predicate
  // ground distance is asymmetric, so the mirrored offline distance matrix
  // can disagree with the directional query distances by a hair; routing
  // LOOCV through the matrix would make indexed and brute reports diverge
  // on such pairs.) With the index the search is pruned; without it every
  // query scans all other samples. The reports are bitwise identical.
  const bool indexed = config.use_index && model.index() != nullptr &&
                       model.index()->size() == samples.size();
  IKnnClassifier classifier(std::vector<TrainingSample>(samples),
                            SessionDistance(config.distance), config.knn,
                            indexed ? model.index() : nullptr);
  obs::ScopedTimer knn_timer(obs, "loocv.knn");
  index::IndexStats index_stats;
  report.knn = EvaluateKnnLoocv(classifier, num_classes,
                                config.distance.num_threads,
                                indexed ? &index_stats : nullptr);
  knn_timer.Stop();
  if (indexed) index::FlushIndexStats(index_stats, obs);
  obs::ScopedTimer baseline_timer(obs, "loocv.baselines");
  report.best_sm = EvaluateBestSmLoocv(samples, subset, num_classes);
  report.random = EvaluateRandom(samples, subset, num_classes, random_seed);
  baseline_timer.Stop();

  if (obs.metrics_on()) {
    obs.reg().GetCounter("ida.engine.loocv.runs")->Increment();
    obs.reg().GetCounter("ida.engine.loocv.samples")->Add(samples.size());
  }
  return report;
}

}  // namespace ida::engine
