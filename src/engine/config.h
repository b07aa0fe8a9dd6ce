// The engine-level model configuration — the single owner of every
// hyper-parameter of the train/serve pipeline (n-context size, theta_I,
// kNN parameters, comparison method, measure set, distance cost model and
// training-set policy). Like the paper (Table 4), the defaults are chosen
// from the coverage/accuracy skyline of a grid search — on OUR synthetic
// benchmark, so the values differ slightly from the paper's (whose theta_I
// scale also differs: we mid-rank percentile ties, see
// offline/comparison.cc). The paper's literal Table 4 values are kept
// alongside for reference.
#pragma once

#include <string>
#include <vector>

#include "distance/ted.h"
#include "offline/comparison.h"
#include "offline/labeling.h"
#include "offline/training.h"
#include "predict/knn.h"

namespace ida {

/// Artifact loading policy (DESIGN.md §16), serialized into the artifact
/// so a model carries its own integrity policy. Consulted by
/// Predictor::LoadFromFile; SessionManager::ReloadFromFile always loads
/// eagerly.
struct LoadOptions {
  /// Verify every section checksum at map time (eager) instead of only
  /// the directory and config sections (lazy, the default). Lazy mapping
  /// still runs the full structural validation — a corrupt artifact can
  /// degrade predictions, never memory safety.
  bool eager_checksums = false;
};

/// A full model configuration. Serialized verbatim into the model artifact
/// (engine/model.h), so a loaded Predictor knows exactly how it was
/// trained.
struct ModelConfig {
  /// n — context size in elements (nodes + edges), paper range [1, 11].
  int n_context_size = 3;
  /// theta_I — minimal max-relative interestingness for a training sample
  /// to be kept. Scale depends on `method`: percentile in [0, 1] for
  /// Reference-Based, standard deviations (about [-2.5, 2.5]) for
  /// Normalized.
  double theta_interest = 0.0;
  /// kNN hyper-parameters (k, theta_delta, vote weighting).
  KnnOptions knn;
  /// Build and serve through the metric-space kNN index (index/vptree.h):
  /// Trainer::Fit embeds a VP-tree in the model and Predictor/LOOCV prune
  /// distance evaluations with it. Predictions are bitwise identical
  /// either way; this is the escape hatch back to the brute-force scan.
  bool use_index = true;
  /// Benchmark shim: an empty struct, neither validated nor serialized,
  /// kept only because perfbench/driver.cc passes it to IKnnClassifier.
  ApproxOptions approx;
  /// Which offline comparison labels the training set.
  ComparisonMethod method = ComparisonMethod::kNormalized;
  /// The measure set I, by registry name (see CreateMeasure) — the label
  /// space of the classifier. Default: one measure per facet.
  std::vector<std::string> measures = {"variance", "schutz", "osf",
                                       "compaction_gain"};
  /// Session-distance cost model and serving thread count.
  SessionDistanceOptions distance;
  /// Training-set policy (successful-only, identical-context merging).
  TrainingSetOptions training;
  /// Reference-Based labeler knobs (unused by the Normalized method).
  ReferenceBasedLabelerOptions reference;
  /// Artifact loading policy (see LoadOptions).
  LoadOptions load;
};

/// Skyline-chosen defaults for the Reference-Based comparison on the
/// bundled synthetic benchmark: n = 3, k = 10, theta_delta = 0.3,
/// theta_I = 0.7 (percentile).
inline ModelConfig DefaultReferenceBasedConfig() {
  ModelConfig c;
  c.n_context_size = 3;
  c.knn.k = 10;
  c.knn.distance_threshold = 0.3;
  c.theta_interest = 0.7;
  c.method = ComparisonMethod::kReferenceBased;
  return c;
}

/// Skyline-chosen defaults for the Normalized comparison on the bundled
/// synthetic benchmark: n = 4, k = 7, theta_delta = 0.15, theta_I = 1.3
/// (standard deviations).
inline ModelConfig DefaultNormalizedConfig() {
  ModelConfig c;
  c.n_context_size = 4;
  c.knn.k = 7;
  c.knn.distance_threshold = 0.15;
  c.theta_interest = 1.3;
  c.method = ComparisonMethod::kNormalized;
  return c;
}

/// The paper's literal Table 4 default for the Reference-Based method
/// (n = 3, k = 7, theta_delta = 0.2, theta_I = 0.92).
inline ModelConfig PaperReferenceBasedConfig() {
  ModelConfig c;
  c.n_context_size = 3;
  c.knn.k = 7;
  c.knn.distance_threshold = 0.2;
  c.theta_interest = 0.92;
  c.method = ComparisonMethod::kReferenceBased;
  return c;
}

/// The paper's literal Table 4 default for the Normalized method
/// (n = 2, k = 7, theta_delta = 0.1, theta_I = 0.7).
inline ModelConfig PaperNormalizedConfig() {
  ModelConfig c;
  c.n_context_size = 2;
  c.knn.k = 7;
  c.knn.distance_threshold = 0.1;
  c.theta_interest = 0.7;
  c.method = ComparisonMethod::kNormalized;
  return c;
}

/// Default for a given comparison method.
inline ModelConfig DefaultConfig(ComparisonMethod method) {
  return method == ComparisonMethod::kReferenceBased
             ? DefaultReferenceBasedConfig()
             : DefaultNormalizedConfig();
}

}  // namespace ida
