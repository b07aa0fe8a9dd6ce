// I-kNN: the paper's online predictive model (Sec 3.2 / 4.2). Given an
// n-context, find the k nearest labeled n-contexts under the session
// distance, discard neighbors farther than theta_delta, and majority-vote
// the remaining labels. With no close-enough neighbor the model abstains
// (this is what the coverage rate measures).
//
// The classifier flattens its training contexts once at construction (the
// engine's prepare phase), so each query pays one flattening plus
// allocation-free distance computations; PredictBatch additionally fans
// queries out over the thread pool. When constructed with a VP-tree index
// (index/vptree.h) the per-query distance scan is replaced by a pruned
// metric-space search; predictions are bitwise identical to the
// brute-force scan in either mode (the index only skips candidates whose
// lower bound proves they cannot be admitted).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/mapped_file.h"
#include "distance/ted.h"
#include "index/vptree.h"
#include "offline/training.h"

namespace ida {

/// A classifier output; label -1 means the model abstained.
struct Prediction {
  int label = -1;
  /// Vote share of the winning label among the admitted neighbors
  /// (confidence proxy; 0 when abstaining).
  double confidence = 0.0;

  bool HasPrediction() const { return label >= 0; }
};

/// Hyper-parameters of the kNN model (paper Table 4).
struct KnnOptions {
  int k = 7;
  /// theta_delta — maximal admissible normalized distance of a neighbor.
  double distance_threshold = 0.2;
  /// When true, neighbors vote with weight 1 / (distance + epsilon)
  /// instead of one vote each (a standard kNN variant; off by default to
  /// match the paper's majority vote).
  bool distance_weighted = false;
};

/// Benchmark shim with no settable value: perfbench/driver.cc passes
/// ModelConfig::approx to the classifier constructors, so the type stays
/// until the benchmark changes. Serving is always exact.
struct ApproxOptions {};

/// Per-query observability detail, filled on request by Predict /
/// PredictBatch (see the observability layer, DESIGN.md §10). Collecting
/// it costs a few clock reads per query, so callers only pass a stats
/// out-param when metrics or tracing are active.
struct PredictStats {
  /// Distance to the nearest candidate neighbor (-1 with an empty
  /// training set). A value above theta_delta explains an abstention.
  /// Both serving paths prune with lower bounds, so an abstaining query
  /// reports the nearest distance actually *evaluated* — an upper bound
  /// on the true nearest, since pruned candidates are never measured;
  /// when any neighbor is admitted the value is exact and identical
  /// between the paths.
  double nearest_distance = -1.0;
  /// Neighbors within theta_delta among the k nearest (0 = abstained).
  size_t admitted_neighbors = 0;
  /// Exact distance evaluations performed: the training-set size minus
  /// the size-bound prunes on the brute-force path, the (further) pruned
  /// count on the indexed path.
  size_t distance_evals = 0;
  /// Phase wall times of the query: query flattening, the distance loop
  /// (or index search), and the vote.
  double prepare_seconds = 0.0;
  double distance_seconds = 0.0;
  double vote_seconds = 0.0;
  /// Distance-engine event deltas for this query (ted.h); zero when the
  /// build compiled observability out.
  TedTally ted;
  /// True when the query was served through the VP-tree index.
  bool used_index = false;
  /// Search counters for this query. On the brute path lb_pruned and
  /// exact_teds are still filled; the tree-only counters (searches,
  /// nodes_visited, triangle/core/subtree prunes, core_teds) stay zero and
  /// nothing is flushed to the `ida.index.*` metrics.
  index::IndexStats index;
};

/// Vote-level observability detail (subset of PredictStats available to
/// matrix-based callers like LOOCV).
struct VoteStats {
  double nearest_distance = -1.0;  ///< -1 when no candidate neighbor
  size_t admitted_neighbors = 0;
};

/// Reusable per-caller serving scratch (DESIGN.md §14): the TED workspace
/// (tables, display-pair L1 memo) and the candidate buffer one query
/// needs, bundled so a stateful server can keep one instance per live
/// session. Repeat queries on a growing session then skip re-preparation
/// twice over: the workspace's display memo stays warm (consecutive
/// n-contexts share most displays, and interleaved sessions no longer
/// thrash one thread-local memo), and no steady-state allocation happens.
/// Scratch never influences results — only how often they are recomputed —
/// so predictions are bitwise independent of which scratch serves them.
/// Not thread-safe; one scratch per concurrent caller.
class PredictScratch {
 public:
  /// The TED workspace (exposed for tests and tally flushing).
  TedWorkspace& workspace() { return ws_; }

 private:
  friend class IKnnClassifier;
  TedWorkspace ws_;
  std::vector<std::pair<double, size_t>> order_;
};

/// Low-level vote given precomputed distances to every training sample.
/// `exclude` (>= 0) removes one training index — used by leave-one-out
/// evaluation. `stats`, when non-null, receives the nearest candidate
/// distance and the admitted-neighbor count.
///
/// Tie-break rule: the winning label is the one with the largest vote
/// mass; among tied labels, the one whose nearest admitted neighbor is
/// closest wins, and if those distances tie too the smallest label wins
/// (the scan is in ascending label order and only a strictly closer
/// neighbor displaces the incumbent). The no-neighbor sentinel is
/// +infinity, so the rule is correct for any nonnegative distance scale,
/// not just the normalized [0, 1] metric.
Prediction KnnVote(const std::vector<double>& distances,
                   const std::vector<TrainingSample>& train,
                   const KnnOptions& options, int exclude = -1,
                   VoteStats* stats = nullptr);

/// The classifier's one construction input (DESIGN.md §16): everything
/// the serving hot path touches, already flat. Two producers fill it
/// identically — BuildFlatTrainingSet from in-memory samples (Fit-time
/// serving, LOOCV, and the artifact writer, which serializes exactly this
/// set), and the mapped artifact loader (engine/artifact_v4.cc), whose
/// display views and index arrays borrow the file mapping (`storage`
/// keeps it alive). In the mapped case the metadata samples carry
/// labels/provenance only — their NContexts are EMPTY, which is fine
/// because serving reads contexts exclusively through the prepared
/// FlatContexts. Node `incoming` pointers point into `actions`.
struct FlatTrainingSet {
  /// Per-sample label/provenance metadata (in-memory: the full samples,
  /// whose displays the views borrow; mapped: empty contexts).
  std::vector<TrainingSample> meta;
  /// Prepared (flattened) training contexts, display-id-stamped in
  /// `pool_views` order.
  std::vector<FlatContext> contexts;
  /// Interned incoming-action pool the contexts' nodes point into: slot 0
  /// is the empty optional of context roots, pool id i lives in slot i+1.
  std::vector<std::optional<Action>> actions;
  /// Interned display pool (first-seen identity order over the contexts'
  /// postorder nodes); nodes' display_id values index it.
  std::vector<DisplayView> pool_views;
  /// The content -> pool id table queries resolve through: one entry per
  /// distinct ContentFingerprint of the pool, keys strictly ascending, and
  /// `display_ids[i]` the first pool id whose fingerprint is
  /// `display_keys[i]` (its representative).
  std::vector<uint64_t> display_keys;
  std::vector<uint32_t> display_ids;
  /// Serving index (nullptr = brute-force scan).
  std::shared_ptr<const index::VpTree> index;
  /// Keep-alive of the mapping the mapped views borrow (null in memory).
  std::shared_ptr<const MappedArtifact> storage;
};

/// Builds the flat set from in-memory samples: prepares every context,
/// interns its displays (by identity) and incoming actions (by syntax)
/// into the pools, stamps the display ids, and builds the sorted content
/// table over the pool's fingerprints (first id per distinct fingerprint
/// is the representative). Deterministic in the samples.
/// `index`, when non-null, must be built over exactly these samples.
FlatTrainingSet BuildFlatTrainingSet(
    std::vector<TrainingSample> train,
    std::shared_ptr<const index::VpTree> index = nullptr);

/// The full model: owns the training set and the distance metric.
///
/// The classifier serves one representation, the FlatTrainingSet; the
/// training metadata is held behind a shared_ptr, so copies of the
/// classifier share it and stay cheap and safe.
class IKnnClassifier {
 public:
  /// In-memory construction: delegates through BuildFlatTrainingSet.
  /// `index`, when non-null, must have been built over exactly this
  /// training set (same order); it is ignored if its size disagrees.
  /// The trailing ApproxOptions is a benchmark shim and is ignored.
  IKnnClassifier(std::vector<TrainingSample> train, SessionDistance metric,
                 KnnOptions options,
                 std::shared_ptr<const index::VpTree> index = nullptr,
                 ApproxOptions = {});

  /// Adopts a flat training set as is: no context re-preparation, no
  /// display materialization, no index rebuild. A set mapped from an
  /// artifact serves bitwise what the in-memory set it was written from
  /// serves (the distance layer reads only DisplayView content, which
  /// both backings expose identically). The trailing ApproxOptions is a
  /// benchmark shim and is ignored.
  IKnnClassifier(FlatTrainingSet flat, SessionDistance metric,
                 KnnOptions options, ApproxOptions = {});

  /// Predicts the dominant-measure label for a query n-context. `stats`,
  /// when non-null, receives the query's observability detail (phase
  /// times, nearest distance, distance-engine tallies); passing nullptr
  /// (the default) skips all stats collection including its clock reads.
  Prediction Predict(const NContext& query,
                     PredictStats* stats = nullptr) const;

  /// Stateful-serving entry point: predicts over an already-flattened
  /// query using caller-owned scratch, skipping the per-query flatten
  /// (stats->prepare_seconds stays 0). Resolves the query's display ids
  /// against this model's pool in place (ResolveQueryDisplayIds) — the
  /// only mutation; `query`'s borrowed storage must stay alive and
  /// otherwise unchanged for the call; `scratch` must not be used
  /// concurrently. Bitwise-identical to Predict on the equivalent
  /// NContext.
  Prediction PredictFlat(FlatContext& query, PredictScratch& scratch,
                         PredictStats* stats = nullptr) const;

  /// Resolves each query node's display to this model's interned display
  /// pool and stamps the context with the pool's id-space token: the
  /// display's content fingerprint is binary-searched in the sorted
  /// content table and a hit is verified with a full content compare (so
  /// a fingerprint collision degrades to "unresolved", never to a wrong
  /// id); everything else stays -1 and is served under
  /// workspace-ephemeral ids.
  /// Resolution only affects memo keying — predictions are bitwise
  /// independent of it (a content-matched pool display computes exactly
  /// the distances the query's own display would). Called by every
  /// predict path; idempotent.
  void ResolveQueryDisplayIds(FlatContext* query) const;

  /// Leave-one-out prediction for training sample `exclude_index`: the
  /// sample's own context is the query and the sample is excluded from
  /// the neighbor candidates. Equivalent to the matrix-based LOOCV vote;
  /// served through the index when one is attached.
  Prediction PredictLoo(size_t exclude_index,
                        PredictStats* stats = nullptr) const;

  /// Batch prediction: one result per query, in query order, computed over
  /// `metric.options().num_threads` workers. Output is identical to
  /// calling Predict per query. `stats`, when non-null, is resized to the
  /// query count and slot i receives query i's detail.
  std::vector<Prediction> PredictBatch(
      const std::vector<NContext>& queries,
      std::vector<PredictStats>* stats = nullptr) const;

  const std::vector<TrainingSample>& train() const { return *train_; }
  const KnnOptions& options() const { return options_; }
  /// The attached serving index (nullptr = brute-force scan).
  const index::VpTree* index() const { return index_.get(); }

 private:
  Prediction PredictPrepared(const FlatContext& query, int exclude,
                             TedWorkspace& ws,
                             std::vector<std::pair<double, size_t>>& order,
                             PredictStats* stats) const;

  std::shared_ptr<const std::vector<TrainingSample>> train_;
  /// Prepared (flattened) view of each training context; borrows the
  /// displays of *train_ (in memory) or of storage_ (mapped).
  std::vector<FlatContext> prepared_;
  /// Process-unique token of this classifier's display-id space (stamped
  /// on prepared_ and on resolved queries; see FlatContext::pool).
  uint64_t pool_token_ = 0;
  /// Pool id -> display view (for content verification of table hits).
  std::vector<DisplayView> pool_views_;
  /// The sorted content table (FlatTrainingSet::display_keys/display_ids):
  /// ascending fingerprints and their representative pool ids.
  std::vector<uint64_t> display_keys_;
  std::vector<uint32_t> display_ids_;
  SessionDistance metric_;
  KnnOptions options_;
  std::shared_ptr<const index::VpTree> index_;
  /// The interned incoming-action pool the prepared contexts' nodes point
  /// into, and the mapping (if any) backing every display view and the
  /// index's flat arrays.
  std::vector<std::optional<Action>> flat_actions_;
  std::shared_ptr<const MappedArtifact> storage_;
};

}  // namespace ida
