// Shared infrastructure for the reproduction benches: one REACT-IDA-shaped
// synthetic world (paper scale: 56 analysts, 454 sessions, ~2.4k actions
// over 4 datasets), replayed once, with disk-cached offline labelings so
// every bench binary does not re-pay the expensive Reference-Based pass.
//
// Cache location: $IDA_BENCH_CACHE or /tmp/ida_bench_cache. Delete it to
// force regeneration (it is keyed by a version tag + seed).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "eval/loocv.h"
#include "offline/findings.h"
#include "offline/labeling.h"
#include "offline/training.h"
#include "engine/config.h"
#include "replay/stats.h"
#include "synth/generator.h"

namespace ida::bench {

/// Latency-summary helpers shared with the load harness
/// (src/replay/stats.h): the p50/p95/p99 shape the bench JSON lines use.
/// The point helpers stay namespace-qualified (`replay::Percentile`,
/// `replay::Median`) — stats/descriptive.h already exports same-named
/// estimators with different conventions (midpoint vs interpolated).
using replay::LatencySummary;
using replay::Summarize;

/// Bump when a change invalidates cached labelings (measure semantics,
/// generator behavior, serialization format).
inline constexpr const char* kCacheVersion = "v6";
inline constexpr uint64_t kWorldSeed = 20190326;  // EDBT'19 dates

/// effective_reference_size sentinel marking a Normalized labeling (so the
/// cache loader does not apply the thin-reference abstention to it).
inline constexpr size_t kNormalizedMarker = 999999;

/// The paper-scale generated world plus its replayed repository.
struct World {
  SynthBenchmark bench;
  std::unique_ptr<ReplayedRepository> repo;
  MeasureSet all_measures;  ///< the 8 measures of Table 1, canonical order
};

/// Builds (or loads from cache) the shared world. Prints a one-line
/// provenance note to stdout.
World& GetWorld();

/// 8-measure labelings of EVERY recorded action (not only successful
/// sessions), disk-cached. `max_reference` applies to the Reference-Based
/// labeler; 0 = execute the full same-dataset pool, as the paper does (it
/// reports the average *surviving* reference-set size, 115).
const std::vector<LabeledStep>& NormalizedLabels(World& world);
const std::vector<LabeledStep>& ReferenceBasedLabels(World& world,
                                                     size_t max_reference = 0);

/// Returns the labeling for a comparison method.
inline const std::vector<LabeledStep>& LabelsFor(World& world,
                                                 ComparisonMethod method) {
  return method == ComparisonMethod::kNormalized
             ? NormalizedLabels(world)
             : ReferenceBasedLabels(world);
}

/// Indices into the 8-measure set for each of the paper's 16
/// configurations of I (one measure per facet).
std::vector<std::vector<int>> SixteenConfigIndices(const MeasureSet& all);

/// Per-state evaluation material for the predictive benches, for one
/// n-context size: sample order matches the *successful-session* subset of
/// a LabeledStep vector in order.
struct StateSpace {
  /// (tree_index, state t) per sample; label/relative filled per config.
  std::vector<TrainingSample> samples;  ///< labels unset (-1) here
  std::vector<std::vector<double>> distances;
  /// Position in the full labeling vector for each sample.
  std::vector<size_t> label_positions;
};

/// Builds contexts + distance matrix over all states of successful
/// sessions for a given n (cached in-process per n).
const StateSpace& GetStateSpace(World& world, int n);

/// Materializes per-config training labels into a copy of
/// space.samples, applying the theta_I filter and dominance projection;
/// returns the subset indices (into space.samples) that survived, and
/// writes labels in-place into *samples (which must start as
/// space.samples).
std::vector<size_t> ApplyConfigLabels(const StateSpace& space,
                                      const std::vector<LabeledStep>& labels,
                                      const std::vector<int>& config_indices,
                                      double theta_interest,
                                      std::vector<TrainingSample>* samples);

/// Formats a double with fixed precision for table printing.
std::string Fmt(double v, int precision = 3);

/// Prints a section header.
void Header(const std::string& title);

}  // namespace ida::bench
