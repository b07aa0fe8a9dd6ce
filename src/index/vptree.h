// Metric-space kNN index for the online predictor (DESIGN.md §11): a
// vantage-point tree that serves the paper's I-kNN queries with a pruned
// fraction of the exact tree-edit-distance evaluations the brute-force
// scan performs, while returning the *identical* neighbor set.
//
// Soundness design. The serving distance (SessionDistance) is NOT a true
// metric: its display ground metric includes a Jensen–Shannon divergence
// term (which violates the triangle inequality — sqrt(JSD) is a metric,
// JSD itself is not), and the greedy predicate matching of the filter
// action metric is not guaranteed symmetric. A triangle bound computed
// from raw TEDs could therefore exceed a true distance and over-prune. The
// index instead navigates a certified METRIC CORE: the same Zhang–Shasha
// DP with a pointwise-smaller alter cost that keeps only the
// metric-compliant ground terms (display kind / profile column / log-size;
// exact group-by syntax; action-type mismatch). Because the DP maps
// pointwise-smaller costs to a smaller-or-equal result even in floating
// point (additions and mins are monotone), the core TED is a guaranteed
// lower bound of the raw TED — and it is a true pseudometric, so triangle
// bounds over cached core distances are sound for the real distance:
//
//   ted(q,x) >= core(q,x) >= |core(q,p) - core(p,x)|
//
// Per candidate, the search runs cheap lower bounds before any exact DP
// (DESIGN.md §13): first the size bound ||q| - |x|| / (|q| + |x|) (sound
// for any alter cost: indels are the only operations that change the node
// count); then, for a leaf entry, the triangle bound above over its cached
// core distance to the leaf pivot, and for a pivot, the core distance
// core(q, p) itself, which the search computes anyway to navigate.
// Internal nodes skip a whole subtree when its core-distance range and
// node-count range already bound it away. Every bound is compared against
// min(theta_delta, current k-th best), with per-stage prune counts in
// IndexStats, after a 1e-9 relative deflation (kBoundSlack) so
// floating-point jitter in the bound identities can never flip a boundary
// comparison; the equivalence and CascadeBounds property tests then
// enforce bitwise-identical predictions against the brute-force path.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "distance/ted.h"
#include "obs/obs.h"

namespace ida::index {

/// One VP-tree node in the flat, position-independent layout (also the
/// record format of the model artifact's VPTN section, DESIGN.md §16): all
/// references are indices — children into the node array, leaf entries a
/// [entries_begin, entries_begin + entry_count) slice of the entry array
/// — so the arrays are valid wherever they sit, including inside a
/// read-only file mapping served in place. Fixed 72-byte little-endian
/// records, 8-byte aligned fields.
///
/// Semantics are unchanged from the original node layout: the pivot is
/// itself a candidate (every sample id appears exactly once, as a pivot
/// or as a leaf entry); internal nodes keep, per child, the subtree's
/// core-distance range to this pivot and its context-node-count range —
/// both consumed as O(1) subtree lower bounds; leaves keep the exact core
/// distance of every entry to the leaf pivot for the per-candidate
/// triangle bound.
struct FlatNode {
  int32_t pivot = -1;
  int32_t inner = -1;  ///< child node index, -1 = leaf
  int32_t outer = -1;
  int32_t pad = 0;
  double inner_lo = 0.0, inner_hi = 0.0;
  double outer_lo = 0.0, outer_hi = 0.0;
  uint32_t inner_min_size = 0, inner_max_size = 0;
  uint32_t outer_min_size = 0, outer_max_size = 0;
  uint32_t entries_begin = 0;
  uint32_t entry_count = 0;

  bool is_leaf() const { return inner < 0; }
};

/// One leaf entry: (sample id, core distance to the leaf pivot). 16-byte
/// record of the model artifact's VPTE section.
struct VpEntry {
  uint32_t id = 0;
  uint32_t pad = 0;
  double dist = 0.0;
};

static_assert(sizeof(FlatNode) == 72, "VPTN record layout");
static_assert(sizeof(VpEntry) == 16, "VPTE record layout");
static_assert(std::is_trivially_copyable_v<FlatNode>);
static_assert(std::is_trivially_copyable_v<VpEntry>);

/// Relative deflation applied to every lower bound before it is compared
/// against the pruning threshold. The bound derivations are exact up to
/// floating-point jitter in the triangle identity and in the core/true
/// cost-term accumulation order; the jitter is bounded by a few ULPs per
/// context node (contexts are a handful of nodes), so a 1e-9 relative
/// margin dwarfs it by many orders of magnitude while weakening pruning
/// imperceptibly.
inline constexpr double kBoundSlack = 1.0 - 1e-9;

/// Deflated normalized-distance lower bound from the node counts alone:
/// every tree edit between trees of `query_size` and `candidate_size`
/// nodes spends at least kIndelCost per node of difference, and the
/// serving distance divides the TED by kIndelCost times the total node
/// count. The one size bound both the tree search and the brute-force scan
/// (predict/knn.cc) prune with.
inline double NormalizedSizeBound(double query_size, double candidate_size) {
  const double total = query_size + candidate_size;
  if (total <= 0.0) return 0.0;
  return kBoundSlack * (std::fabs(query_size - candidate_size) / total);
}

/// The metric-core alter cost between two flattened context nodes: the
/// pointwise lower bound of the serving alter cost described above.
/// Symmetric and triangle-compliant by construction (a convex combination
/// of discrete metrics, a capped 1-D metric and the group-by weighted
/// Hamming metric).
double CoreAlterCost(const FlatContext::Node& a, const FlatContext::Node& b,
                     double display_weight);

/// Raw metric-core tree edit distance: the Zhang–Shasha DP under
/// CoreAlterCost with the unit indel cost. Guaranteed (including in
/// floating point) to be <= SessionDistance::TreeEditDistance for the same
/// options, and a true pseudometric over contexts.
double CoreTreeEditDistance(const FlatContext& a, const FlatContext& b,
                            const SessionDistanceOptions& options,
                            TedWorkspace* ws);

/// Build-time knobs.
struct VpTreeOptions {
  /// Maximal number of non-pivot entries per leaf.
  int leaf_size = 8;
};

/// Per-search event counters, merged into the `ida.index.*` metrics by the
/// serving layer (FlushIndexStats). Plain integers: one search fills a
/// local instance, so the hot path never touches an atomic.
struct IndexStats {
  uint64_t searches = 0;          ///< Search calls
  uint64_t nodes_visited = 0;     ///< tree nodes expanded
  uint64_t lb_pruned = 0;         ///< candidates pruned by the size bound
  /// Benchmark shims, always 0: no search stage fills them, but
  /// perfbench/driver.cc reports them until the benchmark changes.
  uint64_t structure_pruned = 0;
  uint64_t hist_pruned = 0;
  uint64_t triangle_pruned = 0;   ///< ... by the cached-core triangle bound
  uint64_t core_pruned = 0;       ///< ... by a freshly computed core TED
  uint64_t subtree_pruned = 0;    ///< child subtrees skipped entirely
  uint64_t core_teds = 0;         ///< metric-core DP evaluations
  uint64_t exact_teds = 0;        ///< exact (serving-metric) DP evaluations
  /// Nearest exact distance evaluated during the search, -1 when none was.
  /// Exact when a neighbor is admitted; on an empty result it is an upper
  /// bound on the true nearest distance (pruned candidates are never
  /// measured).
  double nearest_seen = -1.0;

  /// Accumulates counters (and min-merges nearest_seen) from one search.
  void Merge(const IndexStats& other);
};

/// A vantage-point tree over training-sample n-contexts. Immutable after
/// Build/WrapFlat; Search is const and takes caller-owned scratch, so
/// one tree may serve many threads concurrently.
class VpTree {
 public:
  VpTree() = default;

  /// Builds the tree over `prepared` (the flattened training contexts, in
  /// training-set order — entry i is sample id i). Deterministic: pivot
  /// selection uses a fixed-seed hash of the partition and splits are by
  /// lexicographic (core distance, id) rank, so the same training set
  /// always produces the same tree.
  static VpTree Build(const std::vector<FlatContext>& prepared,
                      const SessionDistance& metric,
                      const VpTreeOptions& options = {});

  /// Finds the `k` nearest samples with normalized serving distance
  /// <= `radius` under the brute-force tie order (distance, then sample
  /// id), excluding sample `exclude` (-1 = none). Results are written to
  /// `*out` (reused as scratch; cleared first), sorted ascending by
  /// (distance, id) — exactly the admitted-neighbor list the brute-force
  /// kNN vote would see. `prepared` must be the vector the tree was built
  /// over (or a value-identical copy) and `metric` must carry the same
  /// options. `stats`, when non-null, receives the search's event counts.
  void Search(const FlatContext& query,
              const std::vector<FlatContext>& prepared,
              const SessionDistance& metric, int k, double radius,
              int exclude, TedWorkspace* ws,
              std::vector<std::pair<double, size_t>>* out,
              IndexStats* stats = nullptr) const;

  /// Number of indexed samples.
  size_t size() const { return num_samples_; }
  bool empty() const { return num_samples_ == 0; }
  /// Number of tree nodes (introspection for tests/benchmarks).
  size_t num_nodes() const { return num_nodes_; }
  int leaf_size() const { return leaf_size_; }

  /// The flat node/entry arrays (artifact writer input; see FlatNode).
  const FlatNode* nodes_data() const { return nodes_; }
  const VpEntry* entries_data() const { return entries_; }
  size_t num_entries() const { return num_entries_; }

  /// Wraps externally-owned flat arrays — the VPTN/VPTE sections of a
  /// mapped model artifact — WITHOUT copying them; the caller must keep
  /// the arrays alive and unchanged for the tree's lifetime. Validates
  /// structure exhaustively — sample ids in range and covered exactly
  /// once, child links forming a tree, finite cached distances — so an
  /// adversarial section is rejected with a descriptive Status, never
  /// crashed on. `num_samples` is the sample count of the artifact.
  static Result<VpTree> WrapFlat(const FlatNode* nodes, size_t num_nodes,
                                 const VpEntry* entries, size_t num_entries,
                                 size_t num_samples, int leaf_size);

  /// Moving keeps span validity (owned vectors transfer their heap
  /// buffers); copying would leave the spans dangling, so it is deleted.
  VpTree(VpTree&&) noexcept = default;
  VpTree& operator=(VpTree&&) noexcept = default;
  VpTree(const VpTree&) = delete;
  VpTree& operator=(const VpTree&) = delete;

 private:
  struct BuildState;
  struct SearchState;

  /// The structural validator behind WrapFlat:
  /// sample ids in range and covered exactly once (pivot or entry), child
  /// links strictly forward and each non-root node referenced exactly
  /// once, leaves vs internals well-formed, finite ordered distance
  /// ranges, entry slices in bounds and non-overlapping.
  static Status ValidateFlat(const FlatNode* nodes, size_t num_nodes,
                             const VpEntry* entries, size_t num_entries,
                             size_t num_samples, int leaf_size);

  /// Recursive build over the id partition; returns (node index, subtree
  /// min node count, subtree max node count).
  std::array<uint32_t, 3> BuildNode(std::vector<uint32_t>& ids,
                                    uint64_t depth, BuildState* state);
  void VisitNode(uint32_t node_index, SearchState* state) const;

  /// Serving spans: point into owned_* after Build, into the caller's
  /// (mapped) arrays after WrapFlat.
  const FlatNode* nodes_ = nullptr;
  size_t num_nodes_ = 0;
  const VpEntry* entries_ = nullptr;
  size_t num_entries_ = 0;
  std::vector<FlatNode> owned_nodes_;
  std::vector<VpEntry> owned_entries_;
  size_t num_samples_ = 0;
  int leaf_size_ = 0;
};

/// Adds one (or a merged batch of) search's counters onto the
/// `ida.index.*` metrics of `obs`'s registry. No-op when metrics are off.
void FlushIndexStats(const IndexStats& stats, const obs::ObsConfig& obs);

}  // namespace ida::index
