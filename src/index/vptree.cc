#include "index/vptree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "distance/bounds.h"
#include "distance/ground.h"
#include "distance/zhang_shasha.h"

namespace ida::index {

namespace {

// Relative deflation applied to every lower bound before it is compared
// against the pruning threshold. The bound derivations are exact up to
// floating-point jitter in the triangle identity and in the core/true
// cost-term accumulation order; the jitter is bounded by a few ULPs per
// context node (contexts are a handful of nodes), so a 1e-9 relative
// margin dwarfs it by many orders of magnitude while weakening pruning
// imperceptibly. Bounds stay nonnegative (slack is a positive factor).
// Shared with the brute-force cascade (distance/bounds.h).
constexpr double kBoundSlack = kCascadeBoundSlack;

// splitmix64 finalizer — the deterministic pivot-selection hash.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Core display distance: DisplayContentDistance minus its JSD term (the
// one non-metric ingredient). Term order and arithmetic mirror the true
// metric exactly — the log-size operands come precomputed from Prepare
// (FlatContext::Node::log_rows) and are bitwise the values an inline log2
// would produce — so by monotonicity of floating-point +: the result is
// <= DisplayContentDistance(a, b) for the computed doubles, not just
// mathematically. Maximum value 0.6, so the true metric's final clamp to
// [0, 1] cannot drop below it either.
double CoreDisplayDistance(const FlatContext::Node& a,
                           const FlatContext::Node& b) {
  double d = 0.0;
  if (a.display.kind != b.display.kind) d += 0.2;
  if (a.display.column != b.display.column) d += 0.2;
  constexpr double kSizeCap = 12.0;  // keep in sync with ground.cc
  d += 0.2 * std::min(std::fabs(a.log_rows - b.log_rows), kSizeCap) / kSizeCap;
  return d;
}

// Core action distance: ActionDistance with the greedy (order-sensitive,
// hence non-metric) filter comparison floored to 0. Group-by syntax is a
// weighted Hamming metric and is kept exactly; the type/absence structure
// is an all-or-nothing partition metric (cross-class distance 1 dominates
// any within-class value, so the triangle inequality holds clusterwise).
double CoreActionDistance(const std::optional<Action>& a,
                          const std::optional<Action>& b) {
  if (!a.has_value() && !b.has_value()) return 0.0;
  if (a.has_value() != b.has_value()) return 1.0;
  if (a->type() != b->type()) return 1.0;
  if (a->type() != ActionType::kGroupBy) return 0.0;
  return ActionSyntaxDistance(*a, *b);
}

}  // namespace

double CoreAlterCost(const FlatContext::Node& a, const FlatContext::Node& b,
                     double display_weight) {
  const double dd = CoreDisplayDistance(a, b);
  const double da = CoreActionDistance(*a.incoming, *b.incoming);
  // Same expression shape as the serving alter cost (ted.cc), with each
  // ground term pointwise <= its true counterpart: multiplication by a
  // nonnegative weight and addition are monotone in floating point, so
  // the combined cost is <= the true alter cost bitwise.
  return display_weight * dd + (1.0 - display_weight) * da;
}

double CoreTreeEditDistance(const FlatContext& a, const FlatContext& b,
                            const SessionDistanceOptions& options,
                            TedWorkspace* ws) {
  if (a.empty() && b.empty()) return 0.0;
  if (a.empty()) return options.indel_cost * static_cast<double>(b.size());
  if (b.empty()) return options.indel_cost * static_cast<double>(a.size());
  const double dw = options.display_weight;
  const FlatContext::Node* an = a.post.data();
  const FlatContext::Node* bn = b.post.data();
  return internal::ZhangShashaCompute(
      a, b, options.indel_cost, ws, [&](int pi, int pj) {
        return CoreAlterCost(an[pi], bn[pj], dw);
      });
}

void IndexStats::Merge(const IndexStats& other) {
  searches += other.searches;
  nodes_visited += other.nodes_visited;
  lb_pruned += other.lb_pruned;
  structure_pruned += other.structure_pruned;
  hist_pruned += other.hist_pruned;
  triangle_pruned += other.triangle_pruned;
  core_pruned += other.core_pruned;
  subtree_pruned += other.subtree_pruned;
  core_teds += other.core_teds;
  exact_teds += other.exact_teds;
  if (other.nearest_seen >= 0.0 &&
      (nearest_seen < 0.0 || other.nearest_seen < nearest_seen)) {
    nearest_seen = other.nearest_seen;
  }
}

// ---------------------------------------------------------------------------
// Build

struct VpTree::BuildState {
  const std::vector<FlatContext>* prepared = nullptr;
  SessionDistanceOptions options;
  TedWorkspace ws;
  /// (core distance to current pivot, sample id) scratch, reused per node.
  std::vector<std::pair<double, uint32_t>> ranked;
};

VpTree VpTree::Build(const std::vector<FlatContext>& prepared,
                     const SessionDistance& metric,
                     const VpTreeOptions& options) {
  VpTree tree;
  tree.num_samples_ = prepared.size();
  tree.leaf_size_ = std::max(1, options.leaf_size);
  if (prepared.empty()) return tree;

  BuildState state;
  state.prepared = &prepared;
  state.options = metric.options();

  std::vector<uint32_t> ids(prepared.size());
  std::iota(ids.begin(), ids.end(), 0u);
  tree.BuildNode(ids, /*depth=*/0, &state);
  tree.nodes_ = tree.owned_nodes_.data();
  tree.num_nodes_ = tree.owned_nodes_.size();
  tree.entries_ = tree.owned_entries_.data();
  tree.num_entries_ = tree.owned_entries_.size();
  return tree;
}

std::array<uint32_t, 3> VpTree::BuildNode(std::vector<uint32_t>& ids,
                                          uint64_t depth, BuildState* state) {
  const std::vector<FlatContext>& prepared = *state->prepared;
  const uint32_t index = static_cast<uint32_t>(owned_nodes_.size());
  owned_nodes_.emplace_back();

  // Deterministic pivot: a fixed hash of the partition's (depth, size,
  // smallest id). The partition contents are themselves a deterministic
  // function of the training set, so rebuilds reproduce the same tree.
  uint32_t lowest = *std::min_element(ids.begin(), ids.end());
  const uint64_t h = Mix64(depth * 0x9E3779B97F4A7C15ULL ^
                           (static_cast<uint64_t>(ids.size()) << 32) ^ lowest);
  const size_t pivot_pos = static_cast<size_t>(h % ids.size());
  const uint32_t pivot = ids[pivot_pos];
  ids[pivot_pos] = ids.back();
  ids.pop_back();

  uint32_t min_size = static_cast<uint32_t>(prepared[pivot].size());
  uint32_t max_size = min_size;

  if (ids.size() <= static_cast<size_t>(leaf_size_)) {
    state->ranked.clear();
    state->ranked.reserve(ids.size());
    for (uint32_t id : ids) {
      const double d = CoreTreeEditDistance(prepared[pivot], prepared[id],
                                            state->options, &state->ws);
      state->ranked.emplace_back(d, id);
      const uint32_t s = static_cast<uint32_t>(prepared[id].size());
      min_size = std::min(min_size, s);
      max_size = std::max(max_size, s);
    }
    // Sorted by (core distance, id): deterministic layout and the same
    // near-first evaluation order the search benefits from. Entries of
    // successive leaves are appended contiguously, so each leaf's slice is
    // [entries_begin, entries_begin + entry_count).
    std::sort(state->ranked.begin(), state->ranked.end());
    FlatNode& node = owned_nodes_[index];
    node.pivot = static_cast<int32_t>(pivot);
    node.entries_begin = static_cast<uint32_t>(owned_entries_.size());
    node.entry_count = static_cast<uint32_t>(state->ranked.size());
    for (const auto& [d, id] : state->ranked) {
      owned_entries_.push_back(VpEntry{id, 0, d});
    }
    return {index, min_size, max_size};
  }

  state->ranked.clear();
  state->ranked.reserve(ids.size());
  for (uint32_t id : ids) {
    const double d = CoreTreeEditDistance(prepared[pivot], prepared[id],
                                          state->options, &state->ws);
    state->ranked.emplace_back(d, id);
  }
  std::sort(state->ranked.begin(), state->ranked.end());
  const size_t mid = state->ranked.size() / 2;  // >= 1: size > leaf_size >= 1

  const double inner_lo = state->ranked.front().first;
  const double inner_hi = state->ranked[mid - 1].first;
  const double outer_lo = state->ranked[mid].first;
  const double outer_hi = state->ranked.back().first;

  std::vector<uint32_t> inner_ids, outer_ids;
  inner_ids.reserve(mid);
  outer_ids.reserve(state->ranked.size() - mid);
  for (size_t i = 0; i < state->ranked.size(); ++i) {
    (i < mid ? inner_ids : outer_ids).push_back(state->ranked[i].second);
  }

  // `ranked` is scratch shared down the recursion; children overwrite it.
  const std::array<uint32_t, 3> inner = BuildNode(inner_ids, depth + 1, state);
  const std::array<uint32_t, 3> outer = BuildNode(outer_ids, depth + 1, state);

  FlatNode& node = owned_nodes_[index];  // re-resolve: recursion may reallocate
  node.pivot = static_cast<int32_t>(pivot);
  node.inner = static_cast<int32_t>(inner[0]);
  node.outer = static_cast<int32_t>(outer[0]);
  node.inner_lo = inner_lo;
  node.inner_hi = inner_hi;
  node.outer_lo = outer_lo;
  node.outer_hi = outer_hi;
  node.inner_min_size = inner[1];
  node.inner_max_size = inner[2];
  node.outer_min_size = outer[1];
  node.outer_max_size = outer[2];
  min_size = std::min({min_size, inner[1], outer[1]});
  max_size = std::max({max_size, inner[2], outer[2]});
  return {index, min_size, max_size};
}

// ---------------------------------------------------------------------------
// Search

struct VpTree::SearchState {
  const FlatContext* query = nullptr;
  const std::vector<FlatContext>* prepared = nullptr;
  const SessionDistance* metric = nullptr;
  size_t k = 0;
  double radius = 0.0;
  int exclude = -1;
  TedWorkspace* ws = nullptr;
  /// Max-heap of (distance, id) under std::less<pair>: the root is the
  /// worst admitted neighbor in brute-force tie order.
  std::vector<std::pair<double, size_t>>* heap = nullptr;
  IndexStats stats;
  double qn = 0.0;  ///< query node count as double
  double indel = 1.0;
  /// Approximate-serving bound scale (>= 1.0; exactly 1.0 in exact mode,
  /// where multiplying by it is a bitwise no-op).
  double inflation = 1.0;
  /// Whether the degree/leaf-count cascade stage runs (see Search). When
  /// query and corpus are all single-leaf chains, StructureLowerBound
  /// degenerates to exactly the size bound that already ran, so the stage
  /// cannot prune and is skipped.
  bool structure_stage = true;

  /// Current pruning threshold: the abstain radius, tightened to the k-th
  /// best (distance, id) once k candidates are held. A lower bound that
  /// strictly exceeds this cannot produce an admitted neighbor — even on
  /// ties, since replacing the heap root requires (d, id) < root, which a
  /// distance > root's is never part of.
  double Tau() const {
    if (heap->size() == k) {
      return std::min(radius, heap->front().first);
    }
    return radius;
  }

  /// Offers an exact distance to the result heap.
  void Consider(double d, size_t id) {
    if (stats.nearest_seen < 0.0 || d < stats.nearest_seen) {
      stats.nearest_seen = d;
    }
    if (d > radius) return;
    const std::pair<double, size_t> cand(d, id);
    if (heap->size() < k) {
      heap->push_back(cand);
      std::push_heap(heap->begin(), heap->end());
    } else if (cand < heap->front()) {
      std::pop_heap(heap->begin(), heap->end());
      heap->back() = cand;
      std::push_heap(heap->begin(), heap->end());
    }
  }

  /// Normalized-distance lower bound from the node-count difference alone:
  /// every tree edit between differently-sized trees spends at least
  /// indel * |size difference|, and the indel cost cancels against the
  /// normalizer. Sound for any alter-cost model.
  double SizeBound(double candidate_size) const {
    const double total = qn + candidate_size;
    if (total <= 0.0) return 0.0;
    return inflation * (kBoundSlack * (std::fabs(qn - candidate_size) / total));
  }

  /// Converts a raw core-TED lower bound into a normalized-distance lower
  /// bound for a candidate (or subtree) whose node count is
  /// `candidate_size` (use the subtree maximum: the largest denominator
  /// gives the smallest, i.e. still-sound, bound).
  double NormBound(double raw, double candidate_size) const {
    const double denom = indel * (qn + candidate_size);
    if (denom <= 0.0) return 0.0;
    return inflation * (kBoundSlack * (raw / denom));
  }

  /// The O(1) filter-cascade prefix shared by the pivot and leaf-entry
  /// chains (distance/bounds.h): degree/leaf-count bound, then the
  /// label-histogram bound. The size bound runs before this (its operands
  /// are already in registers at both call sites). Returns true when the
  /// candidate was pruned (and counts the stage that did it).
  bool CascadePrunes(const FlatContext& ctx, double cn) {
    const double tau = Tau();
    if (structure_stage &&
        NormBound(StructureLowerBound(*query, ctx, indel), cn) > tau) {
      ++stats.structure_pruned;
      return true;
    }
    if (NormBound(HistogramLowerBound(*query, ctx, metric->options()), cn) >
        tau) {
      ++stats.hist_pruned;
      return true;
    }
    return false;
  }
};

void VpTree::Search(const FlatContext& query,
                    const std::vector<FlatContext>& prepared,
                    const SessionDistance& metric, int k, double radius,
                    int exclude, TedWorkspace* ws,
                    std::vector<std::pair<double, size_t>>* out,
                    IndexStats* stats, double bound_inflation,
                    bool structure_stage) const {
  out->clear();
  if (k <= 0 || radius < 0.0 || num_nodes_ == 0) {
    if (stats != nullptr) ++stats->searches;
    return;
  }

  SearchState state;
  state.query = &query;
  state.prepared = &prepared;
  state.metric = &metric;
  state.k = static_cast<size_t>(k);
  state.radius = radius;
  state.exclude = exclude;
  state.ws = ws;
  state.heap = out;
  state.stats.searches = 1;
  state.qn = static_cast<double>(query.size());
  state.indel = metric.options().indel_cost;
  state.inflation = std::max(1.0, bound_inflation);
  state.structure_stage = structure_stage;

  VisitNode(0, &state);

  std::sort_heap(out->begin(), out->end());
  if (stats != nullptr) stats->Merge(state.stats);
}

void VpTree::VisitNode(uint32_t node_index, SearchState* state) const {
  const FlatNode& node = nodes_[node_index];
  ++state->stats.nodes_visited;
  const std::vector<FlatContext>& prepared = *state->prepared;
  const FlatContext& query = *state->query;
  const FlatContext& pivot_ctx = prepared[static_cast<size_t>(node.pivot)];

  // Core distance to the pivot: drives both the pivot's own bound chain
  // and every triangle bound below. Not tallied as a serving-metric DP.
  const double core_qp =
      CoreTreeEditDistance(query, pivot_ctx, state->metric->options(),
                           state->ws);
  ++state->stats.core_teds;

  // The pivot is itself a candidate: the O(1) cascade (size, structure,
  // histogram bounds), then the already-computed core distance as a direct
  // lower bound, then the exact metric.
  if (node.pivot != state->exclude) {
    const double pn = static_cast<double>(pivot_ctx.size());
    if (state->SizeBound(pn) > state->Tau()) {
      ++state->stats.lb_pruned;
    } else if (state->CascadePrunes(pivot_ctx, pn)) {
      // counted per stage inside CascadePrunes
    } else if (state->NormBound(core_qp, pn) > state->Tau()) {
      ++state->stats.core_pruned;
    } else {
      const double d = state->metric->Distance(query, pivot_ctx, state->ws);
      ++state->stats.exact_teds;
      state->Consider(d, static_cast<size_t>(node.pivot));
    }
  }

  if (node.is_leaf()) {
    const VpEntry* slice = entries_ + node.entries_begin;
    for (uint32_t e = 0; e < node.entry_count; ++e) {
      const uint32_t id = slice[e].id;
      const double core_px = slice[e].dist;
      if (static_cast<int>(id) == state->exclude) continue;
      const FlatContext& ctx = prepared[id];
      const double cn = static_cast<double>(ctx.size());
      if (state->SizeBound(cn) > state->Tau()) {
        ++state->stats.lb_pruned;
        continue;
      }
      // Triangle over the core pseudometric, sound for the true distance:
      // ted(q,x) >= core(q,x) >= |core(q,p) - core(p,x)|. Runs before the
      // structure/histogram stages: the cached core distance makes it the
      // cheaper test (one multiply against precomputed operands), and the
      // cascade orders stages by measured unit cost.
      if (state->NormBound(std::fabs(core_qp - core_px), cn) > state->Tau()) {
        ++state->stats.triangle_pruned;
        continue;
      }
      if (state->CascadePrunes(ctx, cn)) continue;
      const double d = state->metric->Distance(query, ctx, state->ws);
      ++state->stats.exact_teds;
      state->Consider(d, static_cast<size_t>(id));
    }
    return;
  }

  // Subtree lower bound for one child: the triangle bound against the
  // child's core-distance range to this pivot, combined with the size
  // bound minimized over the child's node-count range.
  const auto child_bound = [&](double lo, double hi, uint32_t smin,
                               uint32_t smax) {
    const double raw =
        std::max({0.0, lo - core_qp, core_qp - hi});
    double bound = state->NormBound(raw, static_cast<double>(smax));
    // Size bound over [smin, smax]: zero when the query size lies inside
    // the range; otherwise the nearest endpoint minimizes it.
    if (state->qn < static_cast<double>(smin)) {
      bound = std::max(bound, state->SizeBound(static_cast<double>(smin)));
    } else if (state->qn > static_cast<double>(smax)) {
      bound = std::max(bound, state->SizeBound(static_cast<double>(smax)));
    }
    return bound;
  };

  struct ChildPlan {
    uint32_t index;
    double bound;
  };
  ChildPlan first{static_cast<uint32_t>(node.inner),
                  child_bound(node.inner_lo, node.inner_hi,
                              node.inner_min_size, node.inner_max_size)};
  ChildPlan second{static_cast<uint32_t>(node.outer),
                   child_bound(node.outer_lo, node.outer_hi,
                               node.outer_min_size, node.outer_max_size)};
  // Visit the side the query falls into first — its candidates shrink tau
  // before the far side is re-tested.
  if (core_qp * 2.0 > node.inner_hi + node.outer_lo) {
    std::swap(first, second);
  }

  if (first.bound > state->Tau()) {
    ++state->stats.subtree_pruned;
  } else {
    VisitNode(first.index, state);
  }
  if (second.bound > state->Tau()) {
    ++state->stats.subtree_pruned;
  } else {
    VisitNode(second.index, state);
  }
}

// ---------------------------------------------------------------------------
// Flat-array validation (the artifact loader's WrapFlat)

namespace {
Status IndexCorrupt(const std::string& what) {
  return Status::InvalidArgument("model artifact index section corrupt: " +
                                 what);
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }
}  // namespace

Status VpTree::ValidateFlat(const FlatNode* nodes, size_t num_nodes,
                            const VpEntry* entries, size_t num_entries,
                            size_t num_samples, int leaf_size) {
  if (leaf_size < 1) {
    return IndexCorrupt("leaf size " + std::to_string(leaf_size));
  }
  if (num_samples == 0) {
    if (num_nodes != 0 || num_entries != 0) {
      return IndexCorrupt("nonempty tree over zero samples");
    }
    return Status::OK();
  }
  if (num_nodes == 0) {
    return IndexCorrupt("empty tree over " + std::to_string(num_samples) +
                        " samples");
  }

  std::vector<bool> id_seen(num_samples, false);
  std::vector<uint8_t> child_refs(num_nodes, 0);
  size_t ids_covered = 0;
  const auto claim_id = [&](int64_t id) -> Status {
    if (id < 0 || static_cast<uint64_t>(id) >= num_samples) {
      return IndexCorrupt("sample id " + std::to_string(id) +
                          " out of range");
    }
    if (id_seen[static_cast<size_t>(id)]) {
      return IndexCorrupt("sample id " + std::to_string(id) +
                          " appears twice");
    }
    id_seen[static_cast<size_t>(id)] = true;
    ++ids_covered;
    return Status::OK();
  };

  // Leaf slices must tile the entry array in node order: Build lays
  // entries out that way, and exact tiling makes out-of-bounds and
  // overlapping slices in an adversarial mapped section impossible by
  // construction.
  size_t entry_cursor = 0;
  for (size_t i = 0; i < num_nodes; ++i) {
    const FlatNode& node = nodes[i];
    IDA_RETURN_NOT_OK(claim_id(node.pivot));
    if ((node.inner < 0) != (node.outer < 0)) {
      return IndexCorrupt("node " + std::to_string(i) +
                          " has exactly one child");
    }
    if (!node.is_leaf()) {
      for (int32_t child : {node.inner, node.outer}) {
        // Children strictly after the parent: links are acyclic by
        // construction and recursion over them terminates.
        if (child <= static_cast<int64_t>(i) ||
            static_cast<size_t>(child) >= num_nodes) {
          return IndexCorrupt("node " + std::to_string(i) + " child link " +
                              std::to_string(child) + " out of order");
        }
        ++child_refs[static_cast<uint32_t>(child)];
      }
      if (node.entry_count != 0) {
        return IndexCorrupt("internal node " + std::to_string(i) +
                            " carries leaf entries");
      }
      if (!FiniteNonNegative(node.inner_lo) ||
          !FiniteNonNegative(node.inner_hi) ||
          !FiniteNonNegative(node.outer_lo) ||
          !FiniteNonNegative(node.outer_hi) ||
          node.inner_lo > node.inner_hi || node.outer_lo > node.outer_hi) {
        return IndexCorrupt("node " + std::to_string(i) +
                            " has invalid distance ranges");
      }
      if (node.inner_min_size > node.inner_max_size ||
          node.outer_min_size > node.outer_max_size) {
        return IndexCorrupt("node " + std::to_string(i) +
                            " has invalid size ranges");
      }
    } else {
      if (node.entries_begin != entry_cursor ||
          node.entry_count > num_entries - entry_cursor) {
        return IndexCorrupt("node " + std::to_string(i) +
                            " has an invalid leaf entry slice");
      }
      for (uint32_t e = 0; e < node.entry_count; ++e) {
        const VpEntry& entry = entries[entry_cursor + e];
        IDA_RETURN_NOT_OK(claim_id(static_cast<int64_t>(entry.id)));
        if (!FiniteNonNegative(entry.dist)) {
          return IndexCorrupt("leaf entry distance is not finite");
        }
      }
      entry_cursor += node.entry_count;
    }
  }
  if (entry_cursor != num_entries) {
    return IndexCorrupt("unreferenced trailing leaf entries");
  }
  for (size_t i = 1; i < num_nodes; ++i) {
    if (child_refs[i] != 1) {
      return IndexCorrupt("node " + std::to_string(i) + " referenced " +
                          std::to_string(child_refs[i]) + " times");
    }
  }
  if (ids_covered != num_samples) {
    return IndexCorrupt("tree covers " + std::to_string(ids_covered) +
                        " of " + std::to_string(num_samples) + " samples");
  }
  return Status::OK();
}

Result<VpTree> VpTree::WrapFlat(const FlatNode* nodes, size_t num_nodes,
                                const VpEntry* entries, size_t num_entries,
                                size_t num_samples, int leaf_size) {
  IDA_RETURN_NOT_OK(
      ValidateFlat(nodes, num_nodes, entries, num_entries, num_samples,
                   leaf_size));
  VpTree tree;
  tree.nodes_ = nodes;
  tree.num_nodes_ = num_nodes;
  tree.entries_ = entries;
  tree.num_entries_ = num_entries;
  tree.num_samples_ = num_samples;
  tree.leaf_size_ = leaf_size;
  return tree;
}

void FlushIndexStats(const IndexStats& stats, const obs::ObsConfig& obs) {
  if (!obs.metrics_on()) return;
  obs::MetricsRegistry& reg = obs.reg();
  if (stats.searches > 0) {
    reg.GetCounter("ida.index.searches")->Add(stats.searches);
  }
  if (stats.nodes_visited > 0) {
    reg.GetCounter("ida.index.nodes_visited")->Add(stats.nodes_visited);
  }
  if (stats.lb_pruned > 0) {
    reg.GetCounter("ida.index.lb_pruned")->Add(stats.lb_pruned);
  }
  if (stats.structure_pruned > 0) {
    reg.GetCounter("ida.index.structure_pruned")->Add(stats.structure_pruned);
  }
  if (stats.hist_pruned > 0) {
    reg.GetCounter("ida.index.hist_pruned")->Add(stats.hist_pruned);
  }
  if (stats.triangle_pruned > 0) {
    reg.GetCounter("ida.index.triangle_pruned")->Add(stats.triangle_pruned);
  }
  if (stats.core_pruned > 0) {
    reg.GetCounter("ida.index.core_pruned")->Add(stats.core_pruned);
  }
  if (stats.subtree_pruned > 0) {
    reg.GetCounter("ida.index.subtree_pruned")->Add(stats.subtree_pruned);
  }
  if (stats.core_teds > 0) {
    reg.GetCounter("ida.index.core_teds")->Add(stats.core_teds);
  }
  if (stats.exact_teds > 0) {
    reg.GetCounter("ida.index.exact_teds")->Add(stats.exact_teds);
  }
}

}  // namespace ida::index
