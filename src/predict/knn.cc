#include "predict/knn.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/parallel.h"

namespace ida {

namespace {

// The vote core, shared verbatim by every serving path (matrix-based
// KnnVote, the brute-force scan, the indexed search): consumes a candidate
// list already sorted ascending by (distance, index) and runs admission,
// tallying and tie-breaking over it. Keeping the floating-point vote
// arithmetic in one place is what makes the indexed path's predictions
// bitwise identical to brute force — both hand it the same admitted
// multiset in the same order.
Prediction VoteOnSorted(const std::pair<double, size_t>* order, size_t count,
                        const std::vector<TrainingSample>& train,
                        const KnnOptions& options, VoteStats* stats) {
  Prediction out;
  // Admit only neighbors within theta_delta (order is sorted, so the first
  // too-far neighbor ends the admission). Labels are small dense ints, so
  // the tallies live in flat label-indexed arrays — stack-allocated below
  // the kStackLabels bound — instead of per-call node-based maps.
  size_t admitted = 0;
  int max_label = -1;
  for (size_t i = 0; i < count; ++i) {
    if (order[i].first > options.distance_threshold) break;
    max_label = std::max(max_label, train[order[i].second].label);
    ++admitted;
  }
  if (stats != nullptr) stats->admitted_neighbors = admitted;
  if (admitted == 0 || max_label < 0) return out;  // abstain

  constexpr double kWeightEpsilon = 1e-3;
  constexpr int kStackLabels = 32;
  constexpr double kNoNeighbor = std::numeric_limits<double>::infinity();
  const int num_labels = max_label + 1;
  double votes_stack[kStackLabels];
  double nearest_stack[kStackLabels];
  std::vector<double> votes_heap, nearest_heap;
  double* votes = votes_stack;           // label -> vote mass
  double* nearest = nearest_stack;       // label -> closest distance
  if (num_labels > kStackLabels) {
    votes_heap.assign(static_cast<size_t>(num_labels), 0.0);
    nearest_heap.assign(static_cast<size_t>(num_labels), kNoNeighbor);
    votes = votes_heap.data();
    nearest = nearest_heap.data();
  } else {
    std::fill(votes, votes + num_labels, 0.0);
    std::fill(nearest, nearest + num_labels, kNoNeighbor);
  }

  double total_votes = 0.0;
  for (size_t i = 0; i < admitted; ++i) {
    const TrainingSample& s = train[order[i].second];
    if (s.label < 0) continue;  // defensive: unlabeled samples cannot vote
    double w = options.distance_weighted
                   ? 1.0 / (order[i].first + kWeightEpsilon)
                   : 1.0;
    votes[s.label] += w;
    total_votes += w;
    nearest[s.label] = std::min(nearest[s.label], order[i].first);
  }

  double best_votes = 0.0;
  for (int label = 0; label < num_labels; ++label) {
    best_votes = std::max(best_votes, votes[label]);
  }
  if (best_votes <= 0.0) return out;  // only unlabeled neighbors admitted
  // Tie-break by closest tied neighbor, then by ascending label (see the
  // rule documented on KnnVote). The sentinel is infinity so the rule
  // holds for any nonnegative distance scale.
  int best_label = -1;
  double best_dist = kNoNeighbor;
  for (int label = 0; label < num_labels; ++label) {
    // ida-lint: allow(float-eq): deliberate exact comparison —
    // best_votes is copied bitwise out of votes[], so the winning
    // label always compares equal; an epsilon would change the
    // documented tie rule.
    if (votes[label] == best_votes && nearest[label] < best_dist) {
      best_dist = nearest[label];
      best_label = label;
    }
  }
  out.label = best_label;
  out.confidence = total_votes > 0.0 ? best_votes / total_votes : 0.0;
  return out;
}

}  // namespace

Prediction KnnVote(const std::vector<double>& distances,
                   const std::vector<TrainingSample>& train,
                   const KnnOptions& options, int exclude, VoteStats* stats) {
  Prediction out;
  if (stats != nullptr) *stats = VoteStats();
  if (train.empty() || distances.size() != train.size() || options.k < 1) {
    return out;
  }
  // Collect candidate (distance, index) pairs and take the k nearest.
  std::vector<std::pair<double, size_t>> order;
  order.reserve(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    if (exclude >= 0 && i == static_cast<size_t>(exclude)) continue;
    order.emplace_back(distances[i], i);
  }
  size_t k = std::min(static_cast<size_t>(options.k), order.size());
  if (k == 0) return out;
  std::partial_sort(
      order.begin(), order.begin() + static_cast<long>(k), order.end());
  if (stats != nullptr) stats->nearest_distance = order[0].first;
  return VoteOnSorted(order.data(), k, train, options, stats);
}

FlatTrainingSet BuildFlatTrainingSet(
    std::vector<TrainingSample> train,
    std::shared_ptr<const index::VpTree> index) {
  FlatTrainingSet out;
  out.meta = std::move(train);
  out.index = std::move(index);
  out.contexts.reserve(out.meta.size());
  for (const TrainingSample& s : out.meta) {
    out.contexts.push_back(SessionDistance::Prepare(s.context));
  }

  // Intern the displays into a dense id pool (one id per identity,
  // first-seen postorder) and the incoming actions by syntax (verified
  // with ==, so two actions share a slot only when they are equal), then
  // re-point every node at the pools. The views borrow the displays of
  // out.meta's contexts, which the classifier keeps alive; the action
  // pointers target out.actions, whose buffer survives vector moves.
  std::unordered_map<const Display*, int32_t> display_ids;
  std::unordered_map<std::string, std::vector<size_t>> action_slots;
  out.actions.emplace_back(std::nullopt);
  std::vector<size_t> slots;  // per node, in context-then-postorder order
  for (FlatContext& ctx : out.contexts) {
    for (FlatContext::Node& node : ctx.post) {
      auto [it, inserted] = display_ids.try_emplace(
          node.display.identity, static_cast<int32_t>(out.pool_views.size()));
      if (inserted) out.pool_views.push_back(node.display);
      node.display_id = it->second;
      size_t slot = 0;
      if (node.incoming->has_value()) {
        const Action& a = **node.incoming;
        std::vector<size_t>& same_syntax = action_slots[a.Serialize()];
        for (size_t candidate : same_syntax) {
          if (*out.actions[candidate] == a) {
            slot = candidate;
            break;
          }
        }
        if (slot == 0) {
          slot = out.actions.size();
          same_syntax.push_back(slot);
          out.actions.emplace_back(a);
        }
      }
      slots.push_back(slot);
    }
  }
  // Pointers are taken only once the pool has stopped growing.
  size_t next = 0;
  for (FlatContext& ctx : out.contexts) {
    for (FlatContext::Node& node : ctx.post) {
      node.incoming = &out.actions[slots[next++]];
    }
  }

  // The minimal perfect hash over the pool's content fingerprints
  // (content-duplicate displays share their first id as representative:
  // resolving a query onto the representative yields bitwise-identical
  // distances, since the ground metric reads only content). Build failure
  // just means queries stay unresolved.
  if (!out.pool_views.empty()) {
    std::unordered_map<uint64_t, uint32_t> rep;
    std::vector<uint64_t> keys;
    std::vector<uint32_t> values;
    keys.reserve(out.pool_views.size());
    values.reserve(out.pool_views.size());
    for (size_t id = 0; id < out.pool_views.size(); ++id) {
      const uint64_t fp = ContentFingerprint(out.pool_views[id]);
      if (rep.try_emplace(fp, static_cast<uint32_t>(id)).second) {
        keys.push_back(fp);
        values.push_back(static_cast<uint32_t>(id));
      }
    }
    out.phf = PerfectHash::Build(keys, values);
  }
  return out;
}

IKnnClassifier::IKnnClassifier(std::vector<TrainingSample> train,
                               SessionDistance metric, KnnOptions options,
                               std::shared_ptr<const index::VpTree> index,
                               ApproxOptions)
    : IKnnClassifier(BuildFlatTrainingSet(std::move(train), std::move(index)),
                     std::move(metric), options) {}

IKnnClassifier::IKnnClassifier(FlatTrainingSet flat, SessionDistance metric,
                               KnnOptions options, ApproxOptions)
    : train_(std::make_shared<const std::vector<TrainingSample>>(
          std::move(flat.meta))),
      prepared_(std::move(flat.contexts)),
      pool_views_(std::move(flat.pool_views)),
      display_phf_(std::move(flat.phf)),
      metric_(std::move(metric)),
      options_(options),
      flat_actions_(std::move(flat.actions)),
      storage_(std::move(flat.storage)) {
  // Moving the vectors kept their heap buffers, so the nodes' `incoming`
  // pointers into flat_actions_ and the views into the samples' displays
  // (or the mapping) stay valid. Accept the index only when it indexes
  // exactly this training set.
  if (flat.index != nullptr && flat.index->size() == train_->size()) {
    index_ = std::move(flat.index);
  }
  // Open the display-id space: its token keys the display memos by small
  // stable pool ids instead of addresses, and the metric's memo for it is
  // shared by every workspace serving this classifier and its copies (see
  // SessionDistance::BindPool).
  pool_token_ = metric_.BindPool(pool_views_.size());
  for (FlatContext& ctx : prepared_) ctx.pool = pool_token_;
}

void IKnnClassifier::ResolveQueryDisplayIds(FlatContext* query) const {
  for (FlatContext::Node& node : query->post) {
    node.display_id = -1;
    if (display_phf_.has_value()) {
      const std::optional<uint32_t> id =
          display_phf_->view().Lookup(ContentFingerprint(node.display));
      if (id.has_value() &&
          ContentEquals(node.display, pool_views_[*id])) {
        node.display_id = static_cast<int32_t>(*id);
      }
    }
  }
  query->pool = pool_token_;
}

namespace {

// Brute-force candidate collection: scans every training sample (minus
// `exclude`), retires candidates whose size bound
// (index::NormalizedSizeBound) proves they cannot enter the result, and
// maintains the k nearest within theta_delta in a max-heap whose root is
// the current pruning threshold. The admitted multiset — and its
// (distance, index) order after the final sort — is exactly what an
// evaluate-everything scan would hand the vote: a candidate is only pruned
// when its bound strictly exceeds min(theta_delta, current k-th best),
// both of which only ever shrink, so no pruned candidate could have
// displaced a kept one (ties displace only on strictly smaller
// (distance, index), which a strictly larger distance never is). The core-TED bounds stay index-only: the
// brute path has no pivot distances to triangulate over, and it is the
// comparison baseline the index is certified against. Returns the
// candidate count to vote over (<= k); `istats`, when non-null, receives
// the prune and exact-DP counts and the nearest distance evaluated.
size_t CollectBrute(const FlatContext& q,
                    const std::vector<FlatContext>& prepared,
                    const SessionDistance& metric, const KnnOptions& options,
                    int exclude, TedWorkspace& ws,
                    std::vector<std::pair<double, size_t>>& order,
                    index::IndexStats* istats) {
  order.clear();
  const double qn = static_cast<double>(q.size());
  const double radius = options.distance_threshold;
  const size_t k = static_cast<size_t>(options.k);
  double nearest_seen = -1.0;
  uint64_t lb_pruned = 0, exact = 0;
  const auto tau = [&]() {
    return order.size() == k ? std::min(radius, order.front().first)
                             : radius;
  };
  for (size_t i = 0; i < prepared.size(); ++i) {
    if (exclude >= 0 && i == static_cast<size_t>(exclude)) continue;
    const FlatContext& c = prepared[i];
    if (index::NormalizedSizeBound(qn, static_cast<double>(c.size())) >
        tau()) {
      ++lb_pruned;
      continue;
    }
    const double d = metric.Distance(q, c, &ws);
    ++exact;
    if (nearest_seen < 0.0 || d < nearest_seen) nearest_seen = d;
    if (d > radius) continue;
    const std::pair<double, size_t> cand(d, i);
    if (order.size() < k) {
      order.push_back(cand);
      std::push_heap(order.begin(), order.end());
    } else if (cand < order.front()) {
      std::pop_heap(order.begin(), order.end());
      order.back() = cand;
      std::push_heap(order.begin(), order.end());
    }
  }
  std::sort_heap(order.begin(), order.end());
  if (istats != nullptr) {
    istats->lb_pruned = lb_pruned;
    istats->exact_teds = exact;
    istats->nearest_seen = nearest_seen;
  }
  return order.size();
}

}  // namespace

Prediction IKnnClassifier::PredictPrepared(
    const FlatContext& q, int exclude, TedWorkspace& ws,
    std::vector<std::pair<double, size_t>>& order, PredictStats* stats) const {
  if (options_.k < 1 || train_->empty()) {
    return Prediction();
  }
  if (stats == nullptr) {
    size_t count;
    if (index_ != nullptr) {
      index_->Search(q, prepared_, metric_, options_.k,
                     options_.distance_threshold, exclude, &ws, &order);
      count = order.size();
    } else {
      count = CollectBrute(q, prepared_, metric_, options_, exclude, ws,
                           order, /*istats=*/nullptr);
    }
    return VoteOnSorted(order.data(), count, *train_, options_, nullptr);
  }

  const TedTally before = ws.tally;
  const auto distance_start = obs::TraceNow();
  size_t count;
  index::IndexStats istats;
  if (index_ != nullptr) {
    index_->Search(q, prepared_, metric_, options_.k,
                   options_.distance_threshold, exclude, &ws, &order,
                   &istats);
    count = order.size();
  } else {
    count = CollectBrute(q, prepared_, metric_, options_, exclude, ws, order,
                         &istats);
  }
  const auto vote_start = obs::TraceNow();
  VoteStats vote;
  Prediction out = VoteOnSorted(order.data(), count, *train_, options_,
                                &vote);
  stats->distance_seconds =
      std::chrono::duration<double>(vote_start - distance_start).count();
  stats->vote_seconds = obs::SecondsSince(vote_start);
  stats->admitted_neighbors = vote.admitted_neighbors;
  stats->ted = ws.tally.Since(before);
  stats->used_index = index_ != nullptr;
  stats->index = istats;
  stats->distance_evals = static_cast<size_t>(istats.exact_teds);
  // With an admitted neighbor the front of the result list is the true
  // nearest sample; on an abstention both paths report the nearest
  // distance they actually evaluated (see PredictStats).
  stats->nearest_distance =
      !order.empty() ? order[0].first : istats.nearest_seen;
  return out;
}

Prediction IKnnClassifier::Predict(const NContext& query,
                                   PredictStats* stats) const {
  // Grow-only thread-local scratch: the single-query path performs no
  // steady-state heap allocation.
  thread_local TedWorkspace ws;
  thread_local std::vector<std::pair<double, size_t>> order;
  // The workspace outlives this query's displays: drop the L1 memo so a
  // later query whose displays recycle these addresses cannot hit stale
  // entries. (PredictFlat keeps its caller-owned scratch warm instead —
  // the caller vouches for its query displays' lifetime.)
  ws.InvalidateDisplayMemo();
  if (stats == nullptr) {
    FlatContext q = SessionDistance::Prepare(query);
    ResolveQueryDisplayIds(&q);
    return PredictPrepared(q, /*exclude=*/-1, ws, order, nullptr);
  }
  *stats = PredictStats();
  const auto prepare_start = obs::TraceNow();
  FlatContext q = SessionDistance::Prepare(query);
  ResolveQueryDisplayIds(&q);
  stats->prepare_seconds = obs::SecondsSince(prepare_start);
  return PredictPrepared(q, /*exclude=*/-1, ws, order, stats);
}

Prediction IKnnClassifier::PredictFlat(FlatContext& query,
                                       PredictScratch& scratch,
                                       PredictStats* stats) const {
  if (stats != nullptr) *stats = PredictStats();
  ResolveQueryDisplayIds(&query);
  return PredictPrepared(query, /*exclude=*/-1, scratch.ws_, scratch.order_,
                         stats);
}

Prediction IKnnClassifier::PredictLoo(size_t exclude_index,
                                      PredictStats* stats) const {
  thread_local TedWorkspace ws;
  thread_local std::vector<std::pair<double, size_t>> order;
  if (stats != nullptr) *stats = PredictStats();
  if (exclude_index >= prepared_.size()) return Prediction();
  return PredictPrepared(prepared_[exclude_index],
                         static_cast<int>(exclude_index), ws, order, stats);
}

std::vector<Prediction> IKnnClassifier::PredictBatch(
    const std::vector<NContext>& queries,
    std::vector<PredictStats>* stats) const {
  std::vector<Prediction> out(queries.size());
  if (stats != nullptr) stats->assign(queries.size(), PredictStats());
  if (queries.empty() || train_->empty()) return out;

  // Prepare phase for the queries (cheap, serial), then fan the distance
  // computations out with one workspace and one candidate row per worker.
  std::vector<FlatContext> flat;
  flat.reserve(queries.size());
  for (const NContext& q : queries) {
    flat.push_back(SessionDistance::Prepare(q));
    ResolveQueryDisplayIds(&flat.back());
  }
  ThreadPool pool(metric_.options().num_threads);
  std::vector<TedWorkspace> scratch(static_cast<size_t>(pool.num_threads()));
  std::vector<std::vector<std::pair<double, size_t>>> rows(
      static_cast<size_t>(pool.num_threads()));
  pool.ParallelFor(
      queries.size(), /*chunk=*/1, [&](size_t begin, size_t end, int worker) {
        TedWorkspace& ws = scratch[static_cast<size_t>(worker)];
        auto& order = rows[static_cast<size_t>(worker)];
        for (size_t qi = begin; qi < end; ++qi) {
          // Each stats slot has exactly one writer (this worker).
          out[qi] = PredictPrepared(flat[qi], /*exclude=*/-1, ws, order,
                                    stats != nullptr ? &(*stats)[qi]
                                                     : nullptr);
        }
      });
  return out;
}

}  // namespace ida
