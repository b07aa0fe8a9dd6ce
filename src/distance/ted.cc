#include "distance/ted.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <new>
#include <string>

#include "common/parallel.h"
#include "distance/ground.h"
#include "distance/zhang_shasha.h"

namespace ida {

using internal::ZhangShashaCompute;

namespace {

// Display-id-space tokens (FlatContext::pool): monotonic and
// process-unique, so a token can never be impersonated by a later id
// space the way a recycled address could. Token values never influence
// distances — they only key memo epochs.
uint64_t NextPoolToken() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Postorder flattening for Zhang–Shasha: resolves each context node to its
// display / incoming-action storage and records the postorder position of
// its leftmost leaf descendant.
int FlattenVisit(const NContext& ctx, int node, FlatContext* out) {
  const NContextNode& n = ctx.node(node);
  int leftmost_pos = -1;
  for (int child : n.children) {
    int child_leftmost = FlattenVisit(ctx, child, out);
    if (leftmost_pos < 0) leftmost_pos = child_leftmost;
  }
  int my_pos = static_cast<int>(out->post.size());
  if (leftmost_pos < 0) leftmost_pos = my_pos;  // leaf
  FlatContext::Node flat;
  flat.display = n.display->View();
  flat.incoming = &n.incoming;
  flat.leftmost = leftmost_pos;
  out->post.push_back(flat);
  return leftmost_pos;
}

// ------------------------------------------------------------------------
// Population-level ground tables for BuildDistanceMatrix: unique displays
// (by pointer) and action syntaxes (by serialized form) are interned into
// dense ids (each display's profile built once, as it is interned), and
// their pairwise display distances are precomputed row by row on the
// build's thread pool. The DP phase then reads the immutable tables — no
// hashing, no locking, no allocation on the hot path.

constexpr size_t kMaxInternedNodes = 8192;

struct GroundTables {
  size_t num_nodes = 0;                   ///< unique (display, action) pairs
  std::vector<double> alter;              ///< row-major num_nodes^2
  std::vector<std::vector<int>> node_id;  ///< per context, postorder
  /// False when the population exceeds the interning bounds; callers fall
  /// back to the memoized per-pair path.
  bool valid = false;
};

GroundTables BuildGroundTables(const std::vector<FlatContext>& flat,
                               const SessionDistance& metric,
                               ThreadPool* pool) {
  GroundTables g;
  // Intern displays by pointer, action syntaxes by serialized form, and
  // nodes by (display id, action id) combination.
  std::unordered_map<const Display*, int> display_ids;
  std::unordered_map<std::string, int> action_ids;
  std::unordered_map<int64_t, int> node_ids;
  std::vector<DisplayProfile> profiles;  // display id -> its profile
  std::vector<const Action*> actions;
  std::vector<std::pair<int, int>> nodes;  // node id -> (display, action)
  g.node_id.resize(flat.size());
  for (size_t c = 0; c < flat.size(); ++c) {
    g.node_id[c].reserve(flat[c].size());
    for (const FlatContext::Node& node : flat[c].post) {
      auto [dit, dnew] =
          display_ids.try_emplace(node.display.identity,
                                  static_cast<int>(profiles.size()));
      if (dnew) profiles.push_back(MakeDisplayProfile(node.display));
      int aid = -1;  // -1 = no incoming action (context root)
      if (node.incoming->has_value()) {
        const Action& act = **node.incoming;
        auto [ait, anew] = action_ids.try_emplace(
            act.Serialize(), static_cast<int>(actions.size()));
        if (anew) actions.push_back(&act);
        aid = ait->second;
      }
      const int64_t combo =
          (static_cast<int64_t>(dit->second) << 32) |
          static_cast<int64_t>(static_cast<uint32_t>(aid + 1));
      auto [nit, nnew] =
          node_ids.try_emplace(combo, static_cast<int>(nodes.size()));
      if (nnew) nodes.emplace_back(dit->second, aid);
      g.node_id[c].push_back(nit->second);
    }
    if (nodes.size() > kMaxInternedNodes) {
      return g;  // population too diverse for dense tables
    }
  }

  // Pairwise ground tables over the interned uniques: each display pair is
  // one merge of the two displays' profiles, computed once (the display
  // metric is symmetric bitwise) by whichever worker owns row i, while the
  // action table keeps (row, column) orientation because the action syntax
  // metric's greedy predicate matching is not guaranteed symmetric.
  const size_t u = profiles.size();
  std::vector<double> display_table(u * u, 0.0);
  pool->ParallelFor(u, /*chunk=*/4, [&](size_t begin, size_t end, int) {
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = i + 1; j < u; ++j) {
        const double d = DisplayContentDistance(profiles[i], profiles[j]);
        display_table[i * u + j] = d;
        display_table[j * u + i] = d;
      }
    }
  });
  const size_t v = actions.size();
  std::vector<double> action_table(v * v);
  for (size_t i = 0; i < v; ++i) {
    for (size_t j = 0; j < v; ++j) {
      action_table[i * v + j] = ActionSyntaxDistance(*actions[i], *actions[j]);
    }
  }

  // Fuse into one alter-cost table over node ids, evaluating exactly the
  // per-pair path's expression on exactly the same operands (so the DP
  // stays bitwise identical to the memoized path): one load per alter.
  const double dw = metric.options().display_weight;
  g.num_nodes = nodes.size();
  g.alter.resize(g.num_nodes * g.num_nodes);
  for (size_t i = 0; i < g.num_nodes; ++i) {
    const auto [di, ai] = nodes[i];
    for (size_t j = 0; j < g.num_nodes; ++j) {
      const auto [dj, aj] = nodes[j];
      const double dd = display_table[static_cast<size_t>(di) * u +
                                      static_cast<size_t>(dj)];
      const double da =
          ai < 0 ? (aj < 0 ? 0.0 : 1.0)
                 : (aj < 0 ? 1.0
                           : action_table[static_cast<size_t>(ai) * v +
                                          static_cast<size_t>(aj)]);
      g.alter[i * g.num_nodes + j] = dw * dd + (1.0 - dw) * da;
    }
  }
  g.valid = true;
  return g;
}

// Normalized distance between prepared contexts served entirely from the
// precomputed alter table. Mirrors SessionDistance::Distance.
double TableDistance(const FlatContext& a, const FlatContext& b,
                     const int* a_node, const int* b_node,
                     const GroundTables& g, TedWorkspace* ws) {
  const size_t total = a.size() + b.size();
  if (total == 0) return 0.0;
  double ted;
  if (a.empty() || b.empty()) {
    ted = kIndelCost * static_cast<double>(a.size() + b.size());
  } else {
    IDA_OBS_TALLY(++ws->tally.ted_calls);
    const double* alter = g.alter.data();
    const size_t w = g.num_nodes;
    ted = ZhangShashaCompute(
        a, b, kIndelCost, ws, [&](int pi, int pj) {
          return alter[static_cast<size_t>(a_node[pi]) * w +
                       static_cast<size_t>(b_node[pj])];
        });
  }
  return ted / (kIndelCost * static_cast<double>(total));
}

}  // namespace

FlatContext SessionDistance::Prepare(const NContext& ctx) {
  FlatContext t;
  if (ctx.empty()) return t;
  t.post.reserve(ctx.nodes().size());
  FlattenVisit(ctx, ctx.root(), &t);
  // Keyroots: positions with no left sibling in the postorder sense, i.e.
  // each position that is the highest node with its leftmost-leaf value.
  std::vector<bool> seen(t.size(), false);
  for (int i = static_cast<int>(t.size()) - 1; i >= 0; --i) {
    int l = t.post[static_cast<size_t>(i)].leftmost;
    if (!seen[static_cast<size_t>(l)]) {
      seen[static_cast<size_t>(l)] = true;
      t.keyroots.push_back(i);
    }
  }
  std::sort(t.keyroots.begin(), t.keyroots.end());
  for (FlatContext::Node& node : t.post) {
    node.log_rows =
        std::log2(static_cast<double>(node.display.num_rows) + 1.0);
  }
  return t;
}

namespace internal {

PoolDisplayMemo::PoolDisplayMemo(uint64_t pool, size_t pool_size)
    : pool_(pool),
      covered_(static_cast<uint32_t>(
          std::min<size_t>(pool_size, kPoolTableIds))),
      profile_slots_(pool_size) {
  if (covered_ < 2) return;
  // Not calloc, which clears a block the allocator recycles from its heap
  // (16 MB at load for P = 2,000): a mapping's pages stay zero until used.
  void* base = ::mmap(nullptr, Slot(0, covered_) * sizeof(uint64_t),
                      PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  pairs_ = static_cast<uint64_t*>(base);
}

PoolDisplayMemo::~PoolDisplayMemo() {
  if (pairs_ != nullptr) {
    ::munmap(pairs_, Slot(0, covered_) * sizeof(uint64_t));
  }
  for (const auto& slot : profile_slots_) delete slot.load();
}

}  // namespace internal

uint64_t SessionDistance::BindPool(size_t pool_size) {
  const uint64_t pool = NextPoolToken();
  memo_ = std::make_shared<internal::PoolDisplayMemo>(pool, pool_size);
  return pool;
}

void TedWorkspace::Reserve(size_t n, size_t m) {
  const bool grew = treedist_.size() < n * m ||
                    fd_.size() < (n + 1) * (m + 1) || alter_.size() < n * m ||
                    bleft_.size() < m;
  if (treedist_.size() < n * m) treedist_.resize(n * m);
  if (fd_.size() < (n + 1) * (m + 1)) fd_.resize((n + 1) * (m + 1));
  if (alter_.size() < n * m) alter_.resize(n * m);
  if (bleft_.size() < m) bleft_.resize(m);
  IDA_OBS_TALLY(grew ? ++tally.workspace_grows : ++tally.workspace_reuses);
  (void)grew;
}

double SessionDistance::TreeEditDistance(const FlatContext& ta,
                                         const FlatContext& tb,
                                         TedWorkspace* ws) const {
  if (ta.empty() && tb.empty()) return 0.0;
  if (ta.empty()) return kIndelCost * static_cast<double>(tb.size());
  if (tb.empty()) return kIndelCost * static_cast<double>(ta.size());
  IDA_OBS_TALLY(++ws->tally.ted_calls);

  // Memo epoch checks, between pairs only (never mid-pair). The L1 memo
  // holds one pool id space at a time (pool ids are only unique within
  // one space); adopting another resets it.
  uint64_t pool = ta.pool != 0 ? ta.pool : tb.pool;
  if (ta.pool != 0 && tb.pool != 0 && ta.pool != tb.pool) pool = 0;
  if (pool != 0 && pool != ws->pool_owner_) {
    ws->InvalidateDisplayMemo();
    ws->pool_owner_ = pool;
  }
  // Ephemeral-id wrap guard: after 2^31 issuances the counter would
  // collide with pool ids; restart the ephemeral epoch here, where no
  // resolved ids are live. (A single pair can never wrap mid-resolution:
  // it issues at most one id per node.)
  if (ws->next_eph_ < internal::kEphemeralIdBase) {
    ws->InvalidateDisplayMemo();
    ws->next_eph_ = internal::kEphemeralIdBase;
  }

  // Resolve per-node display ids: pool ids where the node carries one and
  // its context belongs to the adopted pool, workspace ephemeral ids
  // otherwise (grouped by identity, so the equal-id shortcut still fires
  // for repeated ad-hoc displays).
  const size_t n = ta.size();
  const size_t m = tb.size();
  if (ws->aid_.size() < n) ws->aid_.resize(n);
  if (ws->bid_.size() < m) ws->bid_.resize(m);
  const bool a_pool = ta.pool != 0 && ta.pool == ws->pool_owner_;
  const bool b_pool = tb.pool != 0 && tb.pool == ws->pool_owner_;
  for (size_t i = 0; i < n; ++i) {
    const FlatContext::Node& node = ta.post[i];
    ws->aid_[i] = (a_pool && node.display_id >= 0)
                      ? static_cast<uint32_t>(node.display_id)
                      : ws->EphemeralId(node.display.identity);
  }
  for (size_t j = 0; j < m; ++j) {
    const FlatContext::Node& node = tb.post[j];
    ws->bid_[j] = (b_pool && node.display_id >= 0)
                      ? static_cast<uint32_t>(node.display_id)
                      : ws->EphemeralId(node.display.identity);
  }

  // The bound memo serves pool pairs only when its space is the one the
  // workspace resolved pool ids under.
  internal::PoolDisplayMemo* shared =
      memo_ != nullptr && memo_->pool() == ws->pool_owner_ ? memo_.get()
                                                           : nullptr;
  const double dw = options_.display_weight;
  const FlatContext::Node* an = ta.post.data();
  const FlatContext::Node* bn = tb.post.data();
  const uint32_t* aid = ws->aid_.data();
  const uint32_t* bid = ws->bid_.data();
  return ZhangShashaCompute(
      ta, tb, kIndelCost, ws, [&](int pi, int pj) {
        const double dd = MemoDisplayDistance(an[pi].display, bn[pj].display,
                                              aid[pi], bid[pj], shared, ws);
        const double da = ActionDistance(*an[pi].incoming, *bn[pj].incoming);
        return dw * dd + (1.0 - dw) * da;
      });
}

double SessionDistance::TreeEditDistance(const NContext& a,
                                         const NContext& b) const {
  thread_local TedWorkspace ws;
  // The thread-local workspace survives the caller's contexts: its memo
  // must not carry pointer keys from a previous call's freed displays.
  ws.InvalidateDisplayMemo();
  const FlatContext ta = Prepare(a);
  const FlatContext tb = Prepare(b);
  return TreeEditDistance(ta, tb, &ws);
}

double SessionDistance::MemoDisplayDistance(
    const DisplayView& a, const DisplayView& b, uint32_t ia, uint32_t ib,
    internal::PoolDisplayMemo* shared, TedWorkspace* ws) const {
  // Equal resolved ids mean the same identity, or a query display the
  // classifier proved content-identical to this pool representative —
  // either way the ground distance is exactly 0 (DisplayContentDistance
  // of content-equal views computes bitwise 0.0).
  if (ia == ib) return 0.0;
  const uint32_t lo = std::min(ia, ib);
  const uint32_t hi = std::max(ia, ib);
  // Two ids below the covered bound are pool ids of the adopted space
  // (ephemeral ids start far above it): the pair lives in the shared table
  // only. Any other pair stays in this workspace's L1.
  const bool pooled = shared != nullptr && hi < shared->covered();
  const uint64_t key = (uint64_t{lo} << 32) | hi;
  double d = 0.0;
  if (pooled && shared->Find(lo, hi, &d)) {
    IDA_OBS_TALLY(++ws->tally.display_shared_hits);
    return d;
  }
  if (!pooled) {
    IDA_OBS_TALLY(++ws->tally.display_memo_lookups);
    if (const double* hit =
            ws->display_memo_.Find(key, &ws->tally.display_memo_probes)) {
      IDA_OBS_TALLY(++ws->tally.display_l1_hits);
      return *hit;
    }
  }
  IDA_OBS_TALLY(++ws->tally.display_computes);
  // Either argument order gives the same bits (the metric is symmetric),
  // so the value never depends on which side asked first.
  d = DisplayContentDistance(ws->Profile(ia, a, shared),
                             ws->Profile(ib, b, shared));
  if (pooled) {
    shared->Store(lo, hi, d);
  } else {
    ws->display_memo_.Insert(key, d);
  }
  return d;
}

double SessionDistance::Distance(const FlatContext& a, const FlatContext& b,
                                 TedWorkspace* ws) const {
  const size_t total = a.size() + b.size();
  if (total == 0) return 0.0;
  const double ted = TreeEditDistance(a, b, ws);
  return ted / (kIndelCost * static_cast<double>(total));
}

double SessionDistance::Distance(const NContext& a, const NContext& b) const {
  const size_t total = a.nodes().size() + b.nodes().size();
  if (total == 0) return 0.0;
  thread_local TedWorkspace ws;
  ws.InvalidateDisplayMemo();  // see TreeEditDistance(NContext, NContext)
  const FlatContext ta = Prepare(a);
  const FlatContext tb = Prepare(b);
  const double ted = TreeEditDistance(ta, tb, &ws);
  return ted / (kIndelCost * static_cast<double>(total));
}

void FlushTedTally(const TedTally& tally, const obs::ObsConfig& obs) {
  if (!obs.metrics_on()) return;
  obs::MetricsRegistry& reg = obs.reg();
  if (tally.ted_calls > 0) {
    reg.GetCounter("ida.distance.ted.calls")->Add(tally.ted_calls);
  }
  if (tally.display_l1_hits > 0) {
    reg.GetCounter("ida.distance.display_cache.l1_hits")
        ->Add(tally.display_l1_hits);
  }
  if (tally.display_shared_hits > 0) {
    reg.GetCounter("ida.distance.display_cache.shared_hits")
        ->Add(tally.display_shared_hits);
  }
  if (tally.display_computes > 0) {
    reg.GetCounter("ida.distance.display_cache.computes")
        ->Add(tally.display_computes);
  }
  if (tally.display_memo_lookups > 0) {
    reg.GetCounter("ida.distance.display_memo.lookups")
        ->Add(tally.display_memo_lookups);
  }
  if (tally.display_memo_probes > 0) {
    reg.GetCounter("ida.distance.display_memo.probes")
        ->Add(tally.display_memo_probes);
  }
  if (tally.workspace_grows > 0) {
    reg.GetCounter("ida.distance.workspace.grows")
        ->Add(tally.workspace_grows);
  }
  if (tally.workspace_reuses > 0) {
    reg.GetCounter("ida.distance.workspace.reuses")
        ->Add(tally.workspace_reuses);
  }
}

std::vector<std::vector<double>> BuildDistanceMatrix(
    const std::vector<NContext>& contexts, const SessionDistance& metric,
    ThreadPool* pool, const obs::ObsConfig& obs) {
  const size_t n = contexts.size();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  if (n < 2) return d;

  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(metric.options().num_threads);
    pool = owned.get();
  }
  // Prepare phase: one flattening per context instead of one per pair,
  // then the ground-table precompute (the DP phase below reads the tables
  // immutably).
  std::vector<FlatContext> flat;
  flat.reserve(n);
  for (const NContext& c : contexts) {
    flat.push_back(SessionDistance::Prepare(c));
  }
  const GroundTables tables = BuildGroundTables(flat, metric, pool);

  std::vector<TedWorkspace> scratch(static_cast<size_t>(pool->num_threads()));
  // Per-worker wall time for the `ida.distance.matrix.worker_seconds`
  // histogram: each slot is written only by its worker (the clock reads
  // are skipped entirely when metrics are off).
  const bool timed = obs.metrics_on();
  std::vector<double> worker_seconds(scratch.size(), 0.0);
  // Upper-triangle rows, dynamically chunked: early rows carry more
  // pairs, so late chunks rebalance onto whichever worker frees up first.
  // Each (i, j) cell is written by exactly one worker.
  pool->ParallelFor(
      n - 1, /*chunk=*/2, [&](size_t begin, size_t end, int worker) {
        TedWorkspace& ws = scratch[static_cast<size_t>(worker)];
        const obs::TracePoint chunk_start =
            timed ? obs::TraceNow() : obs::TracePoint();
        for (size_t i = begin; i < end; ++i) {
          double* row = d[i].data();
          if (tables.valid) {
            const int* a_node = tables.node_id[i].data();
            for (size_t j = i + 1; j < n; ++j) {
              row[j] = TableDistance(flat[i], flat[j], a_node,
                                     tables.node_id[j].data(), tables, &ws);
            }
          } else {
            for (size_t j = i + 1; j < n; ++j) {
              row[j] = metric.Distance(flat[i], flat[j], &ws);
            }
          }
        }
        if (timed) {
          worker_seconds[static_cast<size_t>(worker)] +=
              obs::SecondsSince(chunk_start);
        }
      });
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) d[j][i] = d[i][j];
  }

  if (timed) {
    obs::MetricsRegistry& reg = obs.reg();
    reg.GetCounter("ida.distance.matrix.builds")->Increment();
    reg.GetCounter("ida.distance.matrix.contexts")->Add(n);
    reg.GetCounter("ida.distance.matrix.pairs")->Add(n * (n - 1) / 2);
    reg.GetCounter(tables.valid ? "ida.distance.matrix.dense_builds"
                                : "ida.distance.matrix.fallback_builds")
        ->Increment();
    obs::Histogram* shard_hist =
        reg.GetHistogram("ida.distance.matrix.worker_seconds");
    for (size_t w = 0; w < worker_seconds.size(); ++w) {
      if (worker_seconds[w] > 0.0) shard_hist->Observe(worker_seconds[w]);
    }
    for (const TedWorkspace& ws : scratch) FlushTedTally(ws.tally, obs);
  }
  return d;
}

}  // namespace ida
