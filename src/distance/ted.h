// Ordered-tree edit distance between n-contexts (Zhang–Shasha algorithm),
// the session distance metric of paper Sec 4.2 / [25]: unit cost for node
// insert/delete, alter cost from the action and display ground metrics.
//
// The engine is split into a prepare phase and a compute phase (see
// DESIGN.md §8). Prepare() flattens an n-context into postorder arrays
// once; the compute phase runs the Zhang–Shasha dynamic program over two
// flattened contexts using a caller-owned, reusable workspace, so an
// all-pairs matrix build performs O(n) flattenings and zero steady-state
// per-pair allocations. BuildDistanceMatrix parallelizes the upper
// triangle over a thread pool; the output is bit-identical for every
// thread count.
//
// Display ground distances are memoized by display id, never by address.
// A pair of pool ids lives in one lock-free triangular table per pool id
// space, shared by every workspace serving that space; every other pair
// (an ad-hoc display's ephemeral id, a pool id past the table's bound, or
// an unbound metric) lives in a per-workspace L1. No caller has to vouch for how long a display lives.
// Display profiles (distance/ground.h), the per-display half of the
// ground metric, are kept under the same ids.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "distance/ground.h"
#include "obs/obs.h"
#include "session/ncontext.h"

namespace ida {

class ThreadPool;

namespace internal {

/// Display ids at or above this value are workspace-scoped ephemeral ids
/// (issued by TedWorkspace for displays outside the model's interned
/// pool); ids below it are dense pool ids assigned by the id-space owner
/// (the kNN classifier). The two ranges never collide, so one memo can
/// hold both kinds of pair.
constexpr uint32_t kEphemeralIdBase = 0x80000000u;

/// Open-addressing (linear probe, power-of-two capacity, <= 50% load)
/// memo from packed display-id pairs to ground distances: the workspace L1
/// for the pairs no pool table holds (see TedWorkspace). Keys are
/// (lo_id << 32) | hi_id with lo_id < hi_id — equal ids short-circuit to
/// distance 0 before the memo — so the all-ones word can never be a real
/// key and serves as the empty sentinel. Unlike a pointer-pair memo, id
/// keys are immune to allocator address reuse (ABA): pool ids are fixed
/// for the model's lifetime and ephemeral ids are issued monotonically and
/// never recycled, which is what lets the memo persist across queries
/// instead of being dropped per query. Values are a pure memo of a deterministic function, so the table never
/// influences results, only how often they are recomputed.
class IdPairMemo {
 public:
  static constexpr uint64_t kEmpty = ~0ULL;

  /// Returns the memoized value for `key`, or nullptr when absent.
  /// `probes` (observability builds) accumulates the number of slots
  /// examined, the memo-efficiency figure the serving bench reports.
  const double* Find(uint64_t key, uint64_t* probes) const {
    (void)probes;
    if (keys_.empty()) return nullptr;
    const size_t mask = keys_.size() - 1;
    size_t slot = static_cast<size_t>(Mix(key)) & mask;
    IDA_OBS_TALLY(++*probes);
    while (keys_[slot] != kEmpty) {
      if (keys_[slot] == key) return &vals_[slot];
      slot = (slot + 1) & mask;
      IDA_OBS_TALLY(++*probes);
    }
    return nullptr;
  }

  /// Inserts a key Find just reported absent.
  void Insert(uint64_t key, double value) {
    if (keys_.empty() || 2 * (count_ + 1) > keys_.size()) Grow();
    const size_t mask = keys_.size() - 1;
    size_t slot = static_cast<size_t>(Mix(key)) & mask;
    while (keys_[slot] != kEmpty) slot = (slot + 1) & mask;
    keys_[slot] = key;
    vals_[slot] = value;
    ++count_;
  }

  /// Forgets every entry but keeps the capacity.
  void Clear() {
    if (count_ == 0) return;
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    count_ = 0;
  }

 private:
  /// splitmix64 finalizer: full-avalanche mixing of the packed id pair.
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<double> old_vals = std::move(vals_);
    const size_t cap =
        old_keys.empty() ? kInitialCapacity : old_keys.size() * 2;
    keys_.assign(cap, kEmpty);
    vals_.assign(cap, 0.0);
    count_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmpty) Insert(old_keys[i], old_vals[i]);
    }
  }

  static constexpr size_t kInitialCapacity = 256;  // power of two

  std::vector<uint64_t> keys_;
  std::vector<double> vals_;
  size_t count_ = 0;
};

/// Pool ids below this bound have pair slots in their space's table
/// (PoolDisplayMemo): at most 64 MiB of address space in an anonymous
/// mapping, of which only the pages a workload touches become resident. A pair with an id at or past
/// it is kept in the asking workspace's L1, as an ephemeral pair is.
constexpr uint32_t kPoolTableIds = 4096;

/// The display-distance memo of one pool id space, shared by every
/// workspace that serves that space: sessions, LOOCV workers and batch
/// workers of one classifier fill and read it. Pool ids are fixed for the
/// lifetime of the id space and name content (a query display gets a pool
/// id only when it is content-identical to that pool display), so an entry
/// can never go stale.
///
/// Pair distances live in one dense triangular array, a slot per pair
/// lo < hi of the ids below covered() (10.7 MB at paper scale, P = 1,633),
/// read and written through std::atomic_ref with relaxed order: no hashing,
/// no locks. Racing writers store the same bits, because a value is a pure,
/// symmetric function of content. Zero bits mean "absent", so a value is
/// stored with its sign bit flipped: never zero for a distance (>= 0, or
/// NaN); the one value that would be, -0.0, is simply never kept.
///
/// The memo also holds the space's display profiles (DisplayProfile), one
/// slot per pool id, which every workspace reads to compute a pool
/// display's side of a missed pair. A slot is filled on first use, not at
/// load, and published with a compare-and-swap; a racing loser frees its
/// copy. Either copy would do: a pool id names content, and a profile is a
/// pure function of content.
class PoolDisplayMemo {
 public:
  /// Maps the pair table; throws std::bad_alloc when that fails, as an
  /// allocation would.
  PoolDisplayMemo(uint64_t pool, size_t pool_size);
  ~PoolDisplayMemo();

  PoolDisplayMemo(const PoolDisplayMemo&) = delete;
  PoolDisplayMemo& operator=(const PoolDisplayMemo&) = delete;

  /// The profile of pool display `id`, built from `view` (any display
  /// content-identical to it) on first use; nullptr when `id` lies outside
  /// the pool. Thread-safe and lock-free.
  const DisplayProfile* Profile(uint32_t id, const DisplayView& view) {
    if (id >= profile_slots_.size()) return nullptr;
    std::atomic<const DisplayProfile*>& slot = profile_slots_[id];
    const DisplayProfile* p = slot.load(std::memory_order_acquire);
    if (p != nullptr) return p;
    const DisplayProfile* built = new DisplayProfile(MakeDisplayProfile(view));
    if (slot.compare_exchange_strong(p, built, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return built;
    }
    delete built;  // a racing worker published first; `p` is its profile
    return p;
  }

  /// The id-space token this memo belongs to (FlatContext::pool).
  uint64_t pool() const { return pool_; }

  /// Ids below this bound have pair slots: min(pool size, kPoolTableIds).
  uint32_t covered() const { return covered_; }

  /// Slot of the pair lo < hi, both below covered(). Slot(0, n) is the
  /// slot count of the ids below n.
  static size_t Slot(uint32_t lo, uint32_t hi) {
    return size_t{hi} * (hi - 1) / 2 + lo;
  }

  /// Copies the stored distance of pair lo < hi < covered() into `*value`;
  /// false when absent. Thread-safe and lock-free.
  bool Find(uint32_t lo, uint32_t hi, double* value) const {
    const uint64_t bits = std::atomic_ref<uint64_t>(pairs_[Slot(lo, hi)])
                              .load(std::memory_order_relaxed);
    if (bits != 0) *value = std::bit_cast<double>(bits ^ kSignBit);
    return bits != 0;
  }

  /// Stores the distance of pair lo < hi < covered(). Thread-safe and
  /// lock-free.
  void Store(uint32_t lo, uint32_t hi, double value) {
    std::atomic_ref<uint64_t>(pairs_[Slot(lo, hi)])
        .store(std::bit_cast<uint64_t>(value) ^ kSignBit,
               std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kSignBit = uint64_t{1} << 63;

  const uint64_t pool_;
  const uint32_t covered_;
  /// Slot(0, covered_) pair slots, zero until stored; null when none.
  uint64_t* pairs_ = nullptr;
  /// One profile slot per pool id; null until first use.
  std::vector<std::atomic<const DisplayProfile*>> profile_slots_;
};

}  // namespace internal

/// Cost of deleting or inserting one context node (with its edge): the
/// paper's unit cost (Sec 4.2).
inline constexpr double kIndelCost = 1.0;

/// Cost model for the session tree edit distance.
struct SessionDistanceOptions {
  /// Relative weight of the display ground metric inside an alter cost
  /// (the action metric gets 1 - display_weight). Alter cost is
  /// display_weight * display_dist + (1 - display_weight) * action_dist,
  /// and is therefore <= kIndelCost by construction.
  double display_weight = 0.5;
  /// Worker threads for BuildDistanceMatrix and batch prediction:
  /// 0 = hardware concurrency, 1 = serial (no background threads).
  int num_threads = 0;
};

/// Postorder-flattened view of an NContext, precomputed once and reused
/// across every pairwise comparison (the prepare phase of the engine).
///
/// Nodes borrow the display and incoming-action storage of the source
/// NContext: the context (or whatever container its nodes were moved
/// into) must outlive the FlatContext and must not be copied-from or
/// mutated while the FlatContext is in use.
struct FlatContext {
  struct Node {
    /// Zero-copy view of the node's display content (actions/display.h):
    /// heap-backed for prepared NContexts, mapping-backed for contexts
    /// served in place from a model artifact. The distance layer reads only
    /// the view, so both backings are interchangeable bitwise.
    DisplayView display;
    /// Dense id of this display in the model's interned pool, or -1 when
    /// the display is not a pool member (ad-hoc queries). Pool ids key the
    /// workspace display memo; see TedWorkspace.
    int32_t display_id = -1;
    /// Action on the edge from the parent node (empty optional at the
    /// context root); compared with ActionDistance.
    const std::optional<Action>* incoming = nullptr;
    /// Postorder position of this node's leftmost leaf descendant.
    int leftmost = 0;
    /// log2(display row count + 1), precomputed by Prepare: the log-size
    /// term of the display ground metric, hoisted out of the DP inner
    /// loops (log2 is deterministic, so the hoisted value is bitwise the
    /// value an inline call would produce).
    double log_rows = 0.0;
  };

  /// Nodes in postorder.
  std::vector<Node> post;
  /// Keyroot positions (ascending): highest node per leftmost-leaf value.
  std::vector<int> keyroots;

  /// Process-unique token of the display-id space the nodes' display_id
  /// values belong to (0 = no pool: every display_id is -1). Tokens are
  /// drawn from a monotonic process-wide counter, never an address, so a
  /// recycled allocation can never impersonate a dead id space. The
  /// workspace memo uses this to detect id-space switches (TedWorkspace),
  /// and only contexts of a metric's bound space reach its shared memo.
  uint64_t pool = 0;

  size_t size() const { return post.size(); }
  bool empty() const { return post.empty(); }
};

/// Plain (non-atomic) per-workspace event tallies for the observability
/// layer (DESIGN.md §10): the distance engine's hot loops bump these
/// thread-local integers for free, and batch-level callers
/// (BuildDistanceMatrix, IKnnClassifier via PredictStats) flush the deltas
/// into atomic `ida.distance.*` counters once per batch. All increments
/// compile away under IDA_OBS=OFF; the struct itself always exists so the
/// API is mode-independent.
struct TedTally {
  uint64_t ted_calls = 0;            ///< Zhang–Shasha DP executions
  uint64_t display_l1_hits = 0;      ///< display pairs served by the L1 memo
  uint64_t display_shared_hits = 0;  ///< ... by the pool's shared memo
  uint64_t display_computes = 0;     ///< ... computed from scratch
  uint64_t display_memo_lookups = 0;  ///< L1 memo Find calls
  uint64_t display_memo_probes = 0;   ///< slots examined across those Finds
  uint64_t workspace_grows = 0;      ///< Reserve calls that reallocated
  uint64_t workspace_reuses = 0;     ///< Reserve calls served from capacity

  void Clear() { *this = TedTally(); }

  /// Field-wise difference against an earlier snapshot of the same
  /// workspace's tally (for flushing per-query deltas).
  TedTally Since(const TedTally& earlier) const {
    TedTally d;
    d.ted_calls = ted_calls - earlier.ted_calls;
    d.display_l1_hits = display_l1_hits - earlier.display_l1_hits;
    d.display_shared_hits = display_shared_hits - earlier.display_shared_hits;
    d.display_computes = display_computes - earlier.display_computes;
    d.display_memo_lookups = display_memo_lookups - earlier.display_memo_lookups;
    d.display_memo_probes = display_memo_probes - earlier.display_memo_probes;
    d.workspace_grows = workspace_grows - earlier.workspace_grows;
    d.workspace_reuses = workspace_reuses - earlier.workspace_reuses;
    return d;
  }
};

/// Reusable per-thread scratch for the compute phase: flat row-major
/// tree-distance and forest-distance tables (grow-only, recycled across
/// pairs) plus an L1 memo of the display-pair distances the pool's shared
/// table (internal::PoolDisplayMemo) does not hold: pairs with an
/// ephemeral id or a pool id past kPoolTableIds, and every pair of a
/// metric bound to no pool or another pool. A memo miss merges
/// two display profiles (DisplayProfile): a pool display's comes from the
/// bound pool memo, every other display's from this workspace's profile
/// table, keyed by the same resolved id as the L1 and dropped with it (see
/// InvalidateDisplayMemo). Not thread-safe — one workspace per thread.
class TedWorkspace {
 public:
  /// Ensures capacity for an (n x m) tree table, an (n+1) x (m+1) forest
  /// table, the (n x m) precomputed alter-cost table and the length-m
  /// leftmost-leaf row the restructured DP streams over.
  void Reserve(size_t n, size_t m);

  double* treedist() { return treedist_.data(); }
  double* fd() { return fd_.data(); }
  double* alter_table() { return alter_.data(); }
  int32_t* bleft() { return bleft_.data(); }

  /// Event tallies since the last Clear (observability; see TedTally).
  TedTally tally;

  /// Invalidates state keyed by caller display lifetimes. A reused
  /// workspace must call this before a query whose display lifetimes it
  /// cannot vouch for (one-shot Predict's thread-local scratch: the
  /// previous query's displays may be freed and their addresses
  /// recycled). The ephemeral identity->id map holds raw pointers, so it
  /// is dropped, and with it the L1 and the profile table keyed like it
  /// (stale ephemeral ids are never reissued, but their entries would pin
  /// memory forever). Pool pairs of the bound table are not held here, so
  /// their reuse across queries — the stateful-serving win — survives.
  /// Caller-scoped scratch whose query displays provably outlive it — a
  /// live session's PredictScratch (serve/session_manager.h) — need not
  /// invalidate at all.
  void InvalidateDisplayMemo() {
    eph_ids_.clear();
    profiles_.clear();
    display_memo_.Clear();
  }

 private:
  friend class SessionDistance;

  /// Workspace-scoped id for a display outside the current pool: issued
  /// once per identity from a monotonic counter (never recycled), so an
  /// id observed by the memo can never later mean a different display.
  uint32_t EphemeralId(const Display* identity) {
    auto [it, inserted] = eph_ids_.try_emplace(identity, next_eph_);
    if (inserted) ++next_eph_;
    return it->second;
  }

  /// The profile of the display resolved to `id`: from `shared` (the
  /// bound memo of the adopted pool, or null) for a pool id in it (an
  /// ephemeral id never is), otherwise from this workspace's table, built
  /// from `view` on first use.
  const DisplayProfile& Profile(uint32_t id, const DisplayView& view,
                                internal::PoolDisplayMemo* shared) {
    const DisplayProfile* p = shared ? shared->Profile(id, view) : nullptr;
    if (p != nullptr) return *p;
    auto it = profiles_.find(id);
    if (it == profiles_.end()) {
      it = profiles_.emplace(id, MakeDisplayProfile(view)).first;
    }
    return it->second;
  }

  std::vector<double> treedist_;
  std::vector<double> fd_;
  /// Per-pair alter-cost table (n x m, row-major): the DP consults
  /// alter(pi, pj) exactly once per node pair, so precomputing the full
  /// table costs the same alter evaluations and makes every inner-loop
  /// read a contiguous load (see zhang_shasha.h).
  std::vector<double> alter_;
  /// Contiguous copy of tb's leftmost-leaf positions (length m).
  std::vector<int32_t> bleft_;
  /// Profiles of the displays this workspace resolved to ephemeral ids,
  /// and of pool displays when no pool memo of the adopted space is
  /// bound, keyed by resolved id. Node-based, so a reference handed out
  /// survives later insertions. Dropped with the L1.
  std::unordered_map<uint32_t, DisplayProfile> profiles_;
  /// Per-pair resolved display ids for the two contexts (pool ids where
  /// the context belongs to the workspace's adopted pool, ephemeral ids
  /// otherwise), refilled at each TreeEditDistance entry.
  std::vector<uint32_t> aid_;
  std::vector<uint32_t> bid_;
  /// L1 display-distance memo keyed by resolved id pairs, for the pairs
  /// the bound pool table does not hold. Values depend only on display
  /// content, so the memo serves any metric. Its pool ids belong to the
  /// space `pool_owner_`; InvalidateDisplayMemo drops it when the workspace
  /// adopts another space, and at the ephemeral-id wrap.
  internal::IdPairMemo display_memo_;
  /// Ephemeral identity->id assignments (see EphemeralId). Pointer keys
  /// are only sound while the displays live; InvalidateDisplayMemo drops
  /// them.
  std::unordered_map<const Display*, uint32_t> eph_ids_;
  uint32_t next_eph_ = internal::kEphemeralIdBase;
  uint64_t pool_owner_ = 0;
};

/// Session distance metric over n-contexts.
///
/// Display ground distances dominate the edit-distance cost, and
/// displays are widely shared between overlapping n-contexts, so they are
/// memoized by display id: a pair of pool ids in the table of the pool id
/// space this metric is bound to (BindPool), which every workspace serving
/// that space shares, and any other pair in the asking workspace's L1. An
/// unbound metric memoizes in the L1 only. One instance may be used
/// concurrently from many threads; copies share the bound memo.
class SessionDistance {
 public:
  explicit SessionDistance(SessionDistanceOptions options = {})
      : options_(options) {}

  /// Opens a fresh display-id space of `pool_size` pool ids (0 ..
  /// pool_size - 1) and binds this metric, and copies made from it
  /// afterwards, to a new shared memo for it. Returns the space's
  /// process-unique token, which the id-space owner (the kNN classifier)
  /// stamps on its contexts and resolved queries as FlatContext::pool.
  /// Tokens come from a monotonic counter, never an address, so a later
  /// space can never impersonate a dead one. Copies made earlier keep
  /// their previous binding.
  uint64_t BindPool(size_t pool_size);

  /// Prepare phase: flattens a context into postorder arrays. The result
  /// borrows storage from `ctx` (see FlatContext).
  static FlatContext Prepare(const NContext& ctx);

  /// Raw Zhang–Shasha tree edit distance (>= 0, unbounded). Convenience
  /// one-shot form: flattens both contexts, then computes.
  double TreeEditDistance(const NContext& a, const NContext& b) const;

  /// Compute phase over prepared contexts; `ws` supplies all scratch
  /// memory (one workspace per thread).
  double TreeEditDistance(const FlatContext& a, const FlatContext& b,
                          TedWorkspace* ws) const;

  /// Normalized distance in [0, 1]: TED / (|a| + |b|) node counts (the
  /// maximum possible TED under unit indel costs). Two empty contexts
  /// have distance 0.
  double Distance(const NContext& a, const NContext& b) const;

  /// Normalized distance over prepared contexts.
  double Distance(const FlatContext& a, const FlatContext& b,
                  TedWorkspace* ws) const;

  const SessionDistanceOptions& options() const { return options_; }

 private:
  /// Display ground distance through the memos: equal resolved ids
  /// short-circuit to 0 (same identity or content-identical pool
  /// representative); a pair of pool ids `shared` covers (the memo of the
  /// workspace's adopted pool, or null) goes to its table only, any other
  /// pair to the workspace's L1. A miss merges the two displays' profiles
  /// (TedWorkspace::Profile). `ia` and `ib` are the resolved ids of `a`
  /// and `b` for the workspace's current pool epoch.
  double MemoDisplayDistance(const DisplayView& a, const DisplayView& b,
                             uint32_t ia, uint32_t ib,
                             internal::PoolDisplayMemo* shared,
                             TedWorkspace* ws) const;

  SessionDistanceOptions options_;
  /// The bound pool's memo (null while unbound), shared across copies.
  std::shared_ptr<internal::PoolDisplayMemo> memo_;
};

/// Pairwise distance matrix over a set of contexts (symmetric, zero
/// diagonal). Each context is flattened exactly once; the upper triangle
/// is computed over `metric.options().num_threads` workers (one reusable
/// workspace per worker) and mirrored. Output is independent of the
/// thread count. When `pool` is given it is used instead of creating one
/// (its size then overrides the options knob).
///
/// Observability: when `obs` is active, records `ida.distance.matrix.*`
/// counters (builds, pairs, dense-table vs fallback mode), per-worker wall
/// times into the `ida.distance.matrix.worker_seconds` histogram, and
/// flushes the workers' TedTally deltas into `ida.distance.*`.
std::vector<std::vector<double>> BuildDistanceMatrix(
    const std::vector<NContext>& contexts, const SessionDistance& metric,
    ThreadPool* pool = nullptr, const obs::ObsConfig& obs = {});

/// Adds a tally delta onto the `ida.distance.*` counters of `obs`'s
/// registry (ted.calls, display_cache.{l1_hits,shared_hits,computes},
/// display_memo.{lookups,probes}, workspace.{grows,reuses}). No-op when
/// `obs` has metrics off or the tally is all zeros. Thread-safe (counter
/// adds are atomic).
void FlushTedTally(const TedTally& tally, const obs::ObsConfig& obs);

}  // namespace ida
