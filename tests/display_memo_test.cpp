// Tests of the display-distance memo of a pool id space
// (internal::PoolDisplayMemo, bound by SessionDistance::BindPool): live
// sessions and workers of one model share pool-pair distances, two id
// spaces never see each other's entries, every pool pair has one slot of
// the triangular table, ids past its covered bound fall back to the
// workspace L1, and none of it changes a single bit of any answer. The
// memo's display profiles are published once per pool slot. The
// cross-thread cases run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "actions/executor.h"
#include "common/parallel.h"
#include "distance/ted.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "predict/knn.h"
#include "serve/session_manager.h"
#include "session/ncontext.h"
#include "session/tree.h"
#include "synth/generator.h"

namespace ida {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

ModelConfig MemoTestConfig() {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;  // keep every state: dense training set
  config.knn.distance_threshold = 0.25;
  config.use_index = true;
  return config;
}

class DisplayMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(33))));
    auto model = engine::Trainer(MemoTestConfig())
                     .Fit(bench_->log, bench_->registry);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_GT(model->size(), 20u);
    model_ = new engine::TrainedModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete bench_;
  }

  static std::shared_ptr<const engine::Predictor> Load(
      const obs::ObsConfig& obs = {}) {
    auto p = engine::Predictor::Load(*model_, obs);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::make_shared<const engine::Predictor>(std::move(*p));
  }

  /// The first logged session with at least `steps` steps.
  static const SessionRecord& LongRecord(size_t steps) {
    for (const SessionRecord& r : bench_->log.records()) {
      if (r.steps.size() >= steps) return r;
    }
    return bench_->log.records()[0];
  }

  /// Opens `sid` on `manager`, appends every step of `record` and checks
  /// each Advise against PredictState on a mirror tree, bitwise.
  static void Replay(serve::SessionManager& manager,
                     const engine::Predictor& oracle,
                     const SessionRecord& record, const std::string& sid) {
    auto table = bench_->registry.find(record.dataset_id);
    ASSERT_NE(table, bench_->registry.end());
    ASSERT_TRUE(manager.Open(sid, Display::MakeRoot(table->second)).ok());
    ActionExecutor exec;
    SessionTree mirror(sid, record.user_id, record.dataset_id,
                       Display::MakeRoot(table->second));
    for (size_t i = 0; i <= record.steps.size(); ++i) {
      if (i > 0) {
        const auto& [parent, action] = record.steps[i - 1];
        if (!manager.Append(sid, parent, action).ok()) break;
        ASSERT_TRUE(mirror.ApplyFrom(parent, action, exec).ok());
      }
      auto got = manager.Advise(sid);
      ASSERT_TRUE(got.ok());
      const Prediction want = oracle.PredictState(mirror, mirror.num_steps());
      EXPECT_EQ(got->label, want.label) << sid << " step " << i;
      EXPECT_TRUE(SameBits(got->confidence, want.confidence))
          << sid << " step " << i;
    }
    EXPECT_TRUE(manager.Close(sid).ok());
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
};

SynthBenchmark* DisplayMemoTest::bench_ = nullptr;
engine::TrainedModel* DisplayMemoTest::model_ = nullptr;

// Two live sessions replaying the same steps: the second one's query
// displays resolve to the same pool ids, so the pool pairs the first one
// computed come back from the shared memo instead of being recomputed.
TEST_F(DisplayMemoTest, SessionsSharePoolPairs) {
  obs::MetricsRegistry registry;
  obs::ObsConfig obs;
  obs.registry = &registry;
  serve::SessionManager manager(Load(obs));
  const auto oracle = Load();
  const SessionRecord& record = LongRecord(4);
  obs::Counter* shared =
      registry.GetCounter("ida.distance.display_cache.shared_hits");
  obs::Counter* computes =
      registry.GetCounter("ida.distance.display_cache.computes");

  Replay(manager, *oracle, record, "first");
  const uint64_t first_shared = shared->value();
  const uint64_t first_computes = computes->value();
  Replay(manager, *oracle, record, "second");
  const uint64_t second_shared = shared->value() - first_shared;
  const uint64_t second_computes = computes->value() - first_computes;
#if IDA_OBS_ENABLED
  EXPECT_GT(first_computes, 0u);
  EXPECT_GT(second_shared, 0u);
  EXPECT_LT(second_computes, first_computes);
#else
  (void)second_shared;
  (void)second_computes;
#endif
}

// Concurrent sessions on one manager fill and read one memo; every answer
// still equals the one-shot oracle bitwise.
TEST_F(DisplayMemoTest, ConcurrentSessionsMatchOneShot) {
  serve::ServeOptions options;
  options.num_shards = 4;
  serve::SessionManager manager(Load(), options);
  const auto oracle = Load();
  const SessionRecord& record = LongRecord(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        Replay(manager, *oracle, record,
               "s" + std::to_string(t) + "-" + std::to_string(round));
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

// Leave-one-out over 3 workers shares one memo across the workers and
// answers exactly like a single worker.
TEST_F(DisplayMemoTest, WorkersShareOneMemoBitwise) {
  const ModelConfig& config = model_->config();
  const IKnnClassifier classifier(
      std::vector<TrainingSample>(model_->samples()),
      SessionDistance(config.distance), config.knn, model_->index());
  const size_t n = classifier.train().size();
  std::vector<Prediction> serial(n);
  {
    const IKnnClassifier fresh(std::vector<TrainingSample>(model_->samples()),
                               SessionDistance(config.distance), config.knn,
                               model_->index());
    for (size_t i = 0; i < n; ++i) serial[i] = fresh.PredictLoo(i);
  }
  std::vector<Prediction> parallel(n);
  std::vector<uint64_t> shared_hits(3, 0);
  ThreadPool pool(3);
  pool.ParallelFor(n, 4, [&](size_t begin, size_t end, int worker) {
    PredictStats stats;
    for (size_t i = begin; i < end; ++i) {
      parallel[i] = classifier.PredictLoo(i, &stats);
      shared_hits[static_cast<size_t>(worker)] +=
          stats.ted.display_shared_hits;
    }
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(parallel[i].label, serial[i].label) << "sample " << i;
    EXPECT_TRUE(SameBits(parallel[i].confidence, serial[i].confidence))
        << "sample " << i;
  }
#if IDA_OBS_ENABLED
  EXPECT_GT(shared_hits[0] + shared_hits[1] + shared_hits[2], 0u);
#endif
}

// Leave-one-out queries are training contexts, so every display resolves
// to a pool id and every pair of them lives in the bound table: the
// workspaces' L1s are never consulted.
TEST_F(DisplayMemoTest, PoolResolvedContextsMakeNoL1Lookups) {
  const ModelConfig& config = model_->config();
  const IKnnClassifier classifier(
      std::vector<TrainingSample>(model_->samples()),
      SessionDistance(config.distance), config.knn, model_->index());
  TedTally tally;
  for (size_t i = 0; i < classifier.train().size(); ++i) {
    PredictStats stats;
    classifier.PredictLoo(i, &stats);
    tally.display_memo_lookups += stats.ted.display_memo_lookups;
    tally.display_l1_hits += stats.ted.display_l1_hits;
    tally.display_computes += stats.ted.display_computes;
  }
  EXPECT_EQ(tally.display_memo_lookups, 0u);
  EXPECT_EQ(tally.display_l1_hits, 0u);
#if IDA_OBS_ENABLED
  EXPECT_GT(tally.display_computes, 0u);
#endif
}

// Two classifiers built from one SessionDistance object own separate id
// spaces. B's training set is A's reversed, so equal pool ids name
// different displays: had B read A's entries it would answer wrongly.
TEST_F(DisplayMemoTest, PoolsAreIsolated) {
  const ModelConfig& config = model_->config();
  std::vector<TrainingSample> forward(model_->samples());
  std::vector<TrainingSample> reversed(forward.rbegin(), forward.rend());
  const SessionDistance metric(config.distance);
  const IKnnClassifier a(forward, metric, config.knn);
  const IKnnClassifier b(reversed, metric, config.knn);
  const IKnnClassifier b_fresh(reversed, SessionDistance(config.distance),
                               config.knn);

  // Queries: every logged state, some outside the training set.
  std::vector<NContext> queries;
  ActionExecutor exec;
  for (size_t r = 0; r < 6 && r < bench_->log.size(); ++r) {
    const SessionRecord& record = bench_->log.records()[r];
    auto table = bench_->registry.find(record.dataset_id);
    ASSERT_NE(table, bench_->registry.end());
    SessionTree tree("q", record.user_id, record.dataset_id,
                     Display::MakeRoot(table->second));
    queries.push_back(ExtractNContext(tree, 0, config.n_context_size));
    for (const auto& [parent, action] : record.steps) {
      if (!tree.ApplyFrom(parent, action, exec).ok()) break;
      queries.push_back(
          ExtractNContext(tree, tree.num_steps(), config.n_context_size));
    }
  }
  ASSERT_GT(queries.size(), 10u);

  // Each query on fresh scratch, so the only carried state is the memo.
  const auto run = [&](const IKnnClassifier& c, std::vector<Prediction>* out,
                       TedTally* tally) {
    for (const NContext& q : queries) {
      FlatContext flat = SessionDistance::Prepare(q);
      PredictScratch scratch;
      PredictStats stats;
      out->push_back(c.PredictFlat(flat, scratch, &stats));
      tally->display_shared_hits += stats.ted.display_shared_hits;
      tally->display_computes += stats.ted.display_computes;
    }
  };
  std::vector<Prediction> a_out, b_out, fresh_out;
  TedTally a_tally, b_tally, fresh_tally;
  run(a, &a_out, &a_tally);
  run(b, &b_out, &b_tally);
  run(b_fresh, &fresh_out, &fresh_tally);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(b_out[i].label, fresh_out[i].label) << "query " << i;
    EXPECT_TRUE(SameBits(b_out[i].confidence, fresh_out[i].confidence))
        << "query " << i;
  }
  // Run after A, B hits and computes exactly what it does on a fresh
  // metric: none of A's entries reached it.
  EXPECT_EQ(b_tally.display_shared_hits, fresh_tally.display_shared_hits);
  EXPECT_EQ(b_tally.display_computes, fresh_tally.display_computes);
#if IDA_OBS_ENABLED
  EXPECT_GT(a_tally.display_computes, 0u);
#endif
}

// A synthetic pool of `chains * length` distinct two-label displays, laid
// out as `chains` path-shaped contexts of `length` nodes each, with pool
// ids `base` .. `base + chains * length - 1`. Every cross-context node
// pair is a distinct pool pair.
struct ChainPool {
  std::vector<std::vector<std::string>> labels;
  std::vector<std::vector<double>> values;
  std::vector<FlatContext> contexts;
  std::optional<Action> no_action;

  ChainPool(size_t chains, size_t length, size_t base = 0) {
    const size_t displays = chains * length;
    labels.resize(displays);
    values.resize(displays);
    for (size_t c = 0; c < chains; ++c) {
      FlatContext ctx;
      ctx.post.resize(length);
      for (size_t i = 0; i < length; ++i) {
        const size_t id = c * length + i;
        labels[id] = {"l" + std::to_string(id % 7), "m"};
        values[id] = {static_cast<double>(id % 13) + 1.0, 2.0};
        FlatContext::Node& node = ctx.post[i];
        node.display.kind = static_cast<DisplayKind>(id % 3);
        node.display.num_labels = 2;
        node.display.num_values = 2;
        node.display.num_rows = id;
        node.display.owned_labels = labels[id].data();
        node.display.values = values[id].data();
        node.display_id = static_cast<int32_t>(base + id);
        node.incoming = &no_action;
        node.leftmost = 0;  // a path: every node's leftmost leaf is node 0
      }
      ctx.keyroots = {static_cast<int>(length) - 1};
      contexts.push_back(std::move(ctx));
    }
  }

  size_t size() const { return labels.size(); }

  void Stamp(uint64_t pool) {
    for (FlatContext& ctx : contexts) ctx.pool = pool;
  }
};

// Every pair lo < hi of a pool has its own slot, the slots are exactly
// 0 .. P(P-1)/2 - 1, and a stored value reads back bitwise.
TEST(DisplayMemoCapacityTest, CapacityIsThePoolPairCount) {
  EXPECT_EQ(internal::PoolDisplayMemo(1, 0).covered(), 0u);
  EXPECT_EQ(internal::PoolDisplayMemo(1, 1633).covered(), 1633u);
  EXPECT_EQ(internal::PoolDisplayMemo(1, 10000).covered(),
            internal::kPoolTableIds);
  EXPECT_EQ(internal::PoolDisplayMemo::Slot(0, 0), 0u);
  EXPECT_EQ(internal::PoolDisplayMemo::Slot(0, 1), 0u);
  EXPECT_EQ(internal::PoolDisplayMemo::Slot(0, 2), 1u);
  EXPECT_EQ(internal::PoolDisplayMemo::Slot(0, 1633), 1332528u);

  const uint32_t pool_size = 100;
  const size_t slots = internal::PoolDisplayMemo::Slot(0, pool_size);
  ASSERT_EQ(slots, size_t{pool_size} * (pool_size - 1) / 2);
  std::vector<int> owners(slots, 0);
  for (uint32_t hi = 0; hi < pool_size; ++hi) {
    for (uint32_t lo = 0; lo < hi; ++lo) {
      const size_t slot = internal::PoolDisplayMemo::Slot(lo, hi);
      ASSERT_LT(slot, slots) << lo << "," << hi;
      ++owners[slot];
    }
  }
  for (size_t slot = 0; slot < slots; ++slot) {
    EXPECT_EQ(owners[slot], 1) << "slot " << slot;
  }

  internal::PoolDisplayMemo memo(1, pool_size);
  const auto value = [](uint32_t lo, uint32_t hi) {
    return static_cast<double>(lo) / 7.0 + static_cast<double>(hi);
  };
  double got = -1.0;
  for (uint32_t hi = 1; hi < pool_size; ++hi) {
    for (uint32_t lo = 0; lo < hi; ++lo) {
      ASSERT_FALSE(memo.Find(lo, hi, &got)) << lo << "," << hi;
      memo.Store(lo, hi, value(lo, hi));
    }
  }
  for (uint32_t hi = 1; hi < pool_size; ++hi) {
    for (uint32_t lo = 0; lo < hi; ++lo) {
      ASSERT_TRUE(memo.Find(lo, hi, &got)) << lo << "," << hi;
      EXPECT_TRUE(SameBits(got, value(lo, hi))) << lo << "," << hi;
    }
  }
}

// Drives a bound metric over a pool that straddles the table's covered
// bound: half of its ids lie at or past kPoolTableIds. Pairs of two
// covered ids come back from the table; a pair with an id past the bound
// is kept only in the workspace's L1, so a second pass on a fresh
// workspace recomputes it. Every distance has the bits a fresh, unbound
// metric computes.
TEST(DisplayMemoCapacityTest, DistancesUnchangedPastTheCap) {
  const size_t chains = 16, length = 8;
  const size_t base = internal::kPoolTableIds - chains * length / 2;
  ChainPool pool(chains, length, base);
  SessionDistance metric;
  pool.Stamp(metric.BindPool(base + pool.size()));
  const size_t pairs = chains * (chains - 1) / 2 * length * length;
  // Covered pairs: both nodes in the first chains / 2 chains.
  const size_t covered = chains / 2 * (chains / 2 - 1) / 2 * length * length;

  // First pass: every pool pair is new.
  std::vector<double> first;
  {
    TedWorkspace ws;
    for (size_t i = 0; i < chains; ++i) {
      for (size_t j = i + 1; j < chains; ++j) {
        first.push_back(
            metric.TreeEditDistance(pool.contexts[i], pool.contexts[j], &ws));
      }
    }
#if IDA_OBS_ENABLED
    EXPECT_EQ(ws.tally.display_computes, pairs);
    EXPECT_EQ(ws.tally.display_shared_hits, 0u);
    EXPECT_EQ(ws.tally.display_memo_lookups, pairs - covered);
#endif
  }
  // Second pass on an empty L1: covered pairs come from the table, the
  // rest are recomputed; a fresh metric checks the bits.
  TedWorkspace ws, fresh_ws;
  const SessionDistance fresh;
  size_t p = 0;
  for (size_t i = 0; i < chains; ++i) {
    for (size_t j = i + 1; j < chains; ++j, ++p) {
      const double again =
          metric.TreeEditDistance(pool.contexts[i], pool.contexts[j], &ws);
      ASSERT_TRUE(SameBits(again, first[p])) << i << "," << j;
      const double want = fresh.TreeEditDistance(
          pool.contexts[i], pool.contexts[j], &fresh_ws);
      ASSERT_TRUE(SameBits(first[p], want)) << i << "," << j;
    }
  }
#if IDA_OBS_ENABLED
  EXPECT_EQ(ws.tally.display_shared_hits, covered);
  EXPECT_EQ(ws.tally.display_computes, pairs - covered);
#endif
}

// Values whose bits are special survive the table's encoding: 0.0 (whose
// flipped bits are the only ones near "absent"), NaN, and both infinities.
// -0.0 is the one value the encoding cannot hold; it is never kept, so it
// is recomputed rather than misread.
TEST(DisplayMemoTableTest, SpecialValuesRoundTripBitwise) {
  internal::PoolDisplayMemo memo(1, 8);
  const double values[] = {0.0, std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min()};
  uint32_t hi = 1;
  for (const double v : values) {
    memo.Store(0, hi, v);
    double got = -1.0;
    ASSERT_TRUE(memo.Find(0, hi, &got)) << hi;
    EXPECT_TRUE(SameBits(got, v)) << hi;
    ++hi;
  }
  memo.Store(0, hi, -0.0);
  double got = -1.0;
  EXPECT_FALSE(memo.Find(0, hi, &got));
}

// Single-node contexts over chosen displays, every display a member of
// one bound pool: content-equal displays under distinct pool ids, and
// displays whose values are NaN or infinite.
TEST(DisplayMemoTableTest, ZeroAndNonFiniteDistancesRoundTrip) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> values = {
      {1.0, 2.0}, {1.0, 2.0}, {nan, 2.0}, {inf, 2.0}, {-inf, 1.0}, {inf, inf}};
  const std::vector<std::string> labels = {"a", "b"};
  const std::optional<Action> no_action;
  SessionDistance metric;
  const uint64_t token = metric.BindPool(values.size());
  std::vector<FlatContext> contexts(values.size());
  for (size_t id = 0; id < values.size(); ++id) {
    FlatContext::Node node;
    node.display.kind = DisplayKind::kAggregated;
    node.display.num_labels = 2;
    node.display.num_values = 2;
    node.display.num_rows = 10;
    node.display.owned_labels = labels.data();
    node.display.values = values[id].data();
    node.display_id = static_cast<int32_t>(id);
    node.incoming = &no_action;
    contexts[id].post = {node};
    contexts[id].keyroots = {0};
    contexts[id].pool = token;
  }

  // Pool ids 0 and 1 name content-equal displays: a real 0.0 distance.
  TedWorkspace probe;
  EXPECT_TRUE(SameBits(metric.TreeEditDistance(contexts[0], contexts[1],
                                               &probe),
                       0.0));
  for (int pass = 0; pass < 2; ++pass) {
    TedWorkspace ws, fresh_ws;
    const SessionDistance fresh;
    for (size_t i = 0; i < contexts.size(); ++i) {
      for (size_t j = i + 1; j < contexts.size(); ++j) {
        const double got =
            metric.TreeEditDistance(contexts[i], contexts[j], &ws);
        const double want =
            fresh.TreeEditDistance(contexts[i], contexts[j], &fresh_ws);
        EXPECT_TRUE(SameBits(got, want)) << pass << ": " << i << "," << j;
      }
    }
#if IDA_OBS_ENABLED
    // The second pass reads every pair back from the table.
    const size_t pairs = contexts.size() * (contexts.size() - 1) / 2;
    EXPECT_EQ(ws.tally.display_shared_hits, pass == 0 ? 1u : pairs);
    EXPECT_EQ(ws.tally.display_memo_lookups, 0u);
#endif
  }
}

// Workers racing over every pair of one pool: a Find either misses or
// returns the value's exact bits, and after the race every pair holds
// them. Runs under TSan in CI.
TEST(DisplayMemoTableTest, RacingStoresAndFindsAgreeBitwise) {
  const uint32_t pool_size = 256;
  internal::PoolDisplayMemo memo(1, pool_size);
  const auto value = [](uint32_t lo, uint32_t hi) {
    return std::sqrt(static_cast<double>(lo * 131 + hi));
  };
  constexpr uint32_t kWorkers = 4;
  std::atomic<bool> go{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      // Each worker starts at a different row, so the workers meet.
      for (uint32_t r = 0; r < pool_size; ++r) {
        const uint32_t hi = (r + t * pool_size / kWorkers) % pool_size;
        for (uint32_t lo = 0; lo < hi; ++lo) {
          double got = 0.0;
          if (!memo.Find(lo, hi, &got)) {
            memo.Store(lo, hi, value(lo, hi));
          } else if (!SameBits(got, value(lo, hi))) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  for (uint32_t hi = 1; hi < pool_size; ++hi) {
    for (uint32_t lo = 0; lo < hi; ++lo) {
      double got = -1.0;
      ASSERT_TRUE(memo.Find(lo, hi, &got)) << lo << "," << hi;
      EXPECT_TRUE(SameBits(got, value(lo, hi))) << lo << "," << hi;
    }
  }
}

// Workers of one pool id space meet the same pool displays for the first
// time at once: each profile slot is published once, every worker reads
// that one profile, and it equals a profile built directly from the view.
// A pool id outside the space has no slot.
TEST(DisplayProfileTest, RacingWorkersShareOneProfilePerPoolSlot) {
  const size_t pool_size = 64;
  std::vector<std::shared_ptr<const Display>> displays;
  for (size_t i = 0; i < pool_size; ++i) {
    InterestProfile p;
    p.column = "c" + std::to_string(i % 3);
    for (size_t j = 0; j <= i % 7; ++j) {
      p.labels.push_back("g" + std::to_string((i * 5 + j) % 11));
      p.values.push_back(static_cast<double>(i + j + 1));
    }
    displays.push_back(std::make_shared<Display>(
        DisplayKind::kAggregated, nullptr, std::move(p), 1000));
  }
  internal::PoolDisplayMemo memo(1, pool_size);
  constexpr size_t kWorkers = 4;
  std::vector<std::vector<const DisplayProfile*>> seen(
      kWorkers, std::vector<const DisplayProfile*>(pool_size, nullptr));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t id = 0; id < pool_size; ++id) {
        seen[t][id] =
            memo.Profile(static_cast<uint32_t>(id), displays[id]->View());
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  for (size_t id = 0; id < pool_size; ++id) {
    const DisplayProfile* got = seen[0][id];
    ASSERT_NE(got, nullptr) << id;
    for (size_t t = 1; t < kWorkers; ++t) EXPECT_EQ(seen[t][id], got) << id;
    const DisplayProfile want = MakeDisplayProfile(displays[id]->View());
    EXPECT_EQ(got->column, want.column);
    EXPECT_EQ(got->labels, want.labels);
    ASSERT_EQ(got->probs.size(), want.probs.size());
    for (size_t k = 0; k < want.probs.size(); ++k) {
      EXPECT_TRUE(SameBits(got->probs[k], want.probs[k])) << id;
    }
    EXPECT_TRUE(SameBits(got->entropy, want.entropy)) << id;
  }
  EXPECT_EQ(memo.Profile(static_cast<uint32_t>(pool_size),
                         displays[0]->View()),
            nullptr);
}

}  // namespace
}  // namespace ida
