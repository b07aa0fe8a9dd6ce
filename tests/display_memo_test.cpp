// Tests of the display-distance memo of a pool id space
// (internal::PoolDisplayMemo, bound by SessionDistance::BindPool): live
// sessions and workers of one model share pool-pair distances, two id
// spaces never see each other's entries, admission stops at the pool's
// pair count, and none of it changes a single bit of any answer. The
// memo's display profiles are published once per pool slot. The
// cross-thread cases run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
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
// out as `chains` path-shaped contexts of `length` nodes each. Every
// cross-context node pair is a distinct pool pair.
struct ChainPool {
  std::vector<std::vector<std::string>> labels;
  std::vector<std::vector<double>> values;
  std::vector<FlatContext> contexts;
  std::optional<Action> no_action;

  ChainPool(size_t chains, size_t length) {
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
        node.display_id = static_cast<int32_t>(id);
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

TEST(DisplayMemoCapacityTest, CapacityIsThePoolPairCount) {
  EXPECT_EQ(internal::PoolDisplayMemo(1, 0).capacity(), 0u);
  EXPECT_EQ(internal::PoolDisplayMemo(1, 1).capacity(), 0u);
  EXPECT_EQ(internal::PoolDisplayMemo(1, 2).capacity(), 1u);
  EXPECT_EQ(internal::PoolDisplayMemo(1, 685).capacity(), 234270u);
  EXPECT_EQ(internal::PoolDisplayMemo(1, 1633).capacity(), 1332528u);

  const size_t pool_size = 100;
  internal::PoolDisplayMemo memo(1, pool_size);
  ASSERT_EQ(memo.capacity(), pool_size * (pool_size - 1) / 2);
  // Every pair of the pool is admitted.
  for (uint64_t lo = 0; lo < pool_size; ++lo) {
    for (uint64_t hi = lo + 1; hi < pool_size; ++hi) {
      memo.Insert((lo << 32) | hi, static_cast<double>(lo * pool_size + hi));
    }
  }
  for (uint64_t lo = 0; lo < pool_size; ++lo) {
    for (uint64_t hi = lo + 1; hi < pool_size; ++hi) {
      double value = -1.0;
      ASSERT_TRUE(memo.Find((lo << 32) | hi, &value)) << lo << "," << hi;
      EXPECT_TRUE(
          SameBits(value, static_cast<double>(lo * pool_size + hi)));
    }
  }
  // The memo is full: a key outside the pool's pair space is refused.
  const uint64_t outside = (uint64_t{7} << 32) | pool_size;
  memo.Insert(outside, 1.0);
  double value = -1.0;
  EXPECT_FALSE(memo.Find(outside, &value));
}

TEST(DisplayMemoCapacityTest, RacingInsertsNeverPassTheCap) {
  internal::PoolDisplayMemo memo(1, 64);  // capacity 2016
  const uint64_t per_thread = 2 * memo.capacity();
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 3; ++t) {
    threads.emplace_back([&memo, t, per_thread] {
      for (uint64_t k = 0; k < per_thread; ++k) {
        memo.Insert(t * per_thread + k + 1, 1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  size_t admitted = 0;
  for (uint64_t k = 1; k <= 3 * per_thread; ++k) {
    double value;
    if (memo.Find(k, &value)) ++admitted;
  }
  EXPECT_EQ(admitted, memo.capacity());
}

// Drives a bound metric's memo past its cap. The cap is the pool's pair
// count, which no real pair of the pool can pass, so the metric is bound
// to a pool declared half the size of the one its contexts index: the
// pass meets more distinct pairs than the memo admits. The memo keeps
// exactly `capacity()` of them, and every distance, served from the memo
// or recomputed past the cap, has the bits a fresh, unbound metric
// computes.
TEST(DisplayMemoCapacityTest, DistancesUnchangedPastTheCap) {
  const size_t chains = 16, length = 8;
  ChainPool pool(chains, length);
  SessionDistance metric;
  pool.Stamp(metric.BindPool(pool.size() / 2));
  const size_t cap = internal::PoolDisplayMemo(0, pool.size() / 2).capacity();
  const size_t pairs = chains * (chains - 1) / 2 * length * length;
  ASSERT_GT(pairs, cap);

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
#endif
  }
  // Second pass on an empty L1: admitted pairs come from the memo, the
  // rest are recomputed; a fresh metric checks the bits.
  TedWorkspace ws, fresh_ws;
  const SessionDistance fresh;
  size_t p = 0;
  for (size_t i = 0; i < chains; ++i) {
    for (size_t j = i + 1; j < chains; ++j, ++p) {
      const double again =
          metric.TreeEditDistance(pool.contexts[i], pool.contexts[j], &ws);
      ASSERT_TRUE(SameBits(again, first[p])) << i << "," << j;
      if (p % 16 == 0) {
        const double want = fresh.TreeEditDistance(
            pool.contexts[i], pool.contexts[j], &fresh_ws);
        ASSERT_TRUE(SameBits(first[p], want)) << i << "," << j;
      }
    }
  }
#if IDA_OBS_ENABLED
  // Each pair appears once per pass: the memo held exactly `cap` of them.
  EXPECT_EQ(ws.tally.display_shared_hits, cap);
  EXPECT_EQ(ws.tally.display_computes, pairs - cap);
#endif
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
