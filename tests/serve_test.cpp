// Tests of the stateful advisor service (serve/session_manager.h):
// Advise/AdviseBatch bitwise-identical to the one-shot predictor on both
// the brute-force and indexed paths, session lifecycle error semantics,
// LRU eviction under a capacity bound, hot-reload epoch semantics (failed
// reloads change nothing; successful ones flip every shard), `ida.serve.*`
// metric recording, and a TSan-checked concurrent Append/Advise/reload mix.
#include "serve/session_manager.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "artifact_test_util.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "synth/generator.h"

namespace ida {
namespace {

ModelConfig ServeTestConfig(bool use_index) {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;  // keep every state: dense training set
  config.knn.distance_threshold = 0.25;
  config.use_index = use_index;
  return config;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(33))));
    for (bool use_index : {false, true}) {
      engine::Trainer trainer(ServeTestConfig(use_index));
      auto model = trainer.Fit(bench_->log, bench_->registry);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      ASSERT_GT(model->size(), 20u);
      (use_index ? indexed_model_ : brute_model_) =
          new engine::TrainedModel(std::move(*model));
    }
  }
  static void TearDownTestSuite() {
    delete brute_model_;
    delete indexed_model_;
    delete bench_;
  }

  static std::shared_ptr<const engine::Predictor> LoadPredictor(
      const engine::TrainedModel& model) {
    auto p = engine::Predictor::Load(model);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::make_shared<const engine::Predictor>(std::move(*p));
  }

  /// Replays `record` through `manager` (session id `sid`), checking the
  /// advice after every append against PredictState on a mirror tree.
  static void ReplayAndCheck(serve::SessionManager& manager,
                             const engine::Predictor& oracle,
                             const SessionRecord& record,
                             const std::string& sid) {
    auto table = bench_->registry.find(record.dataset_id);
    ASSERT_NE(table, bench_->registry.end());
    ASSERT_TRUE(manager.Open(sid, Display::MakeRoot(table->second)).ok());
    ActionExecutor exec;
    SessionTree mirror(sid, record.user_id, record.dataset_id,
                       Display::MakeRoot(table->second));
    // State S_0 first: Open-then-Advise with no appends.
    auto p0 = manager.Advise(sid);
    ASSERT_TRUE(p0.ok());
    Prediction q0 = oracle.PredictState(mirror, 0);
    EXPECT_EQ(p0->label, q0.label);
    // ida-lint: allow(float-eq): bitwise equivalence is the contract
    EXPECT_EQ(p0->confidence, q0.confidence);
    for (size_t i = 0; i < record.steps.size(); ++i) {
      auto node = manager.Append(sid, record.steps[i].first,
                                 record.steps[i].second);
      if (!node.ok()) break;  // replay failure: skip the rest, not a bug here
      ASSERT_TRUE(mirror
                      .ApplyFrom(record.steps[i].first, record.steps[i].second,
                                 exec)
                      .ok());
      auto p = manager.Advise(sid);
      ASSERT_TRUE(p.ok());
      Prediction q = oracle.PredictState(mirror, mirror.num_steps());
      EXPECT_EQ(p->label, q.label) << sid << " step " << i;
      // ida-lint: allow(float-eq): bitwise equivalence is the contract
      EXPECT_EQ(p->confidence, q.confidence) << sid << " step " << i;
    }
    EXPECT_TRUE(manager.Close(sid).ok());
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* brute_model_;
  static engine::TrainedModel* indexed_model_;
};

SynthBenchmark* ServeTest::bench_ = nullptr;
engine::TrainedModel* ServeTest::brute_model_ = nullptr;
engine::TrainedModel* ServeTest::indexed_model_ = nullptr;

TEST_F(ServeTest, AdviseMatchesOneShotBruteForce) {
  serve::SessionManager manager(LoadPredictor(*brute_model_));
  auto oracle = LoadPredictor(*brute_model_);
  for (size_t i = 0; i < 4 && i < bench_->log.size(); ++i) {
    ReplayAndCheck(manager, *oracle, bench_->log.records()[i],
                   "brute-" + std::to_string(i));
  }
}

TEST_F(ServeTest, AdviseMatchesOneShotIndexed) {
  serve::SessionManager manager(LoadPredictor(*indexed_model_));
  auto oracle = LoadPredictor(*indexed_model_);
  for (size_t i = 0; i < 4 && i < bench_->log.size(); ++i) {
    ReplayAndCheck(manager, *oracle, bench_->log.records()[i],
                   "indexed-" + std::to_string(i));
  }
}

// The indexed and brute services must agree with each other, session for
// session (the index is a pure accelerator).
TEST_F(ServeTest, IndexedServiceMatchesBruteService) {
  serve::SessionManager brute(LoadPredictor(*brute_model_));
  serve::SessionManager indexed(LoadPredictor(*indexed_model_));
  const SessionRecord& r = bench_->log.records()[0];
  auto table = bench_->registry.find(r.dataset_id);
  ASSERT_TRUE(brute.Open("s", Display::MakeRoot(table->second)).ok());
  ASSERT_TRUE(indexed.Open("s", Display::MakeRoot(table->second)).ok());
  for (const auto& [parent, action] : r.steps) {
    auto nb = brute.Append("s", parent, action);
    auto ni = indexed.Append("s", parent, action);
    ASSERT_EQ(nb.ok(), ni.ok());
    if (!nb.ok()) break;
    auto pb = brute.Advise("s");
    auto pi = indexed.Advise("s");
    ASSERT_TRUE(pb.ok());
    ASSERT_TRUE(pi.ok());
    EXPECT_EQ(pb->label, pi->label);
    // ida-lint: allow(float-eq): bitwise equivalence is the contract
    EXPECT_EQ(pb->confidence, pi->confidence);
  }
}

TEST_F(ServeTest, AdviseBatchMatchesIndividualAdvise) {
  serve::SessionManager manager(LoadPredictor(*indexed_model_));
  std::vector<std::string> ids;
  for (size_t i = 0; i < 6 && i < bench_->log.size(); ++i) {
    const SessionRecord& r = bench_->log.records()[i];
    const std::string sid = "batch-" + std::to_string(i);
    auto table = bench_->registry.find(r.dataset_id);
    ASSERT_TRUE(manager.Open(sid, Display::MakeRoot(table->second)).ok());
    // Grow each session a different number of steps for variety.
    for (size_t s = 0; s < r.steps.size() && s <= i; ++s) {
      if (!manager.Append(sid, r.steps[s].first, r.steps[s].second).ok()) {
        break;
      }
    }
    ids.push_back(sid);
  }
  std::vector<Prediction> individual;
  for (const std::string& sid : ids) {
    auto p = manager.Advise(sid);
    ASSERT_TRUE(p.ok());
    individual.push_back(*p);
  }
  auto batch = manager.AdviseBatch(ids);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ((*batch)[i].label, individual[i].label) << ids[i];
    // ida-lint: allow(float-eq): bitwise equivalence is the contract
    EXPECT_EQ((*batch)[i].confidence, individual[i].confidence) << ids[i];
  }
  // A missing id fails the whole batch with NotFound.
  ids.push_back("never-opened");
  auto bad = manager.AdviseBatch(ids);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST_F(ServeTest, LifecycleErrorSemantics) {
  serve::SessionManager manager(LoadPredictor(*brute_model_));
  const SessionRecord& r = bench_->log.records()[0];
  auto table = bench_->registry.find(r.dataset_id);
  EXPECT_EQ(manager.Open("s", nullptr).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(manager.Open("s", Display::MakeRoot(table->second)).ok());
  EXPECT_EQ(manager.Open("s", Display::MakeRoot(table->second)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(manager.Advise("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Append("ghost", 0, r.steps[0].second).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(manager.Close("ghost").code(), StatusCode::kNotFound);
  EXPECT_TRUE(manager.Close("s").ok());
  EXPECT_EQ(manager.Close("s").code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.live_sessions(), 0u);
  // An invalid parent id surfaces the tree's error, session stays live.
  ASSERT_TRUE(manager.Open("s2", Display::MakeRoot(table->second)).ok());
  EXPECT_FALSE(manager.Append("s2", 99, r.steps[0].second).ok());
  EXPECT_TRUE(manager.Advise("s2").ok());
}

TEST_F(ServeTest, LruEvictionUnderCapacity) {
  serve::ServeOptions options;
  options.num_shards = 1;  // deterministic victim order
  options.max_live_sessions = 3;
  serve::SessionManager manager(LoadPredictor(*brute_model_), options);
  const SessionRecord& r = bench_->log.records()[0];
  auto table = bench_->registry.find(r.dataset_id);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager
                    .Open("s" + std::to_string(i),
                          Display::MakeRoot(table->second))
                    .ok());
  }
  // Touch s0 so s1 becomes the least recently used.
  ASSERT_TRUE(manager.Advise("s0").ok());
  ASSERT_TRUE(manager.Open("s3", Display::MakeRoot(table->second)).ok());
  EXPECT_EQ(manager.live_sessions(), 3u);
  EXPECT_EQ(manager.Info().evictions, 1u);
  // The evicted session is gone; the touched one survived.
  EXPECT_EQ(manager.Advise("s1").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(manager.Advise("s0").ok());
  EXPECT_TRUE(manager.Advise("s2").ok());
  EXPECT_TRUE(manager.Advise("s3").ok());
}

TEST_F(ServeTest, HotReloadEpochSemantics) {
  serve::SessionManager manager(LoadPredictor(*brute_model_));
  EXPECT_EQ(manager.epoch(), 1u);
  const SessionRecord& r = bench_->log.records()[0];
  auto table = bench_->registry.find(r.dataset_id);
  ASSERT_TRUE(manager.Open("s", Display::MakeRoot(table->second)).ok());
  for (const auto& [parent, action] : r.steps) {
    if (!manager.Append("s", parent, action).ok()) break;
  }
  // A reload from a nonexistent artifact fails and changes nothing.
  EXPECT_FALSE(manager.ReloadFromFile("/nonexistent/model.idamodel").ok());
  EXPECT_EQ(manager.epoch(), 1u);
  auto before = manager.Advise("s");
  ASSERT_TRUE(before.ok());
  // Swap in the indexed model: epoch bumps, the open session keeps its
  // state, and advice now comes from the new predictor — which here must
  // agree bitwise (index is a pure accelerator over the same training set).
  ASSERT_TRUE(manager.Reload(*indexed_model_).ok());
  EXPECT_EQ(manager.epoch(), 2u);
  auto after = manager.Advise("s");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->label, before->label);
  // ida-lint: allow(float-eq): bitwise equivalence is the contract
  EXPECT_EQ(after->confidence, before->confidence);
  // A reload that changes n invalidates the maintained contexts: the next
  // Advise re-extracts under the new n and must equal the one-shot answer.
  ModelConfig wide = ServeTestConfig(false);
  wide.n_context_size = 5;
  auto wide_model = engine::Trainer(wide).Fit(bench_->log, bench_->registry);
  ASSERT_TRUE(wide_model.ok());
  ASSERT_TRUE(manager.Reload(*wide_model).ok());
  EXPECT_EQ(manager.epoch(), 3u);
  auto wide_oracle = engine::Predictor::Load(*wide_model);
  ASSERT_TRUE(wide_oracle.ok());
  ActionExecutor exec;
  SessionTree mirror("s", r.user_id, r.dataset_id,
                     Display::MakeRoot(table->second));
  for (const auto& [parent, action] : r.steps) {
    if (!mirror.ApplyFrom(parent, action, exec).ok()) break;
  }
  auto wide_p = manager.Advise("s");
  ASSERT_TRUE(wide_p.ok());
  Prediction wide_q = wide_oracle->PredictState(mirror, mirror.num_steps());
  EXPECT_EQ(wide_p->label, wide_q.label);
  // ida-lint: allow(float-eq): bitwise equivalence is the contract
  EXPECT_EQ(wide_p->confidence, wide_q.confidence);
}

TEST_F(ServeTest, ReloadFromFileServesTheArtifactZeroCopy) {
  // A successful file reload bumps the epoch by one, and the new epoch
  // answers bitwise as a Predictor::LoadFromFile of the same file does.
  testing::TempArtifact file;
  ASSERT_TRUE(indexed_model_->SaveToFile(file.path()).ok());
  serve::SessionManager manager(LoadPredictor(*brute_model_));
  ASSERT_TRUE(manager.ReloadFromFile(file.path()).ok());
  EXPECT_EQ(manager.epoch(), 2u);
  EXPECT_TRUE(manager.predictor()->config().use_index);
  auto oracle = engine::Predictor::LoadFromFile(file.path());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  for (size_t i = 0; i < 4 && i < bench_->log.size(); ++i) {
    ReplayAndCheck(manager, *oracle, bench_->log.records()[i],
                   "s" + std::to_string(i));
  }
}

TEST_F(ServeTest, ReloadFromFileVerifiesEverySectionChecksum) {
  // One flipped byte in a bulk section, directory intact: the lazy cold
  // load accepts it (a changed profile value changes a distance, not
  // memory safety), but a hot reload verifies every section and must
  // reject it, leaving the served epoch untouched.
  std::string bytes = indexed_model_->Serialize();
  const engine::v4::SectionEntry dbl = testing::ReadEntry(
      bytes, testing::FindEntryIndex(bytes, engine::v4::kTagDblHeap));
  ASSERT_GT(dbl.length, 0u);
  bytes[dbl.offset + dbl.length / 2] ^= 0x5A;
  testing::TempArtifact file(bytes);
  EXPECT_TRUE(engine::Predictor::LoadFromFile(file.path()).ok());

  serve::SessionManager manager(LoadPredictor(*brute_model_));
  const Status reload = manager.ReloadFromFile(file.path());
  ASSERT_FALSE(reload.ok());
  EXPECT_NE(reload.message().find("checksum mismatch"), std::string::npos)
      << reload.ToString();
  EXPECT_EQ(manager.epoch(), 1u);
  EXPECT_FALSE(manager.predictor()->config().use_index);
}

TEST_F(ServeTest, ServeMetricsAreRecorded) {
  obs::MetricsRegistry registry;
  obs::ObsConfig obs;
  obs.registry = &registry;
  serve::ServeOptions options;
  options.num_shards = 2;
  serve::SessionManager manager(LoadPredictor(*brute_model_), options, obs);
  const SessionRecord& r = bench_->log.records()[0];
  auto table = bench_->registry.find(r.dataset_id);
  ASSERT_TRUE(manager.Open("a", Display::MakeRoot(table->second)).ok());
  ASSERT_TRUE(manager.Open("b", Display::MakeRoot(table->second)).ok());
  ASSERT_TRUE(manager.Append("a", 0, r.steps[0].second).ok());
  ASSERT_TRUE(manager.Advise("a").ok());
  ASSERT_TRUE(manager.AdviseBatch({"a", "b"}).ok());
  ASSERT_TRUE(manager.Reload(*indexed_model_).ok());
  ASSERT_TRUE(manager.Close("b").ok());
  const std::string json = registry.Snapshot().ToJson();
#if !IDA_OBS_ENABLED
  // Compiled-out stubs record nothing; the calls above still exercise the
  // serving paths with an ObsConfig attached.
  EXPECT_EQ(json.find("ida.serve.opens"), std::string::npos) << json;
#else
  EXPECT_NE(json.find("\"ida.serve.opens\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ida.serve.appends\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ida.serve.advises\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"ida.serve.batch_calls\""), std::string::npos);
  EXPECT_NE(json.find("\"ida.serve.batch_queries\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ida.serve.reloads\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ida.serve.closes\": 1"), std::string::npos);
  EXPECT_NE(json.find("ida.serve.live_sessions"), std::string::npos);
  EXPECT_NE(json.find("ida.serve.advise_seconds"), std::string::npos);
  EXPECT_NE(json.find("ida.serve.append_seconds"), std::string::npos);
#endif
}

// The TSan target (ctest -R Concurrent / CI thread-sanitizer job): many
// threads appending and advising their own sessions, a reload thread
// swapping models underneath, and a roaming batch thread. Assertions are
// deliberately light — the point is a data-race-free interleaving.
TEST_F(ServeTest, ConcurrentAppendAdviseReload) {
  serve::ServeOptions options;
  options.num_shards = 4;
  serve::SessionManager manager(LoadPredictor(*brute_model_), options);
  constexpr int kWorkers = 4;
  std::vector<std::string> ids;
  for (int w = 0; w < kWorkers; ++w) {
    ids.push_back("w" + std::to_string(w));
  }
  for (int w = 0; w < kWorkers; ++w) {
    const SessionRecord& r =
        bench_->log.records()[static_cast<size_t>(w) % bench_->log.size()];
    auto table = bench_->registry.find(r.dataset_id);
    ASSERT_TRUE(manager.Open(ids[static_cast<size_t>(w)],
                             Display::MakeRoot(table->second))
                    .ok());
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      const SessionRecord& r =
          bench_->log.records()[static_cast<size_t>(w) % bench_->log.size()];
      const std::string& sid = ids[static_cast<size_t>(w)];
      for (const auto& [parent, action] : r.steps) {
        if (!manager.Append(sid, parent, action).ok()) break;
        auto p = manager.Advise(sid);
        EXPECT_TRUE(p.ok());
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(
          manager.Reload(i % 2 == 0 ? *indexed_model_ : *brute_model_).ok());
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      auto batch = manager.AdviseBatch(ids);
      EXPECT_TRUE(batch.ok());
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(manager.epoch(), 7u);
  EXPECT_EQ(manager.live_sessions(), static_cast<size_t>(kWorkers));
}

}  // namespace
}  // namespace ida

