// The tentpole acceptance property (DESIGN.md §11): serving through the
// VP-tree index is *bitwise* identical to the brute-force scan — same
// label, same confidence double — for every entry point (Predict,
// PredictBatch, LOOCV) and every thread count, over randomized synthetic
// session logs. The index may only change how much work is done, never
// what is computed.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "synth/generator.h"

namespace ida {
namespace {

ModelConfig EquivConfig(int num_threads, bool use_index) {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;  // keep every state
  config.knn.distance_threshold = 0.25;
  config.distance.num_threads = num_threads;
  config.use_index = use_index;
  return config;
}

// Trains one indexed model per suite; brute-force twins reuse its samples.
class IndexEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(11))));
    engine::Trainer trainer(EquivConfig(1, /*use_index=*/true));
    auto model = trainer.Fit(bench_->log, bench_->registry);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_GT(model->size(), 30u);
    ASSERT_NE(model->index(), nullptr);
    model_ = new engine::TrainedModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete bench_;
  }

  // The same training set re-wrapped for a different serving mode.
  static engine::TrainedModel Twin(int num_threads, bool use_index) {
    return engine::TrainedModel(EquivConfig(num_threads, use_index),
                                model_->samples(),
                                use_index ? model_->index() : nullptr);
  }

  static std::vector<NContext> Queries() {
    std::vector<NContext> q;
    for (const TrainingSample& s : model_->samples()) q.push_back(s.context);
    return q;
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
};

SynthBenchmark* IndexEquivalenceTest::bench_ = nullptr;
engine::TrainedModel* IndexEquivalenceTest::model_ = nullptr;

void ExpectBitwiseEqual(const Prediction& a, const Prediction& b,
                        size_t qi) {
  EXPECT_EQ(a.label, b.label) << "query " << qi;
  EXPECT_EQ(a.confidence, b.confidence) << "query " << qi;  // bitwise
}

TEST_F(IndexEquivalenceTest, PredictIsBitwiseIdenticalToBruteForce) {
  auto indexed = engine::Predictor::Load(*model_);
  auto brute = engine::Predictor::Load(Twin(1, /*use_index=*/false));
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(brute.ok());
  std::vector<NContext> queries = Queries();
  size_t predicted = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    Prediction pi = indexed->Predict(queries[qi]);
    Prediction pb = brute->Predict(queries[qi]);
    ExpectBitwiseEqual(pi, pb, qi);
    if (pi.HasPrediction()) ++predicted;
  }
  EXPECT_GT(predicted, 0u);  // the property is vacuous if everything abstains
}

TEST_F(IndexEquivalenceTest, PredictBatchIsThreadCountInvariant) {
  auto serial = engine::Predictor::Load(Twin(1, /*use_index=*/true));
  auto threaded = engine::Predictor::Load(Twin(4, /*use_index=*/true));
  auto brute = engine::Predictor::Load(Twin(4, /*use_index=*/false));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  ASSERT_TRUE(brute.ok());
  std::vector<NContext> queries = Queries();
  std::vector<Prediction> a = serial->PredictBatch(queries);
  std::vector<Prediction> b = threaded->PredictBatch(queries);
  std::vector<Prediction> c = brute->PredictBatch(queries);
  ASSERT_EQ(a.size(), queries.size());
  ASSERT_EQ(b.size(), queries.size());
  ASSERT_EQ(c.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectBitwiseEqual(a[qi], b[qi], qi);
    ExpectBitwiseEqual(a[qi], c[qi], qi);
    // Batch output is defined as identical to per-query Predict.
    ExpectBitwiseEqual(a[qi], serial->Predict(queries[qi]), qi);
  }
}

TEST_F(IndexEquivalenceTest, LoocvReportsAreIdenticalIndexedVsBrute) {
  auto indexed = engine::EvaluateLoocv(*model_);
  auto brute = engine::EvaluateLoocv(Twin(1, /*use_index=*/false));
  auto threaded = engine::EvaluateLoocv(Twin(4, /*use_index=*/true));
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(threaded.ok());
  for (const auto* other : {&*brute, &*threaded}) {
    EXPECT_EQ(indexed->samples, other->samples);
    EXPECT_EQ(indexed->knn.accuracy, other->knn.accuracy);
    EXPECT_EQ(indexed->knn.macro_precision, other->knn.macro_precision);
    EXPECT_EQ(indexed->knn.macro_recall, other->knn.macro_recall);
    EXPECT_EQ(indexed->knn.macro_f1, other->knn.macro_f1);
    EXPECT_EQ(indexed->knn.coverage, other->knn.coverage);
    EXPECT_EQ(indexed->knn.predicted, other->knn.predicted);
    EXPECT_EQ(indexed->knn.total, other->knn.total);
    EXPECT_EQ(indexed->best_sm.accuracy, other->best_sm.accuracy);
    EXPECT_EQ(indexed->random.accuracy, other->random.accuracy);
  }
  EXPECT_GT(indexed->knn.predicted, 0u);
}

TEST_F(IndexEquivalenceTest, AlienQueriesAgreeOnAbstention) {
  // Contexts from a differently-seeded benchmark exercise the abstention
  // and far-neighbor paths; both serving modes must still agree bitwise.
  auto other = GenerateBenchmark(SmallGeneratorOptions(77));
  ASSERT_TRUE(other.ok());
  engine::Trainer trainer(EquivConfig(1, /*use_index=*/false));
  auto alien = trainer.Fit(other->log, other->registry);
  ASSERT_TRUE(alien.ok());
  auto indexed = engine::Predictor::Load(*model_);
  auto brute = engine::Predictor::Load(Twin(1, /*use_index=*/false));
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(brute.ok());
  for (size_t qi = 0; qi < alien->size(); ++qi) {
    ExpectBitwiseEqual(indexed->Predict(alien->samples()[qi].context),
                       brute->Predict(alien->samples()[qi].context), qi);
  }
}

TEST(IndexEquivalenceSeeds, LoocvAgreesUnderAsymmetricFilterDistances) {
  // Regression: the filter-predicate ground distance is asymmetric, so a
  // LOOCV routed through the mirrored offline distance matrix disagrees
  // with the directional serving distances on some pairs. This generator
  // and config (the quickstart's shape) hit such a pair: one of the 238
  // answered queries flipped its label before EvaluateLoocv was unified
  // on the serving classifier for both modes.
  GeneratorOptions options;
  options.num_users = 16;
  options.num_sessions = 160;
  options.rows_per_dataset = 1500;
  options.seed = 42;
  auto bench = GenerateBenchmark(options);
  ASSERT_TRUE(bench.ok());
  ModelConfig config = DefaultNormalizedConfig();
  config.theta_interest = 1.0;
  config.knn.distance_threshold = 0.2;
  engine::Trainer trainer(config);
  auto model = trainer.Fit(bench->log, bench->registry);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ASSERT_NE(model->index(), nullptr);
  ModelConfig brute_config = config;
  brute_config.use_index = false;
  engine::TrainedModel brute_model(brute_config, model->samples(), nullptr);
  auto indexed = engine::EvaluateLoocv(*model);
  auto brute = engine::EvaluateLoocv(brute_model);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(indexed->knn.accuracy, brute->knn.accuracy);
  EXPECT_EQ(indexed->knn.macro_f1, brute->knn.macro_f1);
  EXPECT_EQ(indexed->knn.coverage, brute->knn.coverage);
  EXPECT_EQ(indexed->knn.predicted, brute->knn.predicted);
  EXPECT_GT(indexed->knn.predicted, 0u);
}

TEST(IndexEquivalenceSeeds, RandomizedLogsStayEquivalent) {
  // Fresh benchmark + fresh model per seed and context size: train
  // indexed, serve both ways, compare every training-context prediction
  // bitwise. n = 3 contexts are paths; n = 11 contexts branch, which is
  // where the search's bounds are least tight.
  for (const int n : {3, 11}) {
    size_t branched = 0;
    for (uint64_t seed : {5u, 99u}) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", seed " +
                   std::to_string(seed));
      auto bench = GenerateBenchmark(SmallGeneratorOptions(seed));
      ASSERT_TRUE(bench.ok());
      ModelConfig config = EquivConfig(1, /*use_index=*/true);
      config.n_context_size = n;
      engine::Trainer trainer(config);
      auto model = trainer.Fit(bench->log, bench->registry);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      ASSERT_NE(model->index(), nullptr);
      config.use_index = false;
      engine::TrainedModel brute_model(config, model->samples(), nullptr);
      auto indexed = engine::Predictor::Load(*model);
      auto brute = engine::Predictor::Load(brute_model);
      ASSERT_TRUE(indexed.ok());
      ASSERT_TRUE(brute.ok());
      for (size_t qi = 0; qi < model->size(); ++qi) {
        const NContext& query = model->samples()[qi].context;
        ExpectBitwiseEqual(indexed->Predict(query), brute->Predict(query),
                           qi);
        if (SessionDistance::Prepare(query).keyroots.size() > 1) ++branched;
      }
    }
    // A context with more than one keyroot has a node with two children.
    if (n == 11) {
      EXPECT_GT(branched, 0u);
    }
  }
}

}  // namespace
}  // namespace ida
