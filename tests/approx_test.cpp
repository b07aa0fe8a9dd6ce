// The opt-in approximate serving mode (DESIGN.md §13, ModelConfig::approx):
// inflating the filter cascade's lower bounds by (1 + epsilon) may only
// trade recall for pruning, under three pinned contracts:
//
//  * Measured label-level recall versus the exact path meets the
//    configured recall target on the benchmark workload.
//  * A recall target of 1.0 demands exactness: the inflation factor
//    degenerates to exactly 1.0 and serving is bitwise the exact path.
//  * Approximation never does MORE work: per-query exact-TED counts are
//    <= the exact path's, on both the indexed and brute serving paths.
//
// Plus the config/artifact plumbing: validation rejects malformed knobs,
// and the version-3 artifact round-trips them.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "artifact_test_util.h"
#include "engine/engine.h"
#include "engine/model.h"
#include "synth/generator.h"

namespace ida {
namespace {

ModelConfig ApproxTestConfig() {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;  // keep every state
  config.knn.distance_threshold = 0.25;
  return config;
}

// One trained (indexed) model per suite; serving twins reuse its samples.
class ApproxServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(47))));
    engine::Trainer trainer(ApproxTestConfig());
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

  // The same training set re-wrapped with different serving knobs.
  static engine::TrainedModel Twin(bool use_index, ApproxOptions approx) {
    ModelConfig config = ApproxTestConfig();
    config.use_index = use_index;
    config.approx = approx;
    return engine::TrainedModel(config, model_->samples(),
                                use_index ? model_->index() : nullptr);
  }

  // A direct classifier over the model's samples, for per-query stats.
  static IKnnClassifier Classifier(bool use_index, ApproxOptions approx) {
    ModelConfig config = ApproxTestConfig();
    return IKnnClassifier(model_->samples(),
                          SessionDistance(config.distance), config.knn,
                          use_index ? model_->index() : nullptr, approx);
  }

  static std::vector<NContext> Queries() {
    std::vector<NContext> q;
    for (const TrainingSample& s : model_->samples()) q.push_back(s.context);
    return q;
  }

  static ApproxOptions Lossy() {
    ApproxOptions approx;
    approx.enabled = true;
    approx.epsilon = 0.25;
    approx.recall_target = 0.9;
    return approx;
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
};

SynthBenchmark* ApproxServingTest::bench_ = nullptr;
engine::TrainedModel* ApproxServingTest::model_ = nullptr;

TEST_F(ApproxServingTest, MeasuredRecallMeetsTheConfiguredTarget) {
  const ApproxOptions approx = Lossy();
  auto exact = engine::Predictor::Load(*model_);
  auto lossy = engine::Predictor::Load(Twin(/*use_index=*/true, approx));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(lossy.ok());
  std::vector<NContext> queries = Queries();
  size_t exact_predicted = 0;
  size_t agreed = 0;
  for (const NContext& q : queries) {
    Prediction pe = exact->Predict(q);
    Prediction pa = lossy->Predict(q);
    if (!pe.HasPrediction()) continue;  // recall is over exact predictions
    ++exact_predicted;
    if (pa.label == pe.label) ++agreed;
  }
  ASSERT_GT(exact_predicted, 50u);  // the measurement must be meaningful
  const double recall = static_cast<double>(agreed) /
                        static_cast<double>(exact_predicted);
  EXPECT_GE(recall, approx.recall_target)
      << "measured recall " << recall << " (agreed " << agreed << " / "
      << exact_predicted << ")";
}

TEST_F(ApproxServingTest, RecallTargetOneDegeneratesToBitwiseExact) {
  // enabled + recall_target 1.0: the inflation factor is exactly 1.0,
  // multiplying by it is an IEEE identity, so every prediction — label
  // AND confidence double — matches the exact path bitwise, on both
  // serving paths, even with an aggressive epsilon configured.
  ApproxOptions approx;
  approx.enabled = true;
  approx.epsilon = 0.5;
  approx.recall_target = 1.0;
  EXPECT_EQ(approx.BoundInflation(), 1.0);
  auto exact = engine::Predictor::Load(*model_);
  auto indexed = engine::Predictor::Load(Twin(/*use_index=*/true, approx));
  auto brute = engine::Predictor::Load(Twin(/*use_index=*/false, approx));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(brute.ok());
  std::vector<NContext> queries = Queries();
  size_t predicted = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    Prediction pe = exact->Predict(queries[qi]);
    Prediction pi = indexed->Predict(queries[qi]);
    Prediction pb = brute->Predict(queries[qi]);
    EXPECT_EQ(pi.label, pe.label) << "query " << qi;
    EXPECT_EQ(pi.confidence, pe.confidence) << "query " << qi;  // bitwise
    EXPECT_EQ(pb.label, pe.label) << "query " << qi;
    EXPECT_EQ(pb.confidence, pe.confidence) << "query " << qi;  // bitwise
    if (pe.HasPrediction()) ++predicted;
  }
  EXPECT_GT(predicted, 0u);
}

TEST_F(ApproxServingTest, ApproxNeverEvaluatesMoreExactDistances) {
  // Inflated bounds can only prune a superset of what exact bounds prune,
  // so per-query exact-TED work is monotonically non-increasing — the
  // whole point of the knob. Checked per query on both serving paths.
  const ApproxOptions approx = Lossy();
  for (bool use_index : {true, false}) {
    IKnnClassifier exact = Classifier(use_index, ApproxOptions{});
    IKnnClassifier lossy = Classifier(use_index, approx);
    std::vector<NContext> queries = Queries();
    uint64_t exact_teds = 0;
    uint64_t lossy_teds = 0;
    for (const NContext& q : queries) {
      PredictStats se, sa;
      exact.Predict(q, &se);
      lossy.Predict(q, &sa);
      EXPECT_LE(sa.index.exact_teds, se.index.exact_teds);
      exact_teds += se.index.exact_teds;
      lossy_teds += sa.index.exact_teds;
    }
    EXPECT_GT(exact_teds, 0u);
    // And on this workload the inflation actually buys pruning.
    EXPECT_LT(lossy_teds, exact_teds) << "use_index=" << use_index;
  }
}

TEST_F(ApproxServingTest, ArtifactRoundTripsTheApproxKnobs) {
  // The artifact carries the knobs; a reloaded lossy model serves with
  // them, and answers exactly as the in-memory lossy model does.
  engine::TrainedModel lossy = Twin(/*use_index=*/true, Lossy());
  auto reloaded = testing::LoadBytes(lossy.Serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded->config().approx.enabled);
  EXPECT_EQ(reloaded->config().approx.epsilon, Lossy().epsilon);
  EXPECT_EQ(reloaded->config().approx.recall_target, Lossy().recall_target);
  auto in_memory = engine::Predictor::Load(lossy);
  ASSERT_TRUE(in_memory.ok());
  for (const NContext& q : Queries()) {
    const Prediction a = in_memory->Predict(q);
    const Prediction b = reloaded->Predict(q);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.confidence, b.confidence);  // bitwise
  }
}

TEST(ApproxConfig, ValidationRejectsMalformedKnobs) {
  ModelConfig config = DefaultNormalizedConfig();
  config.approx.enabled = true;
  config.approx.epsilon = -0.1;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config.approx.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config.approx.epsilon = 0.1;
  config.approx.recall_target = 1.5;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config.approx.recall_target = -0.5;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config.approx.recall_target = 0.95;
  EXPECT_TRUE(engine::ValidateConfig(config).ok());
}

}  // namespace
}  // namespace ida
