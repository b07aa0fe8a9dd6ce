// Determinism and equivalence tests for the parallel distance engine
// (DESIGN.md §8): BuildDistanceMatrix must be bit-identical across thread
// counts, identical to the one-shot per-pair metric, and downstream LOOCV
// metrics must not depend on the worker count.
#include <vector>

#include <gtest/gtest.h>

#include "actions/executor.h"
#include "distance/ted.h"
#include "eval/loocv.h"
#include "offline/training.h"
#include "predict/knn.h"
#include "session/ncontext.h"
#include "synth/agent.h"
#include "synth/dataset.h"
#include "test_util.h"

namespace ida {
namespace {

// Synthetic n-context population carved from analyst sessions, sharing
// displays between overlapping contexts exactly as production data does.
std::vector<NContext> MakeContexts(size_t want) {
  std::vector<NContext> contexts;
  ActionExecutor exec;
  SynthDataset d = MakeScenarioDataset(ScenarioKind::kMalwareBeacon, 200, 3);
  for (uint64_t seed = 1; contexts.size() < want; ++seed) {
    AgentProfile profile;
    profile.min_steps = 5;
    profile.max_steps = 7;
    AnalystAgent agent(&d, profile, seed);
    auto tree = agent.RunSession("engine-test", "u", exec);
    if (!tree.ok()) continue;
    for (int t = 0; t <= tree->num_steps() && contexts.size() < want; ++t) {
      contexts.push_back(ExtractNContext(*tree, t, 5));
    }
  }
  return contexts;
}

std::vector<std::vector<double>> BuildWithThreads(
    const std::vector<NContext>& contexts, int threads) {
  SessionDistanceOptions options;
  options.num_threads = threads;
  return BuildDistanceMatrix(contexts, SessionDistance(options));
}

TEST(DistanceEngineTest, MatrixBitIdenticalAcrossThreadCounts) {
  const std::vector<NContext> contexts = MakeContexts(30);
  const auto serial = BuildWithThreads(contexts, 1);
  for (int threads : {2, 8}) {
    const auto parallel = BuildWithThreads(contexts, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      for (size_t j = 0; j < serial.size(); ++j) {
        // Bitwise equality — parallelism must not reorder any arithmetic.
        ASSERT_EQ(parallel[i][j], serial[i][j])
            << "threads=" << threads << " cell (" << i << "," << j << ")";
      }
    }
  }
}

TEST(DistanceEngineTest, MatrixMatchesPerPairMetricExactly) {
  std::vector<NContext> contexts = MakeContexts(20);
  // Two filters whose operands agree to nine decimals: equal displays,
  // unequal actions, although Action::Serialize prints both alike. The
  // pair's cell must read the action difference, not 0.
  ActionExecutor exec;
  SessionTree t("near-operands", "u", "packets",
                Display::MakeRoot(testing::PacketsTable()));
  for (double operand : {0.1234567891, 0.1234567894}) {
    ASSERT_TRUE(
        t.ApplyFrom(0, Action::Filter({{"length", CompareOp::kGe, operand}}),
                    exec)
            .ok());
  }
  const size_t near_a = contexts.size();
  contexts.push_back(ExtractNContext(t, 1, 2));
  contexts.push_back(ExtractNContext(t, 2, 2));
  SessionDistance metric;
  const auto matrix = BuildDistanceMatrix(contexts, metric);
  EXPECT_GT(matrix[near_a][near_a + 1], 0.0);
  for (size_t i = 0; i < contexts.size(); ++i) {
    EXPECT_EQ(matrix[i][i], 0.0);
    for (size_t j = i + 1; j < contexts.size(); ++j) {
      // The matrix and the one-shot path must agree bitwise in the
      // computed (upper-triangle) orientation; the lower triangle is a
      // mirror (the action ground metric itself is not symmetric, so only
      // one orientation is ever computed).
      ASSERT_EQ(matrix[i][j], metric.Distance(contexts[i], contexts[j]))
          << "cell (" << i << "," << j << ")";
      ASSERT_EQ(matrix[i][j], matrix[j][i]);
    }
  }
}

TEST(DistanceEngineTest, PreparedComputeMatchesOneShot) {
  const std::vector<NContext> contexts = MakeContexts(8);
  SessionDistance metric;
  TedWorkspace ws;
  std::vector<FlatContext> flat;
  for (const NContext& c : contexts) {
    flat.push_back(SessionDistance::Prepare(c));
  }
  for (size_t i = 0; i < contexts.size(); ++i) {
    for (size_t j = 0; j < contexts.size(); ++j) {
      ASSERT_EQ(metric.Distance(flat[i], flat[j], &ws),
                metric.Distance(contexts[i], contexts[j]));
    }
  }
}

TEST(DistanceEngineTest, LoocvMetricsIndependentOfThreadCount) {
  std::vector<NContext> contexts = MakeContexts(24);
  std::vector<TrainingSample> samples(contexts.size());
  for (size_t i = 0; i < contexts.size(); ++i) {
    samples[i].context = std::move(contexts[i]);
    samples[i].label = static_cast<int>(i % 4);
    samples[i].labels = {samples[i].label};
    samples[i].max_relative = 1.0;
  }
  std::vector<NContext> ctx_view;
  ctx_view.reserve(samples.size());
  for (const TrainingSample& s : samples) ctx_view.push_back(s.context);
  const auto dist = BuildWithThreads(ctx_view, 1);
  const std::vector<size_t> subset = AllIndices(samples.size());

  KnnOptions options;
  options.k = 5;
  const EvalMetrics serial =
      EvaluateKnnLoocv(samples, dist, subset, options, 4, /*num_threads=*/1);
  for (int threads : {2, 8}) {
    const EvalMetrics parallel =
        EvaluateKnnLoocv(samples, dist, subset, options, 4, threads);
    EXPECT_EQ(parallel.accuracy, serial.accuracy) << "threads=" << threads;
    EXPECT_EQ(parallel.macro_precision, serial.macro_precision);
    EXPECT_EQ(parallel.macro_recall, serial.macro_recall);
    EXPECT_EQ(parallel.macro_f1, serial.macro_f1);
    EXPECT_EQ(parallel.coverage, serial.coverage);
    EXPECT_EQ(parallel.predicted, serial.predicted);
    EXPECT_EQ(parallel.total, serial.total);
  }
}

TEST(DistanceEngineTest, PredictBatchMatchesSequentialPredict) {
  std::vector<NContext> contexts = MakeContexts(16);
  std::vector<NContext> queries(contexts.begin(), contexts.begin() + 4);
  std::vector<TrainingSample> train(contexts.size());
  for (size_t i = 0; i < contexts.size(); ++i) {
    train[i].context = std::move(contexts[i]);
    train[i].label = static_cast<int>(i % 3);
    train[i].labels = {train[i].label};
  }
  KnnOptions options;
  options.k = 3;
  for (int threads : {1, 4}) {
    SessionDistanceOptions dopts;
    dopts.num_threads = threads;
    IKnnClassifier model(train, SessionDistance(dopts), options);
    const std::vector<Prediction> batch = model.PredictBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      const Prediction one = model.Predict(queries[q]);
      EXPECT_EQ(batch[q].label, one.label) << "threads=" << threads;
      EXPECT_EQ(batch[q].confidence, one.confidence);
    }
  }
}

}  // namespace
}  // namespace ida
