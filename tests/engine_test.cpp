// Tests of the engine train/serve facade and the model artifact: Fit
// equivalence with the manual pipeline, bitwise-identical predictions
// after a save/load round trip, rejection of truncated/corrupt/mismatched
// artifacts, atomic artifact replacement, and thread-safe serving.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "artifact_test_util.h"
#include "engine/artifact_v4.h"
#include "eval/loocv.h"
#include "synth/generator.h"

namespace ida {
namespace {

using testing::FindEntryIndex;
using testing::FixSectionChecksum;
using testing::LoadBytes;
using testing::ReadEntry;
using testing::TempArtifact;

ModelConfig TestConfig() {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;  // keep every state: bigger round trip
  config.knn.distance_threshold = 0.25;
  return config;
}

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(std::move(*GenerateBenchmark(
        SmallGeneratorOptions(33))));
    engine::Trainer trainer(TestConfig());
    auto model = trainer.Fit(bench_->log, bench_->registry, &report_);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_GT(model->size(), 20u);
    model_ = new engine::TrainedModel(std::move(*model));

    // A query workload: the n-context of every state of a few sessions.
    auto repo = engine::Replay(bench_->log, bench_->registry);
    ASSERT_TRUE(repo.ok());
    queries_ = new std::vector<NContext>;
    for (size_t ti = 0; ti < 3 && ti < repo->trees().size(); ++ti) {
      const SessionTree& tree = repo->trees()[ti];
      for (int t = 0; t <= tree.num_steps(); ++t) {
        queries_->push_back(
            ExtractNContext(tree, t, TestConfig().n_context_size));
      }
    }
    ASSERT_FALSE(queries_->empty());
  }
  static void TearDownTestSuite() {
    delete queries_;
    delete model_;
    delete bench_;
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
  static engine::TrainReport report_;
  static std::vector<NContext>* queries_;
};

SynthBenchmark* EngineTest::bench_ = nullptr;
engine::TrainedModel* EngineTest::model_ = nullptr;
engine::TrainReport EngineTest::report_;
std::vector<NContext>* EngineTest::queries_ = nullptr;

TEST_F(EngineTest, FitMatchesManualPipeline) {
  // The facade must produce exactly the training set of the hand-wired
  // replay -> label -> BuildTrainingSet flow it refactored.
  ModelConfig config = TestConfig();
  auto repo = engine::Replay(bench_->log, bench_->registry);
  ASSERT_TRUE(repo.ok());
  auto labeler = engine::MakeLabeler(config, *repo);
  ASSERT_TRUE(labeler.ok());
  auto labeled = LabelRepository(*repo, labeler->get());
  ASSERT_TRUE(labeled.ok());
  auto manual = BuildTrainingSetFromLabels(*repo, *labeled,
                                           config.n_context_size,
                                           config.theta_interest,
                                           config.training);
  ASSERT_TRUE(manual.ok());
  ASSERT_EQ(manual->size(), model_->size());
  for (size_t i = 0; i < manual->size(); ++i) {
    EXPECT_EQ((*manual)[i].label, model_->samples()[i].label);
    EXPECT_EQ((*manual)[i].context.Fingerprint(),
              model_->samples()[i].context.Fingerprint());
  }
}

TEST_F(EngineTest, TrainReportIsFilled) {
  EXPECT_EQ(report_.sessions_replayed, bench_->log.size());
  EXPECT_GT(report_.steps_labeled, 0u);
  EXPECT_GT(report_.training.states_considered, 0u);
  EXPECT_GT(report_.total_seconds, 0.0);
}

TEST_F(EngineTest, RoundTripPreservesModel) {
  const std::string bytes = model_->Serialize();
  // The format is canonical: serializing twice gives the same bytes.
  EXPECT_EQ(model_->Serialize(), bytes);
  TempArtifact file(bytes);
  auto mapped = MappedArtifact::Open(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto config = engine::v4::PeekConfig(*mapped);
  ASSERT_TRUE(config.ok()) << config.status().ToString();

  const ModelConfig& a = model_->config();
  const ModelConfig& b = *config;
  EXPECT_EQ(a.n_context_size, b.n_context_size);
  EXPECT_EQ(a.theta_interest, b.theta_interest);
  EXPECT_EQ(a.knn.k, b.knn.k);
  EXPECT_EQ(a.knn.distance_threshold, b.knn.distance_threshold);
  EXPECT_EQ(a.knn.distance_weighted, b.knn.distance_weighted);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.measures, b.measures);
  EXPECT_EQ(a.distance.display_weight, b.distance.display_weight);
  EXPECT_EQ(a.training.successful_only, b.training.successful_only);

  auto flat = engine::v4::LoadServing(
      std::make_shared<const MappedArtifact>(std::move(*mapped)), b);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ASSERT_EQ(flat->meta.size(), model_->size());
  ASSERT_EQ(flat->contexts.size(), model_->size());
  for (size_t i = 0; i < model_->size(); ++i) {
    const TrainingSample& s = model_->samples()[i];
    const TrainingSample& t = flat->meta[i];
    EXPECT_EQ(s.label, t.label);
    EXPECT_EQ(s.labels, t.labels);
    EXPECT_EQ(s.max_relative, t.max_relative);  // bitwise (raw IEEE bits)
    EXPECT_EQ(s.tree_index, t.tree_index);
    EXPECT_EQ(s.step, t.step);
    const FlatContext want = SessionDistance::Prepare(s.context);
    const FlatContext& got = flat->contexts[i];
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.keyroots, want.keyroots);
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.post[j].leftmost, want.post[j].leftmost);
      EXPECT_EQ(got.post[j].log_rows, want.post[j].log_rows);
      EXPECT_TRUE(ContentEquals(got.post[j].display, want.post[j].display));
      EXPECT_TRUE(*got.post[j].incoming == *want.post[j].incoming);
    }
  }
  ASSERT_NE(flat->index, nullptr);
  EXPECT_EQ(flat->index->num_nodes(), model_->index()->num_nodes());
}

TEST_F(EngineTest, RoundTripPredictionsBitwiseIdentical) {
  auto in_memory = engine::Predictor::Load(*model_);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  auto loaded = LoadBytes(model_->Serialize());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  size_t answered = 0;
  for (const NContext& q : *queries_) {
    Prediction a = in_memory->Predict(q);
    Prediction b = loaded->Predict(q);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.confidence, b.confidence);  // bitwise, not approximate
    if (a.HasPrediction()) ++answered;
  }
  EXPECT_GT(answered, 0u);

  // Batch serving agrees with single-query serving.
  std::vector<Prediction> batch = loaded->PredictBatch(*queries_);
  ASSERT_EQ(batch.size(), queries_->size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Prediction single = in_memory->Predict((*queries_)[i]);
    EXPECT_EQ(batch[i].label, single.label);
    EXPECT_EQ(batch[i].confidence, single.confidence);
  }
}

TEST_F(EngineTest, LoocvMetricsUnchangedAfterRoundTrip) {
  // LOOCV over the loaded artifact's flat set, through the same
  // classifier EvaluateLoocv builds in memory.
  TempArtifact file(model_->Serialize());
  auto mapped = MappedArtifact::Open(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto config = engine::v4::PeekConfig(*mapped);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  auto flat = engine::v4::LoadServing(
      std::make_shared<const MappedArtifact>(std::move(*mapped)), *config);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  const std::vector<TrainingSample> meta = flat->meta;
  const IKnnClassifier loaded(std::move(*flat),
                              SessionDistance(config->distance), config->knn);
  const int num_classes = static_cast<int>(config->measures.size());

  auto before = engine::EvaluateLoocv(*model_);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const EvalMetrics after_knn = EvaluateKnnLoocv(
      loaded, num_classes, config->distance.num_threads, nullptr);
  const std::vector<size_t> subset = AllIndices(meta.size());
  EXPECT_EQ(before->samples, meta.size());
  EXPECT_EQ(before->knn.accuracy, after_knn.accuracy);
  EXPECT_EQ(before->knn.coverage, after_knn.coverage);
  EXPECT_EQ(before->knn.macro_f1, after_knn.macro_f1);
  EXPECT_EQ(before->best_sm.accuracy,
            EvaluateBestSmLoocv(meta, subset, num_classes).accuracy);
  EXPECT_EQ(before->random.accuracy,
            EvaluateRandom(meta, subset, num_classes, 17).accuracy);
}

TEST_F(EngineTest, SaveThenLoadFromFileServes) {
  const std::string path =
      ::testing::TempDir() + "/engine_test_model.idamodel";
  ASSERT_TRUE(model_->SaveToFile(path).ok());
  auto served = engine::Predictor::LoadFromFile(path);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->train_size(), model_->size());
  EXPECT_EQ(served->measures().size(), model_->config().measures.size());

  auto in_memory = engine::Predictor::Load(*model_);
  ASSERT_TRUE(in_memory.ok());
  for (const NContext& q : *queries_) {
    Prediction a = in_memory->Predict(q);
    Prediction b = served->Predict(q);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.confidence, b.confidence);
  }
  std::remove(path.c_str());
}

TEST_F(EngineTest, LoadFromMissingFileIsIoError) {
  auto missing = engine::Predictor::LoadFromFile("/nonexistent/model.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST_F(EngineTest, SaveReplacesTheArtifactWithoutDisturbingMappedReaders) {
  // A predictor serves its artifact in place off a file mapping, so a
  // save over the same path must not rewrite the mapped inode: a smaller
  // model saved there must leave the first predictor answering bitwise as
  // before (an in-place rewrite changes the mapped bytes, and the pages
  // past the new end of file fault).
  TempArtifact file;
  ASSERT_TRUE(model_->SaveToFile(file.path()).ok());
  auto first = engine::Predictor::LoadFromFile(file.path());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::vector<Prediction> before;
  for (const NContext& q : *queries_) before.push_back(first->Predict(q));

  std::vector<TrainingSample> few(model_->samples().begin(),
                                  model_->samples().begin() + 5);
  engine::TrainedModel smaller(model_->config(), std::move(few));
  ASSERT_TRUE(smaller.SaveToFile(file.path()).ok());
  auto second = engine::Predictor::LoadFromFile(file.path());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->train_size(), 5u);

  EXPECT_EQ(first->train_size(), model_->size());
  for (size_t i = 0; i < queries_->size(); ++i) {
    const Prediction p = first->Predict((*queries_)[i]);
    EXPECT_EQ(p.label, before[i].label);
    EXPECT_EQ(std::memcmp(&p.confidence, &before[i].confidence,
                          sizeof(double)),
              0);
  }
}

TEST_F(EngineTest, TruncatedArtifactsRejectedWithoutCrash) {
  std::string bytes = model_->Serialize();
  // Every short-header prefix plus a spread of longer truncation points.
  std::vector<size_t> cuts;
  for (size_t n = 0; n < 64 && n < bytes.size(); ++n) cuts.push_back(n);
  for (size_t i = 1; i <= 100; ++i) {
    cuts.push_back(bytes.size() * i / 101);
  }
  cuts.push_back(bytes.size() - 1);
  for (size_t n : cuts) {
    auto truncated = LoadBytes(bytes.substr(0, n));
    EXPECT_FALSE(truncated.ok()) << "prefix of " << n << " bytes accepted";
  }
  // Trailing garbage is also rejected (the sections no longer tile).
  auto extended = LoadBytes(bytes + "xyz");
  EXPECT_FALSE(extended.ok());
}

TEST_F(EngineTest, CorruptPayloadFailsChecksum) {
  // Under the eager checksum policy every section is verified at load.
  ModelConfig eager = model_->config();
  eager.load.eager_checksums = true;
  std::string bytes =
      engine::TrainedModel(eager, model_->samples(), model_->index())
          .Serialize();
  bytes[bytes.size() / 2] ^= 0x5A;  // flip bits mid-payload
  auto corrupt = LoadBytes(bytes);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("checksum"), std::string::npos)
      << corrupt.status().ToString();
}

TEST_F(EngineTest, BadMagicRejected) {
  std::string bytes = model_->Serialize();
  bytes[0] = 'X';
  auto bad = LoadBytes(bytes);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("magic"), std::string::npos);
}

TEST_F(EngineTest, FormatVersionMismatchRejected) {
  // The version u32 sits right after the 8 magic bytes and is checked
  // before anything else is interpreted: a future version, and a file in
  // the previous (version-5) format, are both rejected by name.
  for (uint32_t version : {engine::kArtifactVersion + 1, uint32_t{5}}) {
    std::string bytes = model_->Serialize();
    std::memcpy(&bytes[8], &version, sizeof(version));
    auto mismatched = LoadBytes(bytes);
    ASSERT_FALSE(mismatched.ok());
    EXPECT_NE(mismatched.status().message().find(
                  "unsupported model artifact format version " +
                  std::to_string(version)),
              std::string::npos)
        << mismatched.status().ToString();
  }
}

TEST_F(EngineTest, CorruptedIndexSectionRejectedWithValidChecksum) {
  // Re-seal the checksums after the corruption so the index's own
  // structural validation (VpTree::WrapFlat) is what rejects the
  // artifact: the root node's child link points back at itself.
  ASSERT_NE(model_->index(), nullptr);
  std::string bytes = model_->Serialize();
  const size_t idx = FindEntryIndex(bytes, engine::v4::kTagTreeNodes);
  const engine::v4::SectionEntry e = ReadEntry(bytes, idx);
  ASSERT_GE(e.length, sizeof(index::FlatNode));
  const int32_t self = 0;
  std::memcpy(&bytes[e.offset + offsetof(index::FlatNode, inner)], &self,
              sizeof(self));
  FixSectionChecksum(&bytes, idx);
  auto corrupt = LoadBytes(bytes);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("index section corrupt"),
            std::string::npos)
      << corrupt.status().ToString();
}

TEST_F(EngineTest, ConcurrentPredictIsThreadSafe) {
  auto served = LoadBytes(model_->Serialize());
  ASSERT_TRUE(served.ok());
  std::vector<Prediction> expected;
  for (const NContext& q : *queries_) expected.push_back(served->Predict(q));

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = 0; i < queries_->size(); ++i) {
        Prediction p = served->Predict((*queries_)[i]);
        if (p.label != expected[i].label ||
            p.confidence != expected[i].confidence) {
          ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(mismatches[w], 0);
}

TEST_F(EngineTest, ValidateConfigRejectsBadSettings) {
  ModelConfig config = TestConfig();
  config.n_context_size = 0;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config = TestConfig();
  config.knn.k = 0;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config = TestConfig();
  config.measures = {"no_such_measure"};
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config = TestConfig();
  config.measures.clear();
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config = TestConfig();
  config.distance.display_weight = 1.5;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  config = TestConfig();
  config.distance.display_weight = nan;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config = TestConfig();
  config.knn.distance_threshold = nan;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  config = TestConfig();
  config.knn.distance_threshold = -0.1;
  EXPECT_FALSE(engine::ValidateConfig(config).ok());
  EXPECT_TRUE(engine::ValidateConfig(TestConfig()).ok());
}

TEST_F(EngineTest, PredictorRejectsOutOfRangeLabels) {
  std::vector<TrainingSample> samples = model_->samples();
  samples[0].label = 99;  // outside the 4-measure label space
  engine::TrainedModel broken(model_->config(), std::move(samples));
  auto served = engine::Predictor::Load(std::move(broken));
  EXPECT_FALSE(served.ok());
}

TEST_F(EngineTest, EmptyModelRoundTripsAndAbstains) {
  engine::TrainedModel empty(TestConfig(), {});
  auto served = LoadBytes(empty.Serialize());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->train_size(), 0u);
  Prediction p = served->Predict(queries_->front());
  EXPECT_FALSE(p.HasPrediction());
}

}  // namespace
}  // namespace ida
