// Adversarial and equivalence tests of the model artifact's flat layout
// (engine/artifact_v4.h, DESIGN.md §16), all through the one loader
// (Predictor::LoadFromFile): section-directory validation (truncation,
// overlap, misalignment, trailing bytes), per-section checksum behavior
// under the eager/lazy policies, the sorted display content table's load
// checks and query resolution through it, and bitwise prediction
// equivalence between the mapped artifact and the in-memory (heap) model
// it was written from, in brute-force and indexed modes.
#include "engine/artifact_v4.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "artifact_test_util.h"
#include "engine/engine.h"
#include "synth/generator.h"

namespace ida {
namespace {

namespace v4 = engine::v4;
using testing::FindEntryIndex;
using testing::FixDirectoryChecksum;
using testing::FixSectionChecksum;
using testing::kArtifactHeaderSize;
using testing::LoadBytes;
using testing::ReadEntry;
using testing::SectionCount;
using testing::TempArtifact;
using testing::WriteEntry;

ModelConfig TestConfig() {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;
  config.knn.distance_threshold = 0.25;
  return config;
}

class ArtifactV4Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(41))));
    engine::Trainer trainer(TestConfig());
    auto model = trainer.Fit(bench_->log, bench_->registry);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_GT(model->size(), 20u);
    ASSERT_NE(model->index(), nullptr);
    model_ = new engine::TrainedModel(std::move(*model));

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

  /// Loads `bytes` from a temp file and expects success.
  static engine::Predictor MustLoad(const std::string& bytes) {
    auto served = LoadBytes(bytes);
    EXPECT_TRUE(served.ok()) << served.status().ToString();
    return std::move(*served);
  }

  /// The in-memory (heap) serving handle of `model`.
  static engine::Predictor InMemory(const engine::TrainedModel& model) {
    auto served = engine::Predictor::Load(model);
    EXPECT_TRUE(served.ok()) << served.status().ToString();
    return std::move(*served);
  }

  /// `model_` with one config edit applied.
  template <typename Edit>
  static engine::TrainedModel Variant(Edit edit) {
    ModelConfig config = model_->config();
    edit(config);
    return engine::TrainedModel(config, model_->samples(), model_->index());
  }

  /// Predictions over the shared query workload.
  static std::vector<Prediction> PredictAll(const engine::Predictor& p) {
    std::vector<Prediction> out;
    out.reserve(queries_->size());
    for (const NContext& q : *queries_) out.push_back(p.Predict(q));
    return out;
  }

  static void ExpectBitwiseEqual(const std::vector<Prediction>& a,
                                 const std::vector<Prediction>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label) << "query " << i;
      // Bitwise, not approximate: the mapped and in-memory models must run
      // the exact same arithmetic.
      EXPECT_EQ(std::memcmp(&a[i].confidence, &b[i].confidence,
                            sizeof(double)),
                0)
          << "query " << i;
    }
  }

  /// Applies `edit` to the DKEY section's keys and re-seals the
  /// checksums, so the loader's structural checks are what must react.
  template <typename Edit>
  static void EditDisplayKeys(std::string* bytes, Edit edit) {
    const size_t idx = FindEntryIndex(*bytes, v4::kTagDisplayKeys);
    const v4::SectionEntry e = ReadEntry(*bytes, idx);
    ASSERT_GE(e.length, 2 * sizeof(uint64_t));
    std::vector<uint64_t> keys(e.length / sizeof(uint64_t));
    std::memcpy(keys.data(), bytes->data() + e.offset, e.length);
    edit(keys.data());
    std::memcpy(bytes->data() + e.offset, keys.data(), e.length);
    FixSectionChecksum(bytes, idx);
  }

  /// Flips the low bit of a middle DKEY key, checking that the keys stay
  /// strictly ascending, and leaves the checksums stale.
  static void FlipDisplayKeyInOrder(std::string* bytes) {
    const v4::SectionEntry e =
        ReadEntry(*bytes, FindEntryIndex(*bytes, v4::kTagDisplayKeys));
    const size_t n = e.length / sizeof(uint64_t);
    ASSERT_GE(n, 3u);
    const size_t i = n / 2;
    uint64_t prev = 0, key = 0, next = 0;
    char* at = bytes->data() + e.offset + i * sizeof(uint64_t);
    std::memcpy(&prev, at - sizeof(uint64_t), sizeof(prev));
    std::memcpy(&key, at, sizeof(key));
    std::memcpy(&next, at + sizeof(uint64_t), sizeof(next));
    key ^= 1;
    ASSERT_LT(prev, key);
    ASSERT_LT(key, next);
    std::memcpy(at, &key, sizeof(key));
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
  static std::vector<NContext>* queries_;
};

SynthBenchmark* ArtifactV4Test::bench_ = nullptr;
engine::TrainedModel* ArtifactV4Test::model_ = nullptr;
std::vector<NContext>* ArtifactV4Test::queries_ = nullptr;

TEST_F(ArtifactV4Test, SectionsTileTheFileInOrder) {
  const std::string bytes = model_->Serialize();
  ASSERT_EQ(std::memcmp(bytes.data(), engine::kArtifactMagic, 8), 0);
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  EXPECT_EQ(version, engine::kArtifactVersion);
  const uint32_t count = SectionCount(bytes);
  ASSERT_GE(count, 13u);  // CFG..DIDS always present
  size_t cursor = kArtifactHeaderSize + count * sizeof(v4::SectionEntry) + 8;
  for (uint32_t i = 0; i < count; ++i) {
    const v4::SectionEntry e = ReadEntry(bytes, i);
    EXPECT_EQ(e.offset % 8, 0u);
    EXPECT_EQ(e.offset, cursor);
    cursor = e.offset + ((e.length + 7) & ~uint64_t{7});
  }
  EXPECT_EQ(cursor, bytes.size());
}

TEST_F(ArtifactV4Test, TruncatedSectionDirectoryRejected) {
  const std::string bytes = model_->Serialize();
  const size_t dir_end =
      kArtifactHeaderSize + SectionCount(bytes) * sizeof(v4::SectionEntry) + 8;
  // Every cut inside the header and directory, plus a spread beyond.
  for (size_t cut = 0; cut < dir_end; cut += 7) {
    auto r = LoadBytes(bytes.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
  auto r = LoadBytes(bytes.substr(0, kArtifactHeaderSize + 8));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("truncated"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, OverlappingSectionOffsetsRejected) {
  std::string bytes = model_->Serialize();
  // Point the third section back at the second's offset: a valid-looking
  // but overlapping layout. The directory checksum is recomputed, so the
  // tiling check is what must reject it.
  v4::SectionEntry e = ReadEntry(bytes, 2);
  e.offset = ReadEntry(bytes, 1).offset;
  WriteEntry(&bytes, 2, e);
  FixDirectoryChecksum(&bytes);
  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("tile"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, OutOfBoundsSectionLengthRejected) {
  std::string bytes = model_->Serialize();
  const size_t last = SectionCount(bytes) - 1;
  v4::SectionEntry e = ReadEntry(bytes, last);
  e.length = bytes.size();  // runs past the end of the file
  WriteEntry(&bytes, last, e);
  FixDirectoryChecksum(&bytes);
  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of bounds"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, MisalignedSectionOffsetRejected) {
  std::string bytes = model_->Serialize();
  v4::SectionEntry e = ReadEntry(bytes, 3);
  e.offset += 4;
  WriteEntry(&bytes, 3, e);
  FixDirectoryChecksum(&bytes);
  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("misaligned"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, DirectoryChecksumCoversEntryEdits) {
  std::string bytes = model_->Serialize();
  // The same overlap edit WITHOUT fixing the directory checksum must be
  // caught by the checksum, before any structural interpretation.
  v4::SectionEntry e = ReadEntry(bytes, 2);
  e.offset = ReadEntry(bytes, 1).offset;
  WriteEntry(&bytes, 2, e);
  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("directory checksum"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, TrailingBytesRejected) {
  std::string bytes = model_->Serialize();
  bytes.append(8, '\0');
  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, EagerLoadVerifiesEverySectionChecksum) {
  const std::string clean =
      Variant([](ModelConfig& c) { c.load.eager_checksums = true; })
          .Serialize();
  // Flip one byte in every section's payload in turn: the eager loader
  // must report a checksum mismatch each time.
  for (size_t i = 0; i < SectionCount(clean); ++i) {
    const v4::SectionEntry e = ReadEntry(clean, i);
    if (e.length == 0) continue;
    std::string bytes = clean;
    bytes[e.offset + e.length / 2] ^= 0x5A;
    auto r = LoadBytes(bytes);
    ASSERT_FALSE(r.ok()) << "section " << i;
    EXPECT_NE(r.status().message().find("checksum mismatch"),
              std::string::npos)
        << "section " << i << ": " << r.status().ToString();
  }
}

TEST_F(ArtifactV4Test, LazyMappedLoadServesDespiteBulkSectionCorruption) {
  // Under the default lazy checksum policy a corrupt bulk byte goes
  // unnoticed at load. A display-table key flipped without breaking the
  // key order is the benign case: the lookup for that display misses, so
  // the flip only demotes it to identity resolution, and predictions stay
  // bitwise those of the in-memory model. This is the documented lazy
  // trade: deferred integrity, same safety.
  std::string bytes = model_->Serialize();
  FlipDisplayKeyInOrder(&bytes);

  engine::Predictor mapped = MustLoad(bytes);
  ExpectBitwiseEqual(PredictAll(mapped), PredictAll(InMemory(*model_)));
}

TEST_F(ArtifactV4Test, EagerChecksumPolicyCatchesCorruptionAtLoad) {
  // Same corruption, but the artifact carries eager_checksums=true: the
  // load itself must now fail.
  std::string bytes =
      Variant([](ModelConfig& c) { c.load.eager_checksums = true; })
          .Serialize();
  FlipDisplayKeyInOrder(&bytes);

  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum mismatch"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, DisplayTableIdOutOfRangeRejected) {
  std::string bytes = model_->Serialize();
  // A hostile stored id: display-table ids index the display pool
  // unchecked on the serving hot path, so the loader must bound them. The
  // section and directory checksums are recomputed — structure is what
  // rejects.
  const size_t idx = FindEntryIndex(bytes, v4::kTagDisplayIds);
  const v4::SectionEntry e = ReadEntry(bytes, idx);
  ASSERT_GE(e.length, sizeof(uint32_t));
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + e.offset, &huge, sizeof(huge));
  FixSectionChecksum(&bytes, idx);

  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("display-table id"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, DisplayTableDuplicateKeyRejected) {
  // The resolver binary-searches the keys, so they must be strictly
  // ascending: a repeated key is rejected whatever the checksum policy.
  std::string bytes = model_->Serialize();
  EditDisplayKeys(&bytes, [](uint64_t* keys) { keys[1] = keys[0]; });
  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not strictly ascending"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, DisplayTableDescendingKeysRejected) {
  std::string bytes = model_->Serialize();
  EditDisplayKeys(&bytes,
                  [](uint64_t* keys) { std::swap(keys[0], keys[1]); });
  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not strictly ascending"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, ResolverMapsDisplaysByContent) {
  FlatTrainingSet flat =
      BuildFlatTrainingSet(model_->samples(), model_->index());
  // The views borrow the samples' displays, which the classifier keeps.
  const std::vector<DisplayView> views = flat.pool_views;
  const IKnnClassifier knn(std::move(flat),
                           SessionDistance(model_->config().distance),
                           model_->config().knn);
  // Every pool display, then one display with content no pool display
  // has, carrying a stale id that resolution must overwrite.
  FlatContext q;
  q.post.resize(views.size() + 1);
  for (size_t i = 0; i < views.size(); ++i) q.post[i].display = views[i];
  q.post.back().display = views.front();
  q.post.back().display.num_rows += 987654321;
  q.post.back().display_id = 7;
  knn.ResolveQueryDisplayIds(&q);

  size_t duplicates = 0;
  for (size_t i = 0; i < views.size(); ++i) {
    size_t first = 0;
    while (!ContentEquals(views[first], views[i])) ++first;
    if (first != i) ++duplicates;
    EXPECT_EQ(q.post[i].display_id, static_cast<int32_t>(first))
        << "pool display " << i;
  }
  EXPECT_EQ(q.post.back().display_id, -1);
  // The fixture pool holds content-equal displays, so the representative
  // choice is exercised.
  EXPECT_GT(duplicates, 0u);
}

TEST_F(ArtifactV4Test, MappedAndHeapClassifiersResolveIdenticalIds) {
  const IKnnClassifier heap(
      BuildFlatTrainingSet(model_->samples(), model_->index()),
      SessionDistance(model_->config().distance), model_->config().knn);
  TempArtifact file(model_->Serialize());
  auto opened = MappedArtifact::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto loaded = v4::LoadServing(
      std::make_shared<const MappedArtifact>(std::move(*opened)),
      model_->config());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const IKnnClassifier mapped(std::move(*loaded),
                              SessionDistance(model_->config().distance),
                              model_->config().knn);

  size_t resolved = 0;
  for (const NContext& query : *queries_) {
    FlatContext a = SessionDistance::Prepare(query);
    FlatContext b = SessionDistance::Prepare(query);
    heap.ResolveQueryDisplayIds(&a);
    mapped.ResolveQueryDisplayIds(&b);
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a.post[j].display_id, b.post[j].display_id);
      if (a.post[j].display_id >= 0) ++resolved;
    }
  }
  EXPECT_GT(resolved, 0u);
}

// "Heap" below is the in-memory model (Predictor::Load), whose classifier
// builds its flat set on the heap from the training samples; the mapped
// artifact must serve bitwise the same predictions in every mode.
TEST_F(ArtifactV4Test, MappedAndHeapPredictionsBitwiseIdenticalIndexed) {
  engine::Predictor mapped = MustLoad(model_->Serialize());
  engine::Predictor heap = InMemory(*model_);
  ExpectBitwiseEqual(mapped.PredictBatch(*queries_),
                     heap.PredictBatch(*queries_));
}

TEST_F(ArtifactV4Test, MappedAndHeapPredictionsBitwiseIdenticalBrute) {
  const engine::TrainedModel brute =
      Variant([](ModelConfig& c) { c.use_index = false; });
  engine::Predictor mapped = MustLoad(brute.Serialize());
  ExpectBitwiseEqual(PredictAll(mapped), PredictAll(InMemory(brute)));
}

TEST_F(ArtifactV4Test, ResealedNanDisplayWeightRejected) {
  // A CFG section edited and resealed: every checksum holds, so config
  // validation is what must keep a NaN alter-cost weight out of the DP.
  // The weight is located by its bits, from a distinctive value.
  constexpr double kMarker = 0.4375;
  std::string bytes =
      Variant([](ModelConfig& c) { c.distance.display_weight = kMarker; })
          .Serialize();
  const size_t idx = FindEntryIndex(bytes, v4::kTagConfig);
  const v4::SectionEntry e = ReadEntry(bytes, idx);
  const std::string marker(reinterpret_cast<const char*>(&kMarker),
                           sizeof(kMarker));
  const size_t at = bytes.find(marker, e.offset);
  ASSERT_NE(at, std::string::npos);
  ASSERT_LE(at + sizeof(kMarker), e.offset + e.length);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&bytes[at], &nan, sizeof(nan));
  FixSectionChecksum(&bytes, idx);

  auto r = LoadBytes(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("display_weight"), std::string::npos)
      << r.status().ToString();
}

TEST_F(ArtifactV4Test, MappedPredictionsMatchInMemoryModel) {
  // The zero-copy path must reproduce the fit-time in-memory predictions
  // bitwise, one query at a time.
  engine::Predictor mapped = MustLoad(model_->Serialize());
  ExpectBitwiseEqual(PredictAll(mapped), PredictAll(InMemory(*model_)));
}

TEST_F(ArtifactV4Test, PeekConfigReadsTheArtifactConfig) {
  const engine::TrainedModel eager =
      Variant([](ModelConfig& c) { c.load.eager_checksums = true; });
  TempArtifact file(eager.Serialize());
  auto mapped = MappedArtifact::Open(file.path());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto config = v4::PeekConfig(*mapped);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->n_context_size, model_->config().n_context_size);
  EXPECT_EQ(config->knn.k, model_->config().knn.k);
  EXPECT_TRUE(config->load.eager_checksums);
  EXPECT_EQ(config->measures, model_->config().measures);
}

TEST_F(ArtifactV4Test, EmptyModelRoundTripsThroughV4) {
  engine::TrainedModel empty(TestConfig(), {});
  const std::string bytes = empty.Serialize();
  EXPECT_EQ(empty.Serialize(), bytes);  // deterministic
  engine::Predictor mapped = MustLoad(bytes);
  EXPECT_EQ(mapped.train_size(), 0u);
  for (const NContext& q : *queries_) {
    EXPECT_FALSE(mapped.Predict(q).HasPrediction());
  }
}

}  // namespace
}  // namespace ida
