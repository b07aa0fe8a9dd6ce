// Seeded mutation test of the model-artifact loader (DESIGN.md §16). A
// fixed seed drives a fixed budget of byte flips, truncations and splices
// over a small indexed artifact; every mutant is loaded on the default
// lazy-checksum path and must either be rejected with a Status or load
// and answer a fixed query set without crashing. "Sealed" mutants have
// every checksum recomputed after the edit, so structural validation is
// the only defense they meet. Run under ASan/UBSan in CI, this is the
// evidence for the claim that a corrupt artifact changes a distance, not
// memory safety. Defects it (and review) found are pinned as regression
// cases below the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "artifact_test_util.h"
#include "common/rng.h"
#include "engine/artifact_v4.h"
#include "engine/engine.h"
#include "index/vptree.h"
#include "synth/generator.h"

namespace ida {
namespace {

namespace v4 = engine::v4;
using testing::FindEntryIndex;
using testing::FixSectionChecksum;
using testing::LoadBytes;
using testing::ReadEntry;
using testing::SectionCount;

constexpr uint64_t kSeed = 20190326;
constexpr int kMutants = 1500;
constexpr size_t kSamples = 40;
constexpr size_t kLiveQueries = 8;

/// Recomputes every in-bounds section checksum and the directory
/// checksum, when the directory itself still fits the file.
void Reseal(std::string* bytes) {
  if (bytes->size() < testing::kArtifactHeaderSize + 8) return;
  const uint64_t count = SectionCount(*bytes);
  const size_t dir_end = testing::kArtifactHeaderSize +
                         static_cast<size_t>(count) * sizeof(v4::SectionEntry);
  if (count > bytes->size() / sizeof(v4::SectionEntry) ||
      dir_end + 8 > bytes->size()) {
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    v4::SectionEntry e = ReadEntry(*bytes, i);
    const uint64_t padded = (e.length + 7) & ~uint64_t{7};
    if (e.offset > bytes->size() || padded > bytes->size() - e.offset ||
        e.length > padded) {
      continue;
    }
    e.checksum = binio::Fnv1a(bytes->data() + e.offset, padded);
    testing::WriteEntry(bytes, i, e);
  }
  testing::FixDirectoryChecksum(bytes);
}

/// One random mutant of `clean`.
std::string Mutate(const std::string& clean, Rng& rng) {
  std::string m = clean;
  const auto pos = [&](size_t size) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(size) - 1));
  };
  // Targets a random nonempty section's payload half of the time (the
  // structured sections are small next to the file), anywhere otherwise.
  const auto target = [&]() -> size_t {
    if (rng.Bernoulli(0.5)) {
      const size_t i = pos(SectionCount(m));
      const v4::SectionEntry e = ReadEntry(m, i);
      if (e.length > 0) return static_cast<size_t>(e.offset) + pos(e.length);
    }
    return pos(m.size());
  };
  const bool sealed = rng.Bernoulli(0.5);
  switch (rng.UniformInt(0, 4)) {
    case 0: {  // flip 1..4 bits
      const int64_t flips = rng.UniformInt(1, 4);
      for (int64_t f = 0; f < flips; ++f) {
        m[target()] ^= static_cast<char>(1u << rng.UniformInt(0, 7));
      }
      break;
    }
    case 1: {  // overwrite 1..8 bytes with random or extreme values
      const size_t at = target();
      const size_t len = std::min<size_t>(
          m.size() - at, static_cast<size_t>(rng.UniformInt(1, 8)));
      const int64_t fill = rng.UniformInt(0, 2);
      for (size_t k = 0; k < len; ++k) {
        m[at + k] = fill == 0   ? '\0'
                    : fill == 1 ? static_cast<char>(0xFF)
                                : static_cast<char>(rng.UniformInt(0, 255));
      }
      break;
    }
    case 2: {  // nudge an aligned 32-bit word (counts, ids, slices) by +-1..3
      const size_t at = target() & ~size_t{3};
      if (at + 4 > m.size()) break;
      uint32_t word = 0;
      std::memcpy(&word, m.data() + at, sizeof(word));
      word += static_cast<uint32_t>(rng.Bernoulli(0.5) ? rng.UniformInt(1, 3)
                                                        : -rng.UniformInt(1, 3));
      std::memcpy(m.data() + at, &word, sizeof(word));
      break;
    }
    case 3:  // truncate
      m.resize(pos(m.size()));
      return m;
    default: {  // splice: copy a chunk of the file over another place
      const size_t from = pos(m.size());
      const size_t to = target();
      const size_t len =
          std::min({m.size() - from, m.size() - to,
                    static_cast<size_t>(rng.UniformInt(1, 64))});
      std::memmove(m.data() + to, clean.data() + from, len);
      break;
    }
  }
  if (sealed) Reseal(&m);
  return m;
}

class ArtifactFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(57))));
    ModelConfig config = DefaultNormalizedConfig();
    config.n_context_size = 5;
    config.theta_interest = -100.0;
    config.knn.distance_threshold = 0.25;
    auto full = engine::Trainer(config).Fit(bench_->log, bench_->registry);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_GE(full->size(), kSamples);
    std::vector<TrainingSample> subset(full->samples().begin(),
                                       full->samples().begin() + kSamples);
    std::vector<FlatContext> prepared;
    for (const TrainingSample& s : subset) {
      prepared.push_back(SessionDistance::Prepare(s.context));
    }
    auto tree = std::make_shared<const index::VpTree>(
        index::VpTree::Build(prepared, SessionDistance(config.distance)));
    model_ = new engine::TrainedModel(config, std::move(subset),
                                      std::move(tree));

    // The queries: every training context (each stored context then meets
    // its own clean twin, at distance ~0, so no cascade stage prunes it and
    // the DP runs over every mutated context), plus live-session states.
    queries_ = new std::vector<NContext>;
    for (const TrainingSample& s : model_->samples()) {
      queries_->push_back(s.context);
    }
    auto repo = engine::Replay(bench_->log, bench_->registry);
    ASSERT_TRUE(repo.ok());
    for (size_t ti = 0; ti < kLiveQueries && ti < repo->trees().size(); ++ti) {
      const SessionTree& t = repo->trees()[ti];
      queries_->push_back(
          ExtractNContext(t, t.num_steps(), config.n_context_size));
    }
  }
  static void TearDownTestSuite() {
    delete queries_;
    delete model_;
    delete bench_;
  }

  /// Loads `bytes`; a loaded mutant must answer every query with a label
  /// in the measure set (or abstain) and a finite confidence.
  static bool LoadAndServe(const std::string& bytes) {
    auto served = LoadBytes(bytes);
    if (!served.ok()) return false;
    const int classes = static_cast<int>(served->measures().size());
    for (const NContext& q : *queries_) {
      const Prediction p = served->Predict(q);
      EXPECT_GE(p.label, -1);
      EXPECT_LT(p.label, classes);
      EXPECT_TRUE(std::isfinite(p.confidence));
    }
    return true;
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
  static std::vector<NContext>* queries_;
};

SynthBenchmark* ArtifactFuzzTest::bench_ = nullptr;
engine::TrainedModel* ArtifactFuzzTest::model_ = nullptr;
std::vector<NContext>* ArtifactFuzzTest::queries_ = nullptr;

TEST_F(ArtifactFuzzTest, SeededMutantsAreRejectedOrServeSafely) {
  const std::string clean = model_->Serialize();
  ASSERT_TRUE(LoadAndServe(clean));
  Rng rng(kSeed);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string mutant = Mutate(clean, rng);
    SCOPED_TRACE("mutant " + std::to_string(i));
    if (LoadAndServe(mutant)) ++loaded;
  }
  // The budget exercises both outcomes.
  EXPECT_GT(loaded, kMutants / 20);
  EXPECT_LT(loaded, kMutants);
}

// ---------------------------------------------------------------------------
// Regression mutants, each accepted by the loader before its check
// existed. The sweep above found DisplayWithMoreLabelsThanValues (a heap
// overflow in the ground metric) under ASan/UBSan.
// LeftmostOutsideTheKeyrootSubtree was found reading the DP's indexing
// and confirmed out of bounds under ASan with this mutant;
// NonFiniteLogRows keeps a NaN out of the candidate ordering. Checksums
// are resealed, so only structure rejects.

/// `model_`'s artifact with one NODE record edited.
std::string EditNode(const std::string& clean, size_t node,
                     void (*edit)(v4::NodeRecord*)) {
  std::string bytes = clean;
  const size_t idx = FindEntryIndex(bytes, v4::kTagNodes);
  const v4::SectionEntry e = ReadEntry(bytes, idx);
  v4::NodeRecord rec;
  const size_t at = static_cast<size_t>(e.offset) + node * sizeof(rec);
  std::memcpy(&rec, bytes.data() + at, sizeof(rec));
  edit(&rec);
  std::memcpy(bytes.data() + at, &rec, sizeof(rec));
  FixSectionChecksum(&bytes, idx);
  return bytes;
}

TEST_F(ArtifactFuzzTest, LeftmostOutsideTheKeyrootSubtreeRejected) {
  // A context's last node is its root (leftmost leaf 0). Moving the
  // root's leftmost leaf one position right leaves a descendant whose
  // leftmost leaf falls left of the root's: the DP would index its forest
  // table at a negative row.
  const std::string clean = model_->Serialize();
  bool found = false;
  for (size_t ctx = 0; ctx < kSamples && !found; ++ctx) {
    std::string bytes = clean;
    const v4::SectionEntry ce =
        ReadEntry(bytes, FindEntryIndex(bytes, v4::kTagContexts));
    v4::ContextRecord cr;
    std::memcpy(&cr, bytes.data() + ce.offset + ctx * sizeof(cr), sizeof(cr));
    if (cr.node_count < 3) continue;
    found = true;
    const std::string mutant =
        EditNode(clean, cr.node_begin + cr.node_count - 1,
                 [](v4::NodeRecord* r) { r->leftmost = r->leftmost + 1; });
    auto served = LoadBytes(mutant);
    ASSERT_FALSE(served.ok());
    EXPECT_NE(served.status().message().find("context " + std::to_string(ctx)),
              std::string::npos)
        << served.status().ToString();
  }
  EXPECT_TRUE(found);
}

TEST_F(ArtifactFuzzTest, NonFiniteLogRowsRejected) {
  const std::string mutant =
      EditNode(model_->Serialize(), 0, [](v4::NodeRecord* r) {
        r->log_rows = std::numeric_limits<double>::quiet_NaN();
      });
  auto served = LoadBytes(mutant);
  ASSERT_FALSE(served.ok());
  EXPECT_NE(served.status().message().find("log"), std::string::npos)
      << served.status().ToString();
}

TEST_F(ArtifactFuzzTest, DisplayWithMoreLabelsThanValuesRejected) {
  std::string bytes = model_->Serialize();
  const size_t idx = FindEntryIndex(bytes, v4::kTagDisplays);
  const v4::SectionEntry e = ReadEntry(bytes, idx);
  v4::DisplayRecord rec;
  std::memcpy(&rec, bytes.data() + e.offset, sizeof(rec));
  ASSERT_GT(rec.num_labels, 0u);
  rec.num_values = rec.num_labels - 1;
  std::memcpy(bytes.data() + e.offset, &rec, sizeof(rec));
  FixSectionChecksum(&bytes, idx);
  auto served = LoadBytes(bytes);
  ASSERT_FALSE(served.ok());
  EXPECT_NE(served.status().message().find("labels"), std::string::npos)
      << served.status().ToString();
}

}  // namespace
}  // namespace ida
