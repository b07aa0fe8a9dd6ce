// Tests of the metric-space serving index (index/vptree.h, DESIGN.md §11):
// the certified metric core's symmetry / triangle / lower-bound properties
// over real training contexts, exact search equivalence against a brute
// scan, exclusion semantics, deterministic builds, and the index blob's
// serialize / validate round trip (malformed sections are rejected with a
// Status, never crashed on).
#include "index/vptree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "synth/generator.h"

namespace ida {
namespace {

ModelConfig IndexTestConfig() {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;  // keep every state
  config.knn.distance_threshold = 0.25;
  return config;
}

// One trained model's contexts, prepared once for the whole suite.
class VpTreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(21))));
    engine::Trainer trainer(IndexTestConfig());
    auto model = trainer.Fit(bench_->log, bench_->registry);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_GT(model->size(), 30u);
    model_ = new engine::TrainedModel(std::move(*model));
    prepared_ = new std::vector<FlatContext>();
    prepared_->reserve(model_->size());
    for (const TrainingSample& s : model_->samples()) {
      prepared_->push_back(SessionDistance::Prepare(s.context));
    }
  }
  static void TearDownTestSuite() {
    delete prepared_;
    delete model_;
    delete bench_;
  }

  static SessionDistance Metric() {
    return SessionDistance(IndexTestConfig().distance);
  }

  // The admitted-neighbor list the brute-force vote sees: all samples
  // (minus `exclude`) within `radius`, sorted by (distance, id), first k.
  static std::vector<std::pair<double, size_t>> BruteSearch(
      size_t query, int k, double radius, int exclude) {
    SessionDistance metric = Metric();
    TedWorkspace ws;
    std::vector<std::pair<double, size_t>> all;
    for (size_t i = 0; i < prepared_->size(); ++i) {
      if (exclude >= 0 && i == static_cast<size_t>(exclude)) continue;
      double d = metric.Distance((*prepared_)[query], (*prepared_)[i], &ws);
      if (d <= radius) all.emplace_back(d, i);
    }
    std::sort(all.begin(), all.end());
    if (all.size() > static_cast<size_t>(k)) all.resize(static_cast<size_t>(k));
    return all;
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
  static std::vector<FlatContext>* prepared_;
};

SynthBenchmark* VpTreeTest::bench_ = nullptr;
engine::TrainedModel* VpTreeTest::model_ = nullptr;
std::vector<FlatContext>* VpTreeTest::prepared_ = nullptr;

TEST_F(VpTreeTest, CoreDistanceIsSymmetricAndBoundsTheServingTed) {
  SessionDistance metric = Metric();
  TedWorkspace ws;
  const size_t n = std::min<size_t>(prepared_->size(), 24);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double core = index::CoreTreeEditDistance(
          (*prepared_)[i], (*prepared_)[j], metric.options(), &ws);
      double core_rev = index::CoreTreeEditDistance(
          (*prepared_)[j], (*prepared_)[i], metric.options(), &ws);
      double exact =
          metric.TreeEditDistance((*prepared_)[i], (*prepared_)[j], &ws);
      EXPECT_EQ(core, core_rev) << "asymmetric core at (" << i << "," << j
                                << ")";
      // The soundness invariant the whole pruning scheme rests on: the
      // metric core never exceeds the serving TED, bitwise.
      EXPECT_LE(core, exact) << "core overshoots at (" << i << "," << j << ")";
      EXPECT_GE(core, 0.0);
      if (i == j) {
        EXPECT_EQ(core, 0.0);
      }
    }
  }
}

TEST_F(VpTreeTest, CoreDistanceSatisfiesTheTriangleInequality) {
  SessionDistance metric = Metric();
  TedWorkspace ws;
  const size_t n = std::min<size_t>(prepared_->size(), 14);
  auto core = [&](size_t a, size_t b) {
    return index::CoreTreeEditDistance((*prepared_)[a], (*prepared_)[b],
                                       metric.options(), &ws);
  };
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      for (size_t c = 0; c < n; ++c) {
        // 1e-9 relative slack: the index deflates its bounds by the same
        // margin, so this is the inequality it actually relies on.
        EXPECT_LE(core(a, c), (core(a, b) + core(b, c)) * (1.0 + 1e-9))
            << "triangle violated at (" << a << "," << b << "," << c << ")";
      }
    }
  }
}

TEST_F(VpTreeTest, SearchMatchesBruteForceBitwise) {
  SessionDistance metric = Metric();
  index::VpTree tree = index::VpTree::Build(*prepared_, metric);
  ASSERT_EQ(tree.size(), prepared_->size());
  TedWorkspace ws;
  std::vector<std::pair<double, size_t>> got;
  index::IndexStats stats;
  for (size_t q = 0; q < prepared_->size(); ++q) {
    for (int k : {1, 3, 7}) {
      for (double radius : {0.1, 0.25, 1.0}) {
        tree.Search((*prepared_)[q], *prepared_, metric, k, radius,
                    /*exclude=*/-1, &ws, &got, &stats);
        std::vector<std::pair<double, size_t>> want =
            BruteSearch(q, k, radius, /*exclude=*/-1);
        ASSERT_EQ(got.size(), want.size())
            << "q=" << q << " k=" << k << " radius=" << radius;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].second, want[i].second);
          EXPECT_EQ(got[i].first, want[i].first);  // bitwise
        }
      }
    }
  }
  // The point of the index: it pruned a real fraction of the exact DPs
  // (a brute scan would evaluate the full training set per search).
  EXPECT_LT(stats.exact_teds, stats.searches * prepared_->size());
  EXPECT_GT(stats.lb_pruned + stats.triangle_pruned + stats.subtree_pruned,
            0u);
}

TEST_F(VpTreeTest, SearchHonorsExclusion) {
  SessionDistance metric = Metric();
  index::VpTree tree = index::VpTree::Build(*prepared_, metric);
  TedWorkspace ws;
  std::vector<std::pair<double, size_t>> got;
  for (size_t q = 0; q < std::min<size_t>(prepared_->size(), 16); ++q) {
    tree.Search((*prepared_)[q], *prepared_, metric, 5, 0.25,
                /*exclude=*/static_cast<int>(q), &ws, &got);
    std::vector<std::pair<double, size_t>> want =
        BruteSearch(q, 5, 0.25, static_cast<int>(q));
    ASSERT_EQ(got.size(), want.size()) << "q=" << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NE(got[i].second, q);
      EXPECT_EQ(got[i].second, want[i].second);
      EXPECT_EQ(got[i].first, want[i].first);
    }
  }
}

/// The tree's flat arrays, copied out (the model artifact's VPTN/VPTE
/// section payloads).
struct FlatArrays {
  std::vector<index::FlatNode> nodes;
  std::vector<index::VpEntry> entries;

  explicit FlatArrays(const index::VpTree& tree)
      : nodes(tree.nodes_data(), tree.nodes_data() + tree.num_nodes()),
        entries(tree.entries_data(),
                tree.entries_data() + tree.num_entries()) {}

  Result<index::VpTree> Wrap(size_t num_samples, int leaf_size) const {
    return index::VpTree::WrapFlat(nodes.data(), nodes.size(),
                                   entries.data(), entries.size(),
                                   num_samples, leaf_size);
  }
};

TEST_F(VpTreeTest, BuildIsDeterministic) {
  SessionDistance metric = Metric();
  index::VpTree a = index::VpTree::Build(*prepared_, metric);
  index::VpTree b = index::VpTree::Build(*prepared_, metric);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_entries(), b.num_entries());
  EXPECT_EQ(std::memcmp(a.nodes_data(), b.nodes_data(),
                        a.num_nodes() * sizeof(index::FlatNode)),
            0);
  EXPECT_EQ(std::memcmp(a.entries_data(), b.entries_data(),
                        a.num_entries() * sizeof(index::VpEntry)),
            0);
}

TEST_F(VpTreeTest, SerializeRoundTripsAndServesIdentically) {
  SessionDistance metric = Metric();
  index::VpTree tree = index::VpTree::Build(*prepared_, metric);
  const FlatArrays flat(tree);
  auto loaded = flat.Wrap(prepared_->size(), tree.leaf_size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), tree.size());
  EXPECT_EQ(loaded->num_nodes(), tree.num_nodes());
  EXPECT_EQ(loaded->nodes_data(), flat.nodes.data());  // wrapped, not copied
  TedWorkspace ws;
  std::vector<std::pair<double, size_t>> got, want;
  for (size_t q = 0; q < std::min<size_t>(prepared_->size(), 12); ++q) {
    tree.Search((*prepared_)[q], *prepared_, metric, 7, 0.25, -1, &ws, &want);
    loaded->Search((*prepared_)[q], *prepared_, metric, 7, 0.25, -1, &ws,
                   &got);
    EXPECT_EQ(got, want);
  }
}

TEST_F(VpTreeTest, EmptyTreeIsServedAndRoundTrips) {
  SessionDistance metric = Metric();
  index::VpTree tree = index::VpTree::Build({}, metric);
  EXPECT_TRUE(tree.empty());
  TedWorkspace ws;
  std::vector<std::pair<double, size_t>> got = {{0.0, 0}};
  tree.Search((*prepared_)[0], {}, metric, 3, 1.0, -1, &ws, &got);
  EXPECT_TRUE(got.empty());
  auto loaded = FlatArrays(tree).Wrap(0, tree.leaf_size());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
}

TEST_F(VpTreeTest, MalformedBlobsAreRejectedNotCrashedOn) {
  SessionDistance metric = Metric();
  index::VpTree tree = index::VpTree::Build(*prepared_, metric);
  const FlatArrays clean(tree);
  const size_t n = prepared_->size();
  const int leaf = tree.leaf_size();
  ASSERT_GT(clean.nodes.size(), 2u);
  ASSERT_FALSE(clean.entries.empty());

  // Every truncation of either array fails cleanly.
  for (size_t len = 0; len < clean.nodes.size(); ++len) {
    FlatArrays bad = clean;
    bad.nodes.resize(len);
    EXPECT_FALSE(bad.Wrap(n, leaf).ok()) << "nodes truncated to " << len;
  }
  for (size_t len = 0; len < clean.entries.size(); ++len) {
    FlatArrays bad = clean;
    bad.entries.resize(len);
    EXPECT_FALSE(bad.Wrap(n, leaf).ok()) << "entries truncated to " << len;
  }
  // Trailing entries are not silently ignored.
  FlatArrays bad = clean;
  bad.entries.push_back(index::VpEntry{});
  EXPECT_FALSE(bad.Wrap(n, leaf).ok());
  // Sample-count mismatch with the surrounding artifact, bad leaf size.
  EXPECT_FALSE(clean.Wrap(n + 1, leaf).ok());
  EXPECT_FALSE(clean.Wrap(0, leaf).ok());
  EXPECT_FALSE(clean.Wrap(n, 0).ok());
  // A hostile child link cannot send the search out of bounds.
  bad = clean;
  bad.nodes[0].inner = 0x7FFFFFFF;
  EXPECT_FALSE(bad.Wrap(n, leaf).ok());
  // A duplicated sample id and a non-finite cached distance.
  bad = clean;
  bad.entries[0].id = static_cast<uint32_t>(bad.nodes[0].pivot);
  EXPECT_FALSE(bad.Wrap(n, leaf).ok());
  bad = clean;
  bad.entries[0].dist = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad.Wrap(n, leaf).ok());
  // Zeroing a chunk of the node table breaks id coverage / link validity.
  bad = clean;
  std::memset(static_cast<void*>(bad.nodes.data()), 0,
              2 * sizeof(index::FlatNode));
  EXPECT_FALSE(bad.Wrap(n, leaf).ok());
}

}  // namespace
}  // namespace ida
