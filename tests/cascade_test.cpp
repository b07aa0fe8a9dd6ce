// Pins the two halves of the TED speed push (DESIGN.md §13):
//
//  * CascadeBounds — the lower-bound chain the serving-time search
//    (index/vptree.h) relies on, over real generator-produced training
//    contexts: size <= the metric-core TED (with the same 1e-9 relative
//    slack the index deflates its bounds by), core <= exact TED bitwise,
//    and the normalized size bound never exceeding the serving distance
//    it prunes against.
//
//  * KernelEquivalence — the restructured Zhang–Shasha kernel
//    (distance/zhang_shasha.h: alter-table precompute, two-pass rows,
//    anchored fast path, optional SIMD pragmas) against a reference copy
//    of the textbook per-cell keyroot DP embedded in this file, compared
//    bitwise over path-shaped real contexts AND randomly branched
//    synthetic trees (which exercise the non-anchored row/column cases
//    paths never hit).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <utility>
#include <vector>

#include "distance/ted.h"
#include "distance/zhang_shasha.h"
#include "engine/engine.h"
#include "index/vptree.h"
#include "synth/generator.h"

namespace ida {
namespace {

ModelConfig CascadeTestConfig() {
  ModelConfig config = DefaultNormalizedConfig();
  config.n_context_size = 3;
  config.theta_interest = -100.0;  // keep every state
  config.knn.distance_threshold = 0.25;
  return config;
}

// One trained model's contexts, prepared once for the whole suite.
class CascadeBoundsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench_ = new SynthBenchmark(
        std::move(*GenerateBenchmark(SmallGeneratorOptions(31))));
    engine::Trainer trainer(CascadeTestConfig());
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
    return SessionDistance(CascadeTestConfig().distance);
  }

  static SynthBenchmark* bench_;
  static engine::TrainedModel* model_;
  static std::vector<FlatContext>* prepared_;
};

SynthBenchmark* CascadeBoundsTest::bench_ = nullptr;
engine::TrainedModel* CascadeBoundsTest::model_ = nullptr;
std::vector<FlatContext>* CascadeBoundsTest::prepared_ = nullptr;

TEST_F(CascadeBoundsTest, StagesAreOrderedAndBoundedByTheCoreTed) {
  SessionDistance metric = Metric();
  TedWorkspace ws;
  const size_t n = std::min<size_t>(prepared_->size(), 40);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const FlatContext& a = (*prepared_)[i];
      const FlatContext& b = (*prepared_)[j];
      // Raw size bound: indels are the only edits that change the node
      // count.
      const double size_lb =
          kIndelCost * std::fabs(static_cast<double>(a.size()) -
                                 static_cast<double>(b.size()));
      const double core = index::CoreTreeEditDistance(a, b, metric.options(),
                                                      &ws);
      const double exact = metric.TreeEditDistance(a, b, &ws);
      // The size bound lower-bounds the metric core, up to the same 1e-9
      // relative slack the search deflates its bounds by (kBoundSlack)
      // before comparing against a threshold.
      EXPECT_LE(size_lb, core * (1.0 + 1e-9))
          << "size overshoots core at (" << i << "," << j << ")";
      // And the core never exceeds the exact serving TED — bitwise, no
      // slack: this is the floating-point guarantee the triangle and
      // core-direct bounds chain through.
      EXPECT_LE(core, exact) << "core overshoots exact at (" << i << ","
                             << j << ")";
      if (i == j) {
        EXPECT_EQ(size_lb, 0.0);
        EXPECT_EQ(core, 0.0);
      }
    }
  }
}

TEST_F(CascadeBoundsTest, NormalizedBoundNeverExceedsTheServingDistance) {
  // What both serving paths actually compare: the deflated normalized size
  // bound versus the normalized session distance. A bound above the
  // distance would prune an admissible neighbor and break the bitwise
  // equivalence contract.
  SessionDistance metric = Metric();
  TedWorkspace ws;
  const size_t n = std::min<size_t>(prepared_->size(), 40);
  size_t positive = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const FlatContext& a = (*prepared_)[i];
      const FlatContext& b = (*prepared_)[j];
      const double d = metric.Distance(a, b, &ws);
      const double bound =
          index::NormalizedSizeBound(static_cast<double>(a.size()),
                                     static_cast<double>(b.size()));
      EXPECT_LE(bound, d) << "(" << i << "," << j << ")";
      if (bound > 0.0) ++positive;
    }
  }
  // The property is vacuous if every pair has the same node count.
  EXPECT_GT(positive, 0u);
}

// ---------------------------------------------------------------------------
// KernelEquivalence: reference per-cell keyroot DP vs the restructured
// kernel.

// The textbook Zhang–Shasha dynamic program, exactly as the kernel was
// written before the restructure: lazy per-cell alter evaluation, one
// three-way min per cell, no precomputed tables. Kept here as the
// independent oracle the restructured ZhangShashaCompute must match
// bitwise.
template <typename AlterFn>
double ReferenceZhangShasha(const FlatContext& ta, const FlatContext& tb,
                            double indel, const AlterFn& alter) {
  const size_t n = ta.size();
  const size_t m = tb.size();
  std::vector<double> treedist(n * m, 0.0);
  const size_t fstride = m + 1;
  std::vector<double> fd((n + 1) * fstride, 0.0);
  const FlatContext::Node* an = ta.post.data();
  const FlatContext::Node* bn = tb.post.data();
  for (int ki : ta.keyroots) {
    const int li = an[ki].leftmost;
    const int ni = ki - li + 2;  // forest rows: positions li..ki plus empty
    for (int kj : tb.keyroots) {
      const int lj = bn[kj].leftmost;
      const int nj = kj - lj + 2;
      fd[0] = 0.0;
      for (int i = 1; i < ni; ++i) {
        fd[static_cast<size_t>(i) * fstride] =
            fd[static_cast<size_t>(i - 1) * fstride] + indel;
      }
      for (int j = 1; j < nj; ++j) {
        fd[static_cast<size_t>(j)] = fd[static_cast<size_t>(j - 1)] + indel;
      }
      for (int i = 1; i < ni; ++i) {
        const int pi = li + i - 1;
        for (int j = 1; j < nj; ++j) {
          const int pj = lj + j - 1;
          const double del =
              fd[static_cast<size_t>(i - 1) * fstride +
                 static_cast<size_t>(j)] +
              indel;
          const double ins =
              fd[static_cast<size_t>(i) * fstride +
                 static_cast<size_t>(j - 1)] +
              indel;
          const bool anchored =
              an[pi].leftmost == li && bn[pj].leftmost == lj;
          double sub;
          if (anchored) {
            sub = fd[static_cast<size_t>(i - 1) * fstride +
                     static_cast<size_t>(j - 1)] +
                  alter(pi, pj);
          } else {
            const size_t fi = static_cast<size_t>(an[pi].leftmost - li);
            const size_t fj = static_cast<size_t>(bn[pj].leftmost - lj);
            sub = fd[fi * fstride + fj] +
                  treedist[static_cast<size_t>(pi) * m +
                           static_cast<size_t>(pj)];
          }
          const double best = std::min({del, ins, sub});
          fd[static_cast<size_t>(i) * fstride + static_cast<size_t>(j)] =
              best;
          if (anchored) {
            treedist[static_cast<size_t>(pi) * m + static_cast<size_t>(pj)] =
                best;
          }
        }
      }
    }
  }
  return treedist[(n - 1) * m + (m - 1)];
}

// A synthetic branched tree in FlatContext form: postorder leftmost
// indices plus derived keyroots. display/incoming stay null — the kernel
// only consults them through the caller's alter functor, and these tests
// use positional functors.
FlatContext MakeTree(const std::vector<int>& leftmost) {
  FlatContext t;
  t.post.resize(leftmost.size());
  for (size_t i = 0; i < leftmost.size(); ++i) {
    t.post[i].leftmost = leftmost[i];
    // A jagged but deterministic per-node feature for the float functor.
    t.post[i].log_rows = static_cast<double>((i * 37 + 11) % 64) / 16.0;
  }
  // Keyroots: the highest postorder position per distinct leftmost value.
  std::vector<int> key;
  for (size_t i = 0; i < leftmost.size(); ++i) {
    bool highest = true;
    for (size_t j = i + 1; j < leftmost.size(); ++j) {
      if (leftmost[j] == leftmost[i]) {
        highest = false;
        break;
      }
    }
    if (highest) key.push_back(static_cast<int>(i));
  }
  t.keyroots = std::move(key);
  return t;
}

// Appends the postorder of a random subtree with `size` nodes, recording
// each node's leftmost-leaf postorder index.
void BuildRandomSubtree(std::mt19937& rng, int size,
                        std::vector<int>* leftmost) {
  if (size == 1) {
    leftmost->push_back(static_cast<int>(leftmost->size()));
    return;
  }
  int remaining = size - 1;
  int first_left = -1;
  while (remaining > 0) {
    const int child =
        1 + static_cast<int>(rng() % static_cast<unsigned>(remaining));
    const size_t before = leftmost->size();
    BuildRandomSubtree(rng, child, leftmost);
    if (first_left < 0) first_left = (*leftmost)[before];
    remaining -= child;
  }
  leftmost->push_back(first_left);
}

FlatContext RandomTree(std::mt19937& rng, int size) {
  std::vector<int> leftmost;
  leftmost.reserve(static_cast<size_t>(size));
  BuildRandomSubtree(rng, size, &leftmost);
  return MakeTree(leftmost);
}

TEST(KernelEquivalence, BranchedRandomTreesMatchTheReferenceDpBitwise) {
  // Random branching shapes exercise every kernel case the path-shaped
  // serving contexts cannot: non-anchored rows, non-anchored columns,
  // multiple keyroot blocks per tree.
  std::mt19937 rng(2026);
  std::vector<FlatContext> trees;
  for (int size : {1, 2, 3, 4, 5, 7, 9, 12, 16, 21}) {
    trees.push_back(RandomTree(rng, size));
    trees.push_back(RandomTree(rng, size));
  }
  TedWorkspace ws;
  size_t nontrivial = 0;
  for (const FlatContext& a : trees) {
    for (const FlatContext& b : trees) {
      // Positional float alter cost with varied magnitudes (dyadic values,
      // so any reordering bug shows up bitwise, not as noise).
      auto alter = [&](int pi, int pj) {
        const double da = a.post[static_cast<size_t>(pi)].log_rows;
        const double db = b.post[static_cast<size_t>(pj)].log_rows;
        const double diff = da < db ? db - da : da - db;
        return 0.125 * diff +
               static_cast<double>((pi + 2 * pj) % 5) * 0.0625;
      };
      for (double indel : {0.5, 1.0}) {
        const double want = ReferenceZhangShasha(a, b, indel, alter);
        const double got =
            internal::ZhangShashaCompute(a, b, indel, &ws, alter);
        EXPECT_EQ(got, want)  // bitwise
            << "sizes " << a.size() << " x " << b.size() << " indel "
            << indel;
      }
      if (a.keyroots.size() > 1 && b.keyroots.size() > 1) ++nontrivial;
    }
  }
  // The property is weak if every pair degenerated to the single-keyroot
  // fast path.
  EXPECT_GT(nontrivial, 10u);
}

TEST(KernelEquivalence, RealPathContextsMatchTheReferenceDpBitwise) {
  // The serving shape: generator-produced n-contexts (paths), under both
  // a unit-cost functor and a float functor over the real per-node
  // summaries. Covers the all-anchored fast path on real data.
  auto bench = GenerateBenchmark(SmallGeneratorOptions(13));
  ASSERT_TRUE(bench.ok());
  engine::Trainer trainer(CascadeTestConfig());
  auto model = trainer.Fit(bench->log, bench->registry);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  std::vector<FlatContext> prepared;
  for (const TrainingSample& s : model->samples()) {
    prepared.push_back(SessionDistance::Prepare(s.context));
  }
  ASSERT_GT(prepared.size(), 20u);
  TedWorkspace ws;
  const size_t n = std::min<size_t>(prepared.size(), 28);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const FlatContext& a = prepared[i];
      const FlatContext& b = prepared[j];
      auto unit = [&](int pi, int pj) {
        return a.post[static_cast<size_t>(pi)].display.identity ==
                       b.post[static_cast<size_t>(pj)].display.identity
                   ? 0.0
                   : 1.0;
      };
      auto rows = [&](int pi, int pj) {
        const double da = a.post[static_cast<size_t>(pi)].log_rows;
        const double db = b.post[static_cast<size_t>(pj)].log_rows;
        return 0.25 * (da < db ? db - da : da - db);
      };
      EXPECT_EQ(internal::ZhangShashaCompute(a, b, 1.0, &ws, unit),
                ReferenceZhangShasha(a, b, 1.0, unit))
          << "(" << i << "," << j << ")";
      EXPECT_EQ(internal::ZhangShashaCompute(a, b, 0.5, &ws, rows),
                ReferenceZhangShasha(a, b, 0.5, rows))
          << "(" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace ida
