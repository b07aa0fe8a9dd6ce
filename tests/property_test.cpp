// Randomized property sweeps across module boundaries: invariants that
// must hold for arbitrary generated data, actions and sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "actions/executor.h"
#include "common/rng.h"
#include "distance/ground.h"
#include "distance/ted.h"
#include "measures/measure.h"
#include "offline/comparison.h"
#include "offline/training.h"
#include "predict/knn.h"
#include "session/ncontext.h"
#include "stats/descriptive.h"
#include "synth/agent.h"
#include "synth/dataset.h"

namespace ida {
namespace {

// ------------------------------------------------------ executor invariants

class ExecutorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorPropertyTest, FilterResultIsSubsetOfParent) {
  SynthDataset d = MakeScenarioDataset(ScenarioKind::kPortScan, 400,
                                       GetParam());
  auto root = Display::MakeRoot(d.table);
  ActionExecutor exec;
  Rng rng(GetParam() * 31 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    // A random single-predicate filter built from an actual cell value.
    size_t col = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(d.table->num_columns()) - 1));
    size_t row = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(d.table->num_rows()) - 1));
    Value v = d.table->GetValue(row, col);
    if (v.is_null()) continue;
    Action a = Action::Filter(
        {Predicate{d.table->schema().field(col).name, CompareOp::kEq, v}});
    auto r = exec.Execute(a, *root);
    ASSERT_TRUE(r.ok());
    EXPECT_LE((*r)->num_rows(), root->num_rows());
    EXPECT_GE((*r)->num_rows(), 1u);  // the witness row matches itself
    // Filter is idempotent: applying it again changes nothing.
    auto rr = exec.Execute(a, **r);
    ASSERT_TRUE(rr.ok());
    EXPECT_EQ((*rr)->num_rows(), (*r)->num_rows());
  }
}

TEST_P(ExecutorPropertyTest, GroupByCoversAllParentTuples) {
  SynthDataset d = MakeScenarioDataset(ScenarioKind::kDataExfil, 300,
                                       GetParam());
  auto root = Display::MakeRoot(d.table);
  ActionExecutor exec;
  for (const char* col : {"protocol", "src_ip", "dst_ip", "flags", "hour"}) {
    auto r = exec.Execute(Action::GroupBy(col, AggFunc::kCount), *root);
    ASSERT_TRUE(r.ok()) << col;
    const InterestProfile& p = (*r)->profile();
    EXPECT_DOUBLE_EQ(p.covered_tuples(), 300.0) << col;
    // Counts equal group sizes for kCount.
    for (size_t j = 0; j < p.group_count(); ++j) {
      EXPECT_DOUBLE_EQ(p.values[j], p.group_sizes[j]);
    }
    // Sum aggregate must total the column sum.
    auto sum = exec.Execute(Action::GroupBy(col, AggFunc::kSum, "length"),
                            *root);
    ASSERT_TRUE(sum.ok());
    double total = 0.0;
    for (double v : (*sum)->profile().values) total += v;
    auto lc = d.table->ColumnByName("length");
    double expect = 0.0;
    for (size_t i = 0; i < lc->size(); ++i) expect += lc->GetNumeric(i);
    EXPECT_NEAR(total, expect, 1e-6) << col;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ----------------------------------------------- session / context sweeps

class SessionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionPropertyTest, NContextInvariants) {
  SynthDataset d =
      MakeScenarioDataset(ScenarioKind::kLateralMovement, 500, GetParam());
  AgentProfile profile;
  profile.min_steps = 5;
  profile.max_steps = 9;
  AnalystAgent agent(&d, profile, GetParam() * 7 + 3);
  ActionExecutor exec;
  auto tree = agent.RunSession("s", "u", exec);
  ASSERT_TRUE(tree.ok());

  for (int t = 0; t <= tree->num_steps(); ++t) {
    for (int n = 1; n <= 11; n += 2) {
      NContext c = ExtractNContext(*tree, t, n);
      ASSERT_FALSE(c.empty());
      // Size bounds: at least min(n, 2t+1); overshoot past n is possible
      // (adding one more edge may pull in a whole connecting path), but a
      // context can never exceed the elements that exist up to step t.
      size_t available = static_cast<size_t>(2 * t + 1);
      EXPECT_GE(c.size_elements(),
                std::min<size_t>(static_cast<size_t>(n), available));
      EXPECT_LE(c.size_elements(), available);
      // Focus node is d_t; root has no incoming action.
      EXPECT_EQ(c.node(c.focus()).step, t);
      EXPECT_FALSE(c.node(c.root()).incoming.has_value());
      // Every non-root node carries its incoming action.
      for (size_t i = 0; i < c.nodes().size(); ++i) {
        if (static_cast<int>(i) != c.root()) {
          EXPECT_TRUE(c.nodes()[i].incoming.has_value());
        }
      }
      // Monotone: a larger n never yields a smaller context.
      if (n > 1) {
        NContext smaller = ExtractNContext(*tree, t, n - 2);
        EXPECT_LE(smaller.size_elements(), c.size_elements());
      }
    }
  }
}

TEST_P(SessionPropertyTest, DistanceCacheIsTransparent) {
  SynthDataset d =
      MakeScenarioDataset(ScenarioKind::kMalwareBeacon, 400, GetParam());
  AgentProfile profile;
  profile.min_steps = 6;
  profile.max_steps = 8;
  AnalystAgent agent(&d, profile, GetParam() + 77);
  ActionExecutor exec;
  auto tree = agent.RunSession("s", "u", exec);
  ASSERT_TRUE(tree.ok());
  std::vector<TrainingSample> train;
  for (int t = 0; t <= tree->num_steps(); ++t) {
    TrainingSample s;
    s.context = ExtractNContext(*tree, t, 5);
    s.label = t % 3;
    s.labels = {s.label};
    train.push_back(std::move(s));
  }
  KnnOptions knn;
  knn.k = 3;
  knn.distance_threshold = 1.0;  // admit every neighbor: confidence varies
  // Reused across queries: its pool memo fills up. Each query runs on
  // fresh scratch, so a pool pair an earlier query computed can only come
  // back through the shared memo.
  const IKnnClassifier warm(train, SessionDistance(), knn);
  TedTally warm_tally;
  for (size_t i = 0; i < train.size(); ++i) {
    FlatContext q = SessionDistance::Prepare(train[i].context);
    PredictScratch scratch;
    PredictStats warm_stats;
    const Prediction got = warm.PredictFlat(q, scratch, &warm_stats);
    warm_tally.display_shared_hits += warm_stats.ted.display_shared_hits;
    // Fresh classifier and metric: no memo reuse at all.
    const IKnnClassifier cold(train, SessionDistance(), knn);
    PredictStats cold_stats;
    const Prediction want = cold.Predict(train[i].context, &cold_stats);
    EXPECT_EQ(got.label, want.label) << "query " << i;
    // ida-lint: allow(float-eq): the memo must not change a single bit
    EXPECT_EQ(got.confidence, want.confidence) << "query " << i;
    // ida-lint: allow(float-eq): the memo must not change a single bit
    EXPECT_EQ(warm_stats.nearest_distance, cold_stats.nearest_distance);
  }
#if IDA_OBS_ENABLED
  EXPECT_GT(warm_tally.display_shared_hits, 0u);
#endif
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionPropertyTest,
                         ::testing::Values(11, 22, 33));

// ------------------------------------------------- display metric sweeps
//
// The display-distance memos (distance/ted.h) key a value by an unordered
// pair of display ids and share it across workspaces, sessions and
// workers: whichever side asked first, and whichever content-identical
// display stood for a pool id, every later reader gets the same bits.
// These sweeps pin the two facts that make this sound.

/// Owned storage for a random display profile; `View` exposes it heap
/// style (std::string labels), `FlatView` mapping style (one string heap
/// plus offsets), so content-equal views can come from distinct storage.
struct RandomProfile {
  DisplayKind kind = DisplayKind::kRoot;
  std::string column;
  std::vector<std::string> labels;
  std::vector<double> values;
  uint64_t rows = 0;
  std::string heap;
  std::vector<LabelRef> refs;

  DisplayView View() const {
    DisplayView v;
    v.kind = kind;
    v.column = column;
    v.num_labels = static_cast<uint32_t>(labels.size());
    v.num_values = static_cast<uint32_t>(values.size());
    v.num_rows = rows;
    v.values = values.data();
    v.owned_labels = labels.data();
    return v;
  }

  DisplayView FlatView() {
    heap.clear();
    refs.clear();
    for (const std::string& l : labels) {
      refs.push_back({static_cast<uint32_t>(heap.size()),
                      static_cast<uint32_t>(l.size())});
      heap += l;
    }
    DisplayView v = View();
    v.owned_labels = nullptr;
    v.flat_labels = refs.data();
    v.str_heap = heap.data();
    return v;
  }
};

/// Random profiles over a tiny label alphabet (so labels repeat within
/// and across displays), with zero, negative and empty cases mixed in.
RandomProfile MakeRandomProfile(Rng& rng) {
  static const char* kLabels[] = {"", "a", "b", "ab", "tcp", "udp"};
  static const char* kColumns[] = {"", "proto", "port"};
  RandomProfile p;
  p.kind = static_cast<DisplayKind>(rng.UniformInt(0, 2));
  p.column = kColumns[rng.UniformInt(0, 2)];
  p.rows = static_cast<uint64_t>(
      rng.Bernoulli(0.2) ? 0 : rng.UniformInt(0, 5000));
  const int64_t n = rng.Bernoulli(0.15) ? 0 : rng.UniformInt(1, 7);
  for (int64_t i = 0; i < n; ++i) {
    p.labels.push_back(kLabels[rng.UniformInt(0, 5)]);
    const int64_t shape = rng.UniformInt(0, 4);
    p.values.push_back(shape == 0   ? 0.0
                       : shape == 1 ? -rng.UniformReal(0.0, 3.0)
                                    : rng.UniformReal(0.0, 100.0));
  }
  return p;
}

TEST(DisplayMetricPropertyTest, ContentDistanceIsSymmetricBitwise) {
  Rng rng(20190326);
  for (int trial = 0; trial < 2000; ++trial) {
    const RandomProfile a = MakeRandomProfile(rng);
    const RandomProfile b = MakeRandomProfile(rng);
    const double ab = DisplayContentDistance(a.View(), b.View());
    const double ba = DisplayContentDistance(b.View(), a.View());
    // One shared memo entry serves both orders.
    ASSERT_EQ(std::memcmp(&ab, &ba, sizeof(double)), 0)
        << "trial " << trial << ": " << ab << " vs " << ba;
  }
}

TEST(DisplayMetricPropertyTest, ContentEqualDisplaysMeasureAlike) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    RandomProfile a = MakeRandomProfile(rng);
    RandomProfile a2 = a;  // same content, distinct storage
    const RandomProfile c = MakeRandomProfile(rng);
    const DisplayView va = a.View();
    const DisplayView va2 = a2.FlatView();
    ASSERT_TRUE(ContentEquals(va, va2));
    for (const DisplayView& third : {c.View(), va}) {
      const double d1 = DisplayContentDistance(va, third);
      const double d2 = DisplayContentDistance(va2, third);
      ASSERT_EQ(std::memcmp(&d1, &d2, sizeof(double)), 0)
          << "trial " << trial << ": " << d1 << " vs " << d2;
      const double r1 = DisplayContentDistance(third, va);
      const double r2 = DisplayContentDistance(third, va2);
      ASSERT_EQ(std::memcmp(&r1, &r2, sizeof(double)), 0)
          << "trial " << trial << ": " << r1 << " vs " << r2;
    }
    // A display and its content twin are at distance exactly +0.0, the
    // value the memo's equal-id shortcut returns without computing.
    const double self = DisplayContentDistance(va, va2);
    const double zero = 0.0;
    ASSERT_EQ(std::memcmp(&self, &zero, sizeof(double)), 0) << self;
  }
}

/// The display metric as first written, kept as the oracle for the
/// profile merge: a std::map over the union of both displays' labels
/// (last write wins), then three entropies over the aligned vectors.
/// Defined only for views with num_labels <= num_values.
double OracleContentDistance(const DisplayView& a, const DisplayView& b) {
  double d = 0.0;
  if (a.kind != b.kind) d += 0.2;
  if (a.column != b.column) d += 0.2;
  std::map<std::string_view, std::pair<double, double>> aligned;
  std::vector<double> prob_a = NormalizedProbabilities(a.values, a.num_values);
  std::vector<double> prob_b = NormalizedProbabilities(b.values, b.num_values);
  for (uint32_t j = 0; j < a.num_labels; ++j) {
    aligned[a.label(j)].first = prob_a[j];
  }
  for (uint32_t j = 0; j < b.num_labels; ++j) {
    aligned[b.label(j)].second = prob_b[j];
  }
  if (!aligned.empty()) {
    std::vector<double> va, vb, mix;
    for (const auto& [label, pq] : aligned) {
      va.push_back(pq.first);
      vb.push_back(pq.second);
      mix.push_back((pq.first + pq.second) / 2.0);
    }
    double jsd = ShannonEntropy(mix) -
                 (ShannonEntropy(va) + ShannonEntropy(vb)) / 2.0;
    d += 0.4 * std::clamp(jsd, 0.0, 1.0);
  }
  double la = std::log2(static_cast<double>(a.num_rows) + 1.0);
  double lb = std::log2(static_cast<double>(b.num_rows) + 1.0);
  constexpr double kSizeCap = 12.0;
  d += 0.2 * std::min(std::fabs(la - lb), kSizeCap) / kSizeCap;
  return std::clamp(d, 0.0, 1.0);
}

/// MakeRandomProfile plus the inputs the metric must survive: NaN and
/// +-inf values, labels that are prefixes of one another, and displays
/// with no labels at all.
RandomProfile MakeHostileProfile(Rng& rng) {
  static const char* kPrefixLabels[] = {"t", "tc", "tcp", "tcp6", "a", "ab"};
  RandomProfile p = MakeRandomProfile(rng);
  if (rng.Bernoulli(0.15)) {
    p.labels.clear();
    p.values.clear();
  }
  for (size_t i = 0; i < p.labels.size(); ++i) {
    if (rng.Bernoulli(0.4)) p.labels[i] = kPrefixLabels[rng.UniformInt(0, 5)];
    const int64_t odd = rng.UniformInt(0, 9);
    if (odd == 0) p.values[i] = std::numeric_limits<double>::quiet_NaN();
    if (odd == 1) p.values[i] = std::numeric_limits<double>::infinity();
    if (odd == 2) p.values[i] = -std::numeric_limits<double>::infinity();
  }
  return p;
}

bool SameProfile(const DisplayProfile& x, const DisplayProfile& y) {
  auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  if (x.kind != y.kind || x.column != y.column || x.labels != y.labels ||
      x.probs.size() != y.probs.size() || !same(x.log_rows, y.log_rows) ||
      !same(x.entropy, y.entropy)) {
    return false;
  }
  for (size_t i = 0; i < x.probs.size(); ++i) {
    if (!same(x.probs[i], y.probs[i])) return false;
  }
  return true;
}

TEST(DisplayMetricPropertyTest, DisplayProfileMergeMatchesOracleBitwise) {
  Rng rng(20190326);
  for (int trial = 0; trial < 4000; ++trial) {
    RandomProfile a = MakeHostileProfile(rng);
    RandomProfile b = MakeHostileProfile(rng);
    const double want = OracleContentDistance(a.View(), b.View());
    // Heap-backed (query) and flat-backed (pool) views of the same content
    // build the same profile.
    const DisplayProfile pa = MakeDisplayProfile(a.View());
    const DisplayProfile pb = MakeDisplayProfile(b.View());
    ASSERT_TRUE(SameProfile(pa, MakeDisplayProfile(a.FlatView())))
        << "trial " << trial;
    ASSERT_TRUE(SameProfile(pb, MakeDisplayProfile(b.FlatView())))
        << "trial " << trial;
    const double ab = DisplayContentDistance(pa, pb);
    const double ba = DisplayContentDistance(pb, pa);
    ASSERT_EQ(std::memcmp(&ab, &want, sizeof(double)), 0)
        << "trial " << trial << ": " << ab << " vs oracle " << want;
    ASSERT_EQ(std::memcmp(&ba, &ab, sizeof(double)), 0)
        << "trial " << trial << ": " << ba << " vs " << ab;
    for (const DisplayView& va : {a.View(), a.FlatView()}) {
      for (const DisplayView& vb : {b.View(), b.FlatView()}) {
        const double d = DisplayContentDistance(va, vb);
        ASSERT_EQ(std::memcmp(&d, &want, sizeof(double)), 0)
            << "trial " << trial << ": " << d << " vs oracle " << want;
      }
    }
  }
}

// ----------------------------------------------------- comparison sweeps

TEST(ComparisonPropertyTest, SubsetProjectionConsistent) {
  // For any full result, the projected dominant measure must be the
  // measure with the maximal relative score among the projected indices.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    ComparisonResult full;
    for (int m = 0; m < 8; ++m) {
      full.raw_scores.push_back(rng.UniformReal(0, 10));
      full.relative_scores.push_back(rng.UniformReal(-2.5, 2.5));
    }
    FillDominant(&full);
    std::vector<int> indices;
    for (int m = 0; m < 8; ++m) {
      if (rng.Bernoulli(0.5)) indices.push_back(m);
    }
    if (indices.empty()) continue;
    ComparisonResult sub = SubsetResult(full, indices);
    ASSERT_FALSE(sub.dominant.empty());
    double best = -1e300;
    for (int idx : indices) {
      best = std::max(best, full.relative_scores[static_cast<size_t>(idx)]);
    }
    EXPECT_DOUBLE_EQ(sub.max_relative, best);
    for (int d : sub.dominant) {
      EXPECT_DOUBLE_EQ(sub.relative_scores[static_cast<size_t>(d)], best);
    }
  }
}

TEST(ComparisonPropertyTest, ReferenceBasedRelativeScoresAreMidRanks) {
  // With k alternatives, every relative score must be a multiple of
  // 0.5/k within [0, 1].
  SynthDataset d = MakeScenarioDataset(ScenarioKind::kPortScan, 300, 3);
  auto root = Display::MakeRoot(d.table);
  ActionExecutor exec;
  Action q = Action::GroupBy("protocol", AggFunc::kCount);
  auto display = exec.Execute(q, *root);
  ASSERT_TRUE(display.ok());
  std::vector<Action> reference = {
      Action::GroupBy("flags", AggFunc::kCount),
      Action::GroupBy("src_ip", AggFunc::kCount),
      Action::GroupBy("hour", AggFunc::kCount),
      Action::GroupBy("dst_ip", AggFunc::kCount),
  };
  MeasureSet I = CreateAllMeasures();
  ReferenceBasedComparison cmp(I);
  auto result = cmp.Compare(q, *root, **display, root.get(), reference);
  ASSERT_TRUE(result.ok());
  double k = static_cast<double>(result->effective_reference_size);
  ASSERT_GT(k, 0.0);
  for (double r : result->relative_scores) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
    double scaled = r * k * 2.0;  // multiples of 0.5/k
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
  }
}

// ------------------------------------------------------- measure sweeps

class MeasureMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(MeasureMonotonicityTest, SimpsonIncreasesWithConcentration) {
  // Moving mass from the smallest to the largest group can only raise
  // Simpson (and lower Schutz dispersion).
  int m = GetParam();
  std::vector<double> values(static_cast<size_t>(m), 10.0);
  MeasurePtr simpson = CreateMeasure("simpson");
  MeasurePtr schutz = CreateMeasure("schutz");
  double prev_simpson = -1.0;
  double prev_schutz = 2.0;
  for (int shift = 0; shift < 5; ++shift) {
    InterestProfile p;
    p.column = "c";
    TableBuilder b({"c", "v"});
    for (size_t j = 0; j < values.size(); ++j) {
      p.labels.push_back(std::to_string(j));
      p.values.push_back(values[j]);
      p.group_sizes.push_back(values[j]);
      Status st = b.AppendRow({Value(std::to_string(j)), Value(values[j])});
      (void)st;
    }
    auto table = b.Finish();
    Display d(DisplayKind::kAggregated, *table, std::move(p), 1000);
    double s = simpson->Score(d, nullptr);
    double z = schutz->Score(d, nullptr);
    EXPECT_GE(s, prev_simpson - 1e-12);
    EXPECT_LE(z, prev_schutz + 1e-12);
    prev_simpson = s;
    prev_schutz = z;
    values[0] += 8.0;  // concentrate
    values.back() = std::max(1.0, values.back() - 8.0);
  }
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, MeasureMonotonicityTest,
                         ::testing::Values(3, 5, 9, 17));

}  // namespace
}  // namespace ida
