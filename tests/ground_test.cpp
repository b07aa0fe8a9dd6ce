#include "distance/ground.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "actions/executor.h"
#include "test_util.h"

namespace ida {
namespace {

TEST(ActionSyntaxDistanceTest, IdenticalActionsAreZero) {
  Action a = Action::Filter({{"p", CompareOp::kEq, Value("HTTP")}});
  EXPECT_DOUBLE_EQ(ActionSyntaxDistance(a, a), 0.0);
  Action g = Action::GroupBy("ip", AggFunc::kSum, "len");
  EXPECT_DOUBLE_EQ(ActionSyntaxDistance(g, g), 0.0);
  EXPECT_DOUBLE_EQ(ActionSyntaxDistance(Action::Back(), Action::Back()), 0.0);
}

TEST(ActionSyntaxDistanceTest, DifferentTypesAreMaximal) {
  Action f = Action::Filter({{"p", CompareOp::kEq, Value("x")}});
  Action g = Action::GroupBy("p", AggFunc::kCount);
  EXPECT_DOUBLE_EQ(ActionSyntaxDistance(f, g), 1.0);
  EXPECT_DOUBLE_EQ(ActionSyntaxDistance(f, Action::Back()), 1.0);
}

TEST(ActionSyntaxDistanceTest, FilterGradations) {
  Action base = Action::Filter({{"proto", CompareOp::kEq, Value("HTTP")}});
  Action same_col_op =
      Action::Filter({{"proto", CompareOp::kEq, Value("DNS")}});
  Action same_col = Action::Filter({{"proto", CompareOp::kNe, Value("DNS")}});
  Action other = Action::Filter({{"hour", CompareOp::kGe, Value(int64_t{19})}});
  double d1 = ActionSyntaxDistance(base, same_col_op);
  double d2 = ActionSyntaxDistance(base, same_col);
  double d3 = ActionSyntaxDistance(base, other);
  EXPECT_LT(d1, d2);
  EXPECT_LT(d2, d3);
  EXPECT_NEAR(d1, 0.25, 1e-12);  // operand differs
  EXPECT_NEAR(d2, 0.5, 1e-12);   // operand and op differ
}

TEST(ActionSyntaxDistanceTest, PredicateCountMismatchPenalized) {
  Action one = Action::Filter({{"a", CompareOp::kEq, Value(int64_t{1})}});
  Action two = Action::Filter({{"a", CompareOp::kEq, Value(int64_t{1})},
                               {"b", CompareOp::kEq, Value(int64_t{2})}});
  double d = ActionSyntaxDistance(one, two);
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);
  // Symmetric.
  EXPECT_DOUBLE_EQ(d, ActionSyntaxDistance(two, one));
}

TEST(ActionSyntaxDistanceTest, GroupByGradations) {
  Action base = Action::GroupBy("ip", AggFunc::kCount);
  EXPECT_NEAR(
      ActionSyntaxDistance(base, Action::GroupBy("ip", AggFunc::kSum, "len")),
      0.5, 1e-12);  // same column (0.5), func+aggcol differ
  EXPECT_NEAR(
      ActionSyntaxDistance(base, Action::GroupBy("port", AggFunc::kCount)),
      0.5, 1e-12);  // same func+aggcol, column differs
}

TEST(ActionDistanceTest, OptionalHandling) {
  std::optional<Action> none;
  std::optional<Action> some = Action::Back();
  EXPECT_DOUBLE_EQ(ActionDistance(none, none), 0.0);
  EXPECT_DOUBLE_EQ(ActionDistance(none, some), 1.0);
  EXPECT_DOUBLE_EQ(ActionDistance(some, some), 0.0);
}

TEST(DisplayContentDistanceTest, IdenticalDisplaysAreZero) {
  auto d = testing::MakeProfileDisplay({5.0, 10.0});
  EXPECT_NEAR(DisplayContentDistance(*d, *d), 0.0, 1e-12);
}

TEST(DisplayContentDistanceTest, Symmetric) {
  auto a = testing::MakeProfileDisplay({5.0, 10.0});
  auto b = testing::MakeProfileDisplay({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(DisplayContentDistance(*a, *b),
                   DisplayContentDistance(*b, *a));
}

TEST(DisplayContentDistanceTest, BoundedUnitInterval) {
  ActionExecutor exec;
  auto root = Display::MakeRoot(testing::PacketsTable());
  auto agg = exec.Execute(Action::GroupBy("protocol", AggFunc::kCount), *root);
  ASSERT_TRUE(agg.ok());
  double d = DisplayContentDistance(*root, **agg);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
  EXPECT_GT(d, 0.0);  // different kinds/columns must register
}

TEST(DisplayContentDistanceTest, SimilarDistributionsCloserThanDifferent) {
  auto base = testing::MakeProfileDisplay({50.0, 30.0, 20.0});
  auto near = testing::MakeProfileDisplay({48.0, 31.0, 21.0});
  auto far = testing::MakeProfileDisplay({2.0, 3.0, 95.0});
  EXPECT_LT(DisplayContentDistance(*base, *near),
            DisplayContentDistance(*base, *far));
}

TEST(DisplayContentDistanceTest, SizeDifferenceRegisters) {
  auto small = testing::MakeProfileDisplay({1.0, 1.0}, DisplayKind::kRaw,
                                           1000, 4);
  auto large = testing::MakeProfileDisplay({1.0, 1.0}, DisplayKind::kRaw,
                                           1000, 2000);
  EXPECT_GT(DisplayContentDistance(*small, *large), 0.05);
}

// A heap Display may carry more labels than values (the artifact loader
// rejects such records; the Display constructor does not). Labels and
// values pair by position, so a label without a value takes no part in
// the metric: the distance is bitwise that of the display cut to its
// values. Under ASan this also pins that no value past the end is read.
TEST(DisplayContentDistanceTest, LabelsWithoutValuesAreIgnored) {
  InterestProfile p;
  p.column = "col";
  p.labels = {"d", "b", "c", "a"};
  p.values = {3.0, 1.0};
  const Display extra(DisplayKind::kAggregated, nullptr, p, 1000);
  p.labels.resize(p.values.size());
  const Display cut(DisplayKind::kAggregated, nullptr, p, 1000);

  const DisplayProfile profile = MakeDisplayProfile(extra.View());
  EXPECT_EQ(profile.labels, (std::vector<std::string>{"b", "d"}));
  ASSERT_EQ(profile.probs.size(), 2u);
  EXPECT_DOUBLE_EQ(profile.probs[0], 0.25);
  EXPECT_DOUBLE_EQ(profile.probs[1], 0.75);

  auto other = testing::MakeProfileDisplay({5.0, 10.0, 1.0});
  for (const Display* x : {&extra, other.get()}) {
    const double got = DisplayContentDistance(extra, *x);
    const double want = DisplayContentDistance(cut, *x);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << got << " vs " << want;
  }
}

}  // namespace
}  // namespace ida
