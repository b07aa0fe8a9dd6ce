#include "actions/action.h"

#include <gtest/gtest.h>

#include <ostream>

namespace ida {

// Prints an action as its serialized form, so parameterized test names and
// failure messages are readable and stable (the default printer dumps the
// object's raw bytes, which include heap addresses).
void PrintTo(const Action& action, std::ostream* os) {
  *os << action.Serialize();
}

namespace {

TEST(ActionTest, FilterFactory) {
  Action a = Action::Filter({{"proto", CompareOp::kEq, Value("HTTP")}});
  EXPECT_EQ(a.type(), ActionType::kFilter);
  ASSERT_EQ(a.predicates().size(), 1u);
  EXPECT_EQ(a.predicates()[0].column, "proto");
}

TEST(ActionTest, GroupByFactory) {
  Action a = Action::GroupBy("ip", AggFunc::kSum, "length");
  EXPECT_EQ(a.type(), ActionType::kGroupBy);
  EXPECT_EQ(a.group_column(), "ip");
  EXPECT_EQ(a.agg_func(), AggFunc::kSum);
  EXPECT_EQ(a.agg_column(), "length");
}

TEST(ActionTest, SerializeFormats) {
  EXPECT_EQ(Action::Back().Serialize(), "BACK");
  EXPECT_EQ(Action::GroupBy("proto", AggFunc::kCount).Serialize(),
            "GROUPBY proto AGG count");
  EXPECT_EQ(Action::GroupBy("ip", AggFunc::kAvg, "len").Serialize(),
            "GROUPBY ip AGG avg len");
  EXPECT_EQ(
      Action::Filter({{"hour", CompareOp::kGe, Value(int64_t{19})}}).Serialize(),
      "FILTER hour >= 19");
  EXPECT_EQ(Action::Filter({{"p", CompareOp::kEq, Value("HTTP")},
                            {"h", CompareOp::kLt, Value(int64_t{4})}})
                .Serialize(),
            "FILTER p == \"HTTP\" AND h < 4");
}

TEST(ActionTest, ReferencedColumns) {
  EXPECT_EQ(Action::Back().ReferencedColumns().size(), 0u);
  auto f = Action::Filter({{"a", CompareOp::kEq, Value(int64_t{1})},
                           {"b", CompareOp::kEq, Value(int64_t{2})}});
  EXPECT_EQ(f.ReferencedColumns(), (std::vector<std::string>{"a", "b"}));
  auto g = Action::GroupBy("g", AggFunc::kSum, "v");
  EXPECT_EQ(g.ReferencedColumns(), (std::vector<std::string>{"g", "v"}));
}

TEST(ActionParseTest, Errors) {
  EXPECT_FALSE(Action::Parse("").ok());
  EXPECT_FALSE(Action::Parse("NONSENSE x").ok());
  EXPECT_FALSE(Action::Parse("FILTER").ok());
  EXPECT_FALSE(Action::Parse("FILTER a ==").ok());
  EXPECT_FALSE(Action::Parse("FILTER a ?? 3").ok());
  EXPECT_FALSE(Action::Parse("FILTER a == 1 OR b == 2").ok());
  EXPECT_FALSE(Action::Parse("GROUPBY x").ok());
  EXPECT_FALSE(Action::Parse("GROUPBY x AGG bogus").ok());
  EXPECT_FALSE(Action::Parse("GROUPBY x AGG sum").ok());  // missing column
  EXPECT_FALSE(Action::Parse("BACK now").ok());
}

TEST(ActionParseTest, CountNeedsNoColumn) {
  auto a = Action::Parse("GROUPBY x AGG count");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->agg_func(), AggFunc::kCount);
}

// Round-trip property over a sweep of representative actions.
class ActionRoundTrip : public ::testing::TestWithParam<Action> {};

TEST_P(ActionRoundTrip, SerializeParseIdentity) {
  const Action& original = GetParam();
  Result<Action> parsed = Action::Parse(original.Serialize());
  ASSERT_TRUE(parsed.ok()) << original.Serialize() << " -> "
                           << parsed.status().ToString();
  EXPECT_TRUE(*parsed == original) << original.Serialize();
  // Second round trip is stable.
  EXPECT_EQ(parsed->Serialize(), original.Serialize());
}

INSTANTIATE_TEST_SUITE_P(
    Actions, ActionRoundTrip,
    ::testing::Values(
        Action::Back(),
        Action::GroupBy("protocol", AggFunc::kCount),
        Action::GroupBy("dst_ip", AggFunc::kSum, "length"),
        Action::GroupBy("a", AggFunc::kCountDistinct, "b"),
        Action::GroupBy("x", AggFunc::kMin, "y"),
        Action::GroupBy("x", AggFunc::kMax, "y"),
        Action::GroupBy("x", AggFunc::kAvg, "y"),
        Action::Filter({{"p", CompareOp::kEq, Value("HTTP")}}),
        Action::Filter({{"p", CompareOp::kNe, Value("with space")}}),
        Action::Filter({{"p", CompareOp::kContains, Value("quo\"te")}}),
        Action::Filter({{"h", CompareOp::kGe, Value(int64_t{19})},
                        {"h", CompareOp::kLe, Value(int64_t{23})}}),
        Action::Filter({{"len", CompareOp::kLt, Value(2.5)}}),
        Action::Filter({{"len", CompareOp::kGt, Value(-3.0)}}),
        Action::Filter({{"x", CompareOp::kEq, Value::Null()}}),
        Action::Filter({{"s", CompareOp::kEq, Value("back\\slash")}})));

}  // namespace
}  // namespace ida
