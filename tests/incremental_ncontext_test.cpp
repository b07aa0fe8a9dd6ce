// Equivalence suite for the incremental n-context builder (DESIGN.md §14):
// NContextBuilder::Extract must be bitwise-identical to the one-shot
// ExtractNContext oracle on every reachable state of a growing session —
// across randomized growth schedules (deep chains, heavy backtracking,
// random parents), every n, interleaved n values, and extraction at past
// states — and the FlatContext prepared from either context must match
// field for field.
#include "session/ncontext.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "actions/action.h"
#include "actions/executor.h"
#include "common/rng.h"
#include "distance/ted.h"
#include "test_util.h"

namespace ida {
namespace {

// Structural bitwise equality of two contexts: same node arrays (display
// identity, action syntax, step/parent/children), same root/focus.
void ExpectSameContext(const NContext& got, const NContext& want,
                       const std::string& where) {
  ASSERT_EQ(got.nodes().size(), want.nodes().size()) << where;
  EXPECT_EQ(got.root(), want.root()) << where;
  EXPECT_EQ(got.focus(), want.focus()) << where;
  for (size_t i = 0; i < want.nodes().size(); ++i) {
    const NContextNode& g = got.nodes()[i];
    const NContextNode& w = want.nodes()[i];
    // Displays are shared with the tree: pointer identity is the strongest
    // possible equality and exactly what the distance layer sees.
    EXPECT_EQ(g.display.get(), w.display.get()) << where << " node " << i;
    EXPECT_EQ(g.step, w.step) << where << " node " << i;
    EXPECT_EQ(g.parent, w.parent) << where << " node " << i;
    EXPECT_EQ(g.children, w.children) << where << " node " << i;
    ASSERT_EQ(g.incoming.has_value(), w.incoming.has_value())
        << where << " node " << i;
    if (w.incoming.has_value()) {
      EXPECT_EQ(g.incoming->ToString(), w.incoming->ToString())
          << where << " node " << i;
    }
  }
  EXPECT_EQ(got.Fingerprint(), want.Fingerprint()) << where;
}

// The prepared arrays the serving path consumes must match too.
void ExpectSameFlat(const FlatContext& got, const FlatContext& want,
                    const std::string& where) {
  ASSERT_EQ(got.post.size(), want.post.size()) << where;
  EXPECT_EQ(got.keyroots, want.keyroots) << where;
  for (size_t i = 0; i < want.post.size(); ++i) {
    EXPECT_EQ(got.post[i].display.identity, want.post[i].display.identity)
        << where << " post " << i;
    EXPECT_EQ(got.post[i].leftmost, want.post[i].leftmost)
        << where << " post " << i;
    // ida-lint: allow(float-eq): bitwise determinism is the contract
    EXPECT_EQ(got.post[i].log_rows, want.post[i].log_rows)
        << where << " post " << i;
  }
}

// A pool of cheap distinct actions so grown trees have varied labels.
Action ActionFor(int i) {
  switch (i % 4) {
    case 0:
      return Action::GroupBy("protocol", AggFunc::kCount);
    case 1:
      return Action::GroupBy("dst_ip", AggFunc::kCount);
    case 2:
      return Action::Filter(
          {Predicate{"hour", CompareOp::kGe, Value(int64_t{10 + i % 12})}});
    default:
      return Action::Filter(
          {Predicate{"length", CompareOp::kLe, Value(int64_t{50 + i * 7})}});
  }
}

// Grows the tree by one step: `action` from `parent`, retrying from the
// root when the action's columns are absent from the parent's display
// (e.g. group-by after group-by). Every action applies at the root.
void Grow(SessionTree* tree, int parent, const Action& action,
          const ActionExecutor& exec) {
  auto node = tree->ApplyFrom(parent, action, exec);
  if (!node.ok()) {
    node = tree->ApplyFrom(0, action, exec);
  }
  ASSERT_TRUE(node.ok()) << node.status().ToString();
}

TEST(IncrementalNContextTest, MatchesOracleOnPaperExample) {
  SessionTree tree = testing::ExampleSession();
  NContextBuilder builder(&tree);
  NContext got;
  for (int n = 1; n <= 9; ++n) {
    for (int t = 0; t <= tree.num_steps(); ++t) {
      builder.Extract(t, n, &got);
      ExpectSameContext(got, ExtractNContext(tree, t, n),
                        "t=" + std::to_string(t) + " n=" + std::to_string(n));
    }
  }
}

// The intended serving usage: one Extract per append, at the tree's tip.
TEST(IncrementalNContextTest, GrowingChainEveryStep) {
  ActionExecutor exec;
  SessionTree tree("chain", "u", "packets",
                   Display::MakeRoot(testing::PacketsTable()));
  NContextBuilder builder(&tree);
  NContext got;
  for (int step = 0; step < 20; ++step) {
    ASSERT_NO_FATAL_FAILURE(
        Grow(&tree, tree.num_steps(), ActionFor(step), exec));
    for (int n : {1, 3, 4, 7}) {
      builder.Extract(tree.num_steps(), n, &got);
      ExpectSameContext(got, ExtractNContext(tree, tree.num_steps(), n),
                        "chain step " + std::to_string(step) +
                            " n=" + std::to_string(n));
    }
  }
}

TEST(IncrementalNContextTest, RandomGrowthSchedules) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 97 + 13);
    ActionExecutor exec;
    SessionTree tree("rand" + std::to_string(seed), "u", "packets",
                     Display::MakeRoot(testing::PacketsTable()));
    NContextBuilder builder(&tree);
    NContext got;
    for (int step = 0; step < 30; ++step) {
      // Mix of continuing at the tip, heavy backtracking, and random
      // parents — the shapes that stress the LCA/connect walk.
      const int64_t mode = rng.UniformInt(0, 9);
      int parent;
      if (mode < 5) {
        parent = tree.num_steps();  // continue from the tip
      } else if (mode < 7) {
        parent = 0;  // restart at the root
      } else {
        parent = static_cast<int>(rng.UniformInt(0, tree.num_steps()));
      }
      ASSERT_NO_FATAL_FAILURE(Grow(
          &tree, parent, ActionFor(static_cast<int>(rng.UniformInt(0, 11))),
          exec));
      const int n = static_cast<int>(rng.UniformInt(1, 11));
      builder.Extract(tree.num_steps(), n, &got);
      ExpectSameContext(
          got, ExtractNContext(tree, tree.num_steps(), n),
          "seed " + std::to_string(seed) + " step " + std::to_string(step) +
              " n=" + std::to_string(n));
    }
    // After growth, the builder must still serve every PAST state (the
    // scratch-reset logic cannot depend on extracting only at the tip).
    for (int t = 0; t <= tree.num_steps(); t += 3) {
      for (int n : {2, 5, 11}) {
        builder.Extract(t, n, &got);
        ExpectSameContext(got, ExtractNContext(tree, t, n),
                          "past t=" + std::to_string(t) +
                              " n=" + std::to_string(n));
      }
    }
  }
}

// A reload can change the model's n mid-session: alternating n values
// against one builder must not leak state between extractions.
TEST(IncrementalNContextTest, InterleavedContextSizes) {
  ActionExecutor exec;
  SessionTree tree("interleave", "u", "packets",
                   Display::MakeRoot(testing::PacketsTable()));
  NContextBuilder builder(&tree);
  NContext got;
  Rng rng(5);
  for (int step = 0; step < 15; ++step) {
    const int parent = static_cast<int>(rng.UniformInt(0, tree.num_steps()));
    ASSERT_NO_FATAL_FAILURE(Grow(&tree, parent, ActionFor(step), exec));
    for (int n : {11, 1, 7, 2}) {
      builder.Extract(tree.num_steps(), n, &got);
      ExpectSameContext(got, ExtractNContext(tree, tree.num_steps(), n),
                        "interleave step " + std::to_string(step) +
                            " n=" + std::to_string(n));
    }
  }
}

TEST(IncrementalNContextTest, PreparedFlatContextMatches) {
  Rng rng(41);
  ActionExecutor exec;
  SessionTree tree("flat", "u", "packets",
                   Display::MakeRoot(testing::PacketsTable()));
  NContextBuilder builder(&tree);
  NContext inc;
  for (int step = 0; step < 25; ++step) {
    const int parent = static_cast<int>(rng.UniformInt(0, tree.num_steps()));
    ASSERT_NO_FATAL_FAILURE(Grow(&tree, parent, ActionFor(step), exec));
    const int n = static_cast<int>(rng.UniformInt(1, 9));
    builder.Extract(tree.num_steps(), n, &inc);
    NContext oracle = ExtractNContext(tree, tree.num_steps(), n);
    FlatContext flat_inc = SessionDistance::Prepare(inc);
    FlatContext flat_oracle = SessionDistance::Prepare(oracle);
    ExpectSameFlat(flat_inc, flat_oracle,
                   "step " + std::to_string(step) + " n=" + std::to_string(n));
  }
}

TEST(IncrementalNContextTest, DegenerateInputsMatchOracle) {
  SessionTree tree("deg", "u", "packets",
                   Display::MakeRoot(testing::PacketsTable()));
  NContextBuilder builder(&tree);
  NContext got;
  // Root-only session, t = 0: a single-node context for any n.
  builder.Extract(0, 1, &got);
  ExpectSameContext(got, ExtractNContext(tree, 0, 1), "t=0 n=1");
  builder.Extract(0, 11, &got);
  ExpectSameContext(got, ExtractNContext(tree, 0, 11), "t=0 n=11");
}

// Output storage is reused across calls: a big context followed by a
// small one must fully replace, never blend.
TEST(IncrementalNContextTest, OutputReuseIsClean) {
  SessionTree tree = testing::ExampleSession();
  NContextBuilder builder(&tree);
  NContext got;
  builder.Extract(3, 11, &got);
  const size_t big = got.nodes().size();
  builder.Extract(1, 1, &got);
  EXPECT_LT(got.nodes().size(), big);
  ExpectSameContext(got, ExtractNContext(tree, 1, 1), "shrunk reuse");
}

}  // namespace
}  // namespace ida
