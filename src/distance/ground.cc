#include "distance/ground.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "stats/descriptive.h"

namespace ida {

namespace {

double PredicateSimilarity(const Predicate& a, const Predicate& b) {
  double s = 0.0;
  if (a.column == b.column) s += 0.5;
  if (a.op == b.op) s += 0.25;
  if (a.operand == b.operand) s += 0.25;
  return s;
}

double FilterDistance(const Action& a, const Action& b) {
  const auto& pa = a.predicates();
  const auto& pb = b.predicates();
  if (pa.empty() && pb.empty()) return 0.0;
  // Greedy best-match of predicates (sets are tiny). The match bitmap is
  // grow-only thread-local scratch: this runs once per DP cell on the
  // serving path, and a per-call heap allocation would dominate the
  // arithmetic.
  thread_local std::vector<bool> used;
  used.assign(pb.size(), false);
  double total_sim = 0.0;
  for (const Predicate& p : pa) {
    double best = 0.0;
    int best_j = -1;
    for (size_t j = 0; j < pb.size(); ++j) {
      if (used[j]) continue;
      double s = PredicateSimilarity(p, pb[j]);
      if (s > best) {
        best = s;
        best_j = static_cast<int>(j);
      }
    }
    if (best_j >= 0) used[static_cast<size_t>(best_j)] = true;
    total_sim += best;
  }
  double denom = static_cast<double>(std::max(pa.size(), pb.size()));
  return 1.0 - total_sim / denom;
}

double GroupByDistance(const Action& a, const Action& b) {
  double s = 0.0;
  if (a.group_column() == b.group_column()) s += 0.5;
  if (a.agg_func() == b.agg_func()) s += 0.3;
  if (a.agg_column() == b.agg_column()) s += 0.2;
  return 1.0 - s;
}

}  // namespace

double ActionSyntaxDistance(const Action& a, const Action& b) {
  if (a.type() != b.type()) return 1.0;
  switch (a.type()) {
    case ActionType::kFilter:
      return FilterDistance(a, b);
    case ActionType::kGroupBy:
      return GroupByDistance(a, b);
    case ActionType::kBack:
      return 0.0;
  }
  return 1.0;
}

double ActionDistance(const std::optional<Action>& a,
                      const std::optional<Action>& b) {
  if (!a.has_value() && !b.has_value()) return 0.0;
  if (a.has_value() != b.has_value()) return 1.0;
  return ActionSyntaxDistance(*a, *b);
}

DisplayProfile MakeDisplayProfile(const DisplayView& v) {
  DisplayProfile p;
  p.kind = v.kind;
  p.column = std::string(v.column);
  p.log_rows = std::log2(static_cast<double>(v.num_rows) + 1.0);
  const std::vector<double> prob =
      NormalizedProbabilities(v.values, v.num_values);
  const uint32_t n = std::min(v.num_labels, v.num_values);
  // Positions sorted by label; the stable sort keeps equal labels in write
  // order, so the last of each run is the write that wins.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&v](uint32_t x, uint32_t y) {
    return v.label(x) < v.label(y);
  });
  p.labels.reserve(n);
  p.probs.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t j = order[k];
    if (k + 1 < n && v.label(order[k + 1]) == v.label(j)) continue;
    p.labels.emplace_back(v.label(j));
    p.probs.push_back(prob[j]);
  }
  p.entropy = ShannonEntropy(p.probs);
  return p;
}

double DisplayContentDistance(const DisplayProfile& a,
                              const DisplayProfile& b) {
  double d = 0.0;
  if (a.kind != b.kind) d += 0.2;
  if (a.column != b.column) d += 0.2;

  // Label-aligned profile distributions; JSD in bits is bounded by 1. The
  // mixture runs over the union of labels in lexicographic order, a label
  // absent from one side weighing 0 there. ShannonEntropy skips
  // non-positive weights, so each side's entropy over the union is its
  // precomputed entropy over its own labels, bit for bit.
  if (!a.labels.empty() || !b.labels.empty()) {
    // Grow-only scratch: this runs once per memo miss on the serving path.
    thread_local std::vector<double> mix;
    mix.clear();
    const size_t na = a.labels.size();
    const size_t nb = b.labels.size();
    size_t i = 0;
    size_t j = 0;
    while (i < na || j < nb) {
      const int c = i == na   ? 1
                    : j == nb ? -1
                              : a.labels[i].compare(b.labels[j]);
      const double pa = c <= 0 ? a.probs[i++] : 0.0;
      const double pb = c >= 0 ? b.probs[j++] : 0.0;
      mix.push_back((pa + pb) / 2.0);
    }
    double jsd = ShannonEntropy(mix) - (a.entropy + b.entropy) / 2.0;
    d += 0.4 * std::clamp(jsd, 0.0, 1.0);
  }

  constexpr double kSizeCap = 12.0;  // ~4k rows
  d += 0.2 * std::min(std::fabs(a.log_rows - b.log_rows), kSizeCap) / kSizeCap;
  return std::clamp(d, 0.0, 1.0);
}

double DisplayContentDistance(const DisplayView& a, const DisplayView& b) {
  return DisplayContentDistance(MakeDisplayProfile(a), MakeDisplayProfile(b));
}

double DisplayContentDistance(const Display& a, const Display& b) {
  return DisplayContentDistance(a.View(), b.View());
}

}  // namespace ida
