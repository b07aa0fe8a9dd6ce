// Ground metrics for the session distance (paper Sec 4.2, after [25]):
// "the cost of an alter operation is proportional to the similarity between
// the data displays and analysis actions. The latter is determined by two
// ground metrics: the first considers differences in the actions' syntax
// and the second measures the differences in the content of the compared
// displays."
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "actions/action.h"
#include "actions/display.h"

namespace ida {

/// Syntactic distance between two actions in [0, 1]. Different action
/// types are maximally distant. Same-type actions compare their syntax:
/// filters by best-matching predicates (column 0.5, operator 0.25,
/// operand 0.25 each), group-bys by group column (0.5), aggregate function
/// (0.3) and aggregate column (0.2).
double ActionSyntaxDistance(const Action& a, const Action& b);

/// Distance between optional incoming actions: 0 when both absent, 1 when
/// exactly one is absent, ActionSyntaxDistance otherwise.
double ActionDistance(const std::optional<Action>& a,
                      const std::optional<Action>& b);

/// The per-display half of DisplayContentDistance: everything the metric
/// derives from one display alone, built once by MakeDisplayProfile so
/// that a pair costs one merge over two sorted label lists. A profile owns
/// its data and may outlive the view it was built from; it is a pure
/// function of the view's content, so profiles of content-equal views are
/// equal whatever their backing (heap or flat).
struct DisplayProfile {
  DisplayKind kind = DisplayKind::kRoot;
  std::string column;
  /// log2(rows + 1), the operand of the log-scale size term.
  double log_rows = 0.0;
  /// The display's labels, deduplicated (a later label overwrites an
  /// earlier equal one, with its value) and sorted lexicographically.
  std::vector<std::string> labels;
  /// NormalizedProbabilities of the display's values, aligned with
  /// `labels`.
  std::vector<double> probs;
  /// ShannonEntropy(probs).
  double entropy = 0.0;
};

/// Builds a view's profile. Labels and values are paired by position for
/// j < min(num_labels, num_values): a label without a value has no
/// probability and is left out.
DisplayProfile MakeDisplayProfile(const DisplayView& v);

/// Content distance between two displays in [0, 1], combining display kind
/// (weight 0.2), profile column (0.2), Jensen-Shannon divergence between
/// the label-aligned profile distributions (0.4), and log-scale size
/// difference (0.2). The profile form is the one implementation: one
/// merge-join over the sorted labels builds the mixture, whose entropy is
/// the only one computed per pair. It is bitwise symmetric. The view forms
/// build both profiles and merge them; a caller that meets a display more
/// than once keeps its profile instead, as SessionDistance does per
/// resolved display id.
double DisplayContentDistance(const DisplayProfile& a, const DisplayProfile& b);
double DisplayContentDistance(const DisplayView& a, const DisplayView& b);
double DisplayContentDistance(const Display& a, const Display& b);

}  // namespace ida
