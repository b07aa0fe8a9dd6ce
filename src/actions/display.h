// Display: the result "screen" of an analysis action (paper Sec 2.1), plus
// the *interest profile* — the aggregate vector {v_j} that interestingness
// measures consume (paper Sec 2.2 / Table 1 notation).
//
// For group-and-aggregate displays the profile is the aggregated values
// themselves. For raw displays (the root dataset, filter results) the paper
// does not spell out how {v_j} is derived; we use the documented
// substitution (DESIGN.md Sec 2): the frequency histogram of the
// highest-entropy categorical column (fallback: equal-width bins of a
// numeric column).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "actions/action.h"
#include "data/table.h"

namespace ida {

enum class DisplayKind { kRoot = 0, kRaw = 1, kAggregated = 2 };

const char* DisplayKindName(DisplayKind k);

class Display;

/// Fixed-width reference to a string inside a flat character heap — the
/// label encoding of the memory-mapped model artifact's display pool
/// (engine/artifact_v4.h). Plain old data; valid wherever the heap is.
struct LabelRef {
  uint32_t offset = 0;
  uint32_t length = 0;
};

/// A zero-copy view of the display fields the distance layer consumes
/// (DisplayContentDistance and the index's core metric read only kind,
/// profile column, labels, values and row count — never the backing
/// table). A view is backed either by a heap Display (`Display::View()`,
/// labels are std::string objects) or by the flat arrays of a memory-
/// mapped artifact section (labels are LabelRef slices of a shared
/// character heap) — the serving hot path reads both identically, which is
/// what lets a mapped artifact serve queries without materializing any
/// Display object.
///
/// `identity` is a stable cache key for the viewed content: the Display
/// address in heap mode, the flat pool record address (cast, never
/// dereferenced) in mapped mode. Two views with equal identity view the
/// same storage; distinct identities may still view equal content.
struct DisplayView {
  DisplayKind kind = DisplayKind::kRoot;
  uint32_t num_labels = 0;
  uint32_t num_values = 0;
  uint64_t num_rows = 0;
  std::string_view column;
  const double* values = nullptr;
  /// Heap mode: array of `num_labels` std::string objects (exclusive with
  /// the flat fields below).
  const std::string* owned_labels = nullptr;
  /// Flat mode: `num_labels` LabelRef entries into `str_heap`.
  const LabelRef* flat_labels = nullptr;
  const char* str_heap = nullptr;
  /// Stable identity of the viewed storage (see above).
  const Display* identity = nullptr;

  std::string_view label(uint32_t i) const {
    if (owned_labels != nullptr) return owned_labels[i];
    const LabelRef& r = flat_labels[i];
    return std::string_view(str_heap + r.offset, r.length);
  }
};

/// FNV-1a fingerprint of a view's content-distance-relevant fields (kind,
/// row count, column, labels, raw value bits). Equal content yields equal
/// fingerprints regardless of the backing (heap or flat), so fit-time
/// fingerprints index the artifact's sorted display content table and
/// query-time fingerprints probe it. Collisions are possible; callers
/// confirm with ContentEquals.
uint64_t ContentFingerprint(const DisplayView& v);

/// True when two views expose bitwise-identical content to the ground
/// metric (same kind, row count, column, labels and value bits) — the
/// exactness check behind every fingerprint match.
bool ContentEquals(const DisplayView& a, const DisplayView& b);

/// The aggregate vector a display exposes to interestingness measures.
struct InterestProfile {
  /// Name of the column the vector is computed over (group column for
  /// aggregated displays; chosen histogram column for raw displays).
  std::string column;
  /// Group labels (rendered key values / bin labels), |labels| == m.
  std::vector<std::string> labels;
  /// Aggregated values v_j (counts for kCount / histogram profiles).
  std::vector<double> values;
  /// Number of underlying tuples in each group (== values when the
  /// aggregate is a count).
  std::vector<double> group_sizes;

  /// m — the number of groups.
  size_t group_count() const { return values.size(); }
  /// Total tuples covered by the display (sum of group sizes).
  double covered_tuples() const;
  /// Normalized p_j = v_j / sum_k v_k. Non-finite or negative v_j are
  /// clamped to 0; an all-zero vector yields the uniform distribution.
  std::vector<double> Probabilities() const;
};

/// Probabilities() over a raw value array — the exact arithmetic of
/// InterestProfile::Probabilities, callable from a DisplayView so the flat
/// and heap serving paths normalize bitwise identically.
std::vector<double> NormalizedProbabilities(const double* values, size_t n);

/// An immutable result screen. Created by ActionExecutor (or as the root).
class Display {
 public:
  /// Builds the root display of a dataset.
  static std::shared_ptr<const Display> MakeRoot(
      std::shared_ptr<const DataTable> table);

  Display(DisplayKind kind, std::shared_ptr<const DataTable> table,
          InterestProfile profile, size_t dataset_size)
      : kind_(kind),
        table_(std::move(table)),
        profile_(std::move(profile)),
        dataset_size_(dataset_size) {}

  DisplayKind kind() const { return kind_; }
  const std::shared_ptr<const DataTable>& table() const { return table_; }
  /// Rows visible on screen (0 for a table-less display).
  size_t num_rows() const { return table_ ? table_->num_rows() : 0; }
  const InterestProfile& profile() const { return profile_; }
  /// O — the size (row count) of the original, root dataset.
  size_t dataset_size() const { return dataset_size_; }

  /// Short description for logs/examples ("aggregated over protocol, 6
  /// groups, 50176 rows covered").
  std::string Describe() const;

  /// The zero-copy view of this display's content-distance fields (heap
  /// mode: labels are this profile's strings, identity is `this`). The
  /// display must outlive the view.
  DisplayView View() const {
    DisplayView v;
    v.kind = kind_;
    v.num_labels = static_cast<uint32_t>(profile_.labels.size());
    v.num_values = static_cast<uint32_t>(profile_.values.size());
    v.num_rows = static_cast<uint64_t>(num_rows());
    v.column = profile_.column;
    v.values = profile_.values.data();
    v.owned_labels = profile_.labels.data();
    v.identity = this;
    return v;
  }

 private:
  DisplayKind kind_;
  std::shared_ptr<const DataTable> table_;
  InterestProfile profile_;
  size_t dataset_size_;
};

using DisplayPtr = std::shared_ptr<const Display>;

/// Computes the interest profile of a raw table view: histogram of the
/// highest-entropy string column with 2..max_buckets distinct values;
/// fallback to `bins` equal-width bins over the first numeric column;
/// final fallback: a single group covering all rows.
InterestProfile ComputeRawProfile(const DataTable& table,
                                  size_t max_buckets = 256, size_t bins = 16);

}  // namespace ida
