#include "actions/display.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

namespace ida {

const char* DisplayKindName(DisplayKind k) {
  switch (k) {
    case DisplayKind::kRoot:
      return "root";
    case DisplayKind::kRaw:
      return "raw";
    case DisplayKind::kAggregated:
      return "aggregated";
  }
  return "?";
}

double InterestProfile::covered_tuples() const {
  double total = 0.0;
  for (double g : group_sizes) total += g;
  return total;
}

std::vector<double> NormalizedProbabilities(const double* values, size_t n) {
  std::vector<double> p(n, 0.0);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double v = values[i];
    if (std::isfinite(v) && v > 0.0) {
      p[i] = v;
      total += v;
    }
  }
  if (total <= 0.0) {
    if (!p.empty()) {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(p.size()));
    }
    return p;
  }
  for (double& x : p) x /= total;
  return p;
}

std::vector<double> InterestProfile::Probabilities() const {
  return NormalizedProbabilities(values.data(), values.size());
}

uint64_t ContentFingerprint(const DisplayView& v) {
  // Streaming FNV-1a over a canonical field encoding. Lengths are mixed in
  // before variable-size fields, so ("ab", "c") and ("a", "bc") differ.
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const char* bytes = static_cast<const char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<uint8_t>(bytes[i]);
      h *= 0x100000001B3ULL;
    }
  };
  auto mix_u64 = [&](uint64_t x) { mix(&x, sizeof(x)); };
  mix_u64(static_cast<uint64_t>(v.kind));
  mix_u64(v.num_rows);
  mix_u64(v.column.size());
  mix(v.column.data(), v.column.size());
  mix_u64(v.num_labels);
  for (uint32_t i = 0; i < v.num_labels; ++i) {
    std::string_view l = v.label(i);
    mix_u64(l.size());
    mix(l.data(), l.size());
  }
  mix_u64(v.num_values);
  mix(v.values, sizeof(double) * v.num_values);
  return h;
}

bool ContentEquals(const DisplayView& a, const DisplayView& b) {
  if (a.kind != b.kind || a.num_rows != b.num_rows ||
      a.num_labels != b.num_labels || a.num_values != b.num_values ||
      a.column != b.column) {
    return false;
  }
  for (uint32_t i = 0; i < a.num_labels; ++i) {
    if (a.label(i) != b.label(i)) return false;
  }
  // Raw bit comparison (memcmp of the doubles): the ground metric consumes
  // the bits, so -0.0 vs 0.0 and NaN payloads count as different content.
  return a.num_values == 0 ||
         std::memcmp(a.values, b.values, sizeof(double) * a.num_values) == 0;
}

namespace {

double Entropy(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c > 0.0) {
      double p = c / total;
      h -= p * std::log2(p);
    }
  }
  return h;
}

// Histogram of a string column: label -> count, in first-seen order of the
// sorted label set (deterministic).
InterestProfile StringHistogram(const Column& col) {
  std::map<std::string, double> counts;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsValid(i)) counts[col.strings()[i]] += 1.0;
  }
  InterestProfile p;
  p.column = col.name();
  for (const auto& [label, count] : counts) {
    p.labels.push_back(label);
    p.values.push_back(count);
    p.group_sizes.push_back(count);
  }
  return p;
}

// Equal-width binning of a numeric column into `bins` buckets.
InterestProfile NumericHistogram(const Column& col, size_t bins) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  size_t valid = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    double v = col.GetNumeric(i);
    if (std::isfinite(v)) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      ++valid;
    }
  }
  InterestProfile p;
  p.column = col.name();
  if (valid == 0) return p;
  if (hi <= lo) {
    // Built with += rather than `"[" + std::to_string(lo)`: the rvalue
    // operator+ overload trips GCC 12's -Wrestrict false positive
    // (PR 105651) under -Werror at -O3.
    std::string label = "[";
    label += std::to_string(lo);
    label += "]";
    p.labels.push_back(std::move(label));
    p.values.push_back(static_cast<double>(valid));
    p.group_sizes.push_back(static_cast<double>(valid));
    return p;
  }
  std::vector<double> counts(bins, 0.0);
  double width = (hi - lo) / static_cast<double>(bins);
  for (size_t i = 0; i < col.size(); ++i) {
    double v = col.GetNumeric(i);
    if (!std::isfinite(v)) continue;
    size_t b = std::min(bins - 1, static_cast<size_t>((v - lo) / width));
    counts[b] += 1.0;
  }
  for (size_t b = 0; b < bins; ++b) {
    if (counts[b] <= 0.0) continue;  // keep only occupied bins
    std::ostringstream label;
    label << "[" << lo + width * static_cast<double>(b) << ","
          << lo + width * static_cast<double>(b + 1) << ")";
    p.labels.push_back(label.str());
    p.values.push_back(counts[b]);
    p.group_sizes.push_back(counts[b]);
  }
  return p;
}

}  // namespace

InterestProfile ComputeRawProfile(const DataTable& table, size_t max_buckets,
                                  size_t bins) {
  // Pick the highest-entropy string column with cardinality in
  // [2, max_buckets].
  double best_entropy = -1.0;
  InterestProfile best;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const auto& col = table.column(c);
    if (col->type() != ValueType::kString) continue;
    size_t distinct = col->CountDistinct();
    if (distinct < 2 || distinct > max_buckets) continue;
    InterestProfile p = StringHistogram(*col);
    double h = Entropy(p.values);
    if (h > best_entropy) {
      best_entropy = h;
      best = std::move(p);
    }
  }
  if (best_entropy >= 0.0) return best;
  // Fallback: first numeric column, equal-width bins.
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const auto& col = table.column(c);
    if (col->type() == ValueType::kInt || col->type() == ValueType::kDouble) {
      InterestProfile p = NumericHistogram(*col, bins);
      if (p.group_count() > 0) return p;
    }
  }
  // Final fallback: one group covering everything.
  InterestProfile p;
  p.column = "";
  if (table.num_rows() > 0) {
    p.labels.push_back("all");
    p.values.push_back(static_cast<double>(table.num_rows()));
    p.group_sizes.push_back(static_cast<double>(table.num_rows()));
  }
  return p;
}

std::shared_ptr<const Display> Display::MakeRoot(
    std::shared_ptr<const DataTable> table) {
  InterestProfile profile = ComputeRawProfile(*table);
  size_t n = table->num_rows();
  return std::make_shared<Display>(DisplayKind::kRoot, std::move(table),
                                   std::move(profile), n);
}

std::string Display::Describe() const {
  std::ostringstream os;
  os << DisplayKindName(kind_) << " display: " << num_rows() << " rows";
  if (!profile_.column.empty()) {
    os << ", profile over '" << profile_.column << "' ("
       << profile_.group_count() << " groups, "
       << static_cast<int64_t>(profile_.covered_tuples())
       << " tuples covered)";
  }
  return os.str();
}

}  // namespace ida
