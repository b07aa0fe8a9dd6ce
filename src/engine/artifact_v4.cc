#include "engine/artifact_v4.h"

// The only sanctioned home (with common/binio.h and common/mapped_file.*)
// of reinterpret_cast on raw artifact bytes: every cast below reads a
// trivially-copyable record type at an offset the section directory has
// already proven 8-aligned and in bounds (tools/ida_lint "byte-cast").

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binio.h"

namespace ida::engine::v4 {

namespace {

using binio::Fnv1a;
using binio::Reader;
using binio::Writer;

// Magic (8) + version (4) + section count (4).
constexpr size_t kFixedHeader = sizeof(kArtifactMagic) + 2 * sizeof(uint32_t);

uint64_t PadTo8(uint64_t n) { return (n + 7) & ~static_cast<uint64_t>(7); }

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("model artifact: " + what);
}

std::string TagName(uint32_t tag) {
  const char c[4] = {static_cast<char>(tag), static_cast<char>(tag >> 8),
                     static_cast<char>(tag >> 16),
                     static_cast<char>(tag >> 24)};
  return std::string(c, 4);
}

// The raw bytes of a trivially-copyable record vector (writer side; the
// reader casts the mapped section back to the record type).
template <typename T>
std::string PodBytes(const T* data, size_t count) {
  std::string out(count * sizeof(T), '\0');
  if (count > 0) std::memcpy(out.data(), data, out.size());
  return out;
}

// One section being assembled: tag + payload bytes.
struct SectionBuf {
  uint32_t tag = 0;
  std::string bytes;
};

// Lays the sections out behind the directory: pads each to 8 bytes,
// checksums the padded range, emits header + directory + directory
// checksum + section bytes.
std::string AssembleSections(std::vector<SectionBuf> sections) {
  const size_t count = sections.size();
  uint64_t cursor =
      kFixedHeader + count * sizeof(SectionEntry) + sizeof(uint64_t);
  std::vector<SectionEntry> entries(count);
  for (size_t i = 0; i < count; ++i) {
    SectionEntry& e = entries[i];
    e.tag = sections[i].tag;
    e.offset = cursor;
    e.length = sections[i].bytes.size();
    sections[i].bytes.resize(PadTo8(e.length), '\0');
    e.checksum = Fnv1a(sections[i].bytes.data(), sections[i].bytes.size());
    cursor += sections[i].bytes.size();
  }

  std::string out;
  out.reserve(cursor);
  out.append(kArtifactMagic, sizeof(kArtifactMagic));
  Writer head;
  head.U32(kArtifactVersion);
  head.U32(static_cast<uint32_t>(count));
  for (const SectionEntry& e : entries) {
    head.U32(e.tag);
    head.U32(e.reserved);
    head.U64(e.offset);
    head.U64(e.length);
    head.U64(e.checksum);
  }
  out += head.Take();
  Writer dir_ck;
  dir_ck.U64(Fnv1a(out.data(), out.size()));
  out += dir_ck.Take();
  for (SectionBuf& s : sections) out += s.bytes;
  return out;
}

// ---------------------------------------------------------------------------
// Field codecs of the two parsed sections (CFG and ACTS).

void WriteConfig(const ModelConfig& c, Writer* w) {
  w->I32(c.n_context_size);
  w->F64(c.theta_interest);
  w->I32(c.knn.k);
  w->F64(c.knn.distance_threshold);
  w->U8(c.knn.distance_weighted ? 1 : 0);
  w->U8(c.use_index ? 1 : 0);
  w->U8(c.load.eager_checksums ? 1 : 0);
  w->U8(static_cast<uint8_t>(c.method));
  w->F64(c.distance.display_weight);
  w->I32(c.distance.num_threads);
  w->U8(c.training.successful_only ? 1 : 0);
  w->U8(c.training.merge_identical ? 1 : 0);
  w->U64(c.reference.max_reference_actions);
  w->U64(c.reference.min_effective_reference);
  w->U8(c.reference.same_dataset_only ? 1 : 0);
  w->U64(c.reference.sampling_seed);
  w->U32(static_cast<uint32_t>(c.measures.size()));
  for (const std::string& m : c.measures) w->Str(m);
}

Status ReadConfig(Reader* r, ModelConfig* c) {
  c->n_context_size = r->I32();
  c->theta_interest = r->F64();
  c->knn.k = r->I32();
  c->knn.distance_threshold = r->F64();
  c->knn.distance_weighted = r->U8() != 0;
  c->use_index = r->U8() != 0;
  c->load.eager_checksums = r->U8() != 0;
  uint8_t method = r->U8();
  c->distance.display_weight = r->F64();
  c->distance.num_threads = r->I32();
  c->training.successful_only = r->U8() != 0;
  c->training.merge_identical = r->U8() != 0;
  c->reference.max_reference_actions = r->U64();
  c->reference.min_effective_reference = r->U64();
  c->reference.same_dataset_only = r->U8() != 0;
  c->reference.sampling_seed = r->U64();
  uint32_t num_measures = r->Count(4);
  c->measures.clear();
  for (uint32_t i = 0; i < num_measures && r->status().ok(); ++i) {
    c->measures.push_back(r->Str());
  }
  IDA_RETURN_NOT_OK(r->status());
  if (method > static_cast<uint8_t>(ComparisonMethod::kNormalized)) {
    return Corrupt("unknown comparison method " + std::to_string(method));
  }
  c->method = static_cast<ComparisonMethod>(method);
  return Status::OK();
}

void WriteValue(const Value& v, Writer* w) {
  w->U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      w->U64(static_cast<uint64_t>(v.as_int()));
      break;
    case ValueType::kDouble:
      w->F64(v.as_double());
      break;
    case ValueType::kString:
      w->Str(v.as_string());
      break;
  }
}

Result<Value> ReadValue(Reader* r) {
  uint8_t type = r->U8();
  switch (type) {
    case static_cast<uint8_t>(ValueType::kNull):
      return Value::Null();
    case static_cast<uint8_t>(ValueType::kInt):
      return Value(static_cast<int64_t>(r->U64()));
    case static_cast<uint8_t>(ValueType::kDouble):
      return Value(r->F64());
    case static_cast<uint8_t>(ValueType::kString):
      return Value(r->Str());
    default:
      return Corrupt("unknown value type " + std::to_string(type));
  }
}

void WriteAction(const Action& a, Writer* w) {
  w->U8(static_cast<uint8_t>(a.type()));
  switch (a.type()) {
    case ActionType::kFilter:
      w->U32(static_cast<uint32_t>(a.predicates().size()));
      for (const Predicate& p : a.predicates()) {
        w->Str(p.column);
        w->U8(static_cast<uint8_t>(p.op));
        WriteValue(p.operand, w);
      }
      break;
    case ActionType::kGroupBy:
      w->Str(a.group_column());
      w->U8(static_cast<uint8_t>(a.agg_func()));
      w->Str(a.agg_column());
      break;
    case ActionType::kBack:
      break;
  }
}

Result<Action> ReadAction(Reader* r) {
  uint8_t type = r->U8();
  IDA_RETURN_NOT_OK(r->status());
  switch (type) {
    case static_cast<uint8_t>(ActionType::kFilter): {
      uint32_t num_predicates = r->Count(6);
      std::vector<Predicate> predicates;
      predicates.reserve(num_predicates);
      for (uint32_t i = 0; i < num_predicates && r->status().ok(); ++i) {
        Predicate p;
        p.column = r->Str();
        uint8_t op = r->U8();
        if (op > static_cast<uint8_t>(CompareOp::kContains)) {
          return Corrupt("unknown compare op " + std::to_string(op));
        }
        p.op = static_cast<CompareOp>(op);
        IDA_ASSIGN_OR_RETURN(p.operand, ReadValue(r));
        predicates.push_back(std::move(p));
      }
      IDA_RETURN_NOT_OK(r->status());
      if (predicates.empty()) {
        return Corrupt("FILTER action without predicates");
      }
      return Action::Filter(std::move(predicates));
    }
    case static_cast<uint8_t>(ActionType::kGroupBy): {
      std::string group_column = r->Str();
      uint8_t func = r->U8();
      std::string agg_column = r->Str();
      IDA_RETURN_NOT_OK(r->status());
      if (func > static_cast<uint8_t>(AggFunc::kCountDistinct)) {
        return Corrupt("unknown aggregate function " + std::to_string(func));
      }
      return Action::GroupBy(std::move(group_column),
                             static_cast<AggFunc>(func),
                             std::move(agg_column));
    }
    case static_cast<uint8_t>(ActionType::kBack):
      return Action::Back();
    default:
      return Corrupt("unknown action type " + std::to_string(type));
  }
}

// A validated section directory over an artifact's bytes.
struct Directory {
  const uint8_t* base = nullptr;
  size_t size = 0;
  std::vector<SectionEntry> entries;

  const SectionEntry* Find(uint32_t tag) const {
    for (const SectionEntry& e : entries) {
      if (e.tag == tag) return &e;
    }
    return nullptr;
  }

  const uint8_t* data(const SectionEntry& e) const { return base + e.offset; }

  Status VerifyChecksum(const SectionEntry& e) const {
    if (Fnv1a(reinterpret_cast<const char*>(base + e.offset),
              PadTo8(e.length)) != e.checksum) {
      return Corrupt(TagName(e.tag) + " section checksum mismatch");
    }
    return Status::OK();
  }
};

// Parses and structurally validates the directory: magic, version, count
// bound, directory checksum, and per entry: zero reserved field, 8-byte
// alignment, exact tiling of the file (which rules out overlapping and
// out-of-bounds sections by construction) with no trailing bytes.
Result<Directory> ParseDirectory(const uint8_t* data, size_t size) {
  if (size < kFixedHeader + sizeof(uint64_t)) {
    return Corrupt("truncated: " + std::to_string(size) +
                   " bytes is smaller than the fixed header");
  }
  if (std::memcmp(data, kArtifactMagic, sizeof(kArtifactMagic)) != 0) {
    return Corrupt("bad magic bytes");
  }
  uint32_t version = 0;
  std::memcpy(&version, data + sizeof(kArtifactMagic), sizeof(version));
  if (version != kArtifactVersion) {
    return Status::InvalidArgument(
        "unsupported model artifact format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kArtifactVersion) + " only; re-save the model)");
  }
  uint32_t count = 0;
  std::memcpy(&count, data + kFixedHeader - sizeof(uint32_t), sizeof(count));
  if (count == 0) return Corrupt("empty section table");
  if (count > (size - kFixedHeader - sizeof(uint64_t)) / sizeof(SectionEntry)) {
    return Corrupt("truncated section directory (" + std::to_string(count) +
                   " sections)");
  }
  const size_t dir_end = kFixedHeader + count * sizeof(SectionEntry);
  uint64_t stored = 0;
  std::memcpy(&stored, data + dir_end, sizeof(stored));
  if (Fnv1a(reinterpret_cast<const char*>(data), dir_end) != stored) {
    return Corrupt("directory checksum mismatch");
  }

  Directory dir;
  dir.base = data;
  dir.size = size;
  dir.entries.resize(count);
  std::memcpy(dir.entries.data(), data + kFixedHeader,
              count * sizeof(SectionEntry));
  uint64_t cursor = dir_end + sizeof(uint64_t);
  for (const SectionEntry& e : dir.entries) {
    if (e.reserved != 0) {
      return Corrupt(TagName(e.tag) + " directory entry has a nonzero " +
                     "reserved field");
    }
    if (e.offset % 8 != 0) {
      return Corrupt(TagName(e.tag) + " section offset " +
                     std::to_string(e.offset) + " is misaligned");
    }
    if (e.offset != cursor) {
      return Corrupt(TagName(e.tag) + " section offset " +
                     std::to_string(e.offset) +
                     " does not tile the file (expected " +
                     std::to_string(cursor) + ")");
    }
    if (e.length > size - e.offset ||
        PadTo8(e.length) > size - e.offset) {
      return Corrupt(TagName(e.tag) + " section is out of bounds");
    }
    cursor = e.offset + PadTo8(e.length);
  }
  if (cursor != size) {
    return Corrupt(std::to_string(size - cursor) +
                   " trailing bytes after the last section");
  }
  return dir;
}

// The CFG section: the model configuration plus every count the
// length/structure validation cross-checks the other sections against.
struct CfgInfo {
  ModelConfig config;
  uint32_t num_samples = 0;
  uint32_t num_displays = 0;
  uint32_t num_actions = 0;
  uint64_t num_nodes = 0;
  uint64_t num_keyroots = 0;
  uint64_t num_label_ints = 0;
  uint64_t str_len = 0;
  uint64_t num_dbl = 0;
  uint64_t num_label_refs = 0;
  bool has_index = false;
  int32_t leaf_size = 0;
  uint32_t num_tree_nodes = 0;
  uint64_t num_tree_entries = 0;
  bool has_phf = false;
  uint64_t phf_buckets = 0;
  uint64_t phf_keys = 0;
};

// Verifies the CFG section's checksum and parses it (section 0, always).
Result<CfgInfo> ParseCfg(const Directory& dir) {
  const SectionEntry& e = dir.entries[0];
  if (e.tag != kTagConfig) {
    return Corrupt("first section is " + TagName(e.tag) + ", not CFG");
  }
  IDA_RETURN_NOT_OK(dir.VerifyChecksum(e));
  Reader r(reinterpret_cast<const char*>(dir.data(e)), e.length);
  CfgInfo info;
  IDA_RETURN_NOT_OK(ReadConfig(&r, &info.config));
  info.num_samples = r.U32();
  info.num_displays = r.U32();
  info.num_actions = r.U32();
  info.num_nodes = r.U64();
  info.num_keyroots = r.U64();
  info.num_label_ints = r.U64();
  info.str_len = r.U64();
  info.num_dbl = r.U64();
  info.num_label_refs = r.U64();
  info.has_index = r.U8() != 0;
  if (info.has_index) {
    info.leaf_size = r.I32();
    info.num_tree_nodes = r.U32();
    info.num_tree_entries = r.U64();
  }
  info.has_phf = r.U8() != 0;
  if (info.has_phf) {
    info.phf_buckets = r.U64();
    info.phf_keys = r.U64();
  }
  IDA_RETURN_NOT_OK(r.status());
  if (r.remaining() != 0) {
    return Corrupt("trailing CFG section bytes");
  }
  return info;
}

// The exact tag sequence the writer emits for this CFG shape.
Status CheckTags(const Directory& dir, const CfgInfo& info) {
  std::vector<uint32_t> want = {
      kTagConfig,   kTagActions,  kTagStrHeap, kTagDblHeap,
      kTagLabelRefs, kTagDisplays, kTagNodes,  kTagContexts,
      kTagKeyroots, kTagSamples,  kTagLabelHeap};
  if (info.has_index) {
    want.push_back(kTagTreeNodes);
    want.push_back(kTagTreeEntries);
  }
  if (info.has_phf) {
    want.push_back(kTagPhfDisp);
    want.push_back(kTagPhfKeys);
    want.push_back(kTagPhfValues);
  }
  if (dir.entries.size() != want.size()) {
    return Corrupt("unexpected section count " +
                   std::to_string(dir.entries.size()) + " (expected " +
                   std::to_string(want.size()) + ")");
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (dir.entries[i].tag != want[i]) {
      return Corrupt("section " + std::to_string(i) + " is " +
                     TagName(dir.entries[i].tag) + ", expected " +
                     TagName(want[i]));
    }
  }
  return Status::OK();
}

// Cross-checks every fixed-record section's length against the CFG counts
// (overflow-safe: divides instead of multiplying).
Status CheckLengths(const Directory& dir, const CfgInfo& info) {
  const auto expect = [&](uint32_t tag, uint64_t count,
                          uint64_t elem) -> Status {
    const SectionEntry* e = dir.Find(tag);
    if (e == nullptr) return Corrupt("missing " + TagName(tag) + " section");
    if (e->length % elem != 0 || e->length / elem != count) {
      return Corrupt(TagName(tag) + " section length " +
                     std::to_string(e->length) + " does not match its " +
                     std::to_string(count) + " records");
    }
    return Status::OK();
  };
  const SectionEntry* str = dir.Find(kTagStrHeap);
  if (str == nullptr || str->length != info.str_len) {
    return Corrupt("DSTR section length does not match the config");
  }
  IDA_RETURN_NOT_OK(expect(kTagDblHeap, info.num_dbl, sizeof(double)));
  IDA_RETURN_NOT_OK(
      expect(kTagLabelRefs, info.num_label_refs, sizeof(LabelRef)));
  IDA_RETURN_NOT_OK(
      expect(kTagDisplays, info.num_displays, sizeof(DisplayRecord)));
  IDA_RETURN_NOT_OK(expect(kTagNodes, info.num_nodes, sizeof(NodeRecord)));
  IDA_RETURN_NOT_OK(
      expect(kTagContexts, info.num_samples, sizeof(ContextRecord)));
  IDA_RETURN_NOT_OK(
      expect(kTagKeyroots, info.num_keyroots, sizeof(int32_t)));
  IDA_RETURN_NOT_OK(
      expect(kTagSamples, info.num_samples, sizeof(SampleRecord)));
  IDA_RETURN_NOT_OK(
      expect(kTagLabelHeap, info.num_label_ints, sizeof(int32_t)));
  if (info.has_index) {
    IDA_RETURN_NOT_OK(
        expect(kTagTreeNodes, info.num_tree_nodes, sizeof(index::FlatNode)));
    IDA_RETURN_NOT_OK(expect(kTagTreeEntries, info.num_tree_entries,
                             sizeof(index::VpEntry)));
  }
  if (info.has_phf) {
    IDA_RETURN_NOT_OK(
        expect(kTagPhfDisp, info.phf_buckets, sizeof(uint32_t)));
    IDA_RETURN_NOT_OK(expect(kTagPhfKeys, info.phf_keys, sizeof(uint64_t)));
    IDA_RETURN_NOT_OK(
        expect(kTagPhfValues, info.phf_keys, sizeof(uint32_t)));
  }
  return Status::OK();
}

// Parses the ACTS section into the interned action pool.
Result<std::vector<Action>> ParseActions(const Directory& dir,
                                         const CfgInfo& info) {
  const SectionEntry* e = dir.Find(kTagActions);
  if (e == nullptr) return Corrupt("missing ACTS section");
  Reader r(reinterpret_cast<const char*>(dir.data(*e)), e->length);
  const uint32_t count = r.Count(1);
  IDA_RETURN_NOT_OK(r.status());
  if (count != info.num_actions) {
    return Corrupt("ACTS pool count does not match the config");
  }
  std::vector<Action> actions;
  actions.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    IDA_ASSIGN_OR_RETURN(Action a, ReadAction(&r));
    actions.push_back(std::move(a));
  }
  IDA_RETURN_NOT_OK(r.status());
  if (r.remaining() != 0) return Corrupt("trailing ACTS section bytes");
  return actions;
}

// A context's postorder leftmost-leaf array and keyroots must be exactly
// what SessionDistance::Prepare produces for one tree: the Zhang-Shasha DP
// indexes its forest table by leftmost - leftmost(keyroot) and reads
// subtree distances earlier keyroots computed, so anything else is a
// memory-safety question, not just a wrong distance. One pass over a
// stack of the finished subtrees ({start, root}; together they tile the
// positions seen so far): node j's children are exactly the stacked
// subtrees starting at or after leftmost(j), which must tile
// [leftmost(j), j); every child but the first, and the tree's root, is a
// keyroot. `stack` is caller scratch, reused across contexts so
// validation allocates nothing per context.
Status CheckContext(const FlatContext& fc, uint32_t context,
                    std::vector<std::pair<int32_t, int32_t>>* stack) {
  const auto bad = [context](const std::string& what) {
    return Corrupt("context " + std::to_string(context) + " " + what);
  };
  const auto is_keyroot = [&fc](int32_t j) {
    return std::binary_search(fc.keyroots.begin(), fc.keyroots.end(), j);
  };
  stack->clear();
  size_t keyroots = 0;
  for (size_t pos = 0; pos < fc.post.size(); ++pos) {
    const int32_t j = static_cast<int32_t>(pos);
    const int32_t l = fc.post[pos].leftmost;
    int32_t first_start = j;
    int32_t child = -1;  // the last popped child; the first child at the end
    while (!stack->empty() && stack->back().first >= l) {
      if (child >= 0) {
        if (!is_keyroot(child)) return bad("has invalid keyroots");
        ++keyroots;
      }
      first_start = stack->back().first;
      child = stack->back().second;
      stack->pop_back();
    }
    if (first_start != l) return bad("has an invalid leftmost leaf");
    stack->emplace_back(l, j);
  }
  if (stack->size() > 1) return bad("is not a single tree");
  if (!stack->empty()) {
    if (!is_keyroot(stack->back().second)) return bad("has invalid keyroots");
    ++keyroots;
  }
  if (keyroots != fc.keyroots.size()) return bad("has invalid keyroots");
  return Status::OK();
}

}  // namespace

std::string Serialize(const TrainedModel& model) {
  // The exact set the in-memory classifier serves: same pools, same ids,
  // same prepared contexts and perfect hash.
  const FlatTrainingSet flat =
      BuildFlatTrainingSet(model.samples(), model.index());

  // Action pool (slot 0 is the roots' empty optional, not written).
  Writer acts_w;
  acts_w.U32(static_cast<uint32_t>(flat.actions.size() - 1));
  for (size_t i = 1; i < flat.actions.size(); ++i) {
    WriteAction(*flat.actions[i], &acts_w);
  }

  // Flat display pool: labels and column names interned into one char
  // heap (deduplicated first-seen, so serialization is deterministic),
  // profile values into one double heap, label references into one
  // LabelRef array.
  std::string str_heap;
  std::unordered_map<std::string, uint32_t> str_index;
  const auto intern_str = [&](std::string_view s) -> uint32_t {
    auto [it, inserted] =
        str_index.try_emplace(std::string(s),
                              static_cast<uint32_t>(str_heap.size()));
    if (inserted) str_heap.append(s);
    return it->second;
  };
  std::vector<double> dbl_heap;
  std::vector<LabelRef> label_refs;
  std::vector<DisplayRecord> disp_recs;
  disp_recs.reserve(flat.pool_views.size());
  for (const DisplayView& v : flat.pool_views) {
    DisplayRecord rec;
    rec.kind = static_cast<uint32_t>(v.kind);
    rec.num_labels = v.num_labels;
    rec.num_values = v.num_values;
    rec.num_rows = v.num_rows;
    rec.labels_begin = static_cast<uint32_t>(label_refs.size());
    for (uint32_t i = 0; i < v.num_labels; ++i) {
      const std::string_view label = v.label(i);
      label_refs.push_back(LabelRef{intern_str(label),
                                    static_cast<uint32_t>(label.size())});
    }
    rec.values_begin = static_cast<uint32_t>(dbl_heap.size());
    dbl_heap.insert(dbl_heap.end(), v.values, v.values + v.num_values);
    rec.column_offset = intern_str(v.column);
    rec.column_length = static_cast<uint32_t>(v.column.size());
    disp_recs.push_back(rec);
  }

  // Flat contexts, frozen verbatim (log_rows, leftmost and keyroots are
  // the bitwise values the classifier serves).
  std::vector<NodeRecord> node_recs;
  std::vector<ContextRecord> ctx_recs;
  std::vector<int32_t> keyroot_heap;
  ctx_recs.reserve(flat.contexts.size());
  for (const FlatContext& fc : flat.contexts) {
    ContextRecord cr;
    cr.node_begin = static_cast<uint32_t>(node_recs.size());
    cr.node_count = static_cast<uint32_t>(fc.post.size());
    cr.keyroot_begin = static_cast<uint32_t>(keyroot_heap.size());
    cr.keyroot_count = static_cast<uint32_t>(fc.keyroots.size());
    ctx_recs.push_back(cr);
    for (const FlatContext::Node& n : fc.post) {
      NodeRecord nr;
      nr.display_id = n.display_id;
      nr.action_id = static_cast<int32_t>(n.incoming - flat.actions.data()) - 1;
      nr.leftmost = n.leftmost;
      nr.log_rows = n.log_rows;
      node_recs.push_back(nr);
    }
    for (int k : fc.keyroots) keyroot_heap.push_back(k);
  }

  std::vector<SampleRecord> sample_recs;
  std::vector<int32_t> label_heap;
  sample_recs.reserve(flat.meta.size());
  for (const TrainingSample& s : flat.meta) {
    SampleRecord sr;
    sr.label = s.label;
    sr.tree_index = s.tree_index;
    sr.step = s.step;
    sr.labels_begin = static_cast<uint32_t>(label_heap.size());
    sr.labels_count = static_cast<uint32_t>(s.labels.size());
    sr.max_relative = s.max_relative;
    for (int l : s.labels) label_heap.push_back(l);
    sample_recs.push_back(sr);
  }

  const index::VpTree* tree = flat.index.get();
  const bool has_index = tree != nullptr && !tree->empty();
  const std::optional<PerfectHash>& phf = flat.phf;
  const bool has_phf = phf.has_value();

  Writer cfg_w;
  WriteConfig(model.config(), &cfg_w);
  cfg_w.U32(static_cast<uint32_t>(flat.meta.size()));
  cfg_w.U32(static_cast<uint32_t>(flat.pool_views.size()));
  cfg_w.U32(static_cast<uint32_t>(flat.actions.size() - 1));
  cfg_w.U64(node_recs.size());
  cfg_w.U64(keyroot_heap.size());
  cfg_w.U64(label_heap.size());
  cfg_w.U64(str_heap.size());
  cfg_w.U64(dbl_heap.size());
  cfg_w.U64(label_refs.size());
  cfg_w.U8(has_index ? 1 : 0);
  if (has_index) {
    cfg_w.I32(tree->leaf_size());
    cfg_w.U32(static_cast<uint32_t>(tree->num_nodes()));
    cfg_w.U64(tree->num_entries());
  }
  cfg_w.U8(has_phf ? 1 : 0);
  if (has_phf) {
    cfg_w.U64(phf->displacements().size());
    cfg_w.U64(phf->slot_keys().size());
  }

  std::vector<SectionBuf> sections;
  sections.push_back({kTagConfig, cfg_w.Take()});
  sections.push_back({kTagActions, acts_w.Take()});
  sections.push_back({kTagStrHeap, std::move(str_heap)});
  sections.push_back(
      {kTagDblHeap, PodBytes(dbl_heap.data(), dbl_heap.size())});
  sections.push_back(
      {kTagLabelRefs, PodBytes(label_refs.data(), label_refs.size())});
  sections.push_back(
      {kTagDisplays, PodBytes(disp_recs.data(), disp_recs.size())});
  sections.push_back(
      {kTagNodes, PodBytes(node_recs.data(), node_recs.size())});
  sections.push_back(
      {kTagContexts, PodBytes(ctx_recs.data(), ctx_recs.size())});
  sections.push_back(
      {kTagKeyroots, PodBytes(keyroot_heap.data(), keyroot_heap.size())});
  sections.push_back(
      {kTagSamples, PodBytes(sample_recs.data(), sample_recs.size())});
  sections.push_back(
      {kTagLabelHeap, PodBytes(label_heap.data(), label_heap.size())});
  if (has_index) {
    sections.push_back(
        {kTagTreeNodes, PodBytes(tree->nodes_data(), tree->num_nodes())});
    sections.push_back(
        {kTagTreeEntries,
         PodBytes(tree->entries_data(), tree->num_entries())});
  }
  if (has_phf) {
    sections.push_back({kTagPhfDisp,
                        PodBytes(phf->displacements().data(),
                                 phf->displacements().size())});
    sections.push_back(
        {kTagPhfKeys,
         PodBytes(phf->slot_keys().data(), phf->slot_keys().size())});
    sections.push_back(
        {kTagPhfValues,
         PodBytes(phf->slot_values().data(), phf->slot_values().size())});
  }
  return AssembleSections(std::move(sections));
}

Result<ModelConfig> PeekConfig(const MappedArtifact& art) {
  IDA_ASSIGN_OR_RETURN(Directory dir, ParseDirectory(art.data(), art.size()));
  IDA_ASSIGN_OR_RETURN(CfgInfo info, ParseCfg(dir));
  return info.config;
}

Result<FlatTrainingSet> LoadServing(
    std::shared_ptr<const MappedArtifact> art, const ModelConfig& config) {
  if (art == nullptr) return Corrupt("null artifact mapping");
  IDA_ASSIGN_OR_RETURN(Directory dir,
                       ParseDirectory(art->data(), art->size()));
  IDA_ASSIGN_OR_RETURN(CfgInfo info, ParseCfg(dir));
  IDA_RETURN_NOT_OK(CheckTags(dir, info));
  IDA_RETURN_NOT_OK(CheckLengths(dir, info));
  if (config.load.eager_checksums) {
    for (const SectionEntry& e : dir.entries) {
      IDA_RETURN_NOT_OK(dir.VerifyChecksum(e));
    }
  }

  FlatTrainingSet out;

  // The action pool is the one flat structure that must be materialized
  // (Action owns strings); it is small — unique syntaxes, not nodes.
  // Slot 0 is the shared "no incoming action" empty optional the context
  // roots point at; pool id i lives in slot i + 1.
  IDA_ASSIGN_OR_RETURN(std::vector<Action> actions, ParseActions(dir, info));
  out.actions.reserve(actions.size() + 1);
  out.actions.emplace_back(std::nullopt);
  for (Action& a : actions) out.actions.emplace_back(std::move(a));

  // Everything below wraps the mapping in place. Structural validation is
  // unconditional: every stored index is bounds-checked before use, so a
  // corrupt lazily-checksummed artifact can fail loading or degrade
  // predictions, never memory safety.
  const char* str_heap =
      reinterpret_cast<const char*>(dir.data(*dir.Find(kTagStrHeap)));
  const double* dbl_heap =
      reinterpret_cast<const double*>(dir.data(*dir.Find(kTagDblHeap)));
  const LabelRef* label_refs =
      reinterpret_cast<const LabelRef*>(dir.data(*dir.Find(kTagLabelRefs)));
  for (uint64_t i = 0; i < info.num_label_refs; ++i) {
    if (label_refs[i].offset > info.str_len ||
        label_refs[i].length > info.str_len - label_refs[i].offset) {
      return Corrupt("label reference " + std::to_string(i) +
                     " is out of bounds");
    }
  }

  const DisplayRecord* disp_recs = reinterpret_cast<const DisplayRecord*>(
      dir.data(*dir.Find(kTagDisplays)));
  out.pool_views.reserve(info.num_displays);
  for (uint32_t id = 0; id < info.num_displays; ++id) {
    const DisplayRecord& rec = disp_recs[id];
    if (rec.kind > static_cast<uint32_t>(DisplayKind::kAggregated)) {
      return Corrupt("display " + std::to_string(id) + " has unknown kind " +
                     std::to_string(rec.kind));
    }
    // The ground metric pairs label j with value j.
    if (rec.num_labels != rec.num_values) {
      return Corrupt("display " + std::to_string(id) + " has " +
                     std::to_string(rec.num_labels) + " labels for " +
                     std::to_string(rec.num_values) + " values");
    }
    if (rec.labels_begin > info.num_label_refs ||
        rec.num_labels > info.num_label_refs - rec.labels_begin ||
        rec.values_begin > info.num_dbl ||
        rec.num_values > info.num_dbl - rec.values_begin ||
        rec.column_offset > info.str_len ||
        rec.column_length > info.str_len - rec.column_offset) {
      return Corrupt("display " + std::to_string(id) +
                     " references data out of bounds");
    }
    DisplayView v;
    v.kind = static_cast<DisplayKind>(rec.kind);
    v.num_labels = rec.num_labels;
    v.num_values = rec.num_values;
    v.num_rows = rec.num_rows;
    v.column = std::string_view(str_heap + rec.column_offset,
                                rec.column_length);
    v.values = dbl_heap + rec.values_begin;
    v.flat_labels = label_refs + rec.labels_begin;
    v.str_heap = str_heap;
    // The pool record's address is the view's stable identity: unique per
    // pool member, never dereferenced as a Display (see DisplayView).
    v.identity = reinterpret_cast<const Display*>(disp_recs + id);
    out.pool_views.push_back(v);
  }

  const ContextRecord* ctx_recs = reinterpret_cast<const ContextRecord*>(
      dir.data(*dir.Find(kTagContexts)));
  const NodeRecord* node_recs =
      reinterpret_cast<const NodeRecord*>(dir.data(*dir.Find(kTagNodes)));
  const int32_t* keyroots =
      reinterpret_cast<const int32_t*>(dir.data(*dir.Find(kTagKeyroots)));
  out.contexts.reserve(info.num_samples);
  std::vector<std::pair<int32_t, int32_t>> subtree_stack;
  uint64_t node_cursor = 0;
  uint64_t keyroot_cursor = 0;
  for (uint32_t i = 0; i < info.num_samples; ++i) {
    const ContextRecord& cr = ctx_recs[i];
    // Slices must tile their heaps in sample order (as written), which
    // rules out overlap and leaves nothing unreferenced.
    if (cr.node_begin != node_cursor ||
        cr.node_count > info.num_nodes - node_cursor) {
      return Corrupt("context " + std::to_string(i) +
                     " has an invalid node slice");
    }
    if (cr.keyroot_begin != keyroot_cursor ||
        cr.keyroot_count > info.num_keyroots - keyroot_cursor) {
      return Corrupt("context " + std::to_string(i) +
                     " has an invalid keyroot slice");
    }
    FlatContext fc;
    fc.post.reserve(cr.node_count);
    for (uint32_t j = 0; j < cr.node_count; ++j) {
      const NodeRecord& nr = node_recs[node_cursor + j];
      if (nr.display_id < 0 ||
          static_cast<uint32_t>(nr.display_id) >= info.num_displays) {
        return Corrupt("context node display id " +
                       std::to_string(nr.display_id) + " out of range");
      }
      if (nr.action_id < -1 ||
          static_cast<int64_t>(nr.action_id) >=
              static_cast<int64_t>(info.num_actions)) {
        return Corrupt("context node action id " +
                       std::to_string(nr.action_id) + " out of range");
      }
      // A leftmost-leaf postorder index always precedes (or is) its node.
      if (nr.leftmost < 0 || static_cast<uint32_t>(nr.leftmost) > j) {
        return Corrupt("context node leftmost index out of range");
      }
      // A non-finite size term would reach the candidate sort as NaN.
      if (!std::isfinite(nr.log_rows) || nr.log_rows < 0.0) {
        return Corrupt("context node log_rows is not a finite size term");
      }
      FlatContext::Node n;
      n.display = out.pool_views[static_cast<uint32_t>(nr.display_id)];
      n.display_id = nr.display_id;
      n.incoming = &out.actions[static_cast<size_t>(nr.action_id) + 1];
      n.leftmost = nr.leftmost;
      n.log_rows = nr.log_rows;
      fc.post.push_back(n);
    }
    int64_t prev = -1;
    fc.keyroots.reserve(cr.keyroot_count);
    for (uint32_t j = 0; j < cr.keyroot_count; ++j) {
      const int32_t k = keyroots[keyroot_cursor + j];
      if (k <= prev || static_cast<uint32_t>(k) >= cr.node_count) {
        return Corrupt("context " + std::to_string(i) +
                       " has invalid keyroots");
      }
      fc.keyroots.push_back(k);
      prev = k;
    }
    IDA_RETURN_NOT_OK(CheckContext(fc, i, &subtree_stack));
    node_cursor += cr.node_count;
    keyroot_cursor += cr.keyroot_count;
    out.contexts.push_back(std::move(fc));
  }
  if (node_cursor != info.num_nodes) {
    return Corrupt("unreferenced trailing context nodes");
  }
  if (keyroot_cursor != info.num_keyroots) {
    return Corrupt("unreferenced trailing keyroots");
  }

  const SampleRecord* sample_recs = reinterpret_cast<const SampleRecord*>(
      dir.data(*dir.Find(kTagSamples)));
  const int32_t* label_heap =
      reinterpret_cast<const int32_t*>(dir.data(*dir.Find(kTagLabelHeap)));
  out.meta.reserve(info.num_samples);
  uint64_t label_cursor = 0;
  for (uint32_t i = 0; i < info.num_samples; ++i) {
    const SampleRecord& sr = sample_recs[i];
    if (sr.labels_begin != label_cursor ||
        sr.labels_count > info.num_label_ints - label_cursor) {
      return Corrupt("sample " + std::to_string(i) +
                     " has an invalid label slice");
    }
    TrainingSample s;
    s.label = sr.label;
    s.tree_index = sr.tree_index;
    s.step = sr.step;
    s.max_relative = sr.max_relative;
    s.labels.assign(label_heap + label_cursor,
                    label_heap + label_cursor + sr.labels_count);
    label_cursor += sr.labels_count;
    out.meta.push_back(std::move(s));
  }
  if (label_cursor != info.num_label_ints) {
    return Corrupt("unreferenced trailing sample labels");
  }

  if (info.has_index) {
    const index::FlatNode* tn = reinterpret_cast<const index::FlatNode*>(
        dir.data(*dir.Find(kTagTreeNodes)));
    const index::VpEntry* te = reinterpret_cast<const index::VpEntry*>(
        dir.data(*dir.Find(kTagTreeEntries)));
    IDA_ASSIGN_OR_RETURN(
        index::VpTree tree,
        index::VpTree::WrapFlat(tn, info.num_tree_nodes, te,
                                info.num_tree_entries, info.num_samples,
                                info.leaf_size));
    out.index = std::make_shared<const index::VpTree>(std::move(tree));
  }

  if (info.has_phf) {
    std::vector<uint32_t> disp(info.phf_buckets);
    std::memcpy(disp.data(), dir.data(*dir.Find(kTagPhfDisp)),
                info.phf_buckets * sizeof(uint32_t));
    std::vector<uint64_t> keys(info.phf_keys);
    std::memcpy(keys.data(), dir.data(*dir.Find(kTagPhfKeys)),
                info.phf_keys * sizeof(uint64_t));
    std::vector<uint32_t> values(info.phf_keys);
    std::memcpy(values.data(), dir.data(*dir.Find(kTagPhfValues)),
                info.phf_keys * sizeof(uint32_t));
    // The stored values index the display pool unchecked on the serving
    // hot path, so bound them here; key corruption, by contrast, is safe
    // (lookups verify the stored key and degrade to "unresolved").
    for (uint32_t v : values) {
      if (v >= info.num_displays) {
        return Corrupt("perfect-hash value " + std::to_string(v) +
                       " out of range");
      }
    }
    out.phf = PerfectHash::FromParts(std::move(disp), std::move(keys),
                                     std::move(values));
  }

  out.storage = std::move(art);
  return out;
}

}  // namespace ida::engine::v4
