// The model artifact format (DESIGN.md §16, format version 7; the file
// and namespace keep the name of the version that introduced the layout):
// a flat, little-endian, zero-copy layout that a read-only file mapping
// serves in place.
//
//   "IDAMODEL" | u32 version=7 | u32 section_count
//   | section_count x SectionEntry {tag, reserved, offset, length, checksum}
//   | u64 directory checksum (FNV-1a over everything above)
//   | sections, each at an 8-byte-aligned absolute offset, zero-padded
//     to the next 8-byte boundary; consecutive sections tile the file
//     exactly (offset_i == padded end of section i-1, and the padded end
//     of the last section == file size).
//
// Each section's checksum covers its padded byte range, so a flipped bit
// anywhere in the file — header, payload or padding — fails either the
// directory checksum or a section checksum. Every structure the serving
// path touches (interned display pool, flattened training contexts,
// labels, sorted display content table, VP-tree node/entry arrays) is a
// flat, position-independent, index-based section: the loader validates
// the directory and structure, then wraps the bytes without parsing them.
// The writer serializes exactly the FlatTrainingSet the in-memory
// classifier serves (BuildFlatTrainingSet), so a loaded model reproduces
// the in-memory predictions bitwise.
//
// Integrity policy: the loader verifies the directory and CFG checksums
// always, and the remaining sections per ModelConfig::load.eager_checksums
// (hot reload forces eager); structural validation (every index
// bounds-checked, slices tiled, the tree shape-checked, the content
// table's keys strictly ascending and its ids inside the pool) runs
// unconditionally, so a corrupt lazily-mapped artifact can degrade
// predictions but never memory safety.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/mapped_file.h"
#include "common/status.h"
#include "engine/model.h"
#include "predict/knn.h"

namespace ida::engine::v4 {

/// Four-character section tag packed little-endian into a u32.
constexpr uint32_t Tag(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<uint8_t>(a)) |
         static_cast<uint32_t>(static_cast<uint8_t>(b)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(c)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(d)) << 24;
}

/// Section tags, in their mandatory file order. CFG..DIDS are always
/// present (possibly zero-length); VPTN/VPTE appear only when the model
/// carries an index. DKEY/DIDS are the sorted display content table
/// (FlatTrainingSet::display_keys / display_ids).
inline constexpr uint32_t kTagConfig = Tag('C', 'F', 'G', ' ');
inline constexpr uint32_t kTagActions = Tag('A', 'C', 'T', 'S');
inline constexpr uint32_t kTagStrHeap = Tag('D', 'S', 'T', 'R');
inline constexpr uint32_t kTagDblHeap = Tag('D', 'D', 'B', 'L');
inline constexpr uint32_t kTagLabelRefs = Tag('D', 'L', 'B', 'L');
inline constexpr uint32_t kTagDisplays = Tag('D', 'I', 'S', 'P');
inline constexpr uint32_t kTagNodes = Tag('N', 'O', 'D', 'E');
inline constexpr uint32_t kTagContexts = Tag('C', 'T', 'X', 'H');
inline constexpr uint32_t kTagKeyroots = Tag('K', 'E', 'Y', 'R');
inline constexpr uint32_t kTagSamples = Tag('L', 'B', 'L', 'S');
inline constexpr uint32_t kTagLabelHeap = Tag('L', 'B', 'L', 'H');
inline constexpr uint32_t kTagDisplayKeys = Tag('D', 'K', 'E', 'Y');
inline constexpr uint32_t kTagDisplayIds = Tag('D', 'I', 'D', 'S');
inline constexpr uint32_t kTagTreeNodes = Tag('V', 'P', 'T', 'N');
inline constexpr uint32_t kTagTreeEntries = Tag('V', 'P', 'T', 'E');

/// One directory entry: where a section lives and what its padded byte
/// range hashes to. `offset` is absolute, 8-aligned; `length` is the
/// unpadded payload length; `checksum` is FNV-1a over
/// [offset, offset + PadTo8(length)).
struct SectionEntry {
  uint32_t tag = 0;
  uint32_t reserved = 0;  ///< must be zero
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
};

/// One interned display of the DISP section: every field the serving-time
/// DisplayView exposes, as indices into the DSTR (chars), DDBL (doubles)
/// and DLBL (LabelRef) heap sections.
struct DisplayRecord {
  uint32_t kind = 0;
  uint32_t num_labels = 0;
  uint32_t num_values = 0;
  uint32_t labels_begin = 0;  ///< first LabelRef in DLBL
  uint32_t values_begin = 0;  ///< first double in DDBL
  uint32_t column_offset = 0; ///< profile column name, in DSTR
  uint32_t column_length = 0;
  uint32_t pad = 0;
  uint64_t num_rows = 0;
};

/// One flattened context node of the NODE section (postorder within its
/// context). `action_id` indexes the ACTS pool, -1 = no incoming action
/// (context root); `log_rows` is the fit-time precomputed log2(rows + 1)
/// bits, stored verbatim so mapped serving is bitwise the in-memory model.
struct NodeRecord {
  int32_t display_id = 0;  ///< index into the DISP pool
  int32_t action_id = -1;
  int32_t leftmost = 0;    ///< postorder index of the leftmost leaf
  int32_t pad = 0;
  double log_rows = 0.0;
};

/// One training context of the CTXH section: its node and keyroot slices
/// (exact-tiling indices into NODE / KEYR).
struct ContextRecord {
  uint32_t node_begin = 0;
  uint32_t node_count = 0;
  uint32_t keyroot_begin = 0;
  uint32_t keyroot_count = 0;
};

/// One training sample of the LBLS section: label, acceptable-label slice
/// (into LBLH) and provenance.
struct SampleRecord {
  int32_t label = -1;
  int32_t tree_index = 0;
  int32_t step = 0;
  uint32_t labels_begin = 0;
  uint32_t labels_count = 0;
  uint32_t pad = 0;
  double max_relative = 0.0;
};

static_assert(sizeof(SectionEntry) == 32, "v4 directory entry layout");
static_assert(sizeof(DisplayRecord) == 40, "v4 DISP record layout");
static_assert(sizeof(NodeRecord) == 24, "v4 NODE record layout");
static_assert(sizeof(ContextRecord) == 16, "v4 CTXH record layout");
static_assert(sizeof(SampleRecord) == 32, "v4 LBLS record layout");
static_assert(std::is_trivially_copyable_v<SectionEntry>);
static_assert(std::is_trivially_copyable_v<DisplayRecord>);
static_assert(std::is_trivially_copyable_v<NodeRecord>);
static_assert(std::is_trivially_copyable_v<ContextRecord>);
static_assert(std::is_trivially_copyable_v<SampleRecord>);

/// Serializes `model` into artifact bytes (TrainedModel::Serialize
/// delegates here). Deterministic: the same model always produces the
/// same bytes.
std::string Serialize(const TrainedModel& model);

/// Validates the section directory and the CFG section's checksum, then
/// parses and returns the model's configuration (which carries the
/// checksum policy LoadServing applies).
Result<ModelConfig> PeekConfig(const MappedArtifact& art);

/// The loader: validates the directory (and, per
/// `config.load.eager_checksums`, every section checksum), runs the full
/// structural validation of the flat sections, and assembles the
/// classifier's construction input with every view borrowing `art`'s
/// bytes. `config` must be the artifact's own config (PeekConfig).
Result<FlatTrainingSet> LoadServing(
    std::shared_ptr<const MappedArtifact> art, const ModelConfig& config);

}  // namespace ida::engine::v4
