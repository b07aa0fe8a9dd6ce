// TrainedModel — the serializable output of the offline phase (engine
// train/serve split, DESIGN.md §9). A trained model is an immutable value:
// the full ModelConfig plus the labeled training samples with their
// n-contexts, and the serving-time kNN index built over them. It
// serializes to one artifact format, so a model can be trained once and
// served from many processes.
//
// The format (engine/artifact_v4.h, DESIGN.md §16) is flat and
// position-independent: after the magic "IDAMODEL" and a u32 format
// version comes a section directory of {tag, offset, length, checksum}
// entries, and every serving structure (interned display pool, flattened
// contexts, labels, VP-tree node/entry arrays, perfect-hash display memo)
// is an 8-byte-aligned section valid in place, so a read-only file mapping
// serves queries without parsing (Predictor::LoadFromFile). Doubles are
// stored as raw IEEE-754 bits, so a loaded model reproduces in-memory
// predictions bitwise. Corrupt, truncated or version-mismatched inputs are
// rejected with a descriptive Status; loading never crashes. Files written
// in an older format version are rejected with a version message — re-save
// the model from its training log.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/config.h"
#include "index/vptree.h"
#include "offline/training.h"

namespace ida::engine {

/// First bytes of every model artifact.
inline constexpr char kArtifactMagic[8] = {'I', 'D', 'A', 'M',
                                           'O', 'D', 'E', 'L'};
/// The artifact format version this build writes and reads. Bump on any
/// layout change; other versions are rejected with an explicit message.
inline constexpr uint32_t kArtifactVersion = 6;

/// An immutable trained model: configuration + labeled samples + optional
/// serving index.
class TrainedModel {
 public:
  TrainedModel() = default;
  TrainedModel(ModelConfig config, std::vector<TrainingSample> samples,
               std::shared_ptr<const index::VpTree> index = nullptr)
      : config_(std::move(config)),
        samples_(std::move(samples)),
        index_(std::move(index)) {}

  const ModelConfig& config() const { return config_; }
  const std::vector<TrainingSample>& samples() const { return samples_; }
  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  /// The kNN serving index, or nullptr when the model carries none (index
  /// disabled at training time).
  const std::shared_ptr<const index::VpTree>& index() const { return index_; }

  /// Serializes to the artifact format described above.
  std::string Serialize() const;

  /// Writes Serialize() to `path` atomically: the bytes go to a sibling
  /// temporary file that is then renamed over `path`, so a process still
  /// serving a mapping of the old file keeps its old bytes, and readers
  /// never observe a partly written artifact.
  Status SaveToFile(const std::string& path) const;

 private:
  ModelConfig config_;
  std::vector<TrainingSample> samples_;
  std::shared_ptr<const index::VpTree> index_;
};

}  // namespace ida::engine
