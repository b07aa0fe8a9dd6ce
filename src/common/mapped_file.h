// Read-only memory mapping of an artifact file with a heap fallback.
//
// The zero-copy serving path (DESIGN.md §16) validates a model artifact's
// section directory against the mapping and then serves flat sections in
// place: load cost becomes O(validated bytes) instead of O(parse
// everything), and the page cache shares the bytes across processes.
// When mmap is unavailable (exotic filesystems, or platforms without it)
// Open transparently falls back to one malloc + read of the whole file —
// the reader code is identical either way, only the load-time behavior
// differs. Instances are move-only RAII owners of the mapping; the
// predictor keeps one alive (via shared_ptr) for as long as any
// classifier serves views into it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ida {

/// Move-only RAII owner of an artifact's bytes: a read-only private
/// mapping when mmap succeeds, a heap buffer otherwise. data()/size()
/// are backend-independent.
class MappedArtifact {
 public:
  /// Maps `path` read-only (private mapping), or reads it onto the heap
  /// when mapping fails. Empty files are an error (no artifact is empty).
  static Result<MappedArtifact> Open(const std::string& path);

  MappedArtifact() = default;
  ~MappedArtifact() { Release(); }

  MappedArtifact(MappedArtifact&& other) noexcept { *this = std::move(other); }
  MappedArtifact& operator=(MappedArtifact&& other) noexcept {
    if (this != &other) {
      Release();
      map_base_ = other.map_base_;
      map_size_ = other.map_size_;
      heap_ = std::move(other.heap_);
      other.map_base_ = nullptr;
      other.map_size_ = 0;
      other.heap_.clear();
    }
    return *this;
  }
  MappedArtifact(const MappedArtifact&) = delete;
  MappedArtifact& operator=(const MappedArtifact&) = delete;

  const uint8_t* data() const {
    return map_base_ != nullptr ? static_cast<const uint8_t*>(map_base_)
                                : heap_.data();
  }
  size_t size() const { return map_base_ != nullptr ? map_size_ : heap_.size(); }

  /// True when the bytes are mmap-backed (false: heap fallback).
  bool mapped() const { return map_base_ != nullptr; }

 private:
  void Release();

  void* map_base_ = nullptr;
  size_t map_size_ = 0;
  std::vector<uint8_t> heap_;
};

}  // namespace ida
