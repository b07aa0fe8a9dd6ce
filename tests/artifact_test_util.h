// Shared helpers for the tests that write, corrupt and load model
// artifacts (engine/artifact_v4.h): a temp-file wrapper, a load-from-bytes
// shortcut through the one loader, and section-directory editing that can
// re-seal checksums so structural validation is what a test exercises.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/binio.h"
#include "engine/artifact_v4.h"
#include "engine/engine.h"

namespace ida::testing {

/// A temp artifact file removed on scope exit.
class TempArtifact {
 public:
  explicit TempArtifact(const std::string& bytes) : TempArtifact() {
    Write(bytes);
  }
  TempArtifact() {
    static int counter = 0;
    path_ = ::testing::TempDir() + "artifact_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" +
            std::to_string(counter++) + ".idamodel";
  }
  ~TempArtifact() { std::remove(path_.c_str()); }
  TempArtifact(const TempArtifact&) = delete;
  TempArtifact& operator=(const TempArtifact&) = delete;

  /// Overwrites the file in place with `bytes`.
  void Write(const std::string& bytes) const {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Loads artifact `bytes` through Predictor::LoadFromFile.
inline Result<engine::Predictor> LoadBytes(const std::string& bytes) {
  TempArtifact file(bytes);
  return engine::Predictor::LoadFromFile(file.path());
}

constexpr size_t kArtifactHeaderSize = 16;  // magic + version + count

inline uint32_t SectionCount(const std::string& bytes) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  return count;
}

inline engine::v4::SectionEntry ReadEntry(const std::string& bytes,
                                          size_t i) {
  engine::v4::SectionEntry e;
  std::memcpy(&e, bytes.data() + kArtifactHeaderSize + i * sizeof(e),
              sizeof(e));
  return e;
}

inline void WriteEntry(std::string* bytes, size_t i,
                       const engine::v4::SectionEntry& e) {
  std::memcpy(bytes->data() + kArtifactHeaderSize + i * sizeof(e), &e,
              sizeof(e));
}

/// Recomputes the directory checksum after an entry edit, so the edit
/// itself (not the checksum) is what the validator must catch.
inline void FixDirectoryChecksum(std::string* bytes) {
  const size_t dir_end = kArtifactHeaderSize +
                         SectionCount(*bytes) * sizeof(engine::v4::SectionEntry);
  const uint64_t sum = binio::Fnv1a(bytes->data(), dir_end);
  std::memcpy(bytes->data() + dir_end, &sum, sizeof(sum));
}

/// Recomputes section `i`'s checksum (and the directory's) after a payload
/// edit.
inline void FixSectionChecksum(std::string* bytes, size_t i) {
  engine::v4::SectionEntry e = ReadEntry(*bytes, i);
  e.checksum = binio::Fnv1a(bytes->data() + e.offset,
                            (e.length + 7) & ~uint64_t{7});
  WriteEntry(bytes, i, e);
  FixDirectoryChecksum(bytes);
}

inline size_t FindEntryIndex(const std::string& bytes, uint32_t tag) {
  for (size_t i = 0; i < SectionCount(bytes); ++i) {
    if (ReadEntry(bytes, i).tag == tag) return i;
  }
  ADD_FAILURE() << "section not found";
  return 0;
}

}  // namespace ida::testing
