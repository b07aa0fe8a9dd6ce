// Minimal perfect hash over a fixed set of unique 64-bit keys, using the
// CHD (compress-hash-displace) construction: keys are partitioned into
// buckets, and each bucket is assigned one displacement value that maps
// its keys onto still-free slots of a table with exactly one slot per
// key. Lookup is a single displacement fetch plus a single slot probe —
// no probe sequences, no collisions — which is what lets the serving
// path resolve a query display's pool id in O(1) with one verification
// compare (see predict/knn.h and DESIGN.md §16).
//
// Construction is fully deterministic (fixed mixing constants, no
// randomness): the same key set always yields the same tables, so a PHF
// built at fit time and one rebuilt from the artifact are bitwise equal.
// Construction can fail (duplicate keys, or displacement search
// exhaustion on adversarial key sets); callers must treat the PHF as an
// optional accelerator and fall back to serving without it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace ida {

namespace phf_internal {

/// splitmix64 finalizer: full-avalanche 64-bit mixing.
inline uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Bucket assignment hash.
inline uint64_t BucketHash(uint64_t key) { return Mix(key); }

/// Slot hash family indexed by the bucket's displacement `d`: distinct
/// displacements must produce independent slot assignments for the
/// search to converge, hence the golden-ratio stride on d.
inline uint64_t SlotHash(uint64_t key, uint32_t d) {
  return Mix(key + 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(d) + 1));
}

}  // namespace phf_internal

/// Non-owning view of a built PHF: three parallel arrays that may live
/// anywhere (heap vectors, or a mapped artifact section used in place).
/// `disp` has `num_buckets` entries; `keys`/`values` have `num_keys`
/// entries, slot-ordered. Lookup verifies the stored key, so a
/// non-member key (or a fingerprint collision) is rejected, never
/// misresolved.
struct PhfView {
  const uint32_t* disp = nullptr;
  size_t num_buckets = 0;
  const uint64_t* keys = nullptr;
  const uint32_t* values = nullptr;
  size_t num_keys = 0;

  bool valid() const {
    return num_keys > 0 && num_buckets > 0 && disp != nullptr &&
           keys != nullptr && values != nullptr;
  }

  /// Single-probe lookup: the value stored for `key`, or nullopt when
  /// `key` is not a member of the built set.
  std::optional<uint32_t> Lookup(uint64_t key) const {
    if (!valid()) return std::nullopt;
    const uint32_t d = disp[phf_internal::BucketHash(key) % num_buckets];
    const size_t slot =
        static_cast<size_t>(phf_internal::SlotHash(key, d) % num_keys);
    if (keys[slot] != key) return std::nullopt;
    return values[slot];
  }
};

/// Owning PHF (fit-time build, or adopted from an artifact). The artifact
/// writer serializes the three arrays verbatim and the mapped reader
/// wraps them back into a PhfView without copying.
class PerfectHash {
 public:
  /// Builds a minimal perfect hash over `keys` with `values[i]` as the
  /// payload of `keys[i]`. Keys must be unique; duplicates make the
  /// displacement search unsatisfiable and report failure. Returns
  /// nullopt on failure — callers serve without the PHF.
  static std::optional<PerfectHash> Build(const std::vector<uint64_t>& keys,
                                          const std::vector<uint32_t>& values);

  /// Re-owns previously built tables (the PHF sections of a model artifact,
  /// copied off the mapping — they are small). Only shape is validated
  /// (non-empty, keys/values parallel); corrupted table *contents* are
  /// safe by construction — Lookup verifies the stored key, so the worst
  /// a hostile table yields is a failed lookup, never an out-of-slot
  /// access. Callers must bound the stored values themselves before
  /// using them as indices.
  static std::optional<PerfectHash> FromParts(std::vector<uint32_t> disp,
                                              std::vector<uint64_t> keys,
                                              std::vector<uint32_t> values);

  PhfView view() const {
    PhfView v;
    v.disp = disp_.data();
    v.num_buckets = disp_.size();
    v.keys = keys_.data();
    v.values = values_.data();
    v.num_keys = keys_.size();
    return v;
  }

  const std::vector<uint32_t>& displacements() const { return disp_; }
  const std::vector<uint64_t>& slot_keys() const { return keys_; }
  const std::vector<uint32_t>& slot_values() const { return values_; }

 private:
  PerfectHash() = default;

  std::vector<uint32_t> disp_;    // per bucket
  std::vector<uint64_t> keys_;    // slot-ordered
  std::vector<uint32_t> values_;  // slot-ordered
};

}  // namespace ida
