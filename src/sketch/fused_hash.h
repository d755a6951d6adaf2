#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sketch/h3.h"

namespace shedmon::sketch {

// Evaluates several H3 hash functions over (sub-keys of) one short key in a
// single table pass, exploiting H3's linearity: the hash of a key is the XOR
// of one seeded table word per key byte, so the contributions of every
// sub-hash that reads a given key byte can be precomputed side by side. One
// pass over the key then yields all hash values at once, with no per-sub-hash
// key materialization and perfectly sequential table reads.
//
// Each sub-hash is defined by an H3 seed and the list of key-byte positions
// that form its sub-key (in sub-key order). The result is bit-identical to
// constructing H3Hash(seed) and hashing the extracted sub-key bytes, which is
// exactly the per-aggregate path the feature extractor used to take (§3.2.1).
class FusedTupleHasher {
 public:
  struct SubHash {
    uint64_t seed = 0;
    // Positions into the fused key, in sub-key byte order. A sub-key over all
    // key bytes in order reproduces H3Hash(seed).Hash(key, key_len) exactly.
    std::vector<uint8_t> key_bytes;
  };

  // `key_len` is the length every hashed key must have, at most
  // H3Hash::kMaxKeyBytes. Throws std::invalid_argument on an empty sub-hash
  // list, an oversized key, or a sub-key position outside the key.
  FusedTupleHasher(size_t key_len, const std::vector<SubHash>& subs);

  size_t key_len() const { return key_len_; }
  size_t num_hashes() const { return num_hashes_; }

  // Writes num_hashes() values to `out`; `key` must hold key_len() bytes.
  void HashAll(const uint8_t* key, uint64_t* out) const {
    const size_t n = num_hashes_;
    uint64_t acc[kMaxFusedHashes] = {};
    for (size_t i = 0; i < key_len_; ++i) {
      const uint64_t* row = RowFor(i, key[i]);
      for (size_t k = 0; k < n; ++k) {
        acc[k] ^= row[k];
      }
    }
    for (size_t k = 0; k < n; ++k) {
      out[k] = acc[k];
    }
  }

  // Fully static fast path: both the key length and the hash count are
  // compile-time constants (KeyLen must equal key_len()), so the whole
  // accumulation is a branch-free straight line of vectorizable XORs. This is
  // the per-packet path of the feature extractor (KeyLen 13, N 10).
  template <size_t KeyLen, size_t N>
  void HashAllFixed(const uint8_t* key, std::array<uint64_t, N>& out) const {
    assert(KeyLen == key_len_ && N == num_hashes_);
    std::array<uint64_t, N> acc{};
    for (size_t i = 0; i < KeyLen; ++i) {
      const uint64_t* row = RowFor(i, key[i]);
      for (size_t k = 0; k < N; ++k) {
        acc[k] ^= row[k];
      }
    }
    out = acc;
  }

  // Single-sub-hash conveniences (num_hashes() == 1), the FlowSampler path.
  template <size_t KeyLen>
  uint64_t Hash1Fixed(const uint8_t* key) const {
    assert(KeyLen == key_len_ && num_hashes_ == 1);
    uint64_t h = 0;
    for (size_t i = 0; i < KeyLen; ++i) {
      h ^= fused_[i * 256 + key[i]];
    }
    return h;
  }

  // Hash mapped to [0, 1); bit-identical to H3Hash::HashUnit.
  template <size_t KeyLen>
  double HashUnit1Fixed(const uint8_t* key) const {
    return static_cast<double>(Hash1Fixed<KeyLen>(key) >> 11) * 0x1.0p-53;
  }

  static constexpr size_t kMaxFusedHashes = 16;

 private:
  const uint64_t* RowFor(size_t pos, uint8_t value) const {
    return fused_.data() + (pos * 256 + value) * num_hashes_;
  }

  size_t key_len_;
  size_t num_hashes_;
  // [key_len][256][num_hashes]: XOR contribution of key byte `pos` having
  // value `v` to each sub-hash (zero for sub-hashes that skip that byte).
  std::vector<uint64_t> fused_;
};

}  // namespace shedmon::sketch
