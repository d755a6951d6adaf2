#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace shedmon::query {

// Exact byte-sequence search, the matcher behind the pattern-search and
// p2p-detector queries. Built once from a needle, then applied to many
// haystacks. It tests the needle's first and last bytes over 16-byte blocks
// and compares the whole needle only at candidate positions; a scalar loop
// handles the tail (and the whole haystack on targets without SSE2). Cost
// is linear in the scanned bytes, which is the property that makes those
// queries' CPU usage track the byte count feature (Table 3.2).
class Searcher {
 public:
  explicit Searcher(std::string needle);

  // Byte offset of the first occurrence, or npos.
  static constexpr size_t kNpos = static_cast<size_t>(-1);
  size_t Find(const uint8_t* text, size_t len) const;
  bool Contains(const uint8_t* text, size_t len) const { return Find(text, len) != kNpos; }

  const std::string& needle() const { return needle_; }

 private:
  std::string needle_;
};

}  // namespace shedmon::query
