#include "src/query/search.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace shedmon::query {

Searcher::Searcher(std::string needle) : needle_(std::move(needle)) {
  if (needle_.empty()) {
    throw std::invalid_argument("Searcher: empty needle");
  }
}

size_t Searcher::Find(const uint8_t* text, size_t len) const {
  const size_t m = needle_.size();
  if (len < m) {
    return kNpos;
  }
  const auto* nd = reinterpret_cast<const uint8_t*>(needle_.data());
  const size_t last_start = len - m;
  size_t i = 0;
#if defined(__SSE2__)
  // Block at i tests starts i..i+15: the first-byte load reads text[i, i+16)
  // and the last-byte load text[i+m-1, i+m+15), so i + 15 <= last_start
  // keeps both inside text[0, len).
  const __m128i first = _mm_set1_epi8(static_cast<char>(nd[0]));
  const __m128i last = _mm_set1_epi8(static_cast<char>(nd[m - 1]));
  for (; i + 15 <= last_start; i += 16) {
    const __m128i block_first = _mm_loadu_si128(reinterpret_cast<const __m128i*>(text + i));
    const __m128i block_last =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(text + i + m - 1));
    auto mask = static_cast<unsigned>(_mm_movemask_epi8(
        _mm_and_si128(_mm_cmpeq_epi8(block_first, first), _mm_cmpeq_epi8(block_last, last))));
    while (mask != 0) {
      const size_t pos = i + static_cast<size_t>(std::countr_zero(mask));
      if (m <= 2 || std::memcmp(text + pos + 1, nd + 1, m - 2) == 0) {
        return pos;
      }
      mask &= mask - 1;
    }
  }
#endif
  for (; i <= last_start; ++i) {
    if (text[i] == nd[0] && text[i + m - 1] == nd[m - 1] &&
        (m <= 2 || std::memcmp(text + i + 1, nd + 1, m - 2) == 0)) {
      return i;
    }
  }
  return kNpos;
}

}  // namespace shedmon::query
