#include "src/sketch/bitmap.h"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace shedmon::sketch {

namespace {
// Linear counting over one bitmap of `bits` bits with `set` bits set; the
// saturated case returns the (large) estimate for one remaining zero bit.
double LinearCount(uint32_t bits, uint32_t set) {
  const uint32_t zeros = bits - set;
  if (zeros == 0) {
    return static_cast<double>(bits) * std::log(static_cast<double>(bits));
  }
  return -static_cast<double>(bits) *
         std::log(static_cast<double>(zeros) / static_cast<double>(bits));
}

// LinearCount(bits, set) for set = 0..bits, for a power-of-two `bits`,
// shared by every bitmap of that size. Each size's table is built once, on
// first use, and kept for the life of the process, so a bitmap holds a
// plain pointer and finding the table costs one atomic load.
const double* LinearCountTable(uint32_t bits) {
  constexpr size_t kSizes = 32;  // by log2(bits)
  static std::array<std::atomic<const double*>, kSizes> tables{};
  static std::array<std::vector<double>, kSizes> storage;
  static std::mutex mu;
  const int log2 = std::countr_zero(bits);
  const double* table = tables[log2].load(std::memory_order_acquire);
  if (table == nullptr) {
    const std::lock_guard<std::mutex> lock(mu);
    table = tables[log2].load(std::memory_order_relaxed);
    if (table == nullptr) {
      std::vector<double>& counts = storage[log2];
      counts.resize(static_cast<size_t>(bits) + 1);
      for (uint32_t set = 0; set <= bits; ++set) {
        counts[set] = LinearCount(bits, set);
      }
      table = counts.data();
      tables[log2].store(table, std::memory_order_release);
    }
  }
  return table;
}
}  // namespace

DirectBitmap::DirectBitmap(uint32_t bits) : size_bits_(bits), mask_(bits - 1) {
  if (bits == 0 || (bits & (bits - 1)) != 0) {
    throw std::invalid_argument("DirectBitmap size must be a power of two");
  }
  words_.resize((bits + 63) / 64, 0);
  linear_count_ = LinearCountTable(bits);
}

double DirectBitmap::Estimate() const { return linear_count_[bits_set_]; }

void DirectBitmap::Clear() {
  for (auto& w : words_) {
    w = 0;
  }
  bits_set_ = 0;
}

MultiResBitmap::MultiResBitmap(uint32_t components, uint32_t component_bits)
    : components_(components),
      component_bits_(component_bits),
      comp_words_((component_bits + 63) / 64),
      mask_(component_bits - 1) {
  if (components < 2 || components > kMaxComponents) {
    throw std::invalid_argument("MultiResBitmap components out of range");
  }
  if (component_bits == 0 || (component_bits & (component_bits - 1)) != 0) {
    throw std::invalid_argument("MultiResBitmap component size must be a power of two");
  }
  words_.assign(static_cast<size_t>(components_) * comp_words_, 0);
  bits_set_.assign(components_, 0);
  tables_ = TablesFor(components_, component_bits_);
}

std::shared_ptr<const MultiResBitmap::Tables> MultiResBitmap::TablesFor(uint32_t components,
                                                                        uint32_t component_bits) {
  static std::mutex mu;
  static std::map<std::pair<uint32_t, uint32_t>, std::shared_ptr<const Tables>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[{components, component_bits}];
  if (slot == nullptr) {
    auto t = std::make_shared<Tables>();
    t->linear_count = LinearCountTable(component_bits);
    const uint32_t c = components;
    t->probability_sum.resize(c);
    for (uint32_t base = 0; base < c; ++base) {
      double sum = 0.0;
      for (uint32_t i = base; i < c; ++i) {
        sum += (i < c - 1) ? std::ldexp(1.0, -static_cast<int>(i + 1))
                           : std::ldexp(1.0, -static_cast<int>(c - 1));
      }
      t->probability_sum[base] = sum;
    }
    t->setmax = static_cast<uint32_t>(kSetMaxFraction * static_cast<double>(component_bits));
    slot = std::move(t);
  }
  return slot;
}

double MultiResBitmap::Estimate() const {
  const uint32_t c = components_;
  const Tables& t = *tables_;
  // First component whose occupancy is trustworthy.
  uint32_t base = 0;
  while (base + 1 < c && bits_set_[base] > t.setmax) {
    ++base;
  }
  double estimate_sum = 0.0;
  for (uint32_t i = base; i < c; ++i) {
    estimate_sum += t.linear_count[bits_set_[i]];
  }
  const double probability_sum = t.probability_sum[base];
  if (probability_sum <= 0.0) {
    return 0.0;
  }
  return estimate_sum / probability_sum;
}

void MultiResBitmap::Clear() {
  for (auto& w : words_) {
    w = 0;
  }
  for (auto& s : bits_set_) {
    s = 0;
  }
}

double MultiResBitmap::MergeNew(const MultiResBitmap& other) {
  if (other.components_ != components_ || other.component_bits_ != component_bits_) {
    throw std::invalid_argument("MultiResBitmap::MergeNew shape mismatch");
  }
  const double before = Estimate();
  for (uint32_t comp = 0; comp < components_; ++comp) {
    const size_t off = static_cast<size_t>(comp) * comp_words_;
    for (uint32_t w = 0; w < comp_words_; ++w) {
      // Occupancy of the union is the old occupancy plus the bits only
      // `other` has, so words `other` adds nothing to are never written.
      const uint64_t fresh = other.words_[off + w] & ~words_[off + w];
      if (fresh != 0) {
        words_[off + w] |= fresh;
        bits_set_[comp] += static_cast<uint32_t>(std::popcount(fresh));
      }
    }
  }
  const double after = Estimate();
  return after > before ? after - before : 0.0;
}

}  // namespace shedmon::sketch
