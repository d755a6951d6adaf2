#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace shedmon::sketch {

// Plain bitmap with the linear-counting cardinality estimator
// (Whang et al.): n_hat = -b * ln(z / b) with z the number of zero bits.
// Estimates are read from a table of every occupancy, built once per size
// and shared with MultiResBitmap components of that size.
class DirectBitmap {
 public:
  explicit DirectBitmap(uint32_t bits);

  // Sets the bit addressed by the low log2(bits) hash bits. Inline: this is
  // per-packet work in queries and must stay a handful of instructions.
  void Insert(uint64_t hash) {
    const uint32_t bit = static_cast<uint32_t>(hash) & mask_;
    uint64_t& word = words_[bit >> 6];
    const uint64_t m = 1ULL << (bit & 63);
    if ((word & m) == 0) {
      word |= m;
      ++bits_set_;
    }
  }

  bool Test(uint64_t hash) const {
    const uint32_t bit = static_cast<uint32_t>(hash) & mask_;
    return (words_[bit >> 6] & (1ULL << (bit & 63))) != 0;
  }

  double Estimate() const;
  uint32_t bits_set() const { return bits_set_; }
  uint32_t size_bits() const { return size_bits_; }
  bool Saturated() const { return bits_set_ == size_bits_; }

  void Clear();

 private:
  uint32_t size_bits_;
  uint32_t mask_;
  uint32_t bits_set_ = 0;
  std::vector<uint64_t> words_;
  const double* linear_count_;  // [set] = estimate, this size's shared table
};

// Multi-resolution bitmap after Estan, Varghese and Fisk, the counting
// structure the paper uses for all per-aggregate feature counters (§3.2.1).
// A key's hash selects component i with probability 2^-(i+1) (the last
// component absorbs the tail with probability 2^-(c-1)); within a component
// the key sets one of b bits. Cardinality is estimated from the first
// unsaturated component onward: the components partition the key space, so
// the summed linear-counting estimates divided by the summed sampling
// probabilities give an unbiased estimate with bounded memory.
//
// All components live in one flat word array (rather than one heap-allocated
// bitmap per component) so the per-packet Insert is a single indexed access
// with no pointer chasing, and MergeNew is one linear sweep.
class MultiResBitmap {
 public:
  static constexpr uint32_t kMaxComponents = 30;

  // `component_bits` must be a power of two. Defaults cover ~1% error up to
  // millions of distinct keys in under 1 KB, matching the paper's sizing.
  explicit MultiResBitmap(uint32_t components = 12, uint32_t component_bits = 512);

  // Per-packet hot path: component choice from the leading-one run of the
  // hash, bit position from the low bits (independent for any reasonable
  // component count).
  void Insert(uint64_t hash) {
    const uint32_t comp = ComponentFor(hash);
    const uint32_t bit = static_cast<uint32_t>(hash) & mask_;
    uint64_t& word = words_[comp * comp_words_ + (bit >> 6)];
    const uint64_t m = 1ULL << (bit & 63);
    // Branch-free: whether a distinct key's bit was already set is a coin
    // flip the predictor cannot learn.
    bits_set_[comp] += static_cast<uint32_t>((word & m) == 0);
    word |= m;
  }

  double Estimate() const;

  void Clear();

  // OR-merges `other` into this bitmap (the bitwise-OR trick of §3.2.1: the
  // batch bitmap is folded into the interval bitmap) and returns the
  // estimate of |this ∪ other| - |this| before the merge, clamped at zero:
  // how many keys of `other` were new. One sweep that only writes the words
  // `other` adds bits to and keeps the occupancy counts incrementally.
  // Throws std::invalid_argument on a shape mismatch.
  double MergeNew(const MultiResBitmap& other);

  uint32_t components() const { return components_; }

  // Equal words and occupancy over the same shape.
  bool operator==(const MultiResBitmap& other) const {
    return components_ == other.components_ && component_bits_ == other.component_bits_ &&
           words_ == other.words_ && bits_set_ == other.bits_set_;
  }

 private:
  // Occupancy threshold above which a component is considered saturated; the
  // EVF paper's "setmax" knob.
  static constexpr double kSetMaxFraction = 0.93;

  // Estimator constants of one (components, component_bits) shape, built
  // once per shape with the same expressions and summation order the
  // estimator would otherwise evaluate on every call, so estimates stay
  // bit-identical while costing table reads instead of logarithms.
  struct Tables {
    // [set] = linear count at that occupancy: the per-size table
    // DirectBitmap reads too.
    const double* linear_count = nullptr;
    // [base] = sum over components i >= base of the component's sampling
    // probability, accumulated in ascending i.
    std::vector<double> probability_sum;
    uint32_t setmax = 0;  // occupancy above which a component is saturated
  };

  static std::shared_ptr<const Tables> TablesFor(uint32_t components, uint32_t component_bits);

  uint32_t ComponentFor(uint64_t hash) const {
    // Leading ones of the top bits give a geometric component choice:
    // P(component i) = 2^-(i+1), capped at the last component.
    const uint32_t comp = static_cast<uint32_t>(std::countl_one(hash));
    return comp < components_ - 1 ? comp : components_ - 1;
  }

  uint32_t components_;
  uint32_t component_bits_;
  uint32_t comp_words_;  // 64-bit words per component
  uint32_t mask_;
  std::vector<uint64_t> words_;     // components_ * comp_words_
  std::vector<uint32_t> bits_set_;  // per-component occupancy
  std::shared_ptr<const Tables> tables_;  // shared by every bitmap of this shape
};

}  // namespace shedmon::sketch
