#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "src/sketch/bitmap.h"
#include "src/sketch/fused_hash.h"
#include "src/sketch/h3.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace shedmon::sketch {
namespace {

TEST(H3Hash, DeterministicPerSeed) {
  H3Hash a(42);
  H3Hash b(42);
  const uint8_t key[5] = {1, 2, 3, 4, 5};
  EXPECT_EQ(a.Hash(key, 5), b.Hash(key, 5));
}

TEST(H3Hash, DifferentSeedsGiveDifferentFunctions) {
  H3Hash a(1);
  H3Hash b(2);
  const uint8_t key[4] = {9, 9, 9, 9};
  EXPECT_NE(a.Hash(key, 4), b.Hash(key, 4));
}

TEST(H3Hash, SingleByteChangesFlipOutput) {
  H3Hash h(7);
  uint8_t key[8] = {0};
  const uint64_t base = h.Hash(key, 8);
  for (int i = 0; i < 8; ++i) {
    key[i] = 1;
    EXPECT_NE(h.Hash(key, 8), base) << "byte " << i;
    key[i] = 0;
  }
}

TEST(H3Hash, UnitHashInRange) {
  H3Hash h(11);
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    uint64_t k = rng.NextU64();
    uint8_t key[8];
    std::memcpy(key, &k, 8);
    const double u = h.HashUnit(key, 8);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(H3Hash, UnitHashApproximatelyUniform) {
  H3Hash h(13);
  util::Rng rng(5);
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    uint64_t k = rng.NextU64();
    uint8_t key[8];
    std::memcpy(key, &k, 8);
    ++buckets[static_cast<size_t>(h.HashUnit(key, 8) * 10.0)];
  }
  for (int c : buckets) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(H3Hash, PositionSensitivity) {
  // The same byte value at different positions must hash differently, and
  // appending bytes must change the hash (per-position tables).
  H3Hash h(17);
  const uint8_t at0[2] = {0x42, 0x00};
  const uint8_t at1[2] = {0x00, 0x42};
  EXPECT_NE(h.Hash(at0, 2), h.Hash(at1, 2));
  EXPECT_NE(h.Hash(at0, 1), h.Hash(at0, 2));
}

TEST(FusedTupleHasher, SingleFullWidthSubHashMatchesH3) {
  // A sub-hash over every key byte in order must reproduce H3Hash exactly.
  const uint64_t seed = 0xfeedbeef;
  const FusedTupleHasher fused(13, {{seed, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}});
  const H3Hash reference(seed);
  util::Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    uint8_t key[13];
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    EXPECT_EQ(fused.Hash1Fixed<13>(key), reference.Hash(key, 13));
    EXPECT_DOUBLE_EQ(fused.HashUnit1Fixed<13>(key), reference.HashUnit(key, 13));
  }
}

TEST(FusedTupleHasher, RandomSubKeysMatchMaterializedH3) {
  // Property test over random sub-key patterns: each fused sub-hash must be
  // bit-identical to extracting the sub-key bytes and hashing them with a
  // plain H3Hash of the same seed.
  util::Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t key_len = 2 + rng.NextU64() % 15;  // 2..16
    std::vector<FusedTupleHasher::SubHash> subs;
    const size_t num_subs = 1 + rng.NextU64() % FusedTupleHasher::kMaxFusedHashes;
    for (size_t s = 0; s < num_subs; ++s) {
      FusedTupleHasher::SubHash sub;
      sub.seed = rng.NextU64();
      const size_t sub_len = 1 + rng.NextU64() % key_len;
      for (size_t j = 0; j < sub_len; ++j) {
        sub.key_bytes.push_back(static_cast<uint8_t>(rng.NextU64() % key_len));
      }
      subs.push_back(std::move(sub));
    }
    const FusedTupleHasher fused(key_len, subs);
    ASSERT_EQ(fused.num_hashes(), num_subs);

    std::vector<uint64_t> out(num_subs);
    for (int i = 0; i < 50; ++i) {
      uint8_t key[16];
      for (size_t b = 0; b < key_len; ++b) {
        key[b] = static_cast<uint8_t>(rng.NextU64());
      }
      fused.HashAll(key, out.data());
      for (size_t s = 0; s < num_subs; ++s) {
        const H3Hash reference(subs[s].seed);
        std::vector<uint8_t> sub_key;
        for (const uint8_t pos : subs[s].key_bytes) {
          sub_key.push_back(key[pos]);
        }
        EXPECT_EQ(out[s], reference.Hash(sub_key.data(), sub_key.size()))
            << "trial " << trial << " sub " << s;
      }
    }
  }
}

TEST(FusedTupleHasher, RejectsBadShapes) {
  EXPECT_THROW(FusedTupleHasher(0, {{1, {0}}}), std::invalid_argument);
  EXPECT_THROW(FusedTupleHasher(17, {{1, {0}}}), std::invalid_argument);
  EXPECT_THROW(FusedTupleHasher(4, {}), std::invalid_argument);
  EXPECT_THROW(FusedTupleHasher(4, {{1, {4}}}), std::invalid_argument);
  EXPECT_THROW(FusedTupleHasher(4, {{1, {}}}), std::invalid_argument);
  // A sub-key longer than H3's table (duplicated positions) must be rejected,
  // not read past the end of the seeded tables.
  EXPECT_THROW(
      FusedTupleHasher(4, {{1, {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0}}}),
      std::invalid_argument);
  EXPECT_NO_THROW(FusedTupleHasher(4, {{1, {0, 1, 2, 3}}}));
}

TEST(DirectBitmap, RequiresPowerOfTwo) {
  EXPECT_THROW(DirectBitmap(100), std::invalid_argument);
  EXPECT_NO_THROW(DirectBitmap(128));
}

TEST(DirectBitmap, CountsSmallSetsExactly) {
  DirectBitmap bm(1024);
  // Distinct low bits -> distinct bitmap positions -> near-exact estimate.
  for (uint64_t i = 0; i < 50; ++i) {
    bm.Insert(i);
  }
  EXPECT_EQ(bm.bits_set(), 50u);
  EXPECT_NEAR(bm.Estimate(), 50.0, 2.5);
}

TEST(DirectBitmap, LinearCountingTracksCardinality) {
  for (const int n : {100, 300, 600}) {
    DirectBitmap bm(1024);
    util::Rng rng(n);
    std::unordered_set<uint64_t> keys;
    while (keys.size() < static_cast<size_t>(n)) {
      keys.insert(rng.NextU64());
    }
    for (uint64_t k : keys) {
      bm.Insert(util::HashU64(k));
    }
    EXPECT_NEAR(bm.Estimate(), n, 0.15 * n) << n;
  }
}

TEST(DirectBitmap, DuplicatesDoNotInflate) {
  DirectBitmap bm(256);
  for (int rep = 0; rep < 100; ++rep) {
    bm.Insert(util::HashU64(7));
  }
  EXPECT_EQ(bm.bits_set(), 1u);
}

TEST(DirectBitmap, ClearResets) {
  DirectBitmap bm(256);
  bm.Insert(1);
  bm.Clear();
  EXPECT_EQ(bm.bits_set(), 0u);
  EXPECT_DOUBLE_EQ(bm.Estimate(), 0.0);
}

// The estimate is read from a per-size table; it must equal the
// linear-counting formula bit for bit at every occupancy, for the sizes in
// use (super-sources' 128 bits, this suite's 256-1024).
TEST(DirectBitmap, TableEqualsFormulaAtEveryOccupancy) {
  for (const uint32_t bits : {128u, 256u, 512u, 1024u}) {
    SCOPED_TRACE(bits);
    const double b = static_cast<double>(bits);
    DirectBitmap bm(bits);
    for (uint32_t set = 0;; ++set) {
      ASSERT_EQ(bm.bits_set(), set);
      const uint32_t zeros = bits - set;
      const double want = zeros == 0 ? b * std::log(b)
                                     : -b * std::log(static_cast<double>(zeros) / b);
      ASSERT_EQ(std::bit_cast<uint64_t>(bm.Estimate()), std::bit_cast<uint64_t>(want)) << set;
      if (set == bits) {
        break;
      }
      bm.Insert(set);
    }
  }
}

TEST(MultiResBitmap, RejectsBadComponentCount) {
  EXPECT_THROW(MultiResBitmap(1, 64), std::invalid_argument);
  EXPECT_THROW(MultiResBitmap(31, 64), std::invalid_argument);
}

TEST(MultiResBitmap, EmptyEstimatesZero) {
  MultiResBitmap bm;
  EXPECT_NEAR(bm.Estimate(), 0.0, 1e-9);
}

// Parameterized accuracy sweep: the paper dimensions its bitmaps for ~1%
// counting error; with default sizing we verify better than 12% over four
// orders of magnitude.
class MrbAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(MrbAccuracy, EstimateWithinTolerance) {
  const int n = GetParam();
  MultiResBitmap bm;
  util::Rng rng(static_cast<uint64_t>(n) * 77 + 1);
  std::unordered_set<uint64_t> keys;
  while (keys.size() < static_cast<size_t>(n)) {
    keys.insert(rng.NextU64());
  }
  for (uint64_t k : keys) {
    bm.Insert(k);  // keys are already uniform 64-bit values
  }
  const double est = bm.Estimate();
  EXPECT_NEAR(est, n, std::max(10.0, 0.12 * n)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, MrbAccuracy,
                         ::testing::Values(10, 100, 1000, 5000, 20000, 100000));

TEST(MultiResBitmap, MergeNewAccumulates) {
  MultiResBitmap a;
  MultiResBitmap b;
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    a.Insert(rng.NextU64());
  }
  for (int i = 0; i < 500; ++i) {
    b.Insert(rng.NextU64());
  }
  const double before = a.Estimate();
  a.MergeNew(b);
  EXPECT_GT(a.Estimate(), before * 1.5);
}

TEST(MultiResBitmap, MergeNewMeasuresDisjointKeys) {
  MultiResBitmap interval;
  MultiResBitmap batch;
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    interval.Insert(rng.NextU64());
  }
  // Batch of 300 fresh keys: MergeNew should see ~300.
  for (int i = 0; i < 300; ++i) {
    batch.Insert(rng.NextU64());
  }
  EXPECT_NEAR(interval.MergeNew(batch), 300.0, 70.0);
}

TEST(MultiResBitmap, MergeNewIsZeroForSeenKeys) {
  MultiResBitmap interval;
  MultiResBitmap batch;
  util::Rng rng(8);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(rng.NextU64());
  }
  for (uint64_t k : keys) {
    interval.Insert(k);
  }
  for (int i = 0; i < 100; ++i) {
    batch.Insert(keys[static_cast<size_t>(i)]);
  }
  EXPECT_NEAR(interval.MergeNew(batch), 0.0, 20.0);
}

// The fused merge must equal estimating the union's occupancy, then
// OR-ing the words and recounting every component (the two-sweep merge it
// replaced). The union is built by inserting both key sets into a fresh
// bitmap: set semantics make its words and occupancy those of the OR.
TEST(MultiResBitmap, MergeNewEqualsUnionThenRecount) {
  util::Rng rng(21);
  for (int round = 0; round < 200; ++round) {
    const uint32_t components = 2 + static_cast<uint32_t>(rng.NextU64() % 14);
    const uint32_t bits = 64u << (rng.NextU64() % 4);
    MultiResBitmap interval(components, bits);
    MultiResBitmap batch(components, bits);
    MultiResBitmap both(components, bits);
    // Sizes from empty up to well past saturating the low components, with
    // shared keys so some batch bits are already set in the interval.
    const int n_interval = static_cast<int>(rng.NextU64() % 4000);
    const int n_batch = static_cast<int>(rng.NextU64() % 1500);
    std::vector<uint64_t> keys;
    for (int i = 0; i < n_interval; ++i) {
      keys.push_back(rng.NextU64());
      interval.Insert(keys.back());
      both.Insert(keys.back());
    }
    for (int i = 0; i < n_batch; ++i) {
      const bool shared = !keys.empty() && rng.NextDouble() < 0.5;
      const uint64_t k = shared ? keys[rng.NextU64() % keys.size()] : rng.NextU64();
      batch.Insert(k);
      both.Insert(k);
    }
    const double before = interval.Estimate();
    const double want = both.Estimate() > before ? both.Estimate() - before : 0.0;
    const MultiResBitmap batch_copy = batch;
    const double got = interval.MergeNew(batch);
    const auto bits_of = [](double v) {
      uint64_t u;
      std::memcpy(&u, &v, sizeof u);
      return u;
    };
    ASSERT_EQ(bits_of(got), bits_of(want)) << "round " << round;
    ASSERT_TRUE(interval == both) << "round " << round;  // words and occupancy
    ASSERT_EQ(bits_of(interval.Estimate()), bits_of(both.Estimate())) << "round " << round;
    ASSERT_TRUE(batch == batch_copy) << "round " << round;  // the source is untouched
  }
}

TEST(MultiResBitmap, MergeNewRejectsShapeMismatch) {
  MultiResBitmap a(12, 512);
  const MultiResBitmap b(12, 256);
  const MultiResBitmap c(10, 512);
  EXPECT_THROW(a.MergeNew(b), std::invalid_argument);
  EXPECT_THROW(a.MergeNew(c), std::invalid_argument);
}

// The estimator as a formula: linear counting per component from the first
// unsaturated one on, over the summed sampling probabilities.
double FormulaEstimate(const std::vector<uint32_t>& occupancy, uint32_t bits) {
  const uint32_t c = static_cast<uint32_t>(occupancy.size());
  const uint32_t setmax = static_cast<uint32_t>(0.93 * static_cast<double>(bits));
  uint32_t base = 0;
  while (base + 1 < c && occupancy[base] > setmax) {
    ++base;
  }
  double estimate_sum = 0.0;
  double probability_sum = 0.0;
  for (uint32_t i = base; i < c; ++i) {
    const uint32_t zeros = bits - occupancy[i];
    estimate_sum += zeros == 0 ? static_cast<double>(bits) * std::log(static_cast<double>(bits))
                               : -static_cast<double>(bits) * std::log(static_cast<double>(zeros) /
                                                                        static_cast<double>(bits));
    probability_sum += (i < c - 1) ? std::ldexp(1.0, -static_cast<int>(i + 1))
                                   : std::ldexp(1.0, -static_cast<int>(c - 1));
  }
  return probability_sum <= 0.0 ? 0.0 : estimate_sum / probability_sum;
}

// The table-driven estimator must equal the formula bit for bit. With two
// components and only the last one filled, Estimate() is LinearCount at
// that occupancy over a probability sum of exactly 1, so every occupancy
// 0..bits is reached by setting one more bit at a time.
TEST(MultiResBitmap, EstimateEqualsLinearCountAtEveryOccupancy) {
  for (const uint32_t bits : {64u, 128u, 512u, 1024u}) {
    MultiResBitmap bm(2, bits);
    for (uint32_t set = 0; set <= bits; ++set) {
      const double formula = FormulaEstimate({0, set}, bits);
      ASSERT_EQ(bm.Estimate(), formula) << bits << " bits, " << set << " set";
      if (set < bits) {
        bm.Insert((3ULL << 62) | set);  // two leading ones: the last component
      }
    }
  }
}

TEST(MultiResBitmap, EstimateEqualsFormulaOverRandomOccupancies) {
  util::Rng rng(33);
  for (int round = 0; round < 300; ++round) {
    const uint32_t components = 2 + static_cast<uint32_t>(rng.NextU64() % 29);
    const uint32_t bits = 64u << (rng.NextU64() % 4);
    MultiResBitmap bm(components, bits);
    std::vector<std::vector<bool>> set(components, std::vector<bool>(bits, false));
    std::vector<uint32_t> occupancy(components, 0);
    // Up to ~4x the first component's size, so low components saturate and
    // the estimator's base moves.
    const int n = static_cast<int>(rng.NextU64() % (8 * bits));
    for (int i = 0; i < n; ++i) {
      const uint64_t h = rng.NextU64();
      bm.Insert(h);
      const uint32_t comp =
          std::min(static_cast<uint32_t>(std::countl_one(h)), components - 1);
      const uint32_t bit = static_cast<uint32_t>(h) & (bits - 1);
      if (!set[comp][bit]) {
        set[comp][bit] = true;
        ++occupancy[comp];
      }
    }
    ASSERT_EQ(bm.Estimate(), FormulaEstimate(occupancy, bits))
        << components << "x" << bits << " after " << n << " inserts";
  }
}

TEST(MultiResBitmap, ClearResetsEstimate) {
  MultiResBitmap bm;
  util::Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    bm.Insert(rng.NextU64());
  }
  bm.Clear();
  EXPECT_NEAR(bm.Estimate(), 0.0, 1e-9);
}

TEST(MultiResBitmap, DeterministicForSameInserts) {
  MultiResBitmap a;
  MultiResBitmap b;
  util::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng.NextU64();
    a.Insert(k);
    b.Insert(k);
  }
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

}  // namespace
}  // namespace shedmon::sketch
