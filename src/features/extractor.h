#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/features/features.h"
#include "src/sketch/bitmap.h"
#include "src/sketch/fused_hash.h"
#include "src/sketch/h3.h"
#include "src/trace/batch.h"

namespace shedmon::features {

// Extraction is split in two steps so one bin is hashed once however many
// times its features are counted (the prediction stage, then every query's
// re-extraction over the rows it kept):
//   keying    FeatureExtractor::Extract, once per bin: every row of the
//             batch gets the dense id of its 5-tuple, and every distinct
//             tuple its ten aggregate hashes (BinKeys);
//   counting  FeatureCounter::Count, per consumer: inserts the precomputed
//             hashes of a subset of the rows into that counter's own batch
//             and interval bitmaps, then finalizes the 42 features.

// The ten aggregate hashes of one distinct 5-tuple, in Aggregate order.
using AggregateHashes = std::array<uint64_t, kNumAggregates>;

// One bin's keys. Rows are indices into the keyed batch's packets.
struct BinKeys {
  std::vector<uint32_t> tuple;          // per row: dense id of its 5-tuple
  std::vector<uint16_t> wire_len;       // per row: bytes on the wire
  std::vector<AggregateHashes> hashes;  // per distinct tuple, in first-seen order
  double bytes = 0.0;                   // sum of wire_len over all rows

  size_t rows() const { return tuple.size(); }
  size_t distinct() const { return hashes.size(); }
};

// The counting half of extraction: one multi-resolution bitmap per
// aggregate for the batch ("unique") and one persisting across the
// measurement interval ("new", via the bitwise-OR merge), §3.2.1. Holds no
// hasher, so counters fed the same keys cannot disagree on hash seeds.
class FeatureCounter {
 public:
  FeatureCounter(uint32_t mrb_components, uint32_t mrb_bits);

  // Resets the per-interval state ("new"-item bitmaps). Call at every
  // measurement-interval boundary.
  void StartInterval();

  // Features of the given rows of the keyed batch (ascending indices into
  // its packets, as the samplers report them), folding their keys into the
  // interval state. All ten bitmaps are set-based, so each distinct tuple is
  // inserted once however many rows carry it.
  FeatureVector Count(const BinKeys& keys, std::span<const uint32_t> rows);
  // Count over every row of the keyed batch.
  FeatureVector CountAll(const BinKeys& keys);

 private:
  friend class FeatureExtractor;  // ExtractReference inserts unkeyed hashes

  void Insert(const AggregateHashes& h) {
    for (size_t a = 0; a < kNumAggregates; ++a) {
      batch_bm_[a].Insert(h[a]);
    }
  }
  void ClearBatch();
  // Counter computation + interval fold shared by every counting path.
  FeatureVector Finalize(double pkts, double bytes);

  std::array<sketch::MultiResBitmap, kNumAggregates> batch_bm_;
  std::array<sketch::MultiResBitmap, kNumAggregates> interval_bm_;
  // Per distinct tuple id: the Count call that last inserted it.
  std::vector<uint64_t> inserted_;
  uint64_t count_epoch_ = 0;
};

// Keying plus a counter: the 42-feature vector of a whole batch (§3.2.1).
// Keying dedupes the batch's 5-tuples and hashes each distinct one with the
// fused one-pass hasher (all ten per-aggregate H3 hashes in one table walk),
// so worst-case per-packet cost is deterministic: one fused hash plus ten
// bitmap inserts; a repeated tuple costs one probe of an epoch-stamped
// open-addressing tuple set. Owns the ~266 KB hasher table; a
// MonitoringSystem holds exactly one extractor.
class FeatureExtractor {
 public:
  struct Config {
    uint32_t mrb_components = 12;
    uint32_t mrb_bits = 512;
    uint64_t seed = 0x5eed;
  };

  FeatureExtractor();
  explicit FeatureExtractor(const Config& config);

  void StartInterval() { counter_.StartInterval(); }

  // Keys the batch, then counts every row. The keys stay readable through
  // keys() until the next Extract, so other counters can re-count subsets
  // of the same batch without hashing it again. Bit-identical to
  // ExtractReference.
  FeatureVector Extract(const trace::PacketVec& packets);
  const BinKeys& keys() const { return keys_; }

  // Pre-fusion reference implementation: per-aggregate key materialization
  // and one H3 hash per aggregate per packet, no tuple dedupe. Bit-identical
  // to Extract(); kept for the equivalence tests and the fused-vs-unfused
  // benchmark A/B.
  FeatureVector ExtractReference(const trace::PacketVec& packets);

  const Config& config() const { return config_; }

 private:
  struct DedupeSlot {
    uint64_t epoch = 0;
    net::FiveTuple tuple;
    uint32_t id = 0;
  };

  // Overwrites keys_ with the keys of `packets`.
  void Key(const trace::PacketVec& packets);

  Config config_;
  sketch::FusedTupleHasher fused_;
  std::vector<DedupeSlot> seen_;
  uint64_t seen_epoch_ = 0;
  BinKeys keys_;
  FeatureCounter counter_;
  // Per-aggregate H3 functions of the reference path, built on first
  // ExtractReference call: production extractors never pay for the ten
  // seeded tables only the tests and the benchmark A/B read.
  std::unique_ptr<std::array<sketch::H3Hash, kNumAggregates>> ref_hashes_;
};

}  // namespace shedmon::features
