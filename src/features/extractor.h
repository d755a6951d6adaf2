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
#include "src/trace/flow_table.h"

namespace shedmon::features {

// Extraction is split in two steps so one bin is hashed once however many
// times its features are counted (the prediction stage, then every query's
// re-extraction over the rows it kept):
//   keying    FeatureExtractor::Extract, once per bin: every flow of the
//             batch's trace::FlowTable gets its ten aggregate hashes
//             (BinKeys);
//   counting  FeatureCounter::Count, per consumer: inserts the precomputed
//             hashes of the flows a row subset carries into that counter's
//             own batch and interval bitmaps, then finalizes the 42 features.

// The ten aggregate hashes of one distinct 5-tuple, in Aggregate order.
using AggregateHashes = std::array<uint64_t, kNumAggregates>;

// One bin's keys: the hashes of the flows of the keyed batch's flow table,
// which the keys borrow (it must outlive them).
struct BinKeys {
  const trace::FlowTable* flows = nullptr;
  std::vector<AggregateHashes> hashes;  // per flow of *flows, in its order
  double bytes = 0.0;                   // wire bytes of all rows

  size_t rows() const { return flows == nullptr ? 0 : flows->rows(); }
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

  // Features of a row subset of the keyed batch, given as its flow table
  // (trace::FlowTable::Subset of *keys.flows), folding their keys into the
  // interval state. All ten bitmaps are set-based, so inserting each kept
  // flow once counts exactly what inserting every kept row would.
  FeatureVector Count(const BinKeys& keys, const trace::FlowTable& subset);
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
};

// Keying plus a counter: the 42-feature vector of a whole batch (§3.2.1).
// Keying hashes each flow of the batch's flow table with the fused one-pass
// hasher (all ten per-aggregate H3 hashes in one table walk), so worst-case
// per-packet cost is deterministic: one fused hash plus ten bitmap inserts;
// a repeated tuple costs nothing beyond the table's dedupe. Owns the
// ~266 KB hasher table; a MonitoringSystem holds exactly one extractor.
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

  // Keys the batch from its flow table `flows` (built over `packets`), then
  // counts every row. The keys stay readable through keys() until the next
  // Extract, so other counters can re-count subsets of the same batch
  // without hashing it again; they borrow `flows`. Bit-identical to
  // ExtractReference.
  FeatureVector Extract(const trace::PacketVec& packets, const trace::FlowTable& flows);
  // The same for a packet vector without a table: builds one the extractor
  // owns until the next call.
  FeatureVector Extract(const trace::PacketVec& packets);
  const BinKeys& keys() const { return keys_; }

  // Pre-fusion reference implementation: per-aggregate key materialization
  // and one H3 hash per aggregate per packet, no tuple dedupe. Bit-identical
  // to Extract(); kept for the equivalence tests and the fused-vs-unfused
  // benchmark A/B.
  FeatureVector ExtractReference(const trace::PacketVec& packets);

  const Config& config() const { return config_; }

 private:
  Config config_;
  sketch::FusedTupleHasher fused_;
  trace::FlowTable own_flows_;  // the table-less Extract's
  BinKeys keys_;
  FeatureCounter counter_;
  // Per-aggregate H3 functions of the reference path, built on first
  // ExtractReference call: production extractors never pay for the ten
  // seeded tables only the tests and the benchmark A/B read.
  std::unique_ptr<std::array<sketch::H3Hash, kNumAggregates>> ref_hashes_;
};

}  // namespace shedmon::features
