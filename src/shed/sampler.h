#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/sketch/fused_hash.h"
#include "src/trace/batch.h"
#include "src/trace/flow_table.h"
#include "src/util/rng.h"

namespace shedmon::shed {

// Thread-safety contract (src/exec/ parallel pipelines): a sampler instance
// belongs to exactly one query runtime and is only ever driven by the worker
// executing that query's bin, so no internal locking is needed. PacketSampler
// advances its own RNG per call; FlowSampler's selection is a pure function
// of seed, tuple and rate. FlowSampler::Reseed happens on the coordinating
// thread between bins and only stores the seed; the hash table it implies
// is built by the next SampleInto, on the worker that owns the query.

// Uniform random packet sampling (§4.2): each packet of the batch is kept
// independently with probability `rate`.
class PacketSampler {
 public:
  explicit PacketSampler(uint64_t seed) : rng_(seed) {}

  // Clears `out` and `rows` (capacity is kept, so caller-owned buffers
  // reused across bins stop allocating after warm-up), then appends the kept
  // packets to `out` and their positions in `in` to `rows`, ascending, so
  // rows[i] is the index of out[i] in `in`. Draws one RNG value per packet
  // when 0 < rate < 1 and none otherwise.
  void SampleInto(const trace::PacketVec& in, double rate, trace::PacketVec& out,
                  std::vector<uint32_t>& rows);

  // Snapshot/restore of the RNG position, so a restored sampler continues
  // the exact selection sequence of the saved one.
  std::array<uint64_t, 4> RngState() const { return rng_.State(); }
  void SetRngState(const std::array<uint64_t, 4>& s) { rng_.SetState(s); }

 private:
  util::Rng rng_;
};

// Flowwise sampling ([43] + §4.2): a packet is kept iff the H3 hash of its
// 5-tuple falls below the sampling rate, so entire flows are kept or dropped
// coherently without caching flow keys. The hash function is redrawn every
// measurement interval to avoid bias and deliberate evasion. The hash is a
// single-sub-hash FusedTupleHasher over the canonical 13-byte serialization,
// bit-identical to the H3Hash it replaces. Its table is built lazily, on the
// first SampleInto after construction or Reseed, so an interval in which the
// query is never flow-sampled builds none.
class FlowSampler {
 public:
  explicit FlowSampler(uint64_t seed) : seed_(seed) {}

  void Reseed(uint64_t seed);
  // The seed behind the current hash function; selection is a pure function
  // of it, so Reseed(seed()) on another instance clones the sampler.
  uint64_t seed() const { return seed_; }

  // Same output contract as PacketSampler::SampleInto. Selection is a pure
  // function of (seed, tuple, rate).
  void SampleInto(const trace::PacketVec& in, double rate, trace::PacketVec& out,
                  std::vector<uint32_t>& rows);
  // The same selection over a batch with its flow table (`flows` built over
  // `in`): hashes each flow once instead of once per packet.
  void SampleInto(const trace::PacketVec& in, const trace::FlowTable& flows, double rate,
                  trace::PacketVec& out, std::vector<uint32_t>& rows);

 private:
  // The seed's hash function, built on first use.
  const sketch::FusedTupleHasher& Hash();

  uint64_t seed_;
  std::optional<sketch::FusedTupleHasher> hash_;
  std::vector<uint8_t> keep_;  // keyed SampleInto's per-flow verdicts
};

}  // namespace shedmon::shed
