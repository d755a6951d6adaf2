#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/net/packet.h"
#include "src/trace/flow_table.h"
#include "src/trace/generator.h"

namespace shedmon::trace {

// One 100 ms time bin of traffic (the paper's "batch", §2.4). Owns the
// materialized payload bytes for its packets in `arena`; Packet views point
// into the arena, so a Batch is movable but not copyable. `flows` is the
// bin's flow table over `packets`, built wherever the batch is materialised
// (Batcher::Next, api::Pipeline's bin close); code that fills `packets` by
// hand builds it with flows.Build(packets).
struct Batch {
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  PacketVec packets;
  std::vector<uint8_t> arena;
  uint64_t wire_bytes = 0;
  FlowTable flows;

  Batch() = default;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;
  Batch(Batch&&) = default;
  Batch& operator=(Batch&&) = default;

  size_t size() const { return packets.size(); }
};

// Materializes the payload bytes of a record into `out` (must hold
// payload_len bytes): pseudo-random bytes from the record's seed with the
// protocol signature of its payload class planted at the front.
void MaterializePayload(const net::PacketRecord& rec, uint8_t* out);

// Well-known payload signatures used by the generator, pattern-search and
// the p2p-detector.
std::string_view HttpSignature();
std::string_view BittorrentSignature();
std::string_view GnutellaSignature();
std::string_view EdonkeySignature();

// Splits a trace into consecutive fixed-length bins. Bins with no packets
// yield empty batches so the consumer sees every time bin.
//
// Callers are expected to reuse one Batch across Next() calls: the packet
// vector and payload arena are cleared, not freed, so after the largest bin
// has been seen the batcher allocates nothing per bin. Fresh (or undersized)
// batches are pre-sized to the high-water marks of the bins consumed so far,
// so a burst grows the buffers once instead of once per growth step.
class Batcher {
 public:
  Batcher(const Trace& trace, uint64_t bin_us = 100'000);

  // Fills `out` with the next bin and its flow table; returns false past the
  // end of the trace.
  bool Next(Batch& out);

  size_t num_bins() const { return num_bins_; }
  uint64_t bin_us() const { return bin_us_; }

 private:
  const Trace& trace_;
  uint64_t bin_us_;
  size_t num_bins_;
  size_t cursor_ = 0;    // index into trace_.packets
  size_t next_bin_ = 0;
  size_t hw_packets_ = 0;  // largest bin seen, in packets
  size_t hw_payload_ = 0;  // largest bin seen, in arena bytes
};

}  // namespace shedmon::trace
