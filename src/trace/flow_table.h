#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/net/packet.h"

namespace shedmon::trace {

using PacketVec = std::vector<net::Packet>;

// The flows of one packet vector: its distinct 5-tuples, numbered densely in
// first-seen order, with every row's flow id and wire length and every
// flow's first row, packet count and wire bytes. It is built once per bin
// where the batch is materialised, and every per-flow consumer reads it:
// feature keying hashes each flow once, the flow sampler decides each flow
// once, and the per-flow queries touch each flow once instead of once per
// packet. Counts and bytes are exact integers, so any sum of them converts
// exactly to a double.
class FlowTable {
 public:
  struct Flow {
    uint32_t first_row = 0;  // lowest row carrying the flow
    uint32_t packets = 0;    // rows carrying it
    uint64_t bytes = 0;      // their wire bytes
  };

  // Overwrites the table with the flows of `packets`. The dedupe is an
  // epoch-stamped open-addressing set, so a table reused across bins resets
  // in O(1) and allocates nothing once it has seen the largest bin.
  void Build(const PacketVec& packets);

  // Overwrites the table with the flows of rows `rows` (ascending) of the
  // packets `parent` was built over. Row i of this table is parent row
  // rows[i], so it indexes the kept packets in that order; flows are
  // renumbered in first-kept order, which can differ from the parent's
  // order, and parent_flow() maps them back. Hashes nothing and reads only
  // the two tables.
  void Subset(const FlowTable& parent, std::span<const uint32_t> rows);

  size_t rows() const { return flow_of_row_.size(); }
  size_t num_flows() const { return flows_.size(); }
  std::span<const uint32_t> flow_of_row() const { return flow_of_row_; }
  std::span<const uint16_t> wire_len() const { return wire_len_; }
  std::span<const Flow> flows() const { return flows_; }
  // Per flow of a Subset table: its id in the parent. Empty after Build.
  std::span<const uint32_t> parent_flow() const { return parent_flow_; }

 private:
  struct Slot {
    uint64_t epoch = 0;
    net::FiveTuple tuple;
    uint32_t id = 0;
  };

  std::vector<uint32_t> flow_of_row_;
  std::vector<uint16_t> wire_len_;
  std::vector<Flow> flows_;
  std::vector<uint32_t> parent_flow_;
  std::vector<Slot> slots_;      // Build's tuple set
  uint64_t epoch_ = 0;
  std::vector<uint32_t> remap_;  // Subset's parent id -> own id
};

}  // namespace shedmon::trace
