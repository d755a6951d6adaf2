#include "src/trace/flow_table.h"

#include <limits>

namespace shedmon::trace {

void FlowTable::Build(const PacketVec& packets) {
  flow_of_row_.resize(packets.size());
  wire_len_.resize(packets.size());
  flows_.clear();
  parent_flow_.clear();

  // Size the set to keep the load factor under one half.
  size_t cap = 64;
  while (cap < 2 * packets.size()) {
    cap <<= 1;
  }
  if (slots_.size() < cap) {
    slots_.assign(cap, Slot{});
  }
  const size_t mask = slots_.size() - 1;
  const uint64_t epoch = ++epoch_;
  const net::FiveTupleHash fingerprint;

  for (size_t row = 0; row < packets.size(); ++row) {
    const net::PacketRecord& rec = *packets[row].rec;
    const net::FiveTuple& t = rec.tuple;
    size_t idx = fingerprint(t) & mask;
    while (slots_[idx].epoch == epoch && !(slots_[idx].tuple == t)) {
      idx = (idx + 1) & mask;
    }
    Slot& slot = slots_[idx];
    if (slot.epoch != epoch) {
      slot.epoch = epoch;
      slot.tuple = t;
      slot.id = static_cast<uint32_t>(flows_.size());
      flows_.push_back({static_cast<uint32_t>(row), 0, 0});
    }
    flow_of_row_[row] = slot.id;
    wire_len_[row] = rec.wire_len;
    Flow& flow = flows_[slot.id];
    ++flow.packets;
    flow.bytes += rec.wire_len;
  }
}

void FlowTable::Subset(const FlowTable& parent, std::span<const uint32_t> rows) {
  constexpr uint32_t kUnseen = std::numeric_limits<uint32_t>::max();
  flow_of_row_.resize(rows.size());
  wire_len_.resize(rows.size());
  flows_.clear();
  parent_flow_.clear();
  remap_.assign(parent.num_flows(), kUnseen);

  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t row = rows[i];
    const uint32_t from = parent.flow_of_row_[row];
    uint32_t& id = remap_[from];
    if (id == kUnseen) {
      id = static_cast<uint32_t>(flows_.size());
      flows_.push_back({static_cast<uint32_t>(i), 0, 0});
      parent_flow_.push_back(from);
    }
    flow_of_row_[i] = id;
    wire_len_[i] = parent.wire_len_[row];
    Flow& flow = flows_[id];
    ++flow.packets;
    flow.bytes += wire_len_[i];
  }
}

}  // namespace shedmon::trace
