#include "src/trace/flow_table.h"

#include <limits>
#include <utility>

namespace shedmon::trace {

void TupleSet::reserve(size_t n) {
  size_t slots = kMinSlots;
  while (slots < 2 * n) {
    slots <<= 1;
  }
  if (slots > slots_.size()) {
    Rehash(slots);
  }
}

void TupleSet::Rehash(size_t slots) {
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots));
  for (const Slot& slot : old) {
    if (slot.epoch == epoch_) {
      slots_[Probe(slot.tuple)] = slot;
    }
  }
}

void FlowTable::Build(const PacketVec& packets) {
  flow_of_row_.resize(packets.size());
  wire_len_.resize(packets.size());
  flows_.clear();
  parent_flow_.clear();
  tuples_.clear();
  tuples_.reserve(packets.size());

  for (size_t row = 0; row < packets.size(); ++row) {
    const net::PacketRecord& rec = *packets[row].rec;
    const auto [id, fresh] = tuples_.insert(rec.tuple);
    if (fresh) {
      flows_.push_back({static_cast<uint32_t>(row), 0, 0});
    }
    flow_of_row_[row] = id;
    wire_len_[row] = rec.wire_len;
    Flow& flow = flows_[id];
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
