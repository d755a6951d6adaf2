#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/net/packet.h"

namespace shedmon::trace {

using PacketVec = std::vector<net::Packet>;

// A set of 5-tuples, each numbered densely in insertion order: linear
// probing over an epoch-stamped slot array, so clear() is O(1) (it bumps
// the epoch; stale slots read as empty) and a set reused across bins or
// intervals allocates nothing once it has held its largest population. The
// load factor stays at or under one half; insert() doubles the array when
// it would pass that, so reserve() up front keeps a known-size fill from
// ever growing.
class TupleSet {
 public:
  // Inserts `t` if absent. Returns its id (the set's size when it was
  // inserted) and whether this call inserted it.
  std::pair<uint32_t, bool> insert(const net::FiveTuple& t) {
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(std::max<size_t>(kMinSlots, 2 * slots_.size()));
    }
    Slot& slot = slots_[Probe(t)];
    if (slot.epoch == epoch_) {
      return {slot.id, false};
    }
    slot.epoch = epoch_;
    slot.tuple = t;
    slot.id = static_cast<uint32_t>(size_++);
    return {slot.id, true};
  }

  bool contains(const net::FiveTuple& t) const {
    return !slots_.empty() && slots_[Probe(t)].epoch == epoch_;
  }

  // Room for `n` tuples without growing.
  void reserve(size_t n);
  void clear() {
    ++epoch_;
    size_ = 0;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr size_t kMinSlots = 64;

  struct Slot {
    uint64_t epoch = 0;
    net::FiveTuple tuple;
    uint32_t id = 0;
  };

  // The slot holding `t`, or the empty slot where it would go.
  size_t Probe(const net::FiveTuple& t) const {
    const size_t mask = slots_.size() - 1;
    size_t idx = net::FiveTupleHash{}(t) & mask;
    while (slots_[idx].epoch == epoch_ && !(slots_[idx].tuple == t)) {
      idx = (idx + 1) & mask;
    }
    return idx;
  }
  // Moves the live slots into a fresh array of `slots` (a power of two).
  void Rehash(size_t slots);

  std::vector<Slot> slots_;
  uint64_t epoch_ = 1;  // slots stamped with an older epoch are empty
  size_t size_ = 0;
};

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

  // Overwrites the table with the flows of `packets`. The dedupe is a
  // TupleSet, so a table reused across bins resets in O(1) and allocates
  // nothing once it has seen the largest bin.
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
  std::vector<uint32_t> flow_of_row_;
  std::vector<uint16_t> wire_len_;
  std::vector<Flow> flows_;
  std::vector<uint32_t> parent_flow_;
  TupleSet tuples_;  // Build's dedupe
  std::vector<uint32_t> remap_;  // Subset's parent id -> own id
};

}  // namespace shedmon::trace
