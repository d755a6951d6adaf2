#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/rt/bounded_queue.h"

namespace shedmon::capture {

// One pre-allocated capture buffer. A source fills `bytes` once per frame,
// the consumer decodes the frame in place and pushes it (the pipeline copies
// the payload into its open bin), then the slot goes straight back to the
// pool. The slot index (not the slot) travels through the ring.
struct CaptureSlot {
  std::vector<uint8_t> bytes;
  uint32_t frame_off = 0;  // where the Ethernet frame starts inside bytes
  uint32_t frame_len = 0;  // captured frame bytes (may be < wire length)
  uint64_t ts_us = 0;      // embedded trace timestamp (valid iff has_ts)
  bool has_ts = false;
};

// Fixed set of CaptureSlots plus a free-list. The free-list is a kBlock
// BoundedQueue sized exactly to the slot count, so Release can never block:
// at most every slot is free at once. Close() unblocks sources parked in
// AcquireBlocking during shutdown.
class SlotPool {
 public:
  SlotPool(size_t count, uint32_t snap_bytes)
      : slots_(count == 0 ? 1 : count),
        free_(slots_.size(), rt::OverflowPolicy::kBlock) {
    for (CaptureSlot& slot : slots_) {
      slot.bytes.resize(snap_bytes == 0 ? 2048 : snap_bytes);
    }
    for (uint32_t i = 0; i < slots_.size(); ++i) {
      free_.Push(i);
    }
  }

  CaptureSlot& at(uint32_t index) { return slots_[index]; }
  std::optional<uint32_t> TryAcquire() { return free_.TryPop(); }
  std::optional<uint32_t> AcquireBlocking() { return free_.Pop(); }
  void Release(uint32_t index) { free_.Push(index); }
  void Close() { free_.Close(); }
  size_t size() const { return slots_.size(); }
  uint32_t snap_bytes() const { return static_cast<uint32_t>(slots_[0].bytes.size()); }

 private:
  std::vector<CaptureSlot> slots_;
  rt::BoundedQueue<uint32_t> free_;
};

// Shared drop/throughput accounting. Atomics are the source of truth (reads
// back into CaptureStats); the obs counters mirror them when a registry is
// attached, cached-pointer style like the rest of the pipeline.
struct CaptureCounters {
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> packets{0};
  std::atomic<uint64_t> truncated{0};
  std::atomic<uint64_t> dropped_queue{0};
  std::atomic<uint64_t> dropped_no_slot{0};
  std::atomic<uint64_t> dropped_late{0};
  std::atomic<uint64_t> dropped_decode{0};

  obs::Counter* m_packets = nullptr;
  obs::Counter* m_truncated = nullptr;
  obs::Counter* m_dropped_queue = nullptr;
  obs::Counter* m_dropped_no_slot = nullptr;
  obs::Counter* m_dropped_late = nullptr;
  obs::Counter* m_dropped_decode = nullptr;

  static void Bump(std::atomic<uint64_t>& cell, obs::Counter* mirror) {
    cell.fetch_add(1, std::memory_order_relaxed);
    if (mirror != nullptr) {
      mirror->Increment();
    }
  }
};

// Everything the source threads and the consumer thread share: the slot
// pool, the filled-slot ring, and the counters. Owned by CaptureLoop.
//
// A slot is in use only while it sits in the ring, while a source fills it
// (at most one per source) or while the consumer decodes it (one), so a pool
// of queue_capacity + sources + 1 slots can always serve an acquire (a
// zero queue_capacity means a one-slot ring, as in rt::BoundedQueue).
struct CaptureShared {
  CaptureShared(size_t sources, uint32_t snap_bytes, size_t queue_capacity,
                rt::OverflowPolicy policy)
      : pool(std::max<size_t>(queue_capacity, 1) + sources + 1, snap_bytes),
        ring(queue_capacity, policy),
        overflow(policy) {}

  SlotPool pool;
  rt::BoundedQueue<uint32_t> ring;
  const rt::OverflowPolicy overflow;
  CaptureCounters counters;
};

}  // namespace shedmon::capture
