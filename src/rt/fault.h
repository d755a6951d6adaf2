#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/rt/clock.h"

namespace shedmon::rt {

// A seeded, fully deterministic schedule of faults to inject into one run.
// Parsed from a compact spec string (CLI `--fault-plan`, tests) of
// comma/semicolon-separated key=value entries:
//
//   seed=42            RNG seed for backoff jitter etc. (default 1)
//   stall_bin=N:US     stall the coordinator for US microseconds while
//                      processing bin N (models a slow query / GC pause)
//   stall_every=K:US   stall every Kth bin by US microseconds
//   clock_jump=N:US    jump the clock forward US microseconds at bin N
//                      (models NTP step / VM freeze)
//   worker_stall=N:US  stall each worker task of bin N by US microseconds
//   sink_fail_n=N      the first N sink write attempts fail with EIO
//   sink_fail_every=K  every Kth sink write attempt fails with EIO
//   short_write_every=K  every Kth sink write attempt lands only half its
//                        bytes, then fails
//   corrupt_snapshot=N   corrupt the first N snapshot/checkpoint files as
//                        they are written (single bit flip mid-payload)
//
// Entries whose value is 0 are inert. Unknown keys throw.
struct FaultPlan {
  uint64_t seed = 1;
  std::map<uint64_t, uint64_t> stall_bins;   // bin -> stall us
  uint64_t stall_every = 0;                  // every Kth bin...
  uint64_t stall_every_us = 0;               // ...stalled this long
  std::map<uint64_t, uint64_t> clock_jumps;  // bin -> jump us
  std::map<uint64_t, uint64_t> worker_stalls;
  uint64_t sink_fail_n = 0;
  uint64_t sink_fail_every = 0;
  uint64_t short_write_every = 0;
  uint64_t corrupt_snapshots = 0;

  // Throws std::invalid_argument on malformed specs. Empty spec = no faults.
  static FaultPlan Parse(std::string_view spec);
};

enum class SinkFault : uint8_t { kNone = 0, kEio = 1, kShortWrite = 2 };

// Applies a FaultPlan. One injector is shared by every component of a
// pipeline (coordinator bin loop, exec workers, sinks, snapshot writer);
// each asks at its own hook point and the injector both decides AND applies
// time-related faults against the shared Clock, so core/exec stay oblivious
// to how faults are realized. Decisions are schedule-driven (bin index,
// attempt counter) — never wall-clock driven — so a plan replays
// identically at any thread count. Counters are atomics because worker
// hooks run on pool threads.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::shared_ptr<Clock> clock);

  // Coordinator hook, called once per bin before processing: applies any
  // scheduled clock jump and coordinator stall for this bin.
  void OnBinStart(uint64_t bin_index);

  // Worker hook, called per query task: applies the bin's worker stall.
  void OnWorkerTask(uint64_t bin_index);

  // Sink hook, called per write attempt (including retries): returns the
  // fault to simulate for this attempt.
  SinkFault NextSinkWriteFault();

  // Snapshot hook: true if the file being written now should be corrupted.
  // Consumes one corruption credit.
  bool TakeSnapshotCorruption();

  const FaultPlan& plan() const { return plan_; }
  uint64_t bin_stalls_applied() const { return bin_stalls_applied_.load(); }
  uint64_t clock_jumps_applied() const { return clock_jumps_applied_.load(); }
  uint64_t worker_stalls_applied() const { return worker_stalls_applied_.load(); }
  uint64_t sink_faults_issued() const { return sink_faults_issued_.load(); }
  uint64_t snapshots_corrupted() const { return snapshots_corrupted_.load(); }

 private:
  FaultPlan plan_;
  std::shared_ptr<Clock> clock_;
  std::atomic<uint64_t> sink_write_attempts_{0};
  std::atomic<uint64_t> bin_stalls_applied_{0};
  std::atomic<uint64_t> clock_jumps_applied_{0};
  std::atomic<uint64_t> worker_stalls_applied_{0};
  std::atomic<uint64_t> sink_faults_issued_{0};
  std::atomic<uint64_t> snapshots_corrupted_{0};
  std::atomic<uint64_t> snapshot_credits_;
};

}  // namespace shedmon::rt
