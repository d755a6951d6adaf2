// Unit tests for the src/rt robustness primitives: injectable clocks, the
// bounded ingest queue, the deadline governor's degradation ladder, fault
// plan parsing / injection, the resilient sink writer, and atomic file
// publication, plus the reactive shedder's accounting under the ladder's
// truncate rung. Everything time-related is driven by a ManualClock so the
// suite is fully deterministic.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/pipeline.h"
#include "src/query/query.h"
#include "src/rt/atomic_file.h"
#include "src/rt/bounded_queue.h"
#include "src/rt/clock.h"
#include "src/rt/fault.h"
#include "src/rt/governor.h"
#include "src/rt/resilient.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "tests/temp_path.h"

namespace shedmon::rt {
namespace {

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

TEST(Clock, ManualClockAdvancesOnlyWhenTold) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.NowUs(), 1000u);
  clock.Advance(250);
  EXPECT_EQ(clock.NowUs(), 1250u);
  clock.SleepUs(750);  // sleeping on a manual clock advances it
  EXPECT_EQ(clock.NowUs(), 2000u);
}

TEST(Clock, SystemClockIsMonotonicAndSleeps) {
  SystemClock clock;
  const uint64_t before = clock.NowUs();
  clock.SleepUs(1000);
  EXPECT_GE(clock.NowUs(), before + 1000);
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(BoundedQueue, DropNewestRejectsWhenFullAndCounts) {
  BoundedQueue<int> queue(2, OverflowPolicy::kDropNewest);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_FALSE(queue.Push(3));
  EXPECT_FALSE(queue.Push(4));
  EXPECT_EQ(queue.dropped_newest(), 2u);
  EXPECT_EQ(queue.TryPop(), 1);
  EXPECT_EQ(queue.TryPop(), 2);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
}

TEST(BoundedQueue, DropOldestEvictsHeadAndCounts) {
  BoundedQueue<int> queue(2, OverflowPolicy::kDropOldest);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  EXPECT_TRUE(queue.Push(3));  // evicts 1
  EXPECT_EQ(queue.dropped_oldest(), 1u);
  EXPECT_EQ(queue.TryPop(), 2);
  EXPECT_EQ(queue.TryPop(), 3);
}

TEST(BoundedQueue, BlockPolicyWaitsForTheConsumer) {
  BoundedQueue<int> queue(1, OverflowPolicy::kBlock);
  ASSERT_TRUE(queue.Push(1));
  std::thread producer([&] { EXPECT_TRUE(queue.Push(2)); });  // blocks until a Pop
  EXPECT_EQ(queue.Pop(), 1);
  producer.join();
  EXPECT_EQ(queue.Pop(), 2);
}

TEST(BoundedQueue, CloseWakesProducersAndDrainsConsumers) {
  BoundedQueue<int> queue(1, OverflowPolicy::kBlock);
  ASSERT_TRUE(queue.Push(7));
  std::thread producer([&] { EXPECT_FALSE(queue.Push(8)); });  // blocked, then closed
  queue.Close();
  producer.join();
  EXPECT_FALSE(queue.Push(9));
  EXPECT_EQ(queue.Pop(), 7);              // close drains what is buffered
  EXPECT_EQ(queue.Pop(), std::nullopt);   // then reports closed-and-empty
}

TEST(BoundedQueue, DropOldestHandsBackTheEvictedItem) {
  // The capture slot ring needs the displaced item back (its slot must be
  // recycled, not leaked); kDropOldest reports it through the out-param.
  BoundedQueue<int> queue(2, OverflowPolicy::kDropOldest);
  std::optional<int> evicted;
  EXPECT_TRUE(queue.Push(1, &evicted));
  EXPECT_EQ(evicted, std::nullopt);
  EXPECT_TRUE(queue.Push(2, &evicted));
  EXPECT_EQ(evicted, std::nullopt);
  EXPECT_TRUE(queue.Push(3, &evicted));
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(queue.dropped_oldest(), 1u);
}

TEST(BoundedQueue, PopForTimesOutEmptyAndReturnsDataWhenPresent) {
  BoundedQueue<int> queue(2, OverflowPolicy::kBlock);
  EXPECT_EQ(queue.PopFor(1000), std::nullopt);  // 1ms timeout, empty queue
  ASSERT_TRUE(queue.Push(5));
  EXPECT_EQ(queue.PopFor(1000), 5);
  queue.Close();
  EXPECT_EQ(queue.PopFor(1000), std::nullopt);  // closed and empty: immediate
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueue, PopForWakesOnPushFromAnotherThread) {
  BoundedQueue<int> queue(2, OverflowPolicy::kBlock);
  std::thread producer([&] { queue.Push(9); });
  // Generous timeout: the wait must end on the push, not the deadline.
  EXPECT_EQ(queue.PopFor(5'000'000), 9);
  producer.join();
}

TEST(BoundedQueue, ZeroCapacityIsClampedToOne) {
  BoundedQueue<int> queue(0, OverflowPolicy::kDropNewest);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_FALSE(queue.Push(2));
}

// ---------------------------------------------------------------------------
// DeadlineGovernor
// ---------------------------------------------------------------------------

GovernorConfig TestGovernorConfig() {
  GovernorConfig config;
  config.budget_fraction = 0.5;  // 100ms bin -> 50ms budget
  config.boost_factor = 2.0;
  config.decay_bins = 2;
  return config;
}

constexpr uint64_t kBinUs = 100'000;

// Runs one bin that takes `elapsed_us` of wall time.
Directive RunBin(DeadlineGovernor& governor, ManualClock& clock, uint64_t elapsed_us,
                 uint64_t bin_index) {
  const Directive d = governor.Begin();
  clock.Advance(elapsed_us);
  governor.End(kBinUs, bin_index);
  return d;
}

TEST(DeadlineGovernor, CleanBinsStayAtLevelZero) {
  auto clock = std::make_shared<ManualClock>();
  DeadlineGovernor governor(TestGovernorConfig(), clock);
  for (uint64_t bin = 0; bin < 5; ++bin) {
    const Directive d = RunBin(governor, *clock, 10'000, bin);
    EXPECT_EQ(d.action, DegradeAction::kNone);
    EXPECT_EQ(d.rate_scale, 1.0);
  }
  EXPECT_EQ(governor.level(), 0);
  EXPECT_EQ(governor.deadline_misses(), 0u);
  EXPECT_FALSE(governor.last_deadline_missed());
}

TEST(DeadlineGovernor, LadderEscalatesOneRungPerOverrunAndCapsAtDropBin) {
  auto clock = std::make_shared<ManualClock>();
  DeadlineGovernor governor(TestGovernorConfig(), clock);

  // Bin 0 overruns (80ms > 50ms budget); its directive was still kNone —
  // the overrun can only shape the NEXT bin.
  Directive d = RunBin(governor, *clock, 80'000, 0);
  EXPECT_EQ(d.action, DegradeAction::kNone);
  EXPECT_TRUE(governor.last_deadline_missed());
  EXPECT_EQ(governor.last_overrun_us(), 30'000.0);
  EXPECT_EQ(governor.level(), 1);

  d = RunBin(governor, *clock, 80'000, 1);
  EXPECT_EQ(d.action, DegradeAction::kBoostShedding);
  EXPECT_EQ(d.rate_scale, 0.5);
  EXPECT_EQ(governor.level(), 2);

  d = RunBin(governor, *clock, 80'000, 2);
  EXPECT_EQ(d.action, DegradeAction::kTruncate);
  EXPECT_EQ(d.rate_scale, 0.25);
  EXPECT_EQ(d.truncate_queries, 1);
  EXPECT_EQ(governor.level(), 3);

  // The ladder caps at kDropBin; the rate scale keeps compounding so a
  // persistent overrun never plateaus.
  d = RunBin(governor, *clock, 80'000, 3);
  EXPECT_EQ(d.action, DegradeAction::kDropBin);
  EXPECT_EQ(governor.level(), 3);
  EXPECT_EQ(governor.deadline_misses(), 4u);
}

TEST(DeadlineGovernor, DecaysOneRungAfterConsecutiveCleanBins) {
  auto clock = std::make_shared<ManualClock>();
  DeadlineGovernor governor(TestGovernorConfig(), clock);
  RunBin(governor, *clock, 80'000, 0);
  RunBin(governor, *clock, 80'000, 1);
  ASSERT_EQ(governor.level(), 2);

  // One clean bin is not enough (decay_bins = 2)...
  RunBin(governor, *clock, 10'000, 2);
  EXPECT_EQ(governor.level(), 2);
  // ...two are; the streak then restarts for the next rung.
  RunBin(governor, *clock, 10'000, 3);
  EXPECT_EQ(governor.level(), 1);
  RunBin(governor, *clock, 10'000, 4);
  EXPECT_EQ(governor.level(), 1);
  const Directive d = RunBin(governor, *clock, 10'000, 5);
  EXPECT_EQ(d.action, DegradeAction::kBoostShedding);  // still level 1 going in
  EXPECT_EQ(governor.level(), 0);

  // Fully recovered: back to the no-op directive with scale 1.
  const Directive recovered = governor.Begin();
  EXPECT_EQ(recovered.action, DegradeAction::kNone);
  EXPECT_EQ(recovered.rate_scale, 1.0);
}

TEST(DeadlineGovernor, MissResetsTheCleanStreak) {
  auto clock = std::make_shared<ManualClock>();
  DeadlineGovernor governor(TestGovernorConfig(), clock);
  RunBin(governor, *clock, 80'000, 0);
  ASSERT_EQ(governor.level(), 1);
  RunBin(governor, *clock, 10'000, 1);  // clean (streak 1 of 2)
  RunBin(governor, *clock, 80'000, 2);  // miss: streak resets, level 2
  EXPECT_EQ(governor.level(), 2);
  RunBin(governor, *clock, 10'000, 3);
  EXPECT_EQ(governor.level(), 2);  // streak must rebuild from zero
}

TEST(DeadlineGovernor, InvalidConfigValuesAreClampedToSaneDefaults) {
  auto clock = std::make_shared<ManualClock>();
  GovernorConfig bad;
  bad.budget_fraction = -1.0;
  bad.boost_factor = 0.5;
  bad.decay_bins = 0;
  DeadlineGovernor governor(bad, clock);
  EXPECT_GT(governor.config().budget_fraction, 0.0);
  EXPECT_GT(governor.config().boost_factor, 1.0);
  EXPECT_GE(governor.config().decay_bins, 1);
}

// ---------------------------------------------------------------------------
// FaultPlan / FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesTheFullSpecLanguage) {
  const FaultPlan plan = FaultPlan::Parse(
      "seed=42,stall_bin=3:50000,stall_every=10:1000;clock_jump=5:200000,"
      "worker_stall=7:4000,sink_fail_n=2,sink_fail_every=9,short_write_every=13,"
      "corrupt_snapshot=1");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.stall_bins.at(3), 50'000u);
  EXPECT_EQ(plan.stall_every, 10u);
  EXPECT_EQ(plan.stall_every_us, 1000u);
  EXPECT_EQ(plan.clock_jumps.at(5), 200'000u);
  EXPECT_EQ(plan.worker_stalls.at(7), 4000u);
  EXPECT_EQ(plan.sink_fail_n, 2u);
  EXPECT_EQ(plan.sink_fail_every, 9u);
  EXPECT_EQ(plan.short_write_every, 13u);
  EXPECT_EQ(plan.corrupt_snapshots, 1u);
}

TEST(FaultPlan, EmptySpecIsInertAndMalformedSpecsThrow) {
  const FaultPlan plan = FaultPlan::Parse("");
  EXPECT_TRUE(plan.stall_bins.empty());
  EXPECT_EQ(plan.sink_fail_n, 0u);

  EXPECT_THROW(FaultPlan::Parse("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("seed"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("seed=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("stall_bin=3"), std::invalid_argument);  // wants BIN:US
  EXPECT_THROW(FaultPlan::Parse("stall_bin=:5"), std::invalid_argument);
}

TEST(FaultInjector, AppliesScheduledStallsAndJumpsAgainstTheSharedClock) {
  auto clock = std::make_shared<ManualClock>();
  FaultPlan plan = FaultPlan::Parse("stall_bin=2:30000,clock_jump=4:500000,stall_every=3:1000");
  FaultInjector injector(plan, clock);

  injector.OnBinStart(0);
  EXPECT_EQ(clock->NowUs(), 0u);
  injector.OnBinStart(1);
  EXPECT_EQ(clock->NowUs(), 0u);
  injector.OnBinStart(2);  // stall_bin 2 plus stall_every (2 % 3 == 3 - 1)
  EXPECT_EQ(clock->NowUs(), 31'000u);
  injector.OnBinStart(3);
  EXPECT_EQ(clock->NowUs(), 31'000u);
  injector.OnBinStart(4);  // clock jump only
  EXPECT_EQ(clock->NowUs(), 531'000u);
  injector.OnBinStart(5);  // stall_every again
  EXPECT_EQ(clock->NowUs(), 532'000u);

  // Stalls are counted per stalled BIN: bin 2's stall_bin + stall_every
  // coalesce into one sleep, so two bins stalled (2 and 5).
  EXPECT_EQ(injector.bin_stalls_applied(), 2u);
  EXPECT_EQ(injector.clock_jumps_applied(), 1u);
}

TEST(FaultInjector, WorkerStallsApplyPerTaskOfTheScheduledBin) {
  auto clock = std::make_shared<ManualClock>();
  FaultInjector injector(FaultPlan::Parse("worker_stall=1:2000"), clock);
  injector.OnWorkerTask(0);
  EXPECT_EQ(clock->NowUs(), 0u);
  injector.OnWorkerTask(1);
  injector.OnWorkerTask(1);  // each task of the bin stalls
  EXPECT_EQ(clock->NowUs(), 4000u);
  EXPECT_EQ(injector.worker_stalls_applied(), 2u);
}

TEST(FaultInjector, SinkFaultScheduleIsAttemptDriven) {
  auto clock = std::make_shared<ManualClock>();
  FaultInjector injector(FaultPlan::Parse("sink_fail_n=2,short_write_every=4"), clock);
  // Attempts 0 and 1 fail with EIO, attempt 3 (the 4th) short-writes.
  EXPECT_EQ(injector.NextSinkWriteFault(), SinkFault::kEio);
  EXPECT_EQ(injector.NextSinkWriteFault(), SinkFault::kEio);
  EXPECT_EQ(injector.NextSinkWriteFault(), SinkFault::kNone);
  EXPECT_EQ(injector.NextSinkWriteFault(), SinkFault::kShortWrite);
  EXPECT_EQ(injector.NextSinkWriteFault(), SinkFault::kNone);
  EXPECT_EQ(injector.sink_faults_issued(), 3u);
}

TEST(FaultInjector, SnapshotCorruptionCreditsAreConsumedOnce) {
  auto clock = std::make_shared<ManualClock>();
  FaultInjector injector(FaultPlan::Parse("corrupt_snapshot=2"), clock);
  EXPECT_TRUE(injector.TakeSnapshotCorruption());
  EXPECT_TRUE(injector.TakeSnapshotCorruption());
  EXPECT_FALSE(injector.TakeSnapshotCorruption());
  EXPECT_EQ(injector.snapshots_corrupted(), 2u);
}

// ---------------------------------------------------------------------------
// ResilientWriter
// ---------------------------------------------------------------------------

RetryPolicy TestRetryPolicy() {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.initial_backoff_us = 1000;
  policy.max_backoff_us = 8000;
  policy.jitter_fraction = 0.0;  // exact backoff arithmetic in tests
  return policy;
}

TEST(ResilientWriter, PassesWritesThroughWhenHealthy) {
  std::ostringstream out;
  auto clock = std::make_shared<ManualClock>();
  ResilientWriter writer(out, TestRetryPolicy(), clock);
  EXPECT_TRUE(writer.Write("row one\n"));
  EXPECT_TRUE(writer.Write("row two\n"));
  writer.Flush();
  EXPECT_EQ(out.str(), "row one\nrow two\n");
  EXPECT_EQ(writer.retries(), 0u);
  EXPECT_FALSE(writer.quarantined());
}

TEST(ResilientWriter, RetriesTransientEioWithBackoffOnTheClock) {
  std::ostringstream out;
  auto clock = std::make_shared<ManualClock>();
  FaultInjector injector(FaultPlan::Parse("sink_fail_n=2"), clock);
  ResilientWriter writer(out, TestRetryPolicy(), clock);
  writer.SetFaultInjector(&injector);

  EXPECT_TRUE(writer.Write("payload\n"));  // two EIOs, lands on the 3rd attempt
  EXPECT_EQ(out.str(), "payload\n");
  EXPECT_EQ(writer.retries(), 2u);
  // Backoff slept on the shared clock: 1000 (retry 1) + 2000 (retry 2).
  EXPECT_EQ(clock->NowUs(), 3000u);
  EXPECT_FALSE(writer.quarantined());
}

TEST(ResilientWriter, ShortWritesResumeFromTheFirstUnwrittenByte) {
  std::ostringstream out;
  auto clock = std::make_shared<ManualClock>();
  // Every attempt short-writes (half the remaining bytes land, then the
  // device "fails") until a single byte remains, which writes cleanly:
  // "abc\n" needs attempts of 2, 1, then 1 bytes.
  FaultInjector injector(FaultPlan::Parse("short_write_every=1"), clock);
  ResilientWriter writer(out, TestRetryPolicy(), clock);
  writer.SetFaultInjector(&injector);

  EXPECT_TRUE(writer.Write("abc\n"));
  // No byte duplicated, no byte lost.
  EXPECT_EQ(out.str(), "abc\n");
  EXPECT_EQ(writer.retries(), 2u);
}

TEST(ResilientWriter, ExhaustedRetriesQuarantineInsteadOfFailingTheRun) {
  std::ostringstream out;
  auto clock = std::make_shared<ManualClock>();
  FaultInjector injector(FaultPlan::Parse("sink_fail_n=1000"), clock);  // every attempt fails
  ResilientWriter writer(out, TestRetryPolicy(), clock);
  writer.SetFaultInjector(&injector);

  EXPECT_FALSE(writer.Write("doomed\n"));
  EXPECT_TRUE(writer.quarantined());
  EXPECT_EQ(writer.retries(), 3u);
  EXPECT_EQ(writer.dropped_writes(), 1u);
  // Quarantined writes are counted and discarded, not retried.
  const uint64_t t = clock->NowUs();
  EXPECT_FALSE(writer.Write("also doomed\n"));
  EXPECT_EQ(writer.dropped_writes(), 2u);
  EXPECT_EQ(clock->NowUs(), t);
  EXPECT_EQ(out.str(), "");
}

TEST(ResilientWriter, QuarantineIsRecordedInMetrics) {
  std::ostringstream out;
  auto clock = std::make_shared<ManualClock>();
  FaultInjector injector(FaultPlan::Parse("sink_fail_n=1000"), clock);
  obs::MetricsRegistry metrics;
  ResilientWriter writer(out, TestRetryPolicy(), clock);
  writer.SetFaultInjector(&injector);
  writer.Attach(&metrics, nullptr, "csv");

  EXPECT_FALSE(writer.Write("doomed\n"));
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  bool saw_retries = false;
  bool saw_quarantine = false;
  for (const auto& sample : snapshot.samples) {
    if (sample.name == "shedmon_rt_sink_retries_total") {
      saw_retries = true;
      EXPECT_EQ(sample.value, 3.0);
    }
    if (sample.name == "shedmon_rt_sink_quarantined_total") {
      saw_quarantine = true;
      EXPECT_EQ(sample.value, 1.0);
    }
  }
  EXPECT_TRUE(saw_retries);
  EXPECT_TRUE(saw_quarantine);
}

TEST(ResilientWriter, JitterIsDeterministicForAFixedSeed) {
  auto run = [](uint64_t seed) {
    std::ostringstream out;
    auto clock = std::make_shared<ManualClock>();
    FaultInjector injector(FaultPlan::Parse("sink_fail_n=3"), clock);
    RetryPolicy policy = TestRetryPolicy();
    policy.jitter_fraction = 0.25;
    policy.jitter_seed = seed;
    ResilientWriter writer(out, policy, clock);
    writer.SetFaultInjector(&injector);
    EXPECT_TRUE(writer.Write("row\n"));
    return clock->NowUs();  // total backoff slept, jitter included
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---------------------------------------------------------------------------
// Reactive shedder under the truncate rung
// ---------------------------------------------------------------------------

// Records how many packets each processed batch carried, by bin start.
class PacketTally : public query::Query {
 public:
  PacketTally() : Query("packet-tally", 10) {}
  const std::map<uint64_t, size_t>& seen() const { return seen_; }

 protected:
  void OnBatch(const query::BatchInput& in) override {
    seen_[in.start_us] = in.packets.size();
    ChargeWork(static_cast<double>(in.packets.size()));
  }
  void OnEndInterval(size_t) override {}

 private:
  std::map<uint64_t, size_t> seen_;
};

TEST(ReactiveLadder, TruncatedQueriesCountTheirShareAsShed) {
  // Every bin stalls past its budget on the ManualClock, so the ladder
  // climbs boost -> truncate -> drop. In each processed bin, a query that
  // did not run sheds its whole share of the batch, and one that ran sheds
  // the part its sampler dropped.
  auto clock = std::make_shared<ManualClock>();
  trace::TraceSpec spec = trace::CescaII();
  spec.duration_s = 1.0;
  const trace::Trace trace = trace::TraceGenerator(spec).Generate();
  auto pipeline = api::PipelineBuilder()
                      .Shedder(core::ShedderKind::kReactive)
                      .TrackAccuracy(false)
                      .RtClock(clock)
                      .Deadline(TestGovernorConfig())
                      .InjectFaults(FaultPlan::Parse("stall_every=1:80000"))
                      .BuildUnique();
  std::vector<const PacketTally*> tallies;
  for (int q = 0; q < 3; ++q) {
    auto query = std::make_unique<PacketTally>();
    tallies.push_back(query.get());
    pipeline->AddQuery(std::move(query));
  }
  pipeline->Push(trace);
  pipeline->Finish();

  size_t truncated_bins = 0;
  for (const core::BinLog& log : pipeline->log()) {
    if (log.batch_dropped) {
      continue;
    }
    SCOPED_TRACE("bin at " + std::to_string(log.start_us));
    const double share = static_cast<double>(log.packets_in) / 3.0;
    double expected = 0.0;
    for (size_t q = 0; q < tallies.size(); ++q) {
      const auto it = tallies[q]->seen().find(log.start_us);
      if (log.disabled[q]) {
        EXPECT_EQ(it, tallies[q]->seen().end());
        expected += share;
      } else {
        ASSERT_NE(it, tallies[q]->seen().end());
        expected += static_cast<double>(log.packets_in - it->second) / 3.0;
      }
    }
    EXPECT_DOUBLE_EQ(log.packets_unsampled, expected);
    if (log.degradation == static_cast<uint8_t>(DegradeAction::kTruncate)) {
      ++truncated_bins;
      EXPECT_TRUE(log.disabled.back());
      EXPECT_GT(log.packets_unsampled, share);
    }
  }
  EXPECT_GT(truncated_bins, 0u);
}

// ---------------------------------------------------------------------------
// WriteFileAtomic
// ---------------------------------------------------------------------------

TEST(AtomicFile, WritesAndReplacesWithoutTempLitter) {
  const std::string path = test::TempPath("shedmon_rt_atomic_test.bin");
  WriteFileAtomic(path, "first contents");
  {
    std::ifstream in(path, std::ios::binary);
    std::string got((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(got, "first contents");
  }
  WriteFileAtomic(path, "second");
  {
    std::ifstream in(path, std::ios::binary);
    std::string got((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(got, "second");
  }
  EXPECT_FALSE(std::ifstream(path + ".tmp." + std::to_string(::getpid())).good());
  std::remove(path.c_str());
}

TEST(AtomicFile, ThrowsOnUnwritableDestination) {
  EXPECT_THROW(WriteFileAtomic("/nonexistent-dir/sub/file.bin", "x"), std::runtime_error);
}

}  // namespace
}  // namespace shedmon::rt
