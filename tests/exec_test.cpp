// src/exec/ tests: ThreadPool semantics (fork-join draining, exception
// propagation, zero-task and one-worker edges), QueryExecutor waves, and the
// subsystem's headline property — parallel pipelines are bit-identical to
// serial ones at every thread count, for every shedder kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/api/pipeline.h"
#include "src/api/run.h"
#include "src/core/runner.h"
#include "src/exec/query_executor.h"
#include "src/exec/thread_pool.h"
#include "src/query/queries.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"

namespace shedmon {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, AtLeastOneWorkerEvenWhenZeroRequested) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  // Two chunks that each wait for the other: only completes when the one
  // worker's helper runs the chunk the caller did not claim.
  std::latch both(2);
  pool.ParallelFor(0, 2, 1, [&](size_t) { both.arrive_and_wait(); });
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  for (const size_t grain : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(257);
    pool.ParallelFor(0, hits.size(), grain, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
    for (auto& h : hits) {
      h.store(0);
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndSingleIteration) {
  exec::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](size_t) { ++calls; });  // empty range: no calls
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(5, 6, 1, [&](size_t i) {
    ++calls;
    EXPECT_EQ(i, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForGrainBeyondRangeNeverMakesEmptyChunks) {
  // Regression: the caller-participation path re-checks the grain against
  // the range, so a 1-item range with a huge grain runs exactly one
  // non-empty caller chunk.
  exec::ThreadPool pool(4);
  for (const size_t grain : {size_t{1}, size_t{2}, size_t{1000}}) {
    int calls = 0;
    pool.ParallelFor(7, 8, grain, [&](size_t i) {
      ++calls;
      EXPECT_EQ(i, 7u);
    });
    EXPECT_EQ(calls, 1) << "grain " << grain;
  }
}

TEST(ThreadPoolTest, ParallelForOnOneWorkerPoolDoesNotDeadlock) {
  // The caller and the single worker's helper claim chunks from one counter
  // until it is drained; neither waits for the other to start.
  exec::ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(0, 100, 7, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

// Parks every worker of `pool` until the gate opens, so fork-join helpers
// queued meanwhile cannot start. A fork-join driven from its own thread with
// one blocking chunk per worker plus one for that thread parks them: each
// thread claims exactly one chunk, and the latch releases only once every
// worker holds one.
class ParkedWorkers {
 public:
  explicit ParkedWorkers(exec::ThreadPool& pool)
      : chunks_(pool.num_threads() + 1), parked_(static_cast<std::ptrdiff_t>(chunks_)) {
    parker_ = std::thread([this, &pool] {
      pool.ParallelFor(0, chunks_, 1, [this](size_t) {
        parked_.count_down();
        gate_.wait();
      });
    });
    parked_.wait();
  }
  ~ParkedWorkers() { Release(); }

  // Opens the gate and waits until the parking fork-join has returned.
  void Release() {
    if (parker_.joinable()) {
      open_.set_value();
      parker_.join();
    }
  }

 private:
  size_t chunks_;
  std::latch parked_;  // a member: a worker may still be inside count_down
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  std::thread parker_;
};

// Returns once every worker of `pool` has run one chunk of a fork-join
// started now: the queue is FIFO, so every helper queued before this call
// has run by then.
void RunOnEveryWorker(exec::ThreadPool& pool) {
  const size_t chunks = pool.num_threads() + 1;
  std::latch all(static_cast<std::ptrdiff_t>(chunks));
  pool.ParallelFor(0, chunks, 1, [&](size_t) { all.arrive_and_wait(); });
}

TEST(ThreadPoolTest, CallerDrainsWholeRangeWhileEveryWorkerIsBlocked) {
  // The join waits for chunks to finish, not for helpers to start: with both
  // workers parked until after ParallelFor returns, the caller runs every
  // chunk itself. The helpers run later, find the counter drained and return.
  exec::ThreadPool pool(2);
  ParkedWorkers parked(pool);

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(50, 0);
  bool all_on_caller = true;
  pool.ParallelFor(0, hits.size(), 1, [&](size_t i) {
    ++hits[i];
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(hits, std::vector<int>(50, 1));
}

TEST(ThreadPoolTest, ParallelForFromInsideAOneWorkerPoolTaskCompletes) {
  // Two outer chunks that wait for each other, so the only worker must run
  // one of them; its nested fork-join finds no free worker and drains on
  // the worker itself.
  exec::ThreadPool pool(1);
  std::latch both(2);
  std::atomic<int> sum{0};
  std::atomic<int> on_worker{0};
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(0, 2, 1, [&](size_t) {
    both.arrive_and_wait();
    if (std::this_thread::get_id() != caller) {
      on_worker.fetch_add(1);
    }
    pool.ParallelFor(0, 100, 1, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  });
  EXPECT_EQ(on_worker.load(), 1);
  EXPECT_EQ(sum.load(), 2 * 4950);
}

TEST(ThreadPoolTest, UnjoinedJobSkipsUnclaimedChunksOnDestruction) {
  // Destroying a started Job without Join stops the chunks no helper has
  // claimed yet: with the only worker parked, none of them runs, and the
  // helper that starts afterwards finds nothing left to run.
  exec::ThreadPool pool(1);
  ParkedWorkers parked(pool);

  std::atomic<int> calls{0};
  {
    exec::ThreadPool::Job job = pool.Start(0, 10, 1, [&](size_t) { calls.fetch_add(1); });
    EXPECT_FALSE(job.empty());
  }
  parked.Release();
  RunOnEveryWorker(pool);  // the stale helper ran before this returns
  EXPECT_EQ(calls.load(), 0);

  exec::ThreadPool::Job joined = pool.Start(0, 10, 1, [&](size_t) { calls.fetch_add(1); });
  joined.Join();
  EXPECT_TRUE(joined.empty());
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstIterationError) {
  exec::ThreadPool pool(3);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.ParallelFor(0, 64, 1,
                                [&](size_t i) {
                                  executed.fetch_add(1);
                                  if (i == 13) {
                                    throw std::invalid_argument("13");
                                  }
                                }),
               std::invalid_argument);
  // All chunks ran to completion before the rethrow (no detached work left).
  EXPECT_EQ(executed.load(), 64);
}

// ---------------------------------------------------------------------------
// QueryExecutor
// ---------------------------------------------------------------------------

TEST(QueryExecutorTest, RunFinishesEveryTaskBeforeReturning) {
  exec::ThreadPool pool(4);
  exec::QueryExecutor executor(&pool);
  std::vector<std::atomic<int>> hits(25);
  executor.Run(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(QueryExecutorTest, NullPoolRunsInline) {
  exec::QueryExecutor executor(nullptr);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  executor.Run(3, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
}

TEST(QueryExecutorTest, TaskFailureRethrowsAfterEveryTask) {
  exec::ThreadPool pool(2);
  exec::QueryExecutor executor(&pool);
  std::atomic<int> executed{0};
  EXPECT_THROW(executor.Run(4,
                            [&](size_t i) {
                              executed.fetch_add(1);
                              if (i == 2) {
                                throw std::runtime_error("task failed");
                              }
                            }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 4);
}

TEST(QueryExecutorTest, ZeroTasksIsANoOp) {
  exec::ThreadPool pool(2);
  exec::QueryExecutor executor(&pool);
  int calls = 0;
  executor.Run(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// ---------------------------------------------------------------------------
// Parallel == serial, bit for bit
// ---------------------------------------------------------------------------

const trace::Trace& EquivalenceTrace() {
  static const trace::Trace t = [] {
    trace::TraceSpec spec;
    spec.name = "exec-equivalence";
    spec.duration_s = 4.0;
    spec.flows_per_s = 180.0;
    spec.payloads = true;
    spec.seed = 777;
    return trace::TraceGenerator(spec).Generate();
  }();
  return t;
}

// All ten queries of Table 2.2: packet and flow sampling, every
// custom-shedding method, per-flow and per-packet queries, and the two
// packet-count references (trace, pattern-search).
std::vector<std::string> EquivalenceQueries() { return query::AllQueryNames(); }

double EquivalenceDemand() {
  static const double demand = core::MeasureMeanDemand(
      EquivalenceQueries(), EquivalenceTrace(), core::OracleKind::kModel);
  return demand;
}

void ExpectBinLogsIdentical(const std::vector<core::BinLog>& serial,
                            const std::vector<core::BinLog>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t b = 0; b < serial.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    const core::BinLog& s = serial[b];
    const core::BinLog& p = parallel[b];
    EXPECT_EQ(s.start_us, p.start_us);
    EXPECT_EQ(s.packets_in, p.packets_in);
    EXPECT_EQ(s.packets_dropped, p.packets_dropped);
    EXPECT_EQ(s.packets_unsampled, p.packets_unsampled);
    EXPECT_EQ(s.batch_dropped, p.batch_dropped);
    EXPECT_EQ(s.overload, p.overload);
    EXPECT_EQ(s.predicted_cycles, p.predicted_cycles);
    EXPECT_EQ(s.avail_cycles, p.avail_cycles);
    EXPECT_EQ(s.query_cycles, p.query_cycles);
    EXPECT_EQ(s.ps_cycles, p.ps_cycles);
    EXPECT_EQ(s.ls_cycles, p.ls_cycles);
    EXPECT_EQ(s.como_cycles, p.como_cycles);
    EXPECT_EQ(s.backlog_cycles, p.backlog_cycles);
    EXPECT_EQ(s.rtthresh, p.rtthresh);
    EXPECT_EQ(s.rate, p.rate);
    EXPECT_EQ(s.per_query_cycles, p.per_query_cycles);
    EXPECT_EQ(s.disabled, p.disabled);
  }
}

void ExpectPipelinesIdentical(const api::Pipeline& serial, const api::Pipeline& parallel) {
  EXPECT_EQ(serial.total_packets(), parallel.total_packets());
  EXPECT_EQ(serial.total_dropped(), parallel.total_dropped());
  ExpectBinLogsIdentical(serial.log(), parallel.log());
  ASSERT_EQ(serial.num_queries(), parallel.num_queries());
  for (size_t q = 0; q < serial.num_queries(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const auto sa = serial.AccuracyAt(q);
    const auto pa = parallel.AccuracyAt(q);
    EXPECT_EQ(sa.mean_error, pa.mean_error);
    EXPECT_EQ(sa.stdev_error, pa.stdev_error);
    EXPECT_EQ(serial.MeanAccuracyAt(q), parallel.MeanAccuracyAt(q));
  }
}

struct EquivalenceCase {
  std::string label;
  core::ShedderKind shedder = core::ShedderKind::kPredictive;
  shed::StrategyKind strategy = shed::StrategyKind::kEqSrates;
  double k = 0.5;  // overload factor
  bool custom_shedding = false;
};

PipelineBuilder EquivalenceSpec(const EquivalenceCase& c) {
  PipelineBuilder builder;
  builder.Shedder(c.shedder)
      .Strategy(c.strategy)
      .CyclesPerBin(std::max(1.0, EquivalenceDemand() * (1.0 - c.k)))
      .CustomShedding(c.custom_shedding)
      .Oracle(core::OracleKind::kModel);
  for (const std::string& name : EquivalenceQueries()) {
    builder.AddQuery(name);
  }
  return builder;
}

// One serial (threads 0) golden run per case, shared across the thread
// grid so the sweep stays fast.
const api::Pipeline& SerialBaseline(const EquivalenceCase& c) {
  static std::map<std::string, std::unique_ptr<api::Pipeline>>& cache =
      *new std::map<std::string, std::unique_ptr<api::Pipeline>>();
  auto it = cache.find(c.label);
  if (it == cache.end()) {
    it = cache.emplace(c.label, api::RunTrace(EquivalenceSpec(c), EquivalenceTrace())).first;
  }
  return *it->second;
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<EquivalenceCase, size_t>> {};

TEST_P(ParallelEquivalence, BinLogsAndAccuraciesBitIdenticalToSerial) {
  const auto& [c, threads] = GetParam();
  PipelineBuilder spec = EquivalenceSpec(c);
  spec.Threads(threads);
  ExpectPipelinesIdentical(SerialBaseline(c), *api::RunTrace(spec, EquivalenceTrace()));
}

// threads 0 re-runs the serial path against its cached baseline; threads 1
// makes the bin's reference replay and the system's query wave contend for
// one worker; threads 2 and 4 run the queries concurrently.
INSTANTIATE_TEST_SUITE_P(
    ShedderByThreads, ParallelEquivalence,
    ::testing::Combine(
        ::testing::Values(
            EquivalenceCase{"predictive_eq", core::ShedderKind::kPredictive,
                            shed::StrategyKind::kEqSrates, 0.5, false},
            EquivalenceCase{"predictive_mmfs_noshed_k0", core::ShedderKind::kPredictive,
                            shed::StrategyKind::kMmfsPkt, 0.0, false},
            EquivalenceCase{"predictive_custom", core::ShedderKind::kPredictive,
                            shed::StrategyKind::kMmfsCpu, 0.6, true},
            EquivalenceCase{"reactive", core::ShedderKind::kReactive,
                            shed::StrategyKind::kEqSrates, 0.5, false},
            EquivalenceCase{"no_shed", core::ShedderKind::kNoShed,
                            shed::StrategyKind::kEqSrates, 0.5, false}),
        ::testing::Values(0, 1, 2, 4)),
    [](const auto& info) {
      return std::get<0>(info.param).label + "_t" + std::to_string(std::get<1>(info.param));
    });

// One query alone, shed by the predictive shedder to half its demand with
// custom shedding on (top-k and p2p-detector take their own method). Each
// bin's wave is then that query's one task, racing its reference replay on
// the pool, so a query whose single OnBatch path reads shared or
// order-dependent state diverges here under its own name.
PipelineBuilder SoloSpec(const std::string& name) {
  const double demand =
      core::MeasureMeanDemand({name}, EquivalenceTrace(), core::OracleKind::kModel);
  PipelineBuilder builder;
  builder.Shedder(core::ShedderKind::kPredictive)
      .Strategy(shed::StrategyKind::kEqSrates)
      .CyclesPerBin(std::max(1.0, demand * 0.5))
      .CustomShedding(true)
      .Oracle(core::OracleKind::kModel)
      .AddQuery(name);
  return builder;
}

const api::Pipeline& SoloSerialBaseline(const std::string& name) {
  static std::map<std::string, std::unique_ptr<api::Pipeline>>& cache =
      *new std::map<std::string, std::unique_ptr<api::Pipeline>>();
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, api::RunTrace(SoloSpec(name), EquivalenceTrace())).first;
  }
  return *it->second;
}

class SoloParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(SoloParallelEquivalence, BinLogsAndAccuracyBitIdenticalToSerial) {
  const auto& [name, threads] = GetParam();
  PipelineBuilder spec = SoloSpec(name);
  spec.Threads(threads);
  const api::Pipeline& serial = SoloSerialBaseline(name);
  // Not vacuous: the shedder cut the query's load in some bin.
  EXPECT_TRUE(std::any_of(serial.log().begin(), serial.log().end(),
                          [](const core::BinLog& log) { return log.rate.at(0) < 1.0; }));
  ExpectPipelinesIdentical(serial, *api::RunTrace(spec, EquivalenceTrace()));
}

INSTANTIATE_TEST_SUITE_P(
    QueryByThreads, SoloParallelEquivalence,
    ::testing::Combine(::testing::ValuesIn(query::AllQueryNames()), ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_t" + std::to_string(std::get<1>(info.param));
    });

// Every shedder's bins go through the same registration-order fold, so the
// same bookkeeping identities hold whichever shedder chose the rates.
TEST(BinFold, EveryShedderFoldsTheSameWay) {
  for (const EquivalenceCase& c :
       {EquivalenceCase{"predictive_eq", core::ShedderKind::kPredictive,
                        shed::StrategyKind::kEqSrates, 0.5, false},
        EquivalenceCase{"predictive_custom", core::ShedderKind::kPredictive,
                        shed::StrategyKind::kMmfsCpu, 0.6, true},
        EquivalenceCase{"reactive", core::ShedderKind::kReactive, shed::StrategyKind::kEqSrates,
                        0.5, false},
        EquivalenceCase{"no_shed", core::ShedderKind::kNoShed, shed::StrategyKind::kEqSrates,
                        0.5, false}}) {
    SCOPED_TRACE(c.label);
    size_t processed = 0;
    for (const core::BinLog& log : SerialBaseline(c).log()) {
      if (log.batch_dropped) {
        continue;
      }
      ++processed;
      double sum = 0.0;
      for (size_t q = 0; q < log.per_query_cycles.size(); ++q) {
        if (log.disabled[q] || log.rate[q] <= 0.0) {
          EXPECT_EQ(log.per_query_cycles[q], 0.0);
        }
        sum += log.per_query_cycles[q];
      }
      EXPECT_EQ(log.query_cycles, sum);
      EXPECT_GE(log.packets_unsampled, 0.0);
      EXPECT_LE(log.packets_unsampled, static_cast<double>(log.packets_in) * (1.0 + 1e-12));
      if (c.shedder != core::ShedderKind::kPredictive) {
        EXPECT_EQ(log.ps_cycles, 0.0);  // no cost-model upkeep without prediction
      }
      if (c.shedder == core::ShedderKind::kNoShed) {
        EXPECT_EQ(log.packets_unsampled, 0.0);
        EXPECT_EQ(log.ls_cycles, 0.0);
      }
    }
    EXPECT_GT(processed, 0u);
  }
}

// ---------------------------------------------------------------------------
// A throwing query while the reference replay overlaps the waves
// ---------------------------------------------------------------------------

// Throws from OnBatch on its `throw_at`-th batch.
class ThrowingQuery : public query::Query {
 public:
  explicit ThrowingQuery(size_t throw_at) : Query("throwing-query", 10), throw_at_(throw_at) {}

 protected:
  void OnBatch(const query::BatchInput& in) override {
    if (++batches_ == throw_at_) {
      throw std::runtime_error("query failed");
    }
    ChargeWork(static_cast<double>(in.packets.size()));
  }
  void OnEndInterval(size_t) override {}

 private:
  size_t throw_at_;
  size_t batches_ = 0;
};

// A reference instance that stays busy for a while on every batch and
// counts how many of its replays are running right now.
class SlowReference : public query::Query {
 public:
  explicit SlowReference(std::atomic<int>* in_flight)
      : Query("throwing-query", 10), in_flight_(in_flight) {}

 protected:
  void OnBatch(const query::BatchInput& in) override {
    in_flight_->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ChargeWork(static_cast<double>(in.packets.size()));
    in_flight_->fetch_sub(1);
  }
  void OnEndInterval(size_t) override {}

 private:
  std::atomic<int>* in_flight_;
};

TEST(ReferenceOverlap, ThrowingQueryRethrowsAfterTheReplayJoined) {
  // The reference replay starts before the system's waves. When a query
  // throws mid-wave, Push must rethrow only after every replay that had
  // started has finished: none may still be reading the closing bin.
  std::atomic<int> in_flight{0};
  auto pipeline = PipelineBuilder()
                      .Oracle(core::OracleKind::kModel)
                      .Threads(2)
                      .TrackAccuracy(true)
                      .AddQuery("counter")
                      .AddQuery("flows")
                      .AddQuery("pattern-search")
                      .BuildUnique();
  pipeline->AddQuery(std::make_unique<ThrowingQuery>(3), {},
                     std::make_unique<SlowReference>(&in_flight));
  EXPECT_THROW(pipeline->Push(EquivalenceTrace()), std::runtime_error);
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_EQ(pipeline->log().size(), 2u);  // the failing bin logged nothing
}

// ---------------------------------------------------------------------------
// The measured oracle under a worker pool
// ---------------------------------------------------------------------------

TEST(ParallelMeasuredOracle, ToleranceBandSmoke) {
  // The measured oracle charges real TSC cycles, so two runs are never
  // bit-identical; under worker threads it must still behave sanely. With
  // ample capacity nothing but the cold-start probe ever sheds: every
  // post-warmup rate stays 1.0, no uncontrolled drops, and the accounting
  // stays inside loose structural bands.
  auto pipeline = PipelineBuilder()
                      .Oracle(core::OracleKind::kMeasured)
                      .CyclesPerBin(1e12)
                      .Threads(4)
                      .BuildUnique();
  for (const auto& name : EquivalenceQueries()) {
    pipeline->AddQuery(name);
  }
  pipeline->Push(EquivalenceTrace());
  pipeline->Finish();
  EXPECT_EQ(pipeline->total_dropped(), 0u);
  EXPECT_EQ(pipeline->total_packets(), EquivalenceTrace().packets.size());
  const auto& log = pipeline->log();
  ASSERT_FALSE(log.empty());
  // Warm-up: the cost models need SystemConfig::warmup_observations bins.
  const size_t warmup = core::SystemConfig{}.warmup_observations;
  for (size_t b = 0; b < log.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    EXPECT_FALSE(log[b].batch_dropped);
    EXPECT_GE(log[b].query_cycles, 0.0);
    for (size_t q = 0; q < log[b].rate.size(); ++q) {
      EXPECT_GE(log[b].rate[q], 0.0);
      EXPECT_LE(log[b].rate[q], 1.0);
      if (b >= warmup) {
        EXPECT_EQ(log[b].rate[q], 1.0) << "query " << q;
      }
    }
  }
  for (size_t q = 0; q < pipeline->num_queries(); ++q) {
    const double accuracy = pipeline->MeanAccuracyAt(q);
    EXPECT_GE(accuracy, 0.0) << "query " << q;
    EXPECT_LE(accuracy, 1.0) << "query " << q;
  }
}

}  // namespace
}  // namespace shedmon
