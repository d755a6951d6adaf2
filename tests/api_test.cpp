// shedmon::Pipeline facade tests: the golden equivalence suite (a
// Pipeline-driven run produces field-exact BinLogs and accuracies vs. the
// pre-refactor batch path, serial and threaded, including mid-run query
// arrivals), QueryHandle add/remove semantics, observer ordering on the
// coordinator thread at any thread count, and the CSV/JSONL sinks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/api/config.h"
#include "src/api/pipeline.h"
#include "src/api/run.h"
#include "src/api/sinks.h"
#include "src/core/runner.h"
#include "src/features/extractor.h"
#include "src/obs/prometheus.h"
#include "src/obs/snapshot.h"
#include "src/predict/predictors.h"
#include "src/query/queries.h"
#include "src/rt/governor.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "tests/temp_path.h"

namespace shedmon {
namespace {

const trace::Trace& SharedTrace() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::CescaII();
    spec.duration_s = 3.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  return trace;
}

// One golden run's configuration: the system, its oracle and the query
// roster (explicit per-query configs, else the default min-rate policy).
struct GoldenSpec {
  core::SystemConfig system;
  core::OracleKind oracle = core::OracleKind::kModel;
  std::vector<std::string> query_names;
  std::vector<core::QueryConfig> query_configs;
  bool use_default_min_rates = true;
};

// The golden run's system plus the reference (unsampled) instances its
// accuracies are measured against, summarized independently of the facade.
struct GoldenRun {
  std::unique_ptr<core::MonitoringSystem> system;
  std::vector<std::unique_ptr<query::Query>> reference;

  query::AccuracyRow Accuracy(size_t i) const {
    return query::SummarizeAccuracy(system->query(i), *reference[i]);
  }
  double MeanAccuracy(size_t i) const {
    return std::clamp(1.0 - Accuracy(i).mean_error, 0.0, 1.0);
  }
  double AverageAccuracy() const {
    double sum = 0.0;
    for (size_t i = 0; i < system->num_queries(); ++i) {
      sum += MeanAccuracy(i);
    }
    return system->num_queries() == 0 ? 0.0 : sum / static_cast<double>(system->num_queries());
  }
  double MinimumAccuracy() const {
    double min = 1.0;
    for (size_t i = 0; i < system->num_queries(); ++i) {
      min = std::min(min, MeanAccuracy(i));
    }
    return min;
  }
};

// The pre-refactor batch runner, replicated verbatim (modulo the serial
// reference helper): the golden batch path every Pipeline run must
// reproduce bit for bit. Kept in the test so the facade can never drift from
// the historical semantics unnoticed.
GoldenRun GoldenRunSystemOnTrace(const GoldenSpec& spec, const trace::Trace& trace) {
  GoldenRun result;
  result.system =
      std::make_unique<core::MonitoringSystem>(spec.system, core::MakeOracle(spec.oracle));
  for (size_t i = 0; i < spec.query_names.size(); ++i) {
    core::QueryConfig qc;
    if (i < spec.query_configs.size()) {
      qc = spec.query_configs[i];
    } else if (spec.use_default_min_rates) {
      qc.min_sampling_rate = core::DefaultMinRate(spec.query_names[i]);
    }
    result.system->AddQuery(query::MakeQuery(spec.query_names[i]), qc);
  }

  trace::Batcher batcher(trace, spec.system.time_bin_us);
  trace::Batch batch;
  while (batcher.Next(batch)) {
    result.system->ProcessBatch(batch);
  }
  result.system->Finish();

  result.reference = query::RunReference(spec.query_names, trace, spec.system.time_bin_us);
  return result;
}

void ExpectBinLogsIdentical(const std::vector<core::BinLog>& golden,
                            const std::vector<core::BinLog>& actual) {
  ASSERT_EQ(golden.size(), actual.size());
  for (size_t b = 0; b < golden.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    const core::BinLog& g = golden[b];
    const core::BinLog& a = actual[b];
    EXPECT_EQ(g.start_us, a.start_us);
    EXPECT_EQ(g.packets_in, a.packets_in);
    EXPECT_EQ(g.packets_dropped, a.packets_dropped);
    EXPECT_EQ(g.packets_unsampled, a.packets_unsampled);
    EXPECT_EQ(g.batch_dropped, a.batch_dropped);
    EXPECT_EQ(g.overload, a.overload);
    EXPECT_EQ(g.predicted_cycles, a.predicted_cycles);
    EXPECT_EQ(g.avail_cycles, a.avail_cycles);
    EXPECT_EQ(g.query_cycles, a.query_cycles);
    EXPECT_EQ(g.ps_cycles, a.ps_cycles);
    EXPECT_EQ(g.ls_cycles, a.ls_cycles);
    EXPECT_EQ(g.como_cycles, a.como_cycles);
    EXPECT_EQ(g.backlog_cycles, a.backlog_cycles);
    EXPECT_EQ(g.rtthresh, a.rtthresh);
    EXPECT_EQ(g.rate, a.rate);
    EXPECT_EQ(g.per_query_cycles, a.per_query_cycles);
    EXPECT_EQ(g.disabled, a.disabled);
    EXPECT_EQ(g.degradation, a.degradation);
    EXPECT_EQ(g.deadline_missed, a.deadline_missed);
    EXPECT_EQ(g.deadline_overrun_us, a.deadline_overrun_us);
  }
}

GoldenSpec SpecFor(const std::vector<std::string>& names, core::ShedderKind shedder,
                   shed::StrategyKind strategy, bool custom, size_t threads) {
  GoldenSpec spec;
  spec.system.shedder = shedder;
  spec.system.strategy = strategy;
  spec.system.enable_custom_shedding = custom;
  spec.system.num_threads = threads;
  spec.system.cycles_per_bin =
      0.5 * core::MeasureMeanDemand(names, SharedTrace(), core::OracleKind::kModel);
  spec.query_names = names;
  return spec;
}

// A builder configured like `spec` (system, oracle, min-rate policy); the
// caller registers the queries so it holds their handles.
api::PipelineBuilder BuilderFor(const GoldenSpec& spec) {
  api::PipelineBuilder builder;
  builder.Config(spec.system).Oracle(spec.oracle).DefaultMinRates(spec.use_default_min_rates);
  return builder;
}

// ---------------------------------------------------------------------------
// Golden equivalence: Pipeline vs pre-refactor batch path
// ---------------------------------------------------------------------------

struct GoldenCase {
  std::string label;
  std::vector<std::string> names;
  core::ShedderKind shedder = core::ShedderKind::kPredictive;
  shed::StrategyKind strategy = shed::StrategyKind::kMmfsPkt;
  bool custom = false;
};

class PipelineGolden : public ::testing::TestWithParam<std::tuple<GoldenCase, size_t>> {};

TEST_P(PipelineGolden, BinLogsAndAccuraciesMatchPreRefactorPath) {
  const auto& [config, threads] = GetParam();
  const GoldenSpec spec =
      SpecFor(config.names, config.shedder, config.strategy, config.custom, threads);

  const GoldenRun golden = GoldenRunSystemOnTrace(spec, SharedTrace());

  auto pipeline = BuilderFor(spec).BuildUnique();
  std::vector<api::QueryHandle> handles;
  for (const auto& name : config.names) {
    handles.push_back(pipeline->AddQuery(name));
  }
  pipeline->Push(SharedTrace());
  pipeline->Finish();

  EXPECT_EQ(golden.system->total_packets(), pipeline->total_packets());
  EXPECT_EQ(golden.system->total_dropped(), pipeline->total_dropped());
  ExpectBinLogsIdentical(golden.system->log(), pipeline->log());
  for (size_t q = 0; q < config.names.size(); ++q) {
    SCOPED_TRACE(config.names[q]);
    const query::AccuracyRow want = golden.Accuracy(q);
    const query::AccuracyRow live = handles[q].Accuracy();
    EXPECT_EQ(want.mean_error, live.mean_error);
    EXPECT_EQ(want.stdev_error, live.stdev_error);
    EXPECT_EQ(golden.MeanAccuracy(q), handles[q].MeanAccuracy());
  }
  EXPECT_EQ(golden.AverageAccuracy(), pipeline->AverageAccuracy());
  EXPECT_EQ(golden.MinimumAccuracy(), pipeline->MinimumAccuracy());
}

INSTANTIATE_TEST_SUITE_P(
    ShedderStrategySweep, PipelineGolden,
    ::testing::Combine(
        ::testing::Values(
            GoldenCase{"predictive_mmfs_pkt",
                       {"counter", "flows", "top-k"},
                       core::ShedderKind::kPredictive,
                       shed::StrategyKind::kMmfsPkt,
                       false},
            GoldenCase{"predictive_eq_srates",
                       {"counter", "flows"},
                       core::ShedderKind::kPredictive,
                       shed::StrategyKind::kEqSrates,
                       false},
            GoldenCase{"reactive",
                       {"counter", "flows"},
                       core::ShedderKind::kReactive,
                       shed::StrategyKind::kEqSrates,
                       false},
            GoldenCase{"no_shed",
                       {"counter", "flows"},
                       core::ShedderKind::kNoShed,
                       shed::StrategyKind::kEqSrates,
                       false},
            GoldenCase{"predictive_custom",
                       {"high-watermark", "p2p-detector", "counter"},
                       core::ShedderKind::kPredictive,
                       shed::StrategyKind::kMmfsPkt,
                       true}),
        ::testing::Values(size_t{0}, size_t{2}, size_t{4})),
    [](const auto& info) {
      return std::get<0>(info.param).label + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

// Mid-run query arrival (Fig. 6.9 shape): golden = manual batch loop adding
// a query between two ProcessBatch calls; pipeline = AdvanceTime + AddQuery
// at the same bin boundary while pushing raw packets.
TEST(PipelineGoldenArrival, MidRunAddQueryMatchesManualBatchLoop) {
  const std::vector<std::string> initial = {"counter", "flows"};
  const std::string arrival = "top-k";
  constexpr uint64_t kBinUs = 100'000;
  constexpr size_t kArrivalBin = 12;
  const double demand =
      core::MeasureMeanDemand({"counter", "flows", "top-k"}, SharedTrace(),
                              core::OracleKind::kModel);

  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::SystemConfig cfg;
    cfg.shedder = core::ShedderKind::kPredictive;
    cfg.strategy = shed::StrategyKind::kMmfsPkt;
    cfg.cycles_per_bin = 0.5 * demand;
    cfg.num_threads = threads;

    // Golden: the manual loop the fig6.9 driver used before the facade.
    core::MonitoringSystem golden(cfg, core::MakeOracle(core::OracleKind::kModel));
    for (const auto& name : initial) {
      golden.AddQuery(query::MakeQuery(name), {core::DefaultMinRate(name), true});
    }
    trace::Batcher batcher(SharedTrace(), kBinUs);
    trace::Batch batch;
    size_t bin = 0;
    while (batcher.Next(batch)) {
      if (bin == kArrivalBin) {
        golden.AddQuery(query::MakeQuery(arrival), {core::DefaultMinRate(arrival), true});
      }
      golden.ProcessBatch(batch);
      ++bin;
    }
    golden.Finish();
    ASSERT_GT(bin, kArrivalBin) << "trace too short for the arrival scenario";

    // Facade: push packets, sequence the arrival with AdvanceTime.
    auto pipeline = api::PipelineBuilder().Config(cfg).BuildUnique();
    for (const auto& name : initial) {
      pipeline->AddQuery(name);
    }
    bool added = false;
    for (const net::PacketRecord& packet : SharedTrace().packets) {
      if (!added && packet.ts_us >= kArrivalBin * kBinUs) {
        pipeline->AdvanceTime(kArrivalBin * kBinUs);
        pipeline->AddQuery(arrival);
        added = true;
      }
      pipeline->Push(net::Packet::View(packet));
    }
    pipeline->Finish();
    ASSERT_TRUE(added);

    EXPECT_EQ(golden.total_packets(), pipeline->total_packets());
    EXPECT_EQ(golden.total_dropped(), pipeline->total_dropped());
    ExpectBinLogsIdentical(golden.log(), pipeline->log());
    // The late query's results match too: compare against a fresh reference
    // run of the same post-arrival stream the golden system saw.
    EXPECT_EQ(golden.num_queries(), pipeline->num_queries());
    for (size_t q = 0; q < golden.num_queries(); ++q) {
      EXPECT_EQ(golden.query(q).completed_intervals(),
                pipeline->system().query(q).completed_intervals());
      EXPECT_EQ(golden.query(q).work_units(), pipeline->system().query(q).work_units());
    }
  }
}

// ---------------------------------------------------------------------------
// Push ingestion semantics
// ---------------------------------------------------------------------------

TEST(PipelinePush, PacketViewSpansMatchRecordPush) {
  const GoldenSpec spec = SpecFor({"counter", "pattern-search"}, core::ShedderKind::kPredictive,
                                  shed::StrategyKind::kMmfsPkt, false, 0);

  auto by_record = BuilderFor(spec).BuildUnique();
  by_record->AddQuery("counter");
  by_record->AddQuery("pattern-search");
  by_record->Push(SharedTrace());
  by_record->Finish();

  // Same traffic, ingested as materialized Packet views batch by batch (the
  // shape a live capture path would use); payload bytes are copied.
  auto by_view = BuilderFor(spec).BuildUnique();
  by_view->AddQuery("counter");
  by_view->AddQuery("pattern-search");
  trace::Batcher batcher(SharedTrace(), spec.system.time_bin_us);
  trace::Batch batch;
  while (batcher.Next(batch)) {
    by_view->Push(std::span<const net::Packet>(batch.packets));
    // Recycling the batch right after Push must be safe: views were copied.
  }
  by_view->Finish();

  ExpectBinLogsIdentical(by_record->log(), by_view->log());
}

TEST(PipelinePush, RejectsPacketsOlderThanTheOpenBin) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  net::PacketRecord record;
  record.ts_us = 250'000;
  pipeline->Push(net::Packet::View(record));
  net::PacketRecord late;
  late.ts_us = 90'000;  // bin 0, but bin 2 is open
  EXPECT_THROW(pipeline->Push(net::Packet::View(late)), std::invalid_argument);
  // Same-bin and later packets still flow.
  record.ts_us = 260'000;
  pipeline->Push(net::Packet::View(record));
  pipeline->Finish();
  EXPECT_EQ(pipeline->bins_processed(), 3u);
}

TEST(PipelinePush, AdvanceTimeClosesEmptyBins) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AdvanceTime(500'000);  // five empty bins
  EXPECT_EQ(pipeline->bins_processed(), 5u);
  for (const auto& bin : pipeline->log()) {
    EXPECT_EQ(bin.packets_in, 0u);
  }
  pipeline->Finish();
  EXPECT_EQ(pipeline->bins_processed(), 5u);  // Finish adds no empty bin
}

TEST(PipelinePush, FinishIsIdempotentAndClosesThePipeline) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  net::PacketRecord record;
  record.ts_us = 10;
  pipeline->Push(net::Packet::View(record));
  pipeline->Finish();
  EXPECT_EQ(pipeline->bins_processed(), 1u);
  pipeline->Finish();  // no-op
  EXPECT_EQ(pipeline->bins_processed(), 1u);
  EXPECT_TRUE(pipeline->finished());
  EXPECT_THROW(pipeline->Push(net::Packet::View(record)), std::logic_error);
  EXPECT_THROW(pipeline->AddQuery("flows"), std::logic_error);
}

// ---------------------------------------------------------------------------
// QueryHandle lifecycle: mid-run add, remove/detach, stable handles
// ---------------------------------------------------------------------------

TEST(PipelineHandles, DetachReturnsQueryAndReferenceAndInvalidatesHandle) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  api::QueryHandle flows = pipeline->AddQuery("flows");
  ASSERT_TRUE(counter.valid());
  EXPECT_EQ(counter.index(), 0u);
  EXPECT_EQ(flows.index(), 1u);

  // Run a little over both queries, then detach the first mid-run.
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 15 * 100'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->AdvanceTime(15 * 100'000);
  ASSERT_EQ(pipeline->bins_processed(), 15u);

  api::DetachedQuery detached = pipeline->Detach(counter);
  ASSERT_NE(detached.query, nullptr);
  ASSERT_NE(detached.reference, nullptr);
  EXPECT_EQ(detached.query->name(), "counter");
  EXPECT_FALSE(counter.valid());
  EXPECT_THROW(counter.query(), std::logic_error);
  EXPECT_THROW(pipeline->Detach(counter), std::logic_error);

  // The surviving handle shifted down but still addresses its query.
  EXPECT_TRUE(flows.valid());
  EXPECT_EQ(flows.index(), 0u);
  EXPECT_EQ(flows.name(), "flows");
  EXPECT_EQ(pipeline->num_queries(), 1u);

  // Later bins are sized for the remaining query only.
  pipeline->AdvanceTime(20 * 100'000);
  pipeline->Finish();
  EXPECT_EQ(pipeline->log().back().rate.size(), 1u);
  // The detached pair still yields the standard accuracy summary.
  const auto row = query::SummarizeAccuracy(*detached.query, *detached.reference);
  EXPECT_GE(row.mean_error, 0.0);
  EXPECT_TRUE(flows.has_reference());
  EXPECT_GE(flows.Accuracy().mean_error, 0.0);
}

TEST(PipelineHandles, RemovedQueryStopsAffectingTheRun) {
  // A pipeline where the expensive query leaves matches a fresh system that
  // continues with the survivor's state — we can't replay history, but the
  // column count and rate allocation must reflect the removal immediately.
  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  api::QueryHandle pattern = pipeline->AddQuery("pattern-search");
  pipeline->AdvanceTime(10 * 100'000);
  EXPECT_EQ(pipeline->log().back().rate.size(), 2u);
  pipeline->Remove(pattern);
  pipeline->AdvanceTime(12 * 100'000);
  pipeline->Finish();
  EXPECT_EQ(pipeline->log().back().rate.size(), 1u);
  EXPECT_FALSE(pattern.valid());
  EXPECT_TRUE(counter.valid());
}

TEST(PipelineHandles, UserQueryWithoutReferenceHasNoAccuracy) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle custom =
      pipeline->AddQuery(std::make_unique<query::CounterQuery>(), {0.1, true});
  EXPECT_FALSE(custom.has_reference());
  EXPECT_THROW(custom.Accuracy(), std::logic_error);
  EXPECT_THROW((void)pipeline->AddQuery(std::unique_ptr<query::Query>()),
               std::invalid_argument);
}

TEST(PipelineHandles, TrackAccuracyOffSkipsReferences) {
  auto pipeline = api::PipelineBuilder().TrackAccuracy(false).BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  EXPECT_FALSE(counter.has_reference());
  EXPECT_THROW(counter.Accuracy(), std::logic_error);
  EXPECT_EQ(pipeline->AverageAccuracy(), 0.0);
}

TEST(PipelineHandles, UnattachedAndReleasedHandlesThrowInsteadOfCrashing) {
  api::QueryHandle unattached;
  EXPECT_FALSE(unattached.valid());
  EXPECT_THROW(unattached.index(), std::logic_error);
  EXPECT_THROW(unattached.name(), std::logic_error);
  EXPECT_THROW(unattached.query(), std::logic_error);
  EXPECT_THROW(unattached.reference(), std::logic_error);
  EXPECT_THROW(unattached.Accuracy(), std::logic_error);

  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  const api::QueryHandle copy = counter;
  (void)pipeline->Detach(counter);
  for (const api::QueryHandle& stale : {counter, copy}) {
    EXPECT_FALSE(stale.valid());
    EXPECT_THROW(stale.index(), std::logic_error);
    EXPECT_THROW(stale.query(), std::logic_error);
    EXPECT_THROW(stale.name(), std::logic_error);
    EXPECT_THROW(stale.reference(), std::logic_error);
    EXPECT_THROW(stale.Accuracy(), std::logic_error);
  }
  EXPECT_THROW(pipeline->Detach(counter), std::logic_error);
}

TEST(PipelineHandles, ZeroTimeBinIsRejectedAtBuild) {
  EXPECT_THROW(api::PipelineBuilder().TimeBin(0).BuildUnique(), std::invalid_argument);
  core::SystemConfig config;
  config.time_bin_us = 0;
  EXPECT_THROW(api::PipelineBuilder().Config(config).BuildUnique(), std::invalid_argument);
}

TEST(PipelineHandles, ReAddedDetachedQueryIsChargedOnlyForNewWork) {
  // The oracle charges the delta of the query's lifetime work counter. A
  // detached instance that re-joins must be re-baselined (not charged its
  // whole history), and its old baseline must not linger for whatever
  // allocation reuses the address (CostOracle::OnQueryAdded/OnQueryRemoved).
  auto pipeline = api::PipelineBuilder().Shedder(core::ShedderKind::kNoShed).BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 100'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->AdvanceTime(100'000);
  const double first_charge = pipeline->log()[0].per_query_cycles[0];
  ASSERT_GT(first_charge, 0.0);

  api::DetachedQuery detached = pipeline->Detach(counter);
  api::QueryHandle back = pipeline->AddQuery(std::move(detached.query), {},
                                             std::move(detached.reference));
  // Replay the same packets one bin later: same work, so the charge must be
  // within the oracle's +/-1% pseudo-noise of the first bin — not doubled by
  // the instance's pre-detach history.
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 100'000) {
      break;
    }
    net::PacketRecord shifted = packet;
    shifted.ts_us += 100'000;
    pipeline->Push(net::Packet::View(shifted));
  }
  pipeline->AdvanceTime(200'000);
  pipeline->Finish();
  const double second_charge = pipeline->log()[1].per_query_cycles[back.index()];
  EXPECT_NEAR(second_charge, first_charge, 0.05 * first_charge);
}

// ---------------------------------------------------------------------------
// Observer dispatch: coordinator thread, bin order, at any thread count
// ---------------------------------------------------------------------------

class RecordingObserver : public api::BinObserver {
 public:
  void OnBin(const core::BinLog& log, const api::BinStats& stats) override {
    bins.push_back(stats.bin_index);
    start_us.push_back(log.start_us);
    num_queries.push_back(stats.num_queries);
    threads.push_back(std::this_thread::get_id());
    names.emplace_back(stats.query_names.begin(), stats.query_names.end());
  }
  void OnRunEnd() override { ++run_ends; }

  std::vector<size_t> bins;
  std::vector<uint64_t> start_us;
  std::vector<size_t> num_queries;
  std::vector<std::thread::id> threads;
  std::vector<std::vector<std::string>> names;
  int run_ends = 0;
};

TEST(PipelineApi, ObserversFireOnCoordinatorThreadInBinOrder) {
  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto pipeline = api::PipelineBuilder().Threads(threads).BuildUnique();
    pipeline->AddQuery("counter");
    pipeline->AddQuery("flows");
    RecordingObserver recorder;
    pipeline->AddObserver(&recorder);
    pipeline->Push(SharedTrace());
    pipeline->Finish();

    ASSERT_EQ(recorder.bins.size(), pipeline->bins_processed());
    for (size_t b = 0; b < recorder.bins.size(); ++b) {
      EXPECT_EQ(recorder.bins[b], b);
      EXPECT_EQ(recorder.start_us[b], b * pipeline->time_bin_us());
      EXPECT_EQ(recorder.threads[b], std::this_thread::get_id());
    }
    EXPECT_EQ(recorder.run_ends, 1);
  }
}

TEST(PipelineApi, ObserverSeesArrivalsAndRemovalsInStats) {
  auto pipeline = api::PipelineBuilder().BuildUnique();
  api::QueryHandle counter = pipeline->AddQuery("counter");
  RecordingObserver recorder;
  pipeline->AddObserver(&recorder);

  pipeline->AdvanceTime(2 * 100'000);  // bins 0-1: one query
  pipeline->AddQuery("flows");
  pipeline->AdvanceTime(4 * 100'000);  // bins 2-3: two queries
  pipeline->Remove(counter);
  pipeline->AdvanceTime(5 * 100'000);  // bin 4: flows only
  pipeline->Finish();

  ASSERT_EQ(recorder.num_queries.size(), 5u);
  EXPECT_EQ(recorder.num_queries, (std::vector<size_t>{1, 1, 2, 2, 1}));
  EXPECT_EQ(recorder.names[0], (std::vector<std::string>{"counter"}));
  EXPECT_EQ(recorder.names[2], (std::vector<std::string>{"counter", "flows"}));
  EXPECT_EQ(recorder.names[4], (std::vector<std::string>{"flows"}));
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (const char c : text) {
    lines += c == '\n' ? 1 : 0;
  }
  return lines;
}

TEST(PipelineSinks, CsvSinkWritesHeaderAndOneRowPerBin) {
  std::ostringstream out;
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddObserver(std::make_unique<api::CsvBinSink>(out));
  pipeline->AdvanceTime(3 * 100'000);
  pipeline->Finish();

  const std::string text = out.str();
  EXPECT_EQ(CountLines(text), 4u);  // header + 3 bins
  EXPECT_EQ(text.rfind("bin,start_us,num_queries", 0), 0u);
}

TEST(PipelineSinks, JsonlSinkWritesOneObjectPerBinWithPerQueryArrays) {
  std::ostringstream out;
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddQuery("flows");
  pipeline->AddObserver(std::make_unique<api::JsonlBinSink>(out));
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 2 * 100'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->AdvanceTime(2 * 100'000);
  pipeline->Finish();

  const std::string text = out.str();
  EXPECT_EQ(CountLines(text), 2u);
  EXPECT_NE(text.find("\"bin\":0"), std::string::npos);
  EXPECT_NE(text.find("\"queries\":[\"counter\",\"flows\"]"), std::string::npos);
  EXPECT_NE(text.find("\"rate\":["), std::string::npos);
  EXPECT_EQ(text.find('\t'), std::string::npos);
}

// The rows the sinks wrote when they formatted through a std::ostream, kept
// as the byte-for-byte reference for their to_chars formatting.
std::string StreamCsvRow(const core::BinLog& log, const api::BinStats& stats) {
  std::ostringstream row;
  row << stats.bin_index << ',' << log.start_us << ',' << stats.num_queries << ','
      << log.packets_in << ',' << log.packets_dropped << ',' << log.packets_unsampled << ','
      << (log.batch_dropped ? 1 : 0) << ',' << (log.overload ? 1 : 0) << ','
      << log.predicted_cycles << ',' << log.avail_cycles << ',' << log.query_cycles << ','
      << log.ps_cycles << ',' << log.ls_cycles << ',' << log.como_cycles << ','
      << log.backlog_cycles << ',' << log.rtthresh << ',' << stats.utilization << ','
      << stats.drop_fraction << ',' << stats.shed_fraction << ','
      << static_cast<int>(log.degradation) << ',' << rt::DegradeActionName(log.degradation) << ','
      << (log.deadline_missed ? 1 : 0) << ',' << log.deadline_overrun_us << '\n';
  return row.str();
}

std::string StreamJsonlRow(const core::BinLog& log, const api::BinStats& stats) {
  std::ostringstream out;
  out << "{\"bin\":" << stats.bin_index << ",\"start_us\":" << log.start_us
      << ",\"packets_in\":" << log.packets_in << ",\"packets_dropped\":" << log.packets_dropped
      << ",\"packets_unsampled\":" << log.packets_unsampled
      << ",\"batch_dropped\":" << (log.batch_dropped ? "true" : "false")
      << ",\"overload\":" << (log.overload ? "true" : "false")
      << ",\"predicted_cycles\":" << log.predicted_cycles
      << ",\"avail_cycles\":" << log.avail_cycles << ",\"query_cycles\":" << log.query_cycles
      << ",\"ps_cycles\":" << log.ps_cycles << ",\"ls_cycles\":" << log.ls_cycles
      << ",\"como_cycles\":" << log.como_cycles << ",\"backlog_cycles\":" << log.backlog_cycles
      << ",\"utilization\":" << stats.utilization
      << ",\"degradation\":" << static_cast<int>(log.degradation) << ",\"degradation_rung\":\""
      << rt::DegradeActionName(log.degradation)
      << "\",\"deadline_missed\":" << (log.deadline_missed ? "true" : "false")
      << ",\"deadline_overrun_us\":" << log.deadline_overrun_us << ",\"queries\":[";
  for (size_t q = 0; q < stats.query_names.size(); ++q) {
    out << (q > 0 ? "," : "") << '"' << stats.query_names[q] << '"';
  }
  out << "],\"rate\":[";
  for (size_t q = 0; q < log.rate.size(); ++q) {
    out << (q > 0 ? "," : "") << log.rate[q];
  }
  out << "],\"per_query_cycles\":[";
  for (size_t q = 0; q < log.per_query_cycles.size(); ++q) {
    out << (q > 0 ? "," : "") << log.per_query_cycles[q];
  }
  out << "],\"disabled\":[";
  for (size_t q = 0; q < log.disabled.size(); ++q) {
    out << (q > 0 ? "," : "") << (log.disabled[q] ? "true" : "false");
  }
  out << "]}\n";
  return out.str();
}

TEST(PipelineSinks, RowsFormatNumbersLikeAStream) {
  // Every double field takes every awkward value in turn: signed zeros, the
  // smallest subnormal, exponent-form magnitudes, a value above 2^53,
  // infinities, NaNs, and ordinary fractions that %g rounds.
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           1e21,
                           9007199254740993.0,  // 2^53 + 1, rounded to a double
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           1234.56789,
                           1e-5,
                           0.1,
                           123456.5,
                           1e16};
  const size_t n = std::size(values);
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  api::CsvBinSink csv(csv_out);
  api::JsonlBinSink jsonl(jsonl_out);
  std::string csv_want =
      "bin,start_us,num_queries,packets_in,packets_dropped,packets_unsampled,"
      "batch_dropped,overload,predicted_cycles,avail_cycles,query_cycles,ps_cycles,"
      "ls_cycles,como_cycles,backlog_cycles,rtthresh,utilization,drop_fraction,"
      "shed_fraction,degradation,degradation_rung,deadline_missed,deadline_overrun_us\n";
  std::string jsonl_want;
  for (size_t row = 0; row < n; ++row) {
    auto v = [&](size_t field) { return values[(row + field) % n]; };
    core::BinLog log;
    log.start_us = 18'446'744'073'709'551'615ull - row;
    log.packets_in = row * 1000;
    log.packets_dropped = row;
    log.packets_unsampled = v(0);
    log.batch_dropped = row % 2 == 0;
    log.overload = row % 3 == 0;
    log.predicted_cycles = v(1);
    log.avail_cycles = v(2);
    log.query_cycles = v(3);
    log.ps_cycles = v(4);
    log.ls_cycles = v(5);
    log.como_cycles = v(6);
    log.backlog_cycles = v(7);
    log.rtthresh = v(8);
    log.degradation = static_cast<uint8_t>(row % 5);
    log.deadline_missed = row % 4 == 1;
    log.deadline_overrun_us = v(9);
    log.rate = {v(10), v(11)};
    log.per_query_cycles = {v(12), v(13)};
    log.disabled = {row % 2 == 1, false};
    api::BinStats stats;
    stats.bin_index = row;
    stats.num_queries = 2;
    stats.utilization = v(10);
    stats.drop_fraction = v(11);
    stats.shed_fraction = v(12);
    stats.query_names = {"counter", "top-k"};
    csv.OnBin(log, stats);
    jsonl.OnBin(log, stats);
    csv_want += StreamCsvRow(log, stats);
    jsonl_want += StreamJsonlRow(log, stats);
  }
  csv.OnRunEnd();
  jsonl.OnRunEnd();
  EXPECT_EQ(csv_out.str(), csv_want);
  EXPECT_EQ(jsonl_out.str(), jsonl_want);
}

TEST(PipelineSinks, FileSinkThrowsOnUnwritablePath) {
  EXPECT_THROW(api::CsvBinSink("/nonexistent-dir/x.csv"), std::runtime_error);
  EXPECT_THROW(api::JsonlBinSink("/nonexistent-dir/x.jsonl"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// api::RunPipelineGrid
// ---------------------------------------------------------------------------

TEST(PipelineApi, RunPipelineGridMatchesSerialCells) {
  const std::vector<std::string> names = {"counter", "flows"};
  const double demand =
      core::MeasureMeanDemand(names, SharedTrace(), core::OracleKind::kModel);
  // Cells are distinguished by capacity so the cell -> result mapping is
  // observable.
  const auto capacity = [&](size_t cell) {
    return (0.3 + 0.2 * static_cast<double>(cell)) * demand;
  };
  const auto make_builder = [&](size_t cell) {
    api::PipelineBuilder builder;
    builder.CyclesPerBin(capacity(cell)).AddQuery(names[0]).AddQuery(names[1]);
    return builder;
  };
  const auto serial = api::RunPipelineGrid(3, make_builder, SharedTrace(), nullptr);
  exec::ThreadPool pool(3);
  const auto parallel = api::RunPipelineGrid(3, make_builder, SharedTrace(), &pool);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(serial[i]->system().capacity(), capacity(i));
    EXPECT_EQ(parallel[i]->system().capacity(), capacity(i));
    ExpectBinLogsIdentical(serial[i]->log(), parallel[i]->log());
    EXPECT_EQ(serial[i]->AverageAccuracy(), parallel[i]->AverageAccuracy());
  }
}

// ---------------------------------------------------------------------------
// Eager builder validation: Build() rejects bad configs with ConfigError
// ---------------------------------------------------------------------------

TEST(PipelineValidation, RejectsOutOfRangeSystemKnobs) {
  using B = api::PipelineBuilder;
  EXPECT_THROW(B().TimeBin(0).Build(), ConfigError);
  EXPECT_THROW(B().CyclesPerBin(-1.0).Build(), ConfigError);
  EXPECT_THROW(B().BufferBins(0.0).Build(), ConfigError);
  EXPECT_THROW(B().BufferBins(-2.0).Build(), ConfigError);

  core::SystemConfig config;
  config.ewma_alpha = 0.0;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.ewma_alpha = 1.5;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.como_overhead_fraction = 1.0;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.bootstrap_rate = -0.1;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.reactive_min_rate = 2.0;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
  config = {};
  config.system_interval_bins = 0;
  EXPECT_THROW(B().Config(config).Build(), ConfigError);
}

TEST(PipelineValidation, RejectsUnknownRosterEntriesAndBadMinRates) {
  EXPECT_THROW(api::PipelineBuilder().AddQuery("no-such-query").Build(), ConfigError);
  core::QueryConfig config;
  config.min_sampling_rate = 1.5;
  EXPECT_THROW(api::PipelineBuilder().AddQuery("counter", config).Build(), ConfigError);
  config.min_sampling_rate = -0.25;
  EXPECT_THROW(api::PipelineBuilder().AddQuery("counter", config).Build(), ConfigError);
}

TEST(PipelineValidation, RejectsUnwritableSinkPathsBeforeBuildingASystem) {
  EXPECT_THROW(api::PipelineBuilder().CsvTo("/nonexistent-dir/x.csv").Build(), ConfigError);
  EXPECT_THROW(api::PipelineBuilder().JsonlTo("/nonexistent-dir/x.jsonl").Build(), ConfigError);
  EXPECT_THROW(api::PipelineBuilder().LogTo("/nonexistent-dir/x.log").Build(), ConfigError);
  // Validate() alone reports the same failures without constructing anything.
  EXPECT_THROW(api::PipelineBuilder().AddQuery("no-such-query").Validate(), ConfigError);
}

TEST(PipelineValidation, RejectsABlockingIngestCap) {
  // Push cannot wait for a full open bin to drain: the pushing thread is the
  // one that closes it. Only the drop policies bound the bin.
  const auto with_cap = [](size_t cap, rt::OverflowPolicy policy) {
    return api::PipelineBuilder().AddQuery("counter").IngestCap(cap, policy);
  };
  EXPECT_THROW(with_cap(10, rt::OverflowPolicy::kBlock).Validate(), ConfigError);
  EXPECT_THROW(with_cap(10, rt::OverflowPolicy::kBlock).Build(), ConfigError);
  const std::string missing = test::TempPath("shedmon_api_test_no_checkpoint.bin");
  EXPECT_THROW(with_cap(10, rt::OverflowPolicy::kBlock).RestoreOrBuild(missing), ConfigError);
  EXPECT_NO_THROW(with_cap(0, rt::OverflowPolicy::kBlock).Validate());  // no cap, no policy
  EXPECT_NO_THROW(with_cap(10, rt::OverflowPolicy::kDropNewest).Validate());
  EXPECT_NO_THROW(with_cap(10, rt::OverflowPolicy::kDropOldest).Validate());
}

// ---------------------------------------------------------------------------
// Declarative roster, config files, Stats, metrics, event log
// ---------------------------------------------------------------------------

TEST(PipelineApi, BuilderRosterRegistersQueriesAtBuild) {
  auto pipeline =
      api::PipelineBuilder().AddQuery("counter").AddQuery("flows").BuildUnique();
  EXPECT_EQ(pipeline->num_queries(), 2u);
  pipeline->AdvanceTime(3 * 100'000);
  pipeline->Finish();
  EXPECT_EQ(pipeline->log().back().rate.size(), 2u);
}

TEST(PipelineApi, ParseConfigFileBuildsTheDescribedPipeline) {
  const std::string config_path = test::TempPath("shedmon_api_test_config.ini");
  const std::string csv_path = test::TempPath("shedmon_api_test_bins.csv");
  {
    std::ofstream file(config_path, std::ios::trunc);
    file << "# pipeline config exercised by api_test\n"
            "[system]\n"
            "time_bin_us = 100000\n"
            "cycles_per_bin = 2.5e6\n"
            "shedder = reactive\n"
            "strategy = mmfs_cpu\n"
            "seed = 7\n"
            "\n"
            "[predictor]\n"
            "kind = ewma\n"
            "ewma_alpha = 0.3\n"
            "\n"
            "[queries]\n"
            "add = counter\n"
            "add = flows\n"
            "\n"
            "[sinks]\n"
            "csv = " << csv_path << "\n";
  }
  api::PipelineBuilder builder = api::ParseConfigFile(config_path);
  EXPECT_EQ(builder.config().time_bin_us, 100'000u);
  EXPECT_EQ(builder.config().shedder, core::ShedderKind::kReactive);
  EXPECT_EQ(builder.config().strategy, shed::StrategyKind::kMmfsCpu);
  EXPECT_EQ(builder.config().seed, 7u);
  EXPECT_EQ(builder.config().predictor.kind, predict::PredictorKind::kEwma);

  // The fluent setters still apply on top of the file.
  auto pipeline = builder.Threads(0).BuildUnique();
  EXPECT_EQ(pipeline->num_queries(), 2u);
  pipeline->AdvanceTime(3 * 100'000);
  pipeline->Finish();

  std::ifstream csv(csv_path);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line.rfind("bin,start_us,num_queries", 0), 0u);
  std::remove(config_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(PipelineApi, ConfigParserRejectsUnknownKeysWithTheOffendingLine) {
  std::istringstream bad("[system]\nbogus_key = 1\n");
  try {
    (void)api::ParseConfig(bad, "test.ini");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("test.ini:2"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("bogus_key"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The config schema: one key table behind config files and CLI flags
// ---------------------------------------------------------------------------

enum class SampleKind { kEnum, kNumber, kBool, kText };

struct KeySample {
  std::string value;  // accepted by the key
  SampleKind kind;
};

// One valid value per schema key. A key added to the table without a sample
// here fails ConfigSchema.EveryKeyHasASample, so every key gets the parity
// and rejection checks below.
std::map<std::string, KeySample> KeySamples() {
  return {
      {"system.time_bin_us", {"50000", SampleKind::kNumber}},
      {"system.cycles_per_bin", {"2.5e6", SampleKind::kNumber}},
      {"system.shedder", {"reactive", SampleKind::kEnum}},
      {"system.strategy", {"mmfs_cpu", SampleKind::kEnum}},
      {"system.threads", {"2", SampleKind::kNumber}},
      {"system.seed", {"7", SampleKind::kNumber}},
      {"system.buffer_bins", {"3", SampleKind::kNumber}},
      {"system.ewma_alpha", {"0.5", SampleKind::kNumber}},
      {"system.como_overhead", {"0.1", SampleKind::kNumber}},
      {"system.custom_shedding", {"true", SampleKind::kBool}},
      {"system.oracle", {"measured", SampleKind::kEnum}},
      {"system.track_accuracy", {"false", SampleKind::kBool}},
      {"system.default_min_rates", {"off", SampleKind::kBool}},
      {"predictor.kind", {"ewma", SampleKind::kEnum}},
      {"predictor.history", {"30", SampleKind::kNumber}},
      {"predictor.fcbf_threshold", {"0.5", SampleKind::kNumber}},
      {"predictor.ewma_alpha", {"0.4", SampleKind::kNumber}},
      {"queries.add", {"counter,flows", SampleKind::kText}},
      {"sinks.csv", {test::TempPath("shedmon_schema.csv"), SampleKind::kText}},
      {"sinks.jsonl", {test::TempPath("shedmon_schema.jsonl"), SampleKind::kText}},
      {"sinks.log", {test::TempPath("shedmon_schema.log"), SampleKind::kText}},
      {"rt.deadline", {"0.5", SampleKind::kNumber}},
      {"rt.ingest_cap", {"3", SampleKind::kNumber}},
      {"rt.ingest_policy", {"drop-oldest", SampleKind::kEnum}},
      {"rt.fault_plan", {"seed=3,sink_fail_n=1", SampleKind::kText}},
      {"rt.sink_retries", {"2", SampleKind::kNumber}},
      {"rt.checkpoint", {test::TempPath("shedmon_schema.ckpt"), SampleKind::kText}},
      {"rt.checkpoint_every", {"10", SampleKind::kNumber}},
      {"obs.serve", {"0", SampleKind::kNumber}},
  };
}

// Everything a built pipeline shows of its builder: the snapshot (system
// config, oracle, accuracy and min-rate policy, roster), the Stats, the
// armed rt/obs machinery, and the ingest bound on a one-bin burst.
std::string BuiltState(const api::PipelineBuilder& builder) {
  auto pipeline = builder.BuildUnique();
  std::ostringstream state;
  pipeline->Snapshot(state);
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 10'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->Finish();
  const api::PipelineStats stats = pipeline->Stats();
  state << '|' << stats.queries << '|' << stats.capacity << '|' << stats.ingest_dropped << '|'
        << (pipeline->governor() != nullptr) << (pipeline->fault_injector() != nullptr)
        << (pipeline->tracer() != nullptr) << (pipeline->serve_port() != 0);
  return state.str();
}

// checkpoint_every is only valid next to a checkpoint path.
api::PipelineBuilder SchemaBase() {
  return std::move(api::PipelineBuilder().Threads(1).AddQuery("counter").CheckpointTo(
      test::TempPath("shedmon_schema_base.ckpt")));
}

std::vector<api::Setting> IniSettings(const api::ConfigKey& key, const std::string& value) {
  const std::string_view name = key.name;
  std::istringstream ini("[" + std::string(name.substr(0, name.find('.'))) + "]\n" +
                         std::string(name.substr(name.find('.') + 1)) + " = " + value + "\n");
  return api::ReadConfig(ini, "t.ini");
}

TEST(ConfigSchema, EveryKeyHasASample) {
  const auto samples = KeySamples();
  for (const api::ConfigKey& key : api::ConfigKeys()) {
    EXPECT_EQ(samples.count(std::string(key.name)), 1u) << key.name;
    EXPECT_EQ(api::FindKey(key.name), &key);
    if (!key.flag.empty()) {
      EXPECT_EQ(api::FindFlag(key.flag), &key);
    }
  }
  EXPECT_EQ(samples.size(), api::ConfigKeys().size());
}

TEST(ConfigSchema, FileLineAndFlagSetTheSameBuilderState) {
  const auto samples = KeySamples();
  for (const api::ConfigKey& key : api::ConfigKeys()) {
    if (key.flag.empty()) {
      continue;
    }
    SCOPED_TRACE(std::string(key.name));
    const std::string& value = samples.at(std::string(key.name)).value;
    api::PipelineBuilder from_file = SchemaBase();
    api::ApplySettings(from_file, IniSettings(key, value));
    api::PipelineBuilder from_flag = SchemaBase();
    const api::Setting flag[] = {{&key, value, "--" + std::string(key.flag)}};
    api::ApplySettings(from_flag, flag);

    const core::SystemConfig& a = from_file.config();
    const core::SystemConfig& b = from_flag.config();
    EXPECT_EQ(a.time_bin_us, b.time_bin_us);
    EXPECT_EQ(a.cycles_per_bin, b.cycles_per_bin);
    EXPECT_EQ(a.shedder, b.shedder);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.num_threads, b.num_threads);
    EXPECT_EQ(a.enable_custom_shedding, b.enable_custom_shedding);
    EXPECT_EQ(from_file.oracle(), from_flag.oracle());
    EXPECT_EQ(from_file.query_names(), from_flag.query_names());
    EXPECT_EQ(BuiltState(from_file), BuiltState(from_flag));
  }
  for (const auto& [name, sample] : samples) {
    if (sample.kind == SampleKind::kText && name != "queries.add" && name != "rt.fault_plan") {
      std::remove(sample.value.c_str());
    }
  }
  std::remove(test::TempPath("shedmon_schema_base.ckpt").c_str());
}

TEST(ConfigSchema, RejectsUnknownNamesAndTrailingGarbageNamingTheKey) {
  for (const auto& [name, sample] : KeySamples()) {
    if (sample.kind == SampleKind::kText) {
      continue;
    }
    const api::ConfigKey& key = *api::FindKey(name);
    std::vector<std::string> bad = {"bogus"};
    if (sample.kind == SampleKind::kNumber) {
      bad.push_back(sample.value + "x");
    }
    for (const std::string& value : bad) {
      SCOPED_TRACE(name + " = '" + value + "'");
      api::PipelineBuilder builder;
      try {
        api::ApplySettings(builder, IniSettings(key, value));
        ADD_FAILURE() << "accepted";
      } catch (const ConfigError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("t.ini:2: " + name), std::string::npos) << what;
        if (sample.kind == SampleKind::kEnum) {
          // The message lists the accepted names, the sample among them.
          EXPECT_NE(what.find(sample.value), std::string::npos) << what;
        }
      }
      if (!key.flag.empty()) {
        const std::string flag = "--" + std::string(key.flag);
        const api::Setting setting[] = {{&key, value, flag}};
        try {
          api::ApplySettings(builder, setting);
          ADD_FAILURE() << "flag accepted";
        } catch (const ConfigError& error) {
          EXPECT_EQ(std::string(error.what()).rfind(flag + ": ", 0), 0u) << error.what();
        }
      }
    }
  }
}

TEST(ConfigSchema, EnumAliasesNameTheSameValue) {
  const std::pair<const char*, const char*> aliases[] = {
      {"eq", "eq_srates"}, {"cpu", "mmfs_cpu"}, {"pkt", "mmfs_pkt"}};
  for (const auto& [alias, name] : aliases) {
    api::PipelineBuilder by_alias;
    api::PipelineBuilder by_name;
    const api::Setting a[] = {{api::FindFlag("strategy"), alias, "--strategy"}};
    const api::Setting n[] = {{api::FindFlag("strategy"), name, "--strategy"}};
    api::ApplySettings(by_alias, a);
    api::ApplySettings(by_name, n);
    EXPECT_EQ(by_alias.config().strategy, by_name.config().strategy) << alias;
  }
  api::PipelineBuilder none;
  const api::Setting shedder[] = {{api::FindFlag("shedder"), "none", "--shedder"}};
  api::ApplySettings(none, shedder);
  EXPECT_EQ(none.config().shedder, core::ShedderKind::kNoShed);
}

// Each source (defaults, a config file, the command line) replaces the
// roster of the source below it; within one source, entries append.
TEST(ConfigSchema, EachSourceReplacesTheRosterBelowIt) {
  api::PipelineBuilder builder;
  const api::Setting defaults[] = {
      {api::FindKey("queries.add"), "counter,flows,application", "default"}};
  api::ApplySettings(builder, defaults);
  std::istringstream file("[queries]\nadd = flows\nadd = top-k\n");
  api::ApplySettings(builder, api::ReadConfig(file, "f.ini"));
  EXPECT_EQ(builder.query_names(), (std::vector<std::string>{"flows", "top-k"}));
  const api::Setting flags[] = {{api::FindFlag("queries"), "counter", "--queries"}};
  api::ApplySettings(builder, flags);
  EXPECT_EQ(builder.query_names(), std::vector<std::string>{"counter"});

  std::istringstream no_roster("[system]\nseed = 3\n");
  api::ApplySettings(builder, api::ReadConfig(no_roster, "g.ini"));
  EXPECT_EQ(builder.query_names(), std::vector<std::string>{"counter"});
}

TEST(PipelineApi, StatsSummarizesTheRunFromRunningTallies) {
  const GoldenSpec spec = SpecFor({"counter", "flows"}, core::ShedderKind::kPredictive,
                                  shed::StrategyKind::kMmfsPkt, false, 0);
  auto pipeline = BuilderFor(spec).BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddQuery("flows");
  pipeline->Push(SharedTrace());
  pipeline->Finish();

  const api::PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.bins, pipeline->bins_processed());
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.packets, pipeline->total_packets());
  EXPECT_EQ(stats.dropped, pipeline->total_dropped());
  EXPECT_EQ(stats.capacity, spec.system.cycles_per_bin);

  const auto& log = pipeline->log();
  size_t overload = 0;
  double shed = 0.0;
  for (const core::BinLog& bin : log) {
    overload += bin.overload ? 1 : 0;
    shed += bin.packets_unsampled;
  }
  EXPECT_EQ(stats.overload_bins, overload);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_GT(stats.mean_utilization, 0.0);
  const core::BinLog& last = log.back();
  const double last_spent =
      last.query_cycles + last.ps_cycles + last.ls_cycles + last.como_cycles;
  EXPECT_DOUBLE_EQ(stats.last_utilization, last_spent / stats.capacity);
}

const obs::MetricSample* FindSample(const obs::MetricsSnapshot& snapshot,
                                    std::string_view name,
                                    const obs::LabelSet& labels = {}) {
  for (const obs::MetricSample& sample : snapshot.samples) {
    if (sample.name == name && sample.labels == labels) {
      return &sample;
    }
  }
  return nullptr;
}

TEST(PipelineMetrics, RegistryMirrorsTheBinLogTallies) {
  const GoldenSpec spec = SpecFor({"counter", "flows"}, core::ShedderKind::kPredictive,
                                  shed::StrategyKind::kMmfsPkt, false, 0);
  auto pipeline = BuilderFor(spec).BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddQuery("flows");
  pipeline->Push(SharedTrace());
  pipeline->Finish();

  const auto& log = pipeline->log();
  size_t packets = 0;
  size_t dropped = 0;
  size_t overload = 0;
  for (const core::BinLog& bin : log) {
    packets += bin.packets_in;
    dropped += bin.packets_dropped;
    overload += bin.overload ? 1 : 0;
  }

  const obs::MetricsSnapshot snapshot = pipeline->Metrics().Snapshot();
  const obs::MetricSample* bins = FindSample(snapshot, "shedmon_bins_total");
  ASSERT_NE(bins, nullptr);
  EXPECT_EQ(bins->value, static_cast<double>(log.size()));
  const obs::MetricSample* in = FindSample(snapshot, "shedmon_packets_total");
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(in->value, static_cast<double>(packets));
  const obs::MetricSample* drop = FindSample(snapshot, "shedmon_packets_dropped_total");
  ASSERT_NE(drop, nullptr);
  EXPECT_EQ(drop->value, static_cast<double>(dropped));
  const obs::MetricSample* over = FindSample(snapshot, "shedmon_overload_bins_total");
  ASSERT_NE(over, nullptr);
  EXPECT_EQ(over->value, static_cast<double>(overload));
  const obs::MetricSample* capacity = FindSample(snapshot, "shedmon_capacity_cycles");
  ASSERT_NE(capacity, nullptr);
  EXPECT_EQ(capacity->value, spec.system.cycles_per_bin);

  // Per-query series carry the query name as a label; the sampling-rate gauge
  // holds the last bin's applied rate.
  const obs::MetricSample* rate =
      FindSample(snapshot, "shedmon_query_sampling_rate", {{"query", "counter"}});
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->value, log.back().rate[0]);

  const obs::MetricSample* util = FindSample(snapshot, "shedmon_bin_utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_EQ(util->histogram.count, log.size());

  // The Prometheus exposition names every family with a TYPE line.
  const std::string text = obs::PrometheusEncoder::Encode(snapshot);
  EXPECT_NE(text.find("# TYPE shedmon_bins_total counter"), std::string::npos);
  EXPECT_NE(text.find("shedmon_query_sampling_rate{query=\"counter\"}"), std::string::npos);
  EXPECT_NE(text.find("shedmon_bin_utilization_bucket{le=\"+Inf\"}"), std::string::npos);
}

TEST(PipelineApi, JsonlEventLogRecordsTheLifecycle) {
  std::ostringstream out;
  auto pipeline = api::PipelineBuilder().BuildUnique();
  pipeline->SetLogger(std::make_unique<obs::JsonlLogger>(out));
  api::QueryHandle counter = pipeline->AddQuery("counter");
  pipeline->AdvanceTime(2 * 100'000);
  pipeline->Remove(counter);
  pipeline->Finish();

  const std::string text = out.str();
  EXPECT_NE(text.find("{\"event\":\"query_added\""), std::string::npos);
  EXPECT_NE(text.find("\"query\":\"counter\""), std::string::npos);
  EXPECT_NE(text.find("{\"event\":\"bin_closed\""), std::string::npos);
  EXPECT_NE(text.find("{\"event\":\"query_removed\""), std::string::npos);
  EXPECT_NE(text.find("{\"event\":\"finish\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

// The acceptance bar: snapshot at a measurement-interval boundary, restore in
// a "new process", replay the remaining packets — the BinLogs must equal the
// uninterrupted run's field for field, serial and threaded.
TEST(PipelineSnapshot, RestoreThenReplayReproducesTheUninterruptedRun) {
  constexpr uint64_t kCutUs = 2'000'000;  // bin 20 = interval boundary (10-bin intervals)
  for (const size_t threads : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const GoldenSpec spec =
        SpecFor({"counter", "flows", "top-k"}, core::ShedderKind::kPredictive,
                shed::StrategyKind::kMmfsPkt, false, threads);

    auto full = BuilderFor(spec).BuildUnique();
    for (const char* name : {"counter", "flows", "top-k"}) {
      full->AddQuery(name);
    }
    full->Push(SharedTrace());
    full->Finish();

    auto first = BuilderFor(spec).BuildUnique();
    for (const char* name : {"counter", "flows", "top-k"}) {
      first->AddQuery(name);
    }
    for (const net::PacketRecord& packet : SharedTrace().packets) {
      if (packet.ts_us >= kCutUs) {
        break;
      }
      first->Push(net::Packet::View(packet));
    }
    first->AdvanceTime(kCutUs);
    std::stringstream snapshot;
    first->Snapshot(snapshot);

    auto restored = api::PipelineBuilder::Restore(snapshot);
    EXPECT_EQ(restored->num_queries(), 3u);
    for (const net::PacketRecord& packet : SharedTrace().packets) {
      if (packet.ts_us < kCutUs) {
        continue;
      }
      restored->Push(net::Packet::View(packet));
    }
    restored->Finish();

    const auto& full_log = full->log();
    const auto& replay_log = restored->log();
    ASSERT_GT(full_log.size(), 20u);
    ASSERT_EQ(full_log.size(), 20 + replay_log.size());
    const std::vector<core::BinLog> tail(full_log.begin() + 20, full_log.end());
    ExpectBinLogsIdentical(tail, replay_log);
    // The packet tallies are part of the serialized state, so the restored
    // run ends at the uninterrupted run's totals.
    EXPECT_EQ(full->total_packets(), restored->total_packets());
    EXPECT_EQ(full->total_dropped(), restored->total_dropped());
  }
}

TEST(PipelineSnapshot, SnapshotRestoreSnapshotIsByteIdentical) {
  const GoldenSpec spec = SpecFor({"counter", "flows"}, core::ShedderKind::kPredictive,
                                  shed::StrategyKind::kMmfsPkt, false, 0);
  auto pipeline = BuilderFor(spec).BuildUnique();
  pipeline->AddQuery("counter");
  pipeline->AddQuery("flows");
  for (const net::PacketRecord& packet : SharedTrace().packets) {
    if (packet.ts_us >= 1'000'000) {
      break;
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->AdvanceTime(1'000'000);

  std::stringstream original;
  pipeline->Snapshot(original);
  auto restored = api::PipelineBuilder::Restore(original);
  std::stringstream again;
  restored->Snapshot(again);
  ASSERT_FALSE(original.str().empty());
  EXPECT_EQ(original.str(), again.str());
}

TEST(PipelineSnapshot, RejectsMidBinMidIntervalAndNonStandardQueries) {
  std::ostringstream sink;

  auto mid_bin = api::PipelineBuilder().AddQuery("counter").BuildUnique();
  net::PacketRecord record;
  record.ts_us = 10;
  mid_bin->Push(net::Packet::View(record));
  EXPECT_THROW(mid_bin->Snapshot(sink), obs::SnapshotError);

  auto mid_interval = api::PipelineBuilder().AddQuery("counter").BuildUnique();
  mid_interval->AdvanceTime(100'000);  // one bin into a ten-bin interval
  EXPECT_THROW(mid_interval->Snapshot(sink), obs::SnapshotError);

  // A user-supplied query whose name is not in the standard roster cannot be
  // reconstructed from a name, so Snapshot refuses. (A user-supplied instance
  // of a *standard* query is fine: at an interval boundary it is
  // state-equivalent to the fresh instance Restore builds.)
  class BespokeQuery : public query::Query {
   public:
    BespokeQuery() : Query("bespoke-query", 10) {}

   protected:
    void OnBatch(const query::BatchInput& in) override {
      ChargeWork(static_cast<double>(in.packets.size()));
    }
    void OnEndInterval(size_t) override {}
  };
  auto custom = api::PipelineBuilder().BuildUnique();
  custom->AddQuery(std::make_unique<BespokeQuery>(), {0.1, true});
  EXPECT_THROW(custom->Snapshot(sink), obs::SnapshotError);

  std::istringstream garbage("not a snapshot");
  EXPECT_THROW(api::PipelineBuilder::Restore(garbage), obs::SnapshotError);
}

// The v2 checksum trailer: a snapshot that lost its tail or took a bit flip
// anywhere in the payload must be rejected with SnapshotError, never
// restored into a silently-wrong pipeline.
TEST(PipelineSnapshot, RejectsTruncatedAndBitFlippedSnapshots) {
  auto pipeline = api::PipelineBuilder().AddQuery("counter").AddQuery("flows").BuildUnique();
  std::stringstream good;
  pipeline->Snapshot(good);
  const std::string bytes = good.str();
  ASSERT_GT(bytes.size(), 64u);

  {
    std::istringstream intact(bytes);
    EXPECT_NO_THROW(api::PipelineBuilder::Restore(intact));
  }
  for (const size_t keep : {bytes.size() - 1, bytes.size() - 8, bytes.size() / 2}) {
    SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
    std::istringstream truncated(bytes.substr(0, keep));
    EXPECT_THROW(api::PipelineBuilder::Restore(truncated), obs::SnapshotError);
  }
  // Flip one bit at several payload positions (past the magic, whose own
  // check fires first and is already covered above).
  for (const size_t pos : {size_t{16}, bytes.size() / 2, bytes.size() - 9}) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(pos));
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
    std::istringstream in(flipped);
    EXPECT_THROW(api::PipelineBuilder::Restore(in), obs::SnapshotError);
  }
}

// Path-based snapshots publish via write-to-temp + fsync + atomic rename:
// the final file is complete and restorable, and no temp litter survives.
TEST(PipelineSnapshot, PathSnapshotIsAtomicAndRestorable) {
  const std::string path = test::TempPath("shedmon_snapshot_atomic.bin");
  auto pipeline = api::PipelineBuilder().AddQuery("counter").BuildUnique();
  pipeline->Snapshot(path);

  auto restored = api::PipelineBuilder::Restore(path);
  EXPECT_EQ(restored->num_queries(), 1u);
  EXPECT_FALSE(std::ifstream(path + ".tmp." + std::to_string(::getpid())).good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Metrics never perturb determinism, even with a scraper hammering away
// ---------------------------------------------------------------------------

TEST(PipelineDeterminism, ScrapingUnderLoadNeverPerturbsResults) {
  const std::vector<std::string> names = {"counter", "flows", "top-k"};
  const GoldenSpec golden_spec = SpecFor(names, core::ShedderKind::kPredictive,
                                         shed::StrategyKind::kMmfsPkt, false, 0);
  const GoldenRun golden = GoldenRunSystemOnTrace(golden_spec, SharedTrace());

  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    GoldenSpec spec = SpecFor(names, core::ShedderKind::kPredictive,
                              shed::StrategyKind::kMmfsPkt, false, threads);
    auto pipeline = BuilderFor(spec).BuildUnique();
    std::vector<api::QueryHandle> handles;
    for (const auto& name : names) {
      handles.push_back(pipeline->AddQuery(name));
    }

    std::atomic<bool> stop{false};
    std::atomic<size_t> scrapes{0};
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string text =
            obs::PrometheusEncoder::Encode(pipeline->Metrics().Snapshot());
        if (!text.empty()) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    pipeline->Push(SharedTrace());
    pipeline->Finish();
    stop.store(true);
    scraper.join();

    EXPECT_GT(scrapes.load(), 0u);
    ExpectBinLogsIdentical(golden.system->log(), pipeline->log());
    for (size_t q = 0; q < names.size(); ++q) {
      SCOPED_TRACE(names[q]);
      EXPECT_EQ(golden.Accuracy(q).mean_error, handles[q].Accuracy().mean_error);
      EXPECT_EQ(golden.Accuracy(q).stdev_error, handles[q].Accuracy().stdev_error);
    }
  }
}

// Records what the system should feed its cost model for this query: a
// from-scratch extraction of exactly the packets the query was handed,
// with its own interval state reset whenever the query's interval ends —
// which is when the system resets the query's counter. Full-rate plain
// bins are skipped (the system then reuses the prediction-stage features),
// and so are custom bins below the full-cost refit threshold (no refit).
class FeatureShadowQuery : public query::Query {
 public:
  FeatureShadowQuery(const features::FeatureExtractor::Config& config,
                     query::SamplingMethod method, bool custom, double work_per_packet)
      : Query(custom ? "shadow-custom" : "shadow", 10),
        shadow_(config),
        method_(method),
        custom_(custom),
        work_per_packet_(work_per_packet) {}

  query::SamplingMethod preferred_sampling() const override { return method_; }
  bool supports_custom_shedding() const override { return custom_; }

  // The features of the last batch the system must have re-counted, or
  // nothing; reading clears it.
  std::optional<features::FeatureVector> TakeExpected() {
    auto out = expected_;
    expected_.reset();
    return out;
  }

 protected:
  void OnBatch(const query::BatchInput& in) override {
    if (in.sampling_rate < 1.0 - 1e-9) {
      expected_ = shadow_.Extract(in.packets);
    }
    ChargeWork(work_per_packet_ * static_cast<double>(in.packets.size()));
  }
  void OnCustomBatch(const query::BatchInput& in, double fraction) override {
    if (fraction >= 0.95) {
      expected_ = shadow_.Extract(in.packets);
    }
    ChargeWork(work_per_packet_ * fraction * static_cast<double>(in.packets.size()));
  }
  void OnEndInterval(size_t) override { shadow_.StartInterval(); }

 private:
  features::FeatureExtractor shadow_;
  query::SamplingMethod method_;
  bool custom_;
  double work_per_packet_;
  std::optional<features::FeatureVector> expected_;
};

// After every bin, each shadow query that owes a check must find its
// expected features, bit for bit, as the newest row of its cost model.
class FeatureShadowCheck : public api::BinObserver {
 public:
  FeatureShadowCheck(const api::Pipeline& pipeline, std::vector<FeatureShadowQuery*> shadows)
      : pipeline_(pipeline), shadows_(std::move(shadows)), checked_(shadows_.size(), 0) {}

  void OnBin(const core::BinLog& log, const api::BinStats&) override {
    for (size_t q = 0; q < shadows_.size(); ++q) {
      const std::optional<features::FeatureVector> want = shadows_[q]->TakeExpected();
      if (!want) {
        continue;
      }
      const predict::MlrPredictor* mlr = pipeline_.system().engine(q).mlr();
      ASSERT_NE(mlr, nullptr);
      const std::span<const double> got = mlr->newest_features();
      ASSERT_EQ(got.size(), want->size());
      EXPECT_EQ(std::memcmp(got.data(), want->data(), sizeof(double) * want->size()), 0)
          << shadows_[q]->name() << " q" << q << " at bin starting " << log.start_us;
      ++checked_[q];
    }
  }

  const std::vector<size_t>& checked() const { return checked_; }

 private:
  const api::Pipeline& pipeline_;
  std::vector<FeatureShadowQuery*> shadows_;
  std::vector<size_t> checked_;
};

TEST(PipelineFeatures, HistoryUpdatesMatchFromScratchExtractionOfTheProcessedPackets) {
  // Each query's re-extraction re-counts the prediction stage's keys over
  // the rows its sampler kept. Evicting the oldest records of every open bin
  // leaves the packets a non-contiguous view of the ingest buffer, so rows
  // derived from anything but positions in the bin's packet vector fail.
  // The budget sheds the heavy queries in several bins beyond the warm-up
  // probes, while the light custom query mostly runs whole and refits.
  const features::FeatureExtractor::Config extractor;
  auto pipeline = api::PipelineBuilder()
                      .IngestCap(400, rt::OverflowPolicy::kDropOldest)
                      .CyclesPerBin(3.6e4)
                      .Strategy(shed::StrategyKind::kMmfsCpu)
                      .CustomShedding(true)
                      .Threads(2)
                      .TrackAccuracy(false)
                      .BuildUnique();
  ASSERT_EQ(pipeline->system().config().extractor.seed, extractor.seed);
  std::vector<FeatureShadowQuery*> shadows;
  // Max-min fair cycle shares: the two heavy queries are sampled, the light
  // custom one mostly fits its share whole and refits at full cost.
  for (const auto& [method, custom, work] :
       {std::tuple{query::SamplingMethod::kPacket, false, 20.0},
        std::tuple{query::SamplingMethod::kFlow, false, 20.0},
        std::tuple{query::SamplingMethod::kPacket, true, 1.0}}) {
    auto q = std::make_unique<FeatureShadowQuery>(extractor, method, custom, work);
    shadows.push_back(q.get());
    pipeline->AddQuery(std::move(q), {0.0, true});
  }
  auto check = std::make_unique<FeatureShadowCheck>(*pipeline, shadows);
  const FeatureShadowCheck& checker = *check;
  pipeline->AddObserver(std::move(check));
  pipeline->Push(SharedTrace());
  pipeline->Finish();

  EXPECT_GT(pipeline->ingest_dropped(), 0u);
  size_t shed_bins = 0;
  for (const core::BinLog& log : pipeline->log()) {
    shed_bins += log.rate[0] < 1.0 && log.rate[0] > 0.0 ? 1 : 0;
  }
  EXPECT_GT(shed_bins, 5u);
  for (size_t q = 0; q < shadows.size(); ++q) {
    EXPECT_GT(checker.checked()[q], 3u) << shadows[q]->name() << " q" << q;
  }
}

}  // namespace
}  // namespace shedmon
