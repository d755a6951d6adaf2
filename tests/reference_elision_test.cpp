// Exact reference elision and packet-count references end to end: a
// Pipeline's reference instances, which skip the intervals their query ran
// exactly and copy its result instead, or (trace, pattern-search) only
// count packets, must hold what an offline query::RunReference over the
// whole trace holds — snapshots, ranked lists, packet counts — and
// score the system's queries exactly as a full replay of every query does:
// ErrorSeries and the pipeline's accuracies, bit for bit. Across presets,
// thread counts, overload, rates that cross 1 mid-interval,
// dropped and truncated bins, a mid-interval Detach and a Finish in a
// partial interval.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/api/pipeline.h"
#include "src/core/runner.h"
#include "src/query/accuracy.h"
#include "src/query/queries.h"
#include "src/rt/clock.h"
#include "src/rt/fault.h"
#include "src/rt/governor.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "tests/query_results.h"

namespace shedmon {
namespace {

using test_util::ResultsDiff;
using test_util::SameBits;

// 3.45 s: three whole 10-bin intervals and a partial one Finish closes.
trace::Trace PresetTrace(trace::TraceSpec spec) {
  spec.duration_s = 3.45;
  return trace::TraceGenerator(spec).Generate();
}

const trace::Trace& CescaTrace() {
  static const trace::Trace t = PresetTrace(trace::CescaII());
  return t;
}

double ReferenceBins(const api::Pipeline& pipeline, const std::string& mode) {
  for (const auto& sample : pipeline.Metrics().Snapshot().samples) {
    if (sample.name == "shedmon_reference_bins_total" && sample.labels.at("mode") == mode) {
      return sample.value;
    }
  }
  return -1.0;
}

// Every closed bin advances every tracked reference exactly one way.
void ExpectEveryBinAccounted(const api::Pipeline& pipeline, size_t tracked) {
  const double bins = static_cast<double>(pipeline.log().size());
  EXPECT_EQ(ReferenceBins(pipeline, "replayed") + ReferenceBins(pipeline, "elided") +
                ReferenceBins(pipeline, "counted"),
            bins * static_cast<double>(tracked));
}

// A full instance of every named query (MakeQuery, never a packet counter)
// replayed over the whole trace: the ground truth before packet-count
// references existed, which every error series must still match.
std::vector<std::unique_ptr<query::Query>> FullReplay(const std::vector<std::string>& names,
                                                      const trace::Trace& trace,
                                                      uint64_t bin_us) {
  std::vector<std::unique_ptr<query::Query>> full;
  for (const std::string& name : names) {
    full.push_back(query::MakeQuery(name));
  }
  trace::Batcher batcher(trace, bin_us);
  trace::Batch batch;
  size_t bins = 0;
  while (batcher.Next(batch)) {
    const query::BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0,
                               &batch.flows};
    ++bins;
    for (auto& q : full) {
      q->ProcessBatch(in);
      if (bins % q->interval_bins() == 0) {
        q->EndInterval();
      }
    }
  }
  for (auto& q : full) {
    if (bins % q->interval_bins() != 0) {
      q->EndInterval();
    }
  }
  return full;
}

// Every tracked reference of `pipeline` against a fresh offline
// RunReference of `trace` (results and packet counts), and the ErrorSeries
// the system's queries score and the pipeline's accuracy summaries against
// a full replay of every query, all bit-identical.
void ExpectReferencesMatchOffline(const api::Pipeline& pipeline,
                                  const std::vector<api::QueryHandle>& handles,
                                  const trace::Trace& trace) {
  const core::MonitoringSystem& system = pipeline.system();
  std::vector<std::string> names;
  for (size_t q = 0; q < system.num_queries(); ++q) {
    names.push_back(system.query(q).name());
  }
  const uint64_t bin_us = system.config().time_bin_us;
  const auto offline = query::RunReference(names, trace, bin_us);
  const auto full = FullReplay(names, trace, bin_us);
  double sum = 0.0;
  double min = 1.0;
  for (size_t q = 0; q < names.size(); ++q) {
    SCOPED_TRACE(names[q]);
    const query::Query* reference = handles[q].reference();
    ASSERT_NE(reference, nullptr);
    EXPECT_EQ(ResultsDiff(*reference, *offline[q]), "");
    EXPECT_EQ(ResultsDiff(*reference, *full[q]), "");
    EXPECT_TRUE(SameBits(query::ErrorSeries(system.query(q), *reference),
                         query::ErrorSeries(system.query(q), *full[q])));
    const double accuracy = std::clamp(
        1.0 - query::SummarizeAccuracy(system.query(q), *full[q]).mean_error, 0.0, 1.0);
    sum += accuracy;
    min = std::min(min, accuracy);
  }
  EXPECT_TRUE(SameBits(pipeline.AverageAccuracy(), sum / static_cast<double>(names.size())));
  EXPECT_TRUE(SameBits(pipeline.MinimumAccuracy(), min));
}

// Registers the ten standard queries by name, so each reference is a
// pipeline-built twin the pipeline may elide.
std::vector<api::QueryHandle> AddAllQueries(api::Pipeline& pipeline,
                                            const core::QueryConfig* config = nullptr) {
  std::vector<api::QueryHandle> handles;
  for (const std::string& name : query::AllQueryNames()) {
    handles.push_back(config != nullptr ? pipeline.AddQuery(name, *config)
                                        : pipeline.AddQuery(name));
  }
  return handles;
}

// Every synthetic preset at threads {0, 2}, at capacity twice its demand, so
// most queries run at rate 1 after warm-up and their references are elided,
// and at half its demand (overload-payload's K), so every query is shed and
// trace's and pattern-search's packet counters score shed intervals.
TEST(ReferenceElisionPipeline, MatchesOfflineReferenceOnEveryPreset) {
  const std::vector<std::pair<std::string, trace::TraceSpec>> presets = {
      {"cesca1", trace::CescaI()},
      {"cesca2", trace::CescaII()},
      {"abilene", trace::Abilene()},
      {"cenic", trace::Cenic()},
      {"upc1", trace::UpcI()}};
  for (const auto& [label, spec] : presets) {
    const trace::Trace trace = PresetTrace(spec);
    const double demand =
        core::MeasureMeanDemand(query::AllQueryNames(), trace, core::OracleKind::kModel);
    for (const double capacity : {2.0, 0.5}) {
      for (const size_t threads : {size_t{0}, size_t{2}}) {
        SCOPED_TRACE(label + " capacity " + std::to_string(capacity) + " threads " +
                     std::to_string(threads));
        auto pipeline = api::PipelineBuilder()
                            .CyclesPerBin(capacity * demand)
                            .Threads(threads)
                            .BuildUnique();
        const auto handles = AddAllQueries(*pipeline);
        pipeline->Push(trace);
        pipeline->Finish();
        ExpectReferencesMatchOffline(*pipeline, handles, trace);
        ExpectEveryBinAccounted(*pipeline, handles.size());
        EXPECT_GT(ReferenceBins(*pipeline, "replayed"), 0.0);
        // trace and pattern-search count every closed bin, never replay it.
        EXPECT_EQ(ReferenceBins(*pipeline, "counted"),
                  2.0 * static_cast<double>(pipeline->log().size()));
        if (capacity > 1.0) {
          EXPECT_GT(ReferenceBins(*pipeline, "elided"), 0.0);
          continue;
        }
        // Not vacuous: a packet counter scores a shed query.
        const api::QueryHandle& trace_handle = handles.back();
        ASSERT_EQ(trace_handle.name(), "trace");
        ASSERT_NE(dynamic_cast<const query::PacketCountQuery*>(trace_handle.reference()),
                  nullptr);
        EXPECT_GT(trace_handle.Accuracy().mean_error, 0.0);
      }
    }
  }
}

// A bin is exact for query q when q saw all of it unscaled.
bool Exact(const core::BinLog& bin, size_t q) {
  return !bin.batch_dropped && !bin.disabled[q] && bin.rate[q] == 1.0;
}

// Capacity just above demand: rates hover around 1, so some intervals run
// exactly and the next one is shed part-way, forking an elided reference.
TEST(ReferenceElisionPipeline, RatesCrossingOneMidIntervalFork) {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::CescaII();
    spec.duration_s = 6.45;
    return trace::TraceGenerator(spec).Generate();
  }();
  const double demand =
      core::MeasureMeanDemand(query::AllQueryNames(), trace, core::OracleKind::kModel);
  for (const size_t threads : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto pipeline =
        api::PipelineBuilder().CyclesPerBin(1.25 * demand).Threads(threads).BuildUnique();
    const auto handles = AddAllQueries(*pipeline);
    pipeline->Push(trace);
    pipeline->Finish();
    ExpectReferencesMatchOffline(*pipeline, handles, trace);
    EXPECT_GT(ReferenceBins(*pipeline, "elided"), 0.0);

    // Not vacuous: count (query, interval) pairs that follow a wholly exact
    // interval, start exact, and are shed later on.
    const auto& log = pipeline->log();
    size_t forks = 0;
    for (size_t q = 0; q < pipeline->num_queries(); ++q) {
      for (size_t start = 10; start + 10 <= log.size(); start += 10) {
        const auto exact = [&](size_t b) { return Exact(log[b], q); };
        bool prev_exact = true;
        for (size_t b = start - 10; b < start; ++b) {
          prev_exact = prev_exact && exact(b);
        }
        bool later_shed = false;
        for (size_t b = start + 1; b < start + 10; ++b) {
          later_shed = later_shed || !exact(b);
        }
        forks += prev_exact && exact(start) && later_shed ? 1 : 0;
      }
    }
    EXPECT_GT(forks, 0u);
  }
}

// Original CoMo (no shedding) with room to spare runs every query exactly
// from the first bin, so after the cold-start interval every reference bin
// is elided and only the partial last interval is adopted at Finish.
TEST(ReferenceElisionPipeline, NoSheddingElidesEveryIntervalAfterTheFirst) {
  const double demand =
      core::MeasureMeanDemand(query::AllQueryNames(), CescaTrace(), core::OracleKind::kModel);
  auto pipeline = api::PipelineBuilder()
                      .Shedder(core::ShedderKind::kNoShed)
                      .CyclesPerBin(2.0 * demand)
                      .Threads(2)
                      .BuildUnique();
  const auto handles = AddAllQueries(*pipeline);
  pipeline->Push(CescaTrace());
  pipeline->Finish();
  // trace and pattern-search have packet-count references, never elided.
  const double elidable = static_cast<double>(handles.size() - 2);
  EXPECT_EQ(ReferenceBins(*pipeline, "replayed"), 10.0 * elidable);
  EXPECT_EQ(ReferenceBins(*pipeline, "elided"),
            static_cast<double>(pipeline->log().size() - 10) * elidable);
  EXPECT_EQ(ReferenceBins(*pipeline, "counted"),
            2.0 * static_cast<double>(pipeline->log().size()));
  ExpectReferencesMatchOffline(*pipeline, handles, CescaTrace());
}

// A FaultPlan on the deadline ladder mid-interval: injected stalls on bins
// 23-25 make the governor boost shedding at bin 24, truncate the last query
// at bin 25 and drop bin 26 whole. Every query declares m_q = 1, so the
// boost leaves their rates at 1 and the truncation and the dropped bin are
// what fork the elided references.
TEST(ReferenceElisionPipeline, GovernorTruncationAndDroppedBinsFork) {
  rt::GovernorConfig governor;
  governor.budget_fraction = 0.5;
  const double demand =
      core::MeasureMeanDemand(query::AllQueryNames(), CescaTrace(), core::OracleKind::kModel);
  for (const size_t threads : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    api::PipelineBuilder builder;
    builder.CyclesPerBin(2.0 * demand)
        .Threads(threads)
        .RtClock(std::make_shared<rt::ManualClock>())
        .Deadline(governor)
        .InjectFaults(
            rt::FaultPlan::Parse("stall_bin=23:80000,stall_bin=24:80000,stall_bin=25:80000"));
    auto pipeline = builder.BuildUnique();
    const core::QueryConfig mandatory{1.0, true};
    const auto handles = AddAllQueries(*pipeline, &mandatory);
    pipeline->Push(CescaTrace());
    pipeline->Finish();
    const auto& log = pipeline->log();
    ASSERT_GT(log.size(), 26u);
    EXPECT_EQ(log[24].degradation, 1);
    EXPECT_EQ(log[25].degradation, 2);
    EXPECT_TRUE(log[25].disabled.back());
    EXPECT_TRUE(log[26].batch_dropped);
    EXPECT_GT(ReferenceBins(*pipeline, "elided"), 0.0);
    ExpectReferencesMatchOffline(*pipeline, handles, CescaTrace());
    // The dropped bin 26 is counted too.
    ExpectEveryBinAccounted(*pipeline, handles.size());
  }
}

// A query detached mid-interval while its reference is elided: the
// detached reference carries the open interval, so it continues exactly
// like an instance that replayed every bin.
TEST(ReferenceElisionPipeline, MidIntervalDetachCarriesTheOpenInterval) {
  constexpr uint64_t kBinUs = 100'000;
  constexpr size_t kDetachBin = 25;
  const double demand =
      core::MeasureMeanDemand(query::AllQueryNames(), CescaTrace(), core::OracleKind::kModel);
  for (const size_t threads : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    auto pipeline =
        api::PipelineBuilder().CyclesPerBin(2.0 * demand).Threads(threads).BuildUnique();
    const auto handles = AddAllQueries(*pipeline);
    std::vector<DetachedQuery> detached;
    bool done = false;
    for (const net::PacketRecord& packet : CescaTrace().packets) {
      if (!done && packet.ts_us >= kDetachBin * kBinUs) {
        pipeline->AdvanceTime(kDetachBin * kBinUs);
        ASSERT_GT(ReferenceBins(*pipeline, "elided"), 0.0);
        for (const api::QueryHandle& handle : handles) {
          detached.push_back(pipeline->Detach(handle));
        }
        done = true;
      }
      pipeline->Push(net::Packet::View(packet));
    }
    pipeline->Finish();
    ASSERT_TRUE(done);

    // Offline twins replay the same bins, then both continue over the rest.
    trace::Batcher batcher(CescaTrace(), kBinUs);
    trace::Batch batch;
    size_t bin = 0;
    std::vector<std::unique_ptr<query::Query>> offline;
    for (const DetachedQuery& d : detached) {
      offline.push_back(query::MakeQuery(d.reference->name()));
    }
    while (batcher.Next(batch)) {
      const query::BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0};
      for (size_t q = 0; q < offline.size(); ++q) {
        offline[q]->ProcessBatch(in);
        if (bin >= kDetachBin) {
          detached[q].reference->ProcessBatch(in);
        }
        if ((bin + 1) % 10 == 0) {
          offline[q]->EndInterval();
          if (bin >= kDetachBin) {
            detached[q].reference->EndInterval();
          }
        }
      }
      ++bin;
    }
    for (size_t q = 0; q < offline.size(); ++q) {
      SCOPED_TRACE(offline[q]->name());
      offline[q]->EndInterval();
      detached[q].reference->EndInterval();
      EXPECT_EQ(ResultsDiff(*detached[q].reference, *offline[q]), "");
    }
  }
}

// Top-k and super-sources rank by value descending, then key ascending, so
// a ranking is a function of the interval's packets alone. In this trace
// bins 0-4 hold 7000 distinct sources and destinations, which the system
// samples at the 0.1 warm-up rate while the reference takes them all, so
// their maps end interval 0 with very different bucket counts. From bin 5
// on 140 sources each reach 5 of 700 destinations, 2 packets per
// destination per bin, so every later interval is one big tie. The system
// ranks those ties as a replay does, and every reference, top-k's and
// super-sources' included, is elided from interval 2 on.
// A bijective bit mixer: addresses drawn through it share buckets the way
// real ones do (consecutive integers would fill a map's buckets one each,
// and a collision-free map iterates in insertion order at any size).
uint32_t Scatter(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

TEST(ReferenceElisionPipeline, TiedRanksKeepTheReplayOrder) {
  static const trace::Trace trace = [] {
    trace::Trace t;
    uint32_t fresh = 1;
    for (uint64_t bin = 0; bin < 35; ++bin) {
      const bool wide = bin < 5;
      const size_t n = 1400;
      for (size_t i = 0; i < n; ++i) {
        net::PacketRecord rec;
        rec.ts_us = bin * 100'000 + i * (100'000 / n);
        rec.wire_len = 500;
        const uint32_t src = wide ? fresh : 1'000'000 + static_cast<uint32_t>(i % 140);
        const uint32_t dst = wide ? fresh : 2'000'000 + static_cast<uint32_t>(i % 700);
        rec.tuple.src_ip = Scatter(src);
        rec.tuple.dst_ip = Scatter(dst);
        rec.tuple.src_port = static_cast<uint16_t>(1024 + i);
        rec.tuple.dst_port = 80;
        rec.tuple.proto = 6;
        fresh += wide ? 1 : 0;
        t.packets.push_back(rec);
      }
    }
    return t;
  }();
  const std::vector<std::string> names = {"top-k", "super-sources", "counter"};
  const double demand = core::MeasureMeanDemand(names, trace, core::OracleKind::kModel);
  auto pipeline = api::PipelineBuilder().CyclesPerBin(2.0 * demand).BuildUnique();
  std::vector<api::QueryHandle> handles;
  for (const std::string& name : names) {
    handles.push_back(pipeline->AddQuery(name, core::QueryConfig{}));
  }
  pipeline->Push(trace);
  pipeline->Finish();
  ExpectReferencesMatchOffline(*pipeline, handles, trace);

  // The scenario has teeth: the system ran intervals 1-3 exactly, and its
  // top-k list of interval 2 is ten equal totals, ranked by key.
  const auto& log = pipeline->log();
  for (size_t b = 10; b < log.size(); ++b) {
    ASSERT_TRUE(Exact(log[b], 0)) << "bin " << b;
  }
  const auto& system_topk = dynamic_cast<const query::TopKQuery&>(handles[0].query());
  const auto& reference_topk = dynamic_cast<const query::TopKQuery&>(*handles[0].reference());
  const auto& topk = system_topk.snapshots()[2]->topk;
  ASSERT_EQ(topk.size(), 10u);
  for (size_t r = 1; r < topk.size(); ++r) {
    EXPECT_EQ(topk[r].second, topk[0].second);
    EXPECT_LT(topk[r - 1].first, topk[r].first);
  }
  // The offline replay (checked above) ranks the tie alike, so the
  // reference adopted the system's closed interval instead of replaying it.
  EXPECT_TRUE(SameBits(topk, reference_topk.snapshots()[2]->topk));
  EXPECT_EQ(system_topk.snapshots()[2], reference_topk.snapshots()[2]);
  // All three references were elided in intervals 2 and 3.
  EXPECT_EQ(ReferenceBins(*pipeline, "elided"), 3.0 * static_cast<double>(log.size() - 20));
}

// A user-supplied (query, reference) pair may differ in type or parameters,
// so the pipeline never elides it.
TEST(ReferenceElisionPipeline, UserSuppliedPairsAlwaysReplay) {
  const double demand =
      core::MeasureMeanDemand({"counter"}, CescaTrace(), core::OracleKind::kModel);
  auto pipeline = api::PipelineBuilder().CyclesPerBin(2.0 * demand).BuildUnique();
  const std::vector<api::QueryHandle> handles = {
      pipeline->AddQuery(query::MakeQuery("counter"), {}, query::MakeQuery("counter"))};
  pipeline->Push(CescaTrace());
  pipeline->Finish();
  EXPECT_EQ(ReferenceBins(*pipeline, "elided"), 0.0);
  EXPECT_EQ(ReferenceBins(*pipeline, "replayed"), static_cast<double>(pipeline->log().size()));
  ExpectReferencesMatchOffline(*pipeline, handles, CescaTrace());
}

// A user-supplied pattern-search pair is replayed in full, never turned into
// a packet counter: its reference's match counts are an offline replay's.
TEST(PacketCountReferences, UserSuppliedPatternSearchPairStillReplays) {
  const trace::Trace trace = PresetTrace(trace::UpcI());
  const double demand =
      core::MeasureMeanDemand({"pattern-search"}, trace, core::OracleKind::kModel);
  auto pipeline = api::PipelineBuilder().CyclesPerBin(0.5 * demand).BuildUnique();
  const api::QueryHandle handle = pipeline->AddQuery(query::MakeQuery("pattern-search"), {},
                                                     query::MakeQuery("pattern-search"));
  pipeline->Push(trace);
  pipeline->Finish();
  EXPECT_EQ(ReferenceBins(*pipeline, "counted"), 0.0);
  EXPECT_EQ(ReferenceBins(*pipeline, "replayed"), static_cast<double>(pipeline->log().size()));

  const auto full = FullReplay({"pattern-search"}, trace, 100'000);
  const auto* reference = dynamic_cast<const query::PatternSearchQuery*>(handle.reference());
  ASSERT_NE(reference, nullptr);
  const auto& offline = dynamic_cast<const query::PatternSearchQuery&>(*full[0]);
  EXPECT_TRUE(SameBits(reference->match_counts(), offline.match_counts()));
  double matches = 0.0;
  for (const double m : offline.match_counts()) {
    matches += m;
  }
  EXPECT_GT(matches, 0.0);  // a payload trace, so the counts have teeth
}

}  // namespace
}  // namespace shedmon
