#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/shed/enforcement.h"
#include "src/shed/sampler.h"
#include "src/shed/strategy.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"

namespace shedmon::shed {
namespace {

trace::Trace SmallTrace() {
  trace::TraceSpec spec;
  spec.duration_s = 3.0;
  spec.flows_per_s = 250.0;
  spec.seed = 5;
  return trace::TraceGenerator(spec).Generate();
}

trace::PacketVec FirstBatch(const trace::Trace& t, trace::Batch& storage) {
  trace::Batcher batcher(t, 1'000'000);  // 1 s "batch" for plenty of packets
  EXPECT_TRUE(batcher.Next(storage));
  return storage.packets;
}

// The kept packets of one SampleInto call.
template <typename Sampler>
trace::PacketVec Sampled(Sampler& sampler, const trace::PacketVec& packets, double rate) {
  trace::PacketVec out;
  std::vector<uint32_t> rows;
  sampler.SampleInto(packets, rate, out, rows);
  return out;
}

// Rows must be ascending in-range indices into `in`, one per kept packet,
// each selecting exactly that packet.
void ExpectRowsSelectOut(const trace::PacketVec& in, const trace::PacketVec& out,
                         const std::vector<uint32_t>& rows, double rate) {
  ASSERT_EQ(rows.size(), out.size()) << "rate " << rate;
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_LT(rows[i], in.size()) << "rate " << rate << " index " << i;
    if (i > 0) {
      EXPECT_LT(rows[i - 1], rows[i]) << "rate " << rate << " index " << i;
    }
    EXPECT_EQ(in[rows[i]].rec, out[i].rec) << "rate " << rate << " index " << i;
  }
}

// ----------------------------------------------------------------- samplers --

TEST(PacketSamplerTest, RateOneKeepsEverything) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  PacketSampler sampler(1);
  EXPECT_EQ(Sampled(sampler, packets, 1.0).size(), packets.size());
}

TEST(PacketSamplerTest, RateZeroDropsEverything) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  PacketSampler sampler(2);
  EXPECT_TRUE(Sampled(sampler, packets, 0.0).empty());
}

TEST(PacketSamplerTest, KeepsApproximatelyRateFraction) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  ASSERT_GT(packets.size(), 500u);
  PacketSampler sampler(3);
  const auto out = Sampled(sampler, packets, 0.4);
  const double frac = static_cast<double>(out.size()) / static_cast<double>(packets.size());
  EXPECT_NEAR(frac, 0.4, 0.08);
}

TEST(PacketSamplerTest, ReportedRowsSelectKeptPackets) {
  // The history update re-counts the bin's keys over the reported rows, so
  // they must name exactly the kept packets; two samplers with the same seed
  // consume the same RNG sequence and keep the same rows.
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  PacketSampler sampler(17);
  PacketSampler twin(17);
  trace::PacketVec out;
  std::vector<uint32_t> rows = {7, 7, 7};  // stale contents must be replaced
  for (const double rate : {0.0, 0.05, 0.3, 0.7, 0.999, 1.0}) {
    sampler.SampleInto(packets, rate, out, rows);
    ExpectRowsSelectOut(packets, out, rows, rate);
    trace::PacketVec twin_out;
    std::vector<uint32_t> twin_rows;
    twin.SampleInto(packets, rate, twin_out, twin_rows);
    EXPECT_EQ(rows, twin_rows) << "rate " << rate;
  }
}

TEST(PacketSamplerTest, SampleIntoClearsAndReusesBuffer) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  PacketSampler sampler(18);
  trace::PacketVec buf;
  std::vector<uint32_t> rows;
  sampler.SampleInto(packets, 0.5, buf, rows);
  const size_t first_size = buf.size();
  const size_t first_cap = buf.capacity();
  ASSERT_GT(first_size, 0u);
  // A dirty, already-sized buffer must be fully replaced, not appended to,
  // and its capacity must be retained.
  sampler.SampleInto(packets, 0.5, buf, rows);
  EXPECT_NEAR(static_cast<double>(buf.size()), static_cast<double>(first_size),
              0.25 * static_cast<double>(packets.size()));
  EXPECT_GE(buf.capacity(), first_cap);
  for (const auto& pkt : buf) {
    EXPECT_NE(pkt.rec, nullptr);
  }
}

TEST(FlowSamplerTest, ReportedRowsSelectKeptPackets) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  FlowSampler sampler(19);
  trace::PacketVec out;
  std::vector<uint32_t> rows = {3, 1};  // stale contents must be replaced
  for (const double rate : {0.0, 0.05, 0.25, 0.6, 0.999, 1.0}) {
    sampler.SampleInto(packets, rate, out, rows);
    ExpectRowsSelectOut(packets, out, rows, rate);
  }
}

TEST(FlowSamplerTest, KeyedSelectionMatchesUnkeyed) {
  // Fed the batch's flow table, the sampler hashes each distinct flow once;
  // it must keep exactly the rows the per-packet hash keeps.
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  ASSERT_LT(storage.flows.num_flows(), packets.size());  // flows repeat
  FlowSampler keyed(23);
  FlowSampler unkeyed(23);
  trace::PacketVec out;
  std::vector<uint32_t> rows;
  trace::PacketVec want_out;
  std::vector<uint32_t> want_rows;
  for (const double rate : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    keyed.SampleInto(packets, storage.flows, rate, out, rows);
    unkeyed.SampleInto(packets, rate, want_out, want_rows);
    ExpectRowsSelectOut(packets, out, rows, rate);
    EXPECT_EQ(rows, want_rows) << "rate " << rate;
  }
}

TEST(FlowSamplerTest, FlowsKeptOrDroppedCoherently) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  FlowSampler sampler(7);
  const auto out = Sampled(sampler, packets, 0.5);
  std::set<net::FiveTuple> kept;
  for (const auto& pkt : out) {
    kept.insert(pkt.rec->tuple);
  }
  // Every packet of a kept flow must be present.
  std::map<net::FiveTuple, size_t> in_count;
  std::map<net::FiveTuple, size_t> out_count;
  for (const auto& pkt : packets) {
    ++in_count[pkt.rec->tuple];
  }
  for (const auto& pkt : out) {
    ++out_count[pkt.rec->tuple];
  }
  for (const auto& [tuple, count] : out_count) {
    EXPECT_EQ(count, in_count[tuple]);
  }
}

TEST(FlowSamplerTest, SamplesApproximatelyRateFractionOfFlows) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  std::set<net::FiveTuple> all_flows;
  for (const auto& pkt : packets) {
    all_flows.insert(pkt.rec->tuple);
  }
  ASSERT_GT(all_flows.size(), 100u);
  FlowSampler sampler(11);
  const auto out = Sampled(sampler, packets, 0.3);
  std::set<net::FiveTuple> kept;
  for (const auto& pkt : out) {
    kept.insert(pkt.rec->tuple);
  }
  const double frac =
      static_cast<double>(kept.size()) / static_cast<double>(all_flows.size());
  EXPECT_NEAR(frac, 0.3, 0.10);
}

TEST(FlowSamplerTest, ReseedChangesSelection) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  FlowSampler sampler(13);
  const auto first = Sampled(sampler, packets, 0.5);
  sampler.Reseed(14);
  const auto second = Sampled(sampler, packets, 0.5);
  std::set<net::FiveTuple> f1;
  std::set<net::FiveTuple> f2;
  for (const auto& pkt : first) {
    f1.insert(pkt.rec->tuple);
  }
  for (const auto& pkt : second) {
    f2.insert(pkt.rec->tuple);
  }
  EXPECT_NE(f1, f2);
}

TEST(FlowSamplerTest, DeterministicWithoutReseed) {
  trace::Batch storage;
  const auto t = SmallTrace();
  const auto packets = FirstBatch(t, storage);
  FlowSampler sampler(17);
  const auto a = Sampled(sampler, packets, 0.5);
  const auto b = Sampled(sampler, packets, 0.5);
  EXPECT_EQ(a.size(), b.size());
}

// The rows a sampler keeps at a few rates, unkeyed and from the batch's flow
// table, in call order.
std::vector<std::vector<uint32_t>> Selections(FlowSampler& sampler, const trace::Batch& batch) {
  std::vector<std::vector<uint32_t>> out;
  trace::PacketVec kept;
  std::vector<uint32_t> rows;
  for (const double rate : {0.1, 0.5, 0.9}) {
    sampler.SampleInto(batch.packets, rate, kept, rows);
    out.push_back(rows);
    sampler.SampleInto(batch.packets, batch.flows, rate, kept, rows);
    out.push_back(rows);
  }
  return out;
}

TEST(FlowSamplerTest, LazyTableSelectsLikeTheLastSeed) {
  // Reseed only stores the seed and the next SampleInto builds its hash:
  // however many reseeds pile up between uses, and whether or not the
  // sampler was used before them, it then selects exactly what a sampler
  // constructed with the last seed selects.
  trace::Batch storage;
  const auto t = SmallTrace();
  (void)FirstBatch(t, storage);
  util::Rng seeds(31);
  for (const size_t reseeds : {1, 2, 7}) {
    SCOPED_TRACE(std::to_string(reseeds) + " reseeds");
    FlowSampler used(seeds.NextU64());
    (void)Selections(used, storage);
    FlowSampler unused(seeds.NextU64());
    uint64_t last = 0;
    for (size_t k = 0; k < reseeds; ++k) {
      last = seeds.NextU64();
      used.Reseed(last);
      unused.Reseed(last);
    }
    EXPECT_EQ(used.seed(), last);
    FlowSampler fresh(last);
    const auto want = Selections(fresh, storage);
    EXPECT_EQ(Selections(used, storage), want);
    EXPECT_EQ(Selections(unused, storage), want);
  }
}

TEST(FlowSamplerTest, ReseedWithTheSeedClonesAndRestores) {
  // Reseed(seed()) is how a snapshot restores a sampler and how a copy is
  // cloned: the copy selects like the original, whether either had built
  // its table before.
  trace::Batch storage;
  const auto t = SmallTrace();
  (void)FirstBatch(t, storage);
  FlowSampler original(41);
  (void)Selections(original, storage);
  FlowSampler restored(99);
  (void)Selections(restored, storage);
  restored.Reseed(original.seed());
  EXPECT_EQ(Selections(restored, storage), Selections(original, storage));

  FlowSampler never_used(43);
  FlowSampler clone(0);
  clone.Reseed(never_used.seed());
  EXPECT_EQ(Selections(clone, storage), Selections(never_used, storage));
}

// --------------------------------------------------------------- strategies --

std::vector<QueryDemand> Demands(std::initializer_list<std::pair<double, double>> list) {
  std::vector<QueryDemand> out;
  for (const auto& [cycles, min_rate] : list) {
    out.push_back({cycles, min_rate});
  }
  return out;
}

TEST(EqSrates, NoOverloadGivesFullRate) {
  const EqSratesStrategy s;
  const auto alloc = s.Allocate(Demands({{100, 0.1}, {200, 0.1}}), 1000);
  EXPECT_DOUBLE_EQ(alloc.rate[0], 1.0);
  EXPECT_DOUBLE_EQ(alloc.rate[1], 1.0);
}

TEST(EqSrates, AppliesSingleCommonRate) {
  const EqSratesStrategy s;
  const auto alloc = s.Allocate(Demands({{100, 0.0}, {300, 0.0}}), 200);
  EXPECT_DOUBLE_EQ(alloc.rate[0], 0.5);
  EXPECT_DOUBLE_EQ(alloc.rate[1], 0.5);
}

TEST(EqSrates, DisablesQueriesWhoseFloorExceedsRate) {
  const EqSratesStrategy s;
  // Common rate would be 0.25; query 1 needs at least 0.9 -> disabled, and
  // the survivor then gets min(1, 200/100) = 1.
  const auto alloc = s.Allocate(Demands({{100, 0.0}, {700, 0.9}}), 200);
  EXPECT_TRUE(alloc.disabled[1]);
  EXPECT_DOUBLE_EQ(alloc.rate[1], 0.0);
  EXPECT_DOUBLE_EQ(alloc.rate[0], 1.0);
}

TEST(DisableLargestMinDemandsTest, DropsLargestFirst) {
  // Floors: 50, 500, 100 cycles; capacity 200. Dropping the 500-cycle floor
  // suffices (50 + 100 = 150 fits), so only query 1 is disabled.
  const auto disabled =
      DisableLargestMinDemands(Demands({{100, 0.5}, {1000, 0.5}, {200, 0.5}}), 200);
  EXPECT_FALSE(disabled[0]);
  EXPECT_TRUE(disabled[1]);
  EXPECT_FALSE(disabled[2]);
}

TEST(DisableLargestMinDemandsTest, KeepsFeasibleSet) {
  const auto disabled =
      DisableLargestMinDemands(Demands({{100, 0.5}, {1000, 0.5}, {200, 0.5}}), 160);
  // Floors: 50, 500, 100. Capacity 160: drop 500, then 50+100=150 fits.
  EXPECT_FALSE(disabled[0]);
  EXPECT_TRUE(disabled[1]);
  EXPECT_FALSE(disabled[2]);
}

TEST(MmfsCpu, GuaranteesMinimumRates) {
  const MmfsCpuStrategy s;
  const auto demands = Demands({{1000, 0.3}, {500, 0.2}, {200, 0.1}});
  const auto alloc = s.Allocate(demands, 800);
  for (size_t q = 0; q < demands.size(); ++q) {
    ASSERT_FALSE(alloc.disabled[q]);
    EXPECT_GE(alloc.rate[q], demands[q].min_sampling_rate - 1e-9);
  }
}

TEST(MmfsCpu, NeverExceedsCapacity) {
  const MmfsCpuStrategy s;
  const auto demands = Demands({{1000, 0.3}, {500, 0.2}, {200, 0.1}});
  const auto alloc = s.Allocate(demands, 800);
  EXPECT_LE(alloc.TotalCycles(demands), 800 * (1 + 1e-9));
}

TEST(MmfsCpu, EqualizesCyclesNotRates) {
  // Two queries, no floors, cheap one fully satisfiable: CPU fairness gives
  // both the same cycles, so the cheap query gets the higher rate.
  const MmfsCpuStrategy s;
  const auto demands = Demands({{1000, 0.0}, {100, 0.0}});
  const auto alloc = s.Allocate(demands, 400);
  EXPECT_NEAR(alloc.rate[1], 1.0, 1e-6);                    // 100 cycles
  EXPECT_NEAR(alloc.rate[0] * 1000.0, 300.0, 1.0);          // remaining 300
}

TEST(MmfsPkt, EqualizesRates) {
  // Same scenario: packet fairness levels the sampling rate instead.
  const MmfsPktStrategy s;
  const auto demands = Demands({{1000, 0.0}, {100, 0.0}});
  const auto alloc = s.Allocate(demands, 400);
  EXPECT_NEAR(alloc.rate[0], alloc.rate[1], 1e-6);
  EXPECT_NEAR(alloc.rate[0], 400.0 / 1100.0, 1e-6);
}

TEST(MmfsPkt, FloorsBindAndOthersShareRemainder) {
  const MmfsPktStrategy s;
  const auto demands = Demands({{1000, 0.8}, {1000, 0.0}});
  const auto alloc = s.Allocate(demands, 1000);
  EXPECT_NEAR(alloc.rate[0], 0.8, 1e-6);
  EXPECT_NEAR(alloc.rate[1], 0.2, 1e-6);
}

TEST(MmfsPkt, MaximizesMinimumRateVsCpu) {
  // The Fig. 5.1 phenomenon: with a heavy and many light queries, packet
  // fairness gives the heavy query a strictly better rate.
  const MmfsPktStrategy pkt;
  const MmfsCpuStrategy cpu;
  auto demands = Demands({{1000, 0.0}});
  for (int i = 0; i < 10; ++i) {
    demands.push_back({100, 0.0});
  }
  const double capacity = 0.5 * 2000.0;
  const auto a_pkt = pkt.Allocate(demands, capacity);
  const auto a_cpu = cpu.Allocate(demands, capacity);
  double min_pkt = 1.0;
  double min_cpu = 1.0;
  for (size_t q = 0; q < demands.size(); ++q) {
    min_pkt = std::min(min_pkt, a_pkt.rate[q]);
    min_cpu = std::min(min_cpu, a_cpu.rate[q]);
  }
  EXPECT_GT(min_pkt, min_cpu + 0.1);
}

TEST(Strategies, InfeasibleFloorsDisableLargestDemands) {
  for (const auto kind :
       {StrategyKind::kMmfsCpu, StrategyKind::kMmfsPkt}) {
    const auto s = MakeStrategy(kind);
    const auto demands = Demands({{1000, 0.9}, {100, 0.9}});
    const auto alloc = s->Allocate(demands, 500);
    EXPECT_TRUE(alloc.disabled[0]) << s->name();
    EXPECT_FALSE(alloc.disabled[1]) << s->name();
    EXPECT_GE(alloc.rate[1], 0.9) << s->name();
  }
}

TEST(Strategies, ZeroCapacityYieldsZeroRates) {
  for (const auto kind :
       {StrategyKind::kEqSrates, StrategyKind::kMmfsCpu, StrategyKind::kMmfsPkt}) {
    const auto s = MakeStrategy(kind);
    const auto alloc = s->Allocate(Demands({{100, 0.0}, {200, 0.0}}), 0.0);
    for (const double r : alloc.rate) {
      EXPECT_LE(r, 1e-6) << s->name();
    }
  }
}

// Property sweep: for random demand vectors, every strategy must produce a
// feasible allocation (capacity respected, floors respected for enabled
// queries, rates in [0,1]); the mmfs variants must exhaust capacity when
// demand exceeds it (work conservation).
class StrategyProperty : public ::testing::TestWithParam<int> {};

TEST_P(StrategyProperty, RandomDemandsFeasibleAndWorkConserving) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 997 + 3);
  const size_t n = 2 + rng.NextBelow(8);
  std::vector<QueryDemand> demands(n);
  double total = 0.0;
  for (auto& d : demands) {
    d.predicted_cycles = 10.0 + rng.NextDouble() * 1000.0;
    d.min_sampling_rate = rng.NextDouble() * 0.5;
    total += d.predicted_cycles;
  }
  const double capacity = total * (0.2 + 0.7 * rng.NextDouble());

  for (const auto kind :
       {StrategyKind::kEqSrates, StrategyKind::kMmfsCpu, StrategyKind::kMmfsPkt}) {
    const auto s = MakeStrategy(kind);
    const auto alloc = s->Allocate(demands, capacity);
    ASSERT_EQ(alloc.rate.size(), n);
    double used = 0.0;
    for (size_t q = 0; q < n; ++q) {
      EXPECT_GE(alloc.rate[q], -1e-9) << s->name();
      EXPECT_LE(alloc.rate[q], 1.0 + 1e-9) << s->name();
      if (!alloc.disabled[q]) {
        EXPECT_GE(alloc.rate[q], demands[q].min_sampling_rate - 1e-6) << s->name();
      } else {
        EXPECT_DOUBLE_EQ(alloc.rate[q], 0.0) << s->name();
      }
      used += alloc.rate[q] * demands[q].predicted_cycles;
    }
    EXPECT_LE(used, capacity * (1.0 + 1e-6)) << s->name();
    if (kind != StrategyKind::kEqSrates && capacity < total) {
      // Work conservation: the mmfs variants leave no capacity unused while
      // some query is still below rate 1.
      bool any_below_one = false;
      for (size_t q = 0; q < n; ++q) {
        if (!alloc.disabled[q] && alloc.rate[q] < 1.0 - 1e-6) {
          any_below_one = true;
        }
      }
      if (any_below_one) {
        EXPECT_GT(used, capacity * 0.98) << s->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCases, StrategyProperty, ::testing::Range(0, 20));

// Max-min optimality check for mmfs_pkt: no pairwise transfer can raise the
// minimum rate (exchange argument on random instances).
TEST(MmfsPkt, NoTransferImprovesMinimum) {
  util::Rng rng(123);
  const MmfsPktStrategy s;
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 3 + rng.NextBelow(5);
    std::vector<QueryDemand> demands(n);
    double total = 0.0;
    for (auto& d : demands) {
      d.predicted_cycles = 50.0 + rng.NextDouble() * 500.0;
      d.min_sampling_rate = 0.0;
      total += d.predicted_cycles;
    }
    const double capacity = 0.5 * total;
    const auto alloc = s.Allocate(demands, capacity);
    double min_rate = 1.0;
    for (size_t q = 0; q < n; ++q) {
      min_rate = std::min(min_rate, alloc.rate[q]);
    }
    // All rates equal the minimum (no floors, capacity binding).
    for (size_t q = 0; q < n; ++q) {
      EXPECT_NEAR(alloc.rate[q], min_rate, 1e-6);
    }
  }
}

// -------------------------------------------------------------- enforcement --

TEST(Enforcement, WellBehavedQueryHasUnitCorrection) {
  EnforcementPolicy p;
  for (int i = 0; i < 20; ++i) {
    p.Observe(1000.0, 990.0);
  }
  EXPECT_DOUBLE_EQ(p.correction(), 1.0);
  EXPECT_FALSE(p.InPenalty());
}

TEST(Enforcement, ModerateOveruseYieldsProportionalCorrection) {
  EnforcementPolicy p;
  for (int i = 0; i < 20; ++i) {
    p.Observe(1000.0, 1300.0);
  }
  EXPECT_NEAR(p.correction(), 1.3, 0.05);
  EXPECT_FALSE(p.InPenalty());
}

TEST(Enforcement, GrossViolationsTriggerPenalty) {
  EnforcementConfig cfg;
  cfg.strikes_to_disable = 3;
  cfg.penalty_bins = 5;
  EnforcementPolicy p(cfg);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(p.InPenalty());
    p.Observe(1000.0, 5000.0);
  }
  EXPECT_TRUE(p.InPenalty());
  EXPECT_EQ(p.times_policed(), 1u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(p.InPenalty());
    p.Tick();
  }
  EXPECT_FALSE(p.InPenalty());
}

TEST(Enforcement, IntermittentViolationsResetStrikes) {
  EnforcementConfig cfg;
  cfg.strikes_to_disable = 3;
  EnforcementPolicy p(cfg);
  for (int i = 0; i < 10; ++i) {
    p.Observe(1000.0, 5000.0);  // strike
    p.Observe(1000.0, 900.0);   // reset
  }
  EXPECT_FALSE(p.InPenalty());
  EXPECT_EQ(p.times_policed(), 0u);
}

TEST(Enforcement, ZeroGrantObservationsIgnored) {
  EnforcementPolicy p;
  p.Observe(0.0, 1e9);
  EXPECT_DOUBLE_EQ(p.correction(), 1.0);
}

}  // namespace
}  // namespace shedmon::shed
