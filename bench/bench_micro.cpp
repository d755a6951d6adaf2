// Micro-benchmarks (google-benchmark) for the per-packet primitives whose
// "deterministic worst-case cost" the paper's design relies on (§3.2.1):
// H3 hashing (fused and per-aggregate), bitmap counting, feature extraction,
// FCBF + MLR fitting, samplers, payload search, the allocation strategies, and
// a whole-pipeline packets/sec run.
//
// Run with --benchmark_out=<file> --benchmark_out_format=json to produce the
// machine-readable results that BENCH_*.json baselines are built from (see
// tools/make_bench_baseline.py and the "Performance" section of README.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/pipeline.h"
#include "src/core/cost.h"
#include "src/core/system.h"
#include "src/exec/thread_pool.h"
#include "src/obs/trace.h"
#include "src/features/extractor.h"
#include "src/predict/fcbf.h"
#include "src/predict/predictors.h"
#include "src/query/accuracy.h"
#include "src/query/queries.h"
#include "src/query/search.h"
#include "src/shed/sampler.h"
#include "src/shed/strategy.h"
#include "src/sketch/bitmap.h"
#include "src/sketch/fused_hash.h"
#include "src/sketch/h3.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"

namespace {

using namespace shedmon;

const trace::Trace& SharedTrace() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::CescaII();
    spec.duration_s = 3.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  return trace;
}

const trace::Batch& SharedBatch() {
  static trace::Batch batch = [] {
    trace::Batcher batcher(SharedTrace(), 1'000'000);
    trace::Batch b;
    batcher.Next(b);
    return b;
  }();
  return batch;
}

void BM_H3Hash(benchmark::State& state) {
  sketch::H3Hash hash(1);
  const auto& packets = SharedBatch().packets;
  size_t i = 0;
  for (auto _ : state) {
    const auto key = packets[i % packets.size()].rec->tuple.Bytes();
    benchmark::DoNotOptimize(hash.Hash(key.data(), key.size()));
    ++i;
  }
}
BENCHMARK(BM_H3Hash);

// A/B pair for the fused hot path: all ten per-aggregate hashes of a packet
// computed in one fused table pass vs. the pre-fusion reference (key
// materialization + one H3 walk per aggregate). Identical outputs; the ratio
// is the point.
void BM_FusedAggregateHash(benchmark::State& state) {
  const sketch::FusedTupleHasher fused = features::MakeAggregateHasher(0x5eed);
  const auto& packets = SharedBatch().packets;
  std::array<uint64_t, features::kNumAggregates> h{};
  size_t i = 0;
  for (auto _ : state) {
    const auto key = packets[i % packets.size()].rec->tuple.Bytes();
    fused.HashAllFixed<13, features::kNumAggregates>(key.data(), h);
    benchmark::DoNotOptimize(h);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FusedAggregateHash);

void BM_UnfusedAggregateHash(benchmark::State& state) {
  std::vector<sketch::H3Hash> hashes;
  for (int a = 0; a < features::kNumAggregates; ++a) {
    hashes.emplace_back(
        features::AggregateHashSeed(0x5eed, static_cast<features::Aggregate>(a)));
  }
  const auto& packets = SharedBatch().packets;
  std::array<uint64_t, features::kNumAggregates> h{};
  uint8_t key[13];
  size_t i = 0;
  for (auto _ : state) {
    const net::FiveTuple& t = packets[i % packets.size()].rec->tuple;
    for (int a = 0; a < features::kNumAggregates; ++a) {
      const size_t len =
          features::AggregateKey(t, static_cast<features::Aggregate>(a), key);
      h[static_cast<size_t>(a)] = hashes[static_cast<size_t>(a)].Hash(key, len);
    }
    benchmark::DoNotOptimize(h);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_UnfusedAggregateHash);

void BM_MultiResBitmapInsert(benchmark::State& state) {
  sketch::MultiResBitmap bitmap;
  util::Rng rng(2);
  for (auto _ : state) {
    bitmap.Insert(rng.NextU64());
  }
}
BENCHMARK(BM_MultiResBitmapInsert);

void BM_MultiResBitmapEstimate(benchmark::State& state) {
  sketch::MultiResBitmap bitmap;
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    bitmap.Insert(rng.NextU64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitmap.Estimate());
  }
}
BENCHMARK(BM_MultiResBitmapEstimate);

void BM_FeatureExtraction(benchmark::State& state) {
  features::FeatureExtractor extractor;
  const auto& packets = SharedBatch().packets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(packets));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FeatureExtraction);

// The pre-fusion extraction path, kept as the regression reference for the
// fused Extract (BM_FeatureExtraction above).
void BM_FeatureExtractionUnfused(benchmark::State& state) {
  features::FeatureExtractor extractor;
  const auto& packets = SharedBatch().packets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.ExtractReference(packets));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FeatureExtractionUnfused);

// Consecutive 100 ms bins of a seeded UPC-I trace, each with the rows ten
// queries keep at packet-sampling rate 0.5: the extraction work of one
// overload-payload bin. The packets' records live in the static trace.
struct ExtractionBin {
  trace::PacketVec packets;
  std::vector<std::vector<uint32_t>> rows;  // per query
};

const std::vector<ExtractionBin>& UpcBins() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::UpcI();
    spec.duration_s = 2.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  static const std::vector<ExtractionBin> bins = [] {
    std::vector<shed::PacketSampler> samplers;
    for (uint64_t q = 0; q < 10; ++q) {
      samplers.emplace_back(100 + q);
    }
    trace::Batcher batcher(trace, 100'000);
    trace::Batch batch;
    trace::PacketVec sampled;
    std::vector<ExtractionBin> out;
    while (batcher.Next(batch)) {
      ExtractionBin& bin = out.emplace_back();
      bin.packets = batch.packets;
      bin.rows.resize(samplers.size());
      for (size_t q = 0; q < samplers.size(); ++q) {
        samplers[q].SampleInto(batch.packets, 0.5, sampled, bin.rows[q]);
      }
    }
    return out;
  }();
  return bins;
}

// One overload-payload bin's extraction: the bin's flow table is built and
// the prediction stage keys and counts the whole bin, then ten queries total
// the rows they kept per flow and re-count those flows from the keys.
// Intervals restart every ten bins, as in the pipeline.
void BM_BinExtraction(benchmark::State& state) {
  const auto& bins = UpcBins();
  features::FeatureExtractor system;
  const features::FeatureExtractor::Config config;
  std::vector<features::FeatureCounter> counters(
      10, features::FeatureCounter(config.mrb_components, config.mrb_bits));
  trace::FlowTable flows;
  trace::FlowTable kept_flows;
  size_t i = 0;
  int64_t packets = 0;
  for (auto _ : state) {
    if (i % 10 == 0) {
      system.StartInterval();
      for (auto& c : counters) {
        c.StartInterval();
      }
    }
    const ExtractionBin& bin = bins[i++ % bins.size()];
    flows.Build(bin.packets);
    benchmark::DoNotOptimize(system.Extract(bin.packets, flows));
    for (size_t q = 0; q < counters.size(); ++q) {
      kept_flows.Subset(flows, bin.rows[q]);
      benchmark::DoNotOptimize(counters[q].Count(system.keys(), kept_flows));
    }
    packets += static_cast<int64_t>(bin.packets.size());
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK(BM_BinExtraction);

void BM_MlrFitAndPredict(benchmark::State& state) {
  predict::MlrPredictor::Config cfg;
  cfg.history = static_cast<size_t>(state.range(0));
  predict::MlrPredictor predictor(cfg);
  util::Rng rng(4);
  features::FeatureVector f{};
  for (size_t i = 0; i < cfg.history; ++i) {
    f[features::kFeatPackets] = 100.0 + rng.NextDouble() * 400.0;
    f[features::kFeatBytes] = f[features::kFeatPackets] * 700.0;
    f[features::kFeatNewFiveTuple] = 10.0 + rng.NextDouble() * 100.0;
    predictor.Observe(f, 40.0 * f[features::kFeatPackets]);
  }
  for (auto _ : state) {
    f[features::kFeatPackets] = 100.0 + rng.NextDouble() * 400.0;
    f[features::kFeatBytes] = f[features::kFeatPackets] * 700.0;
    predictor.Observe(f, 40.0 * f[features::kFeatPackets]);
    benchmark::DoNotOptimize(predictor.Predict(f));
  }
}
BENCHMARK(BM_MlrFitAndPredict)->Arg(30)->Arg(60)->Arg(120);

void BM_FcbfSelection(benchmark::State& state) {
  const size_t n = 60;
  predict::Matrix x(n, features::kNumFeatures);
  std::vector<double> y(n);
  util::Rng rng(5);
  for (size_t r = 0; r < n; ++r) {
    for (int c = 0; c < features::kNumFeatures; ++c) {
      x.At(r, static_cast<size_t>(c)) = rng.NextDouble() * 100.0;
    }
    y[r] = x.At(r, 0) * 40.0 + rng.NextGaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict::SelectFeatures(x, y, 0.6));
  }
}
BENCHMARK(BM_FcbfSelection);

// (features, cycles) of the consecutive 100 ms bins of a seeded Abilene
// trace, costed like the model oracle's "flows" query; the extractor starts
// a new 1 s measurement interval every ten bins, as a query's engine does.
const std::vector<std::pair<features::FeatureVector, double>>& AbileneBins() {
  static const auto bins = [] {
    trace::TraceSpec spec = trace::Abilene();
    spec.duration_s = 20.0;
    const trace::Trace trace = trace::TraceGenerator(spec).Generate();
    features::FeatureExtractor extractor;
    const core::ModelCostOracle oracle;
    trace::Batcher batcher(trace, 100'000);
    trace::Batch batch;
    std::vector<std::pair<features::FeatureVector, double>> out;
    while (batcher.Next(batch)) {
      if (out.size() % 10 == 0) {
        extractor.StartInterval();
      }
      out.emplace_back(extractor.Extract(batch.packets, batch.flows),
                       oracle.QueryCost("flows", batch.packets));
    }
    return out;
  }();
  return bins;
}

// One Observe (FCBF + MLR refit) and Predict over a 60-bin window of real
// traffic features. Unlike BM_FcbfSelection's independent uniform columns,
// about half the columns clear the 0.6 relevance bar here, so the
// redundancy phase runs as it does in the pipeline.
void BM_MlrRefitTrafficWindow(benchmark::State& state) {
  const auto& bins = AbileneBins();
  predict::MlrPredictor predictor;
  size_t i = 0;
  for (; i < predict::MlrPredictor::Config().history; ++i) {
    predictor.Observe(bins[i].first, bins[i].second);
  }
  for (auto _ : state) {
    const auto& [f, cycles] = bins[i++ % bins.size()];
    predictor.Observe(f, cycles);
    benchmark::DoNotOptimize(predictor.Predict(f));
  }
}
BENCHMARK(BM_MlrRefitTrafficWindow);

// In-place sampling into reused caller-owned buffers: the per-bin path of
// MonitoringSystem's per-query execute phase, which allocates nothing after
// warm-up. (The names predate the in-place API; compare_bench.py gates them
// by name against the committed BENCH_*.json baselines.)
void BM_PacketSampler(benchmark::State& state) {
  shed::PacketSampler sampler(6);
  const auto& packets = SharedBatch().packets;
  trace::PacketVec out;
  std::vector<uint32_t> rows;
  for (auto _ : state) {
    sampler.SampleInto(packets, 0.5, out, rows);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_PacketSampler);

void BM_FlowSampler(benchmark::State& state) {
  shed::FlowSampler sampler(7);
  const auto& packets = SharedBatch().packets;
  trace::PacketVec out;
  std::vector<uint32_t> rows;
  for (auto _ : state) {
    sampler.SampleInto(packets, 0.5, out, rows);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FlowSampler);

// The keyed flow sampler the pipeline runs: it reads the bin's flow table,
// so each distinct 5-tuple is hashed once (the table is not timed; the
// pipeline builds it once per bin for every per-flow consumer).
void BM_FlowSamplerKeyed(benchmark::State& state) {
  shed::FlowSampler sampler(7);
  const trace::Batch& batch = SharedBatch();
  const auto& packets = batch.packets;
  trace::PacketVec out;
  std::vector<uint32_t> rows;
  for (auto _ : state) {
    sampler.SampleInto(packets, batch.flows, 0.5, out, rows);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FlowSamplerKeyed);

// The interval-end half of flow sampling: a reseed, as every query's
// sampler gets once per measurement interval. The hash table it implies is
// built by the next SampleInto, which BM_FlowSamplerKeyed times.
void BM_FlowSamplerReseed(benchmark::State& state) {
  shed::FlowSampler sampler(7);
  uint64_t seed = 8;
  for (auto _ : state) {
    sampler.Reseed(seed++);
    benchmark::DoNotOptimize(sampler.seed());
  }
}
BENCHMARK(BM_FlowSamplerReseed);

// Fifty consecutive 100 ms bins of a seeded Abilene header trace, each with
// its flow table.
const std::vector<trace::Batch>& AbileneBatches() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::Abilene();
    spec.duration_s = 5.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  static const std::vector<trace::Batch> batches = [] {
    std::vector<trace::Batch> out;
    trace::Batcher batcher(trace, 100'000);
    for (trace::Batch batch; batcher.Next(batch);) {
      out.push_back(std::move(batch));
    }
    return out;
  }();
  return batches;
}

// One Abilene bin through one query at rate 1, reading the bin's flow
// table as the pipeline hands it; every tenth bin also closes the
// measurement interval, as it does in the pipeline.
void BM_QueryBin(benchmark::State& state, const char* name) {
  const auto& batches = AbileneBatches();
  std::unique_ptr<query::Query> q = query::MakeQuery(name);
  size_t i = 0;
  int64_t packets = 0;
  for (auto _ : state) {
    const trace::Batch& batch = batches[i % batches.size()];
    q->ProcessBatch({batch.packets, batch.start_us, batch.duration_us, 1.0, &batch.flows});
    if (++i % 10 == 0) {
      q->EndInterval();
    }
    packets += static_cast<int64_t>(batch.size());
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK_CAPTURE(BM_QueryBin, counter, "counter");
BENCHMARK_CAPTURE(BM_QueryBin, application, "application");
BENCHMARK_CAPTURE(BM_QueryBin, high_watermark, "high-watermark");
BENCHMARK_CAPTURE(BM_QueryBin, flows, "flows");
BENCHMARK_CAPTURE(BM_QueryBin, top_k, "top-k");
BENCHMARK_CAPTURE(BM_QueryBin, autofocus, "autofocus");
BENCHMARK_CAPTURE(BM_QueryBin, super_sources, "super-sources");
BENCHMARK_CAPTURE(BM_QueryBin, trace, "trace");
BENCHMARK_CAPTURE(BM_QueryBin, pattern_search, "pattern-search");
BENCHMARK_CAPTURE(BM_QueryBin, p2p_detector, "p2p-detector");

// Consecutive 100 ms bins of a seeded UPC-I trace with their payloads and
// flow tables: the bins overload-payload's references read.
const std::vector<trace::Batch>& UpcPayloadBatches() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::UpcI();
    spec.duration_s = 2.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  static const std::vector<trace::Batch> batches = [] {
    std::vector<trace::Batch> out;
    trace::Batcher batcher(trace, 100'000);
    for (trace::Batch batch; batcher.Next(batch);) {
      out.push_back(std::move(batch));
    }
    return out;
  }();
  return batches;
}

// One UPC-I bin through the ten references as query::MakeReference builds
// them (trace and pattern-search as packet counters), at rate 1 with
// payloads; every tenth bin also closes the measurement interval.
void BM_ReferenceBin(benchmark::State& state) {
  const auto& batches = UpcPayloadBatches();
  std::vector<std::unique_ptr<query::Query>> references;
  for (const std::string& name : query::AllQueryNames()) {
    references.push_back(query::MakeReference(name));
  }
  size_t i = 0;
  int64_t packets = 0;
  for (auto _ : state) {
    const trace::Batch& batch = batches[i % batches.size()];
    const query::BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0,
                               &batch.flows};
    const bool interval_end = ++i % 10 == 0;
    for (auto& reference : references) {
      reference->ProcessBatch(in);
      if (interval_end) {
        reference->EndInterval();
      }
    }
    packets += static_cast<int64_t>(batch.size());
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK(BM_ReferenceBin)->Unit(benchmark::kMicrosecond);

// The work of the bin that closes an interval: untimed, `name` runs one
// interval of bins at rate 1 (UPC-I for super-sources, as overload-payload
// feeds it; Abilene otherwise); timed, it closes the interval and a twin
// adopts the closed interval, as an elided pipeline reference does.
void BM_IntervalEnd(benchmark::State& state, const char* name) {
  const std::string kind(name);
  const auto& batches = kind == "super-sources" ? UpcPayloadBatches() : AbileneBatches();
  std::unique_ptr<query::Query> q = query::MakeQuery(kind);
  std::unique_ptr<query::Query> twin = query::MakeQuery(kind);
  size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t b = 0; b < q->interval_bins(); ++b, ++i) {
      const trace::Batch& batch = batches[i % batches.size()];
      q->ProcessBatch({batch.packets, batch.start_us, batch.duration_us, 1.0, &batch.flows});
    }
    state.ResumeTiming();
    q->EndInterval();
    twin->AdoptFrom(*q, query::Query::Adopt::kLastClosed);
  }
}
BENCHMARK_CAPTURE(BM_IntervalEnd, top_k, "top-k")
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(500);
BENCHMARK_CAPTURE(BM_IntervalEnd, super_sources, "super-sources")
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(500);
BENCHMARK_CAPTURE(BM_IntervalEnd, flows, "flows")
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(500);

std::vector<uint8_t> RandomBytes(size_t len) {
  std::vector<uint8_t> text(len);
  util::Rng rng(8);
  for (auto& b : text) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return text;
}

// Searches one full-MTU random payload for `needle`.
void SearchMtuPayload(benchmark::State& state, std::string needle) {
  const query::Searcher searcher(std::move(needle));
  const std::vector<uint8_t> text = RandomBytes(1460);
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.Find(text.data(), text.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}

// Named after the matcher it first measured: tools/compare_bench.py gates
// hot-path rows by prefix-matching names against BENCH_PR3.json, so a rename
// would silently stop gating the payload matcher.
void BM_BoyerMoore(benchmark::State& state) { SearchMtuPayload(state, "GET / HTTP/1.1"); }
BENCHMARK(BM_BoyerMoore);

// pattern-search's default needle.
void BM_PatternSearchDefault(benchmark::State& state) { SearchMtuPayload(state, "HTTP/1.1"); }
BENCHMARK(BM_PatternSearchDefault);

// p2p-detector's inspection: its three signatures over a 256-byte prefix.
void BM_P2pSignatureScan(benchmark::State& state) {
  const std::vector<query::Searcher> signatures = {
      query::Searcher(std::string(trace::BittorrentSignature())),
      query::Searcher(std::string(trace::GnutellaSignature())),
      query::Searcher(std::string(trace::EdonkeySignature()))};
  const std::vector<uint8_t> text = RandomBytes(256);
  for (auto _ : state) {
    for (const query::Searcher& sig : signatures) {
      benchmark::DoNotOptimize(sig.Contains(text.data(), text.size()));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_P2pSignatureScan);

void BM_MmfsAllocation(benchmark::State& state) {
  const auto strategy = shed::MakeStrategy(shed::StrategyKind::kMmfsPkt);
  std::vector<shed::QueryDemand> demands(static_cast<size_t>(state.range(0)));
  util::Rng rng(9);
  double total = 0.0;
  for (auto& d : demands) {
    d.predicted_cycles = 100.0 + rng.NextDouble() * 1000.0;
    d.min_sampling_rate = rng.NextDouble() * 0.5;
    total += d.predicted_cycles;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->Allocate(demands, total * 0.5));
  }
}
BENCHMARK(BM_MmfsAllocation)->Arg(8)->Arg(64);

// One fork-join wave of the ten standard queries on a two-worker pool, the
// shape of the overload-payload workload's per-bin waves. Task i spins for a
// time proportional to query i's measured cost (`bench_fig2_2_query_cost
// --quick --oracle=measured`, "x cheapest", in query::AllQueryNames order),
// so the wave carries Fig 2.2's ~46x cost spread. It measures the fork-join's
// dispatch and load balance, not query code: ~130k dependent multiply-adds.
void BM_ParallelForWave(benchmark::State& state) {
  static constexpr double kRelativeCost[] = {4.2, 9.2, 1.0, 9.2, 1.2, 20.7, 45.8, 6.4, 6.6, 27.5};
  constexpr size_t kTasks = std::size(kRelativeCost);
  constexpr double kSpinsPerUnit = 1000.0;
  exec::ThreadPool pool(2);
  std::vector<uint64_t> results(kTasks);
  const std::function<void(size_t)> task = [&results](size_t i) {
    uint64_t x = i + 1;
    const auto spins = static_cast<uint64_t>(kRelativeCost[i] * kSpinsPerUnit);
    for (uint64_t s = 0; s < spins; ++s) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    results[i] = x;
  };
  for (auto _ : state) {
    pool.ParallelFor(0, kTasks, 1, task);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
// Wall-clock: the workers do most of the spinning.
BENCHMARK(BM_ParallelForWave)->UseRealTime()->Unit(benchmark::kMicrosecond);

// Whole-pipeline throughput: batching, prediction-stage extraction, shedding
// and two standard queries over the shared trace, under the deterministic
// model oracle. The items/sec figure is end-to-end packets per second of the
// monitoring system, the number the paper's "negligible shedder overhead"
// claim cashes out to.
void BM_PipelinePackets(benchmark::State& state) {
  const trace::Trace& trace = SharedTrace();
  for (auto _ : state) {
    core::SystemConfig cfg;
    core::MonitoringSystem system(cfg, core::MakeOracle(core::OracleKind::kModel));
    system.AddQuery(query::MakeQuery("counter"));
    system.AddQuery(query::MakeQuery("flows"));
    trace::Batcher batcher(trace, cfg.time_bin_us);
    trace::Batch batch;
    while (batcher.Next(batch)) {
      system.ProcessBatch(batch);
    }
    system.Finish();
    benchmark::DoNotOptimize(system.total_packets());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.packets.size()));
}
BENCHMARK(BM_PipelinePackets)->Unit(benchmark::kMillisecond);

// Same workload with the span tracer armed on every stage: the paired gate
// in tools/compare_bench.py holds this within 5% of BM_PipelinePackets, the
// budget the lock-free per-thread rings are designed to.
void BM_PipelinePacketsTraced(benchmark::State& state) {
  const trace::Trace& trace = SharedTrace();
  for (auto _ : state) {
    core::SystemConfig cfg;
    core::MonitoringSystem system(cfg, core::MakeOracle(core::OracleKind::kModel));
    obs::Tracer tracer;
    tracer.AttachMetrics(&system.metrics());
    system.SetTracer(&tracer);
    system.AddQuery(query::MakeQuery("counter"));
    system.AddQuery(query::MakeQuery("flows"));
    trace::Batcher batcher(trace, cfg.time_bin_us);
    trace::Batch batch;
    while (batcher.Next(batch)) {
      system.ProcessBatch(batch);
    }
    system.Finish();
    benchmark::DoNotOptimize(system.total_packets());
    benchmark::DoNotOptimize(tracer.dropped());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.packets.size()));
}
BENCHMARK(BM_PipelinePacketsTraced)->Unit(benchmark::kMillisecond);

// Fourteen-query workload for BM_PipelinePacketsThreads: the standard mix
// plus duplicate instances, the shape of a CoMo box loaded with many user
// queries. Duplicating the byte-heavy giants (trace, pattern-search) keeps
// any single query under a quarter of the total work, so the LPT schedule
// stays balanced at four workers.
std::vector<std::string> ScalingWorkload() {
  return {"counter", "flows",          "application", "top-k", "autofocus",
          "super-sources", "high-watermark", "trace",       "flows", "pattern-search",
          "top-k",   "application",    "trace",       "pattern-search"};
}

// Deterministic parallel-makespan speedup of a finished run under the model
// oracle: per-bin query work (BinLog::per_query_cycles) is assigned to
// `threads` workers greedily (LPT); the shared prediction-stage extraction
// plus subsystem overheads (ps, ls, como) stay on the coordinator. This is
// the machine-independent companion to the wall-clock numbers: on a
// single-core host (like the box that records BENCH_*.json) the wall clock
// cannot scale, but the model makespan — computed from the same
// bit-reproducible cycle charges — shows what the worker pool buys. Each
// query's batch stays whole, as it does in the query wave, so treat the
// counter as the schedule bound, not a measurement.
double ModelMakespanSpeedup(const std::vector<core::BinLog>& log, size_t threads) {
  if (threads == 0) {
    threads = 1;
  }
  double serial_total = 0.0;
  double parallel_total = 0.0;
  for (const core::BinLog& bin : log) {
    // como_cycles is an emulated accounting charge (capture/storage share of
    // the budget), not work this process executes, so it is not part of
    // either schedule.
    const double coordinator = bin.ps_cycles + bin.ls_cycles;
    std::vector<double> work = bin.per_query_cycles;
    std::sort(work.begin(), work.end(), std::greater<double>());
    std::vector<double> workers(threads, 0.0);
    for (const double w : work) {
      *std::min_element(workers.begin(), workers.end()) += w;
    }
    serial_total += coordinator + bin.query_cycles;
    parallel_total += coordinator + *std::max_element(workers.begin(), workers.end());
  }
  return parallel_total > 0.0 ? serial_total / parallel_total : 1.0;
}

// Whole-pipeline thread-scaling benchmark: per-query stages fanned out over
// SystemConfig::num_threads workers (threads:0 = the serial path). Outputs
// are bit-identical at every thread count, so the throughput ratio is pure
// execution speed. items_per_second is wall-clock (needs >= `threads` cores
// to scale); the model_speedup counter is the deterministic makespan ratio
// defined above.
void BM_PipelinePacketsThreads(benchmark::State& state) {
  const trace::Trace& trace = SharedTrace();
  const size_t threads = static_cast<size_t>(state.range(0));
  double model_speedup = 1.0;
  for (auto _ : state) {
    core::SystemConfig cfg;
    // Ample budget: no shedding, so every query processes full batches and
    // the parallel stages carry all the work the serial path would.
    cfg.cycles_per_bin = 1e15;
    cfg.num_threads = threads;
    core::MonitoringSystem system(cfg, core::MakeOracle(core::OracleKind::kModel));
    for (const auto& name : ScalingWorkload()) {
      system.AddQuery(query::MakeQuery(name));
    }
    trace::Batcher batcher(trace, cfg.time_bin_us);
    trace::Batch batch;
    while (batcher.Next(batch)) {
      system.ProcessBatch(batch);
    }
    system.Finish();
    benchmark::DoNotOptimize(system.total_packets());
    model_speedup = ModelMakespanSpeedup(system.log(), threads);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.packets.size()));
  state.counters["model_speedup"] = model_speedup;
}
BENCHMARK(BM_PipelinePacketsThreads)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    // Wall-clock rates: with workers doing the processing, the main thread's
    // CPU time would overstate throughput.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Capture ingest: payload bytes copied into the open bin
// ---------------------------------------------------------------------------

// One giant open bin so the loop measures Push alone — no bin closes, no
// query work. This is the capture front-end's per-packet ingest cost: the
// consumer pushes every decoded frame's payload bytes, which the pipeline
// copies into its arena, so copied_bytes_per_packet reports the mean payload
// size.
std::unique_ptr<api::Pipeline> IngestOnlyPipeline() {
  core::SystemConfig config;
  config.shedder = core::ShedderKind::kNoShed;
  config.cycles_per_bin = 1e15;
  config.time_bin_us = 3'600'000'000ULL;
  api::PipelineBuilder builder;
  builder.Config(config).AddQuery("counter");
  return builder.BuildUnique();
}

void BM_CaptureIngestCopy(benchmark::State& state) {
  const trace::Trace& trace = SharedTrace();
  // Materialize every payload once up front; the bench then measures only
  // the ingest boundary, the same shape as capture slots feeding the
  // pipeline.
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(trace.packets.size());
  for (const auto& rec : trace.packets) {
    payloads.emplace_back(rec.payload_len);
    if (rec.payload_len > 0) {
      trace::MaterializePayload(rec, payloads.back().data());
    }
  }

  auto pipeline = IngestOnlyPipeline();
  uint64_t copied = 0;
  uint64_t payload_bytes = 0;
  int64_t pushes = 0;
  size_t i = 0;
  size_t since_rebuild = 0;
  for (auto _ : state) {
    const net::PacketRecord& rec = trace.packets[i];
    net::Packet packet{&rec, payloads[i].empty() ? nullptr : payloads[i].data(),
                       rec.payload_len};
    pipeline->Push(packet);
    payload_bytes += rec.payload_len;
    ++pushes;
    if (++i == trace.packets.size()) {
      i = 0;
    }
    // The open bin accumulates records; start fresh periodically (untimed)
    // so the bench measures steady-state ingest, not memory growth.
    if (++since_rebuild == 200'000) {
      state.PauseTiming();
      pipeline->Finish();  // Stats() snapshots refresh on bin close
      copied += pipeline->Stats().ingest_copied_bytes;
      pipeline = IngestOnlyPipeline();
      since_rebuild = 0;
      state.ResumeTiming();
    }
  }
  pipeline->Finish();
  copied += pipeline->Stats().ingest_copied_bytes;
  state.SetItemsProcessed(pushes);
  state.SetBytesProcessed(static_cast<int64_t>(payload_bytes));
  state.counters["copied_bytes_per_packet"] =
      pushes > 0 ? static_cast<double>(copied) / static_cast<double>(pushes) : 0.0;
}

BENCHMARK(BM_CaptureIngestCopy);

}  // namespace

BENCHMARK_MAIN();
