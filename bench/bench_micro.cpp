// Micro-benchmarks (google-benchmark) for the per-packet primitives whose
// "deterministic worst-case cost" the paper's design relies on (§3.2.1):
// H3 hashing (fused and per-aggregate), bitmap counting, feature extraction,
// FCBF + MLR fitting, samplers, Boyer-Moore, the allocation strategies, and
// a whole-pipeline packets/sec run.
//
// Run with --benchmark_out=<file> --benchmark_out_format=json to produce the
// machine-readable results that BENCH_*.json baselines are built from (see
// tools/make_bench_baseline.py and the "Performance" section of README.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/api/pipeline.h"
#include "src/core/cost.h"
#include "src/core/system.h"
#include "src/obs/trace.h"
#include "src/features/extractor.h"
#include "src/predict/fcbf.h"
#include "src/predict/predictors.h"
#include "src/query/boyer_moore.h"
#include "src/query/queries.h"
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

void BM_PacketSampler(benchmark::State& state) {
  shed::PacketSampler sampler(6);
  const auto& packets = SharedBatch().packets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(packets, 0.5));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_PacketSampler);

void BM_FlowSampler(benchmark::State& state) {
  shed::FlowSampler sampler(7);
  const auto& packets = SharedBatch().packets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(packets, 0.5));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FlowSampler);

// In-place sampling into a reused caller-owned buffer: the per-bin path of
// MonitoringSystem's per-query execute phase, which allocates nothing after
// warm-up.
void BM_PacketSamplerInto(benchmark::State& state) {
  shed::PacketSampler sampler(6);
  const auto& packets = SharedBatch().packets;
  trace::PacketVec out;
  for (auto _ : state) {
    sampler.SampleInto(packets, 0.5, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_PacketSamplerInto);

void BM_FlowSamplerInto(benchmark::State& state) {
  shed::FlowSampler sampler(7);
  const auto& packets = SharedBatch().packets;
  trace::PacketVec out;
  for (auto _ : state) {
    sampler.SampleInto(packets, 0.5, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FlowSamplerInto);

void BM_BoyerMoore(benchmark::State& state) {
  const query::BoyerMoore matcher("GET / HTTP/1.1");
  std::vector<uint8_t> text(1460);
  util::Rng rng(8);
  for (auto& b : text) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Find(text.data(), text.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_BoyerMoore);

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
// bit-reproducible cycle charges — shows what the sharding buys.
//
// `splits` models intra-query data parallelism: query q's per-bin work is
// divided into splits[q] equal chunks before scheduling (1 = the batch stays
// whole, the per-query ceiling of the PR 3 model). An empty vector means no
// intra-query sharding. This mirrors the executor's near-equal unit ranges;
// per-chunk skew from uneven payloads is ignored, so treat the counter as
// the schedule bound, not a measurement.
double ModelMakespanSpeedup(const std::vector<core::BinLog>& log, size_t threads,
                            const std::vector<size_t>& splits = {}) {
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
    std::vector<double> work;
    for (size_t q = 0; q < bin.per_query_cycles.size(); ++q) {
      const size_t s = q < splits.size() ? std::max<size_t>(1, splits[q]) : 1;
      for (size_t c = 0; c < s; ++c) {
        work.push_back(bin.per_query_cycles[q] / static_cast<double>(s));
      }
    }
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

// Whole-pipeline thread-scaling benchmark: per-query stages sharded over
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

// Intra-query sharding on top of the thread pool: the same fourteen-query
// workload, whose 4-thread makespan is bounded at ~3.6x by its costliest
// query (the byte-heavy pattern-search) when batches stay whole. Splitting a
// query's batch into up to `shards` mergeable ranges lifts that per-query
// ceiling: the model_speedup counter at threads:4 must rise past the 3.6x
// bound as shards grow. Outputs stay bit-identical to the serial run at
// every (threads, shards) combination — the property exec_test sweeps.
void BM_PipelinePacketsShards(benchmark::State& state) {
  const trace::Trace& trace = SharedTrace();
  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  // The model splits mirror the executor's plan: shardable queries divide
  // into at most `shards` chunks, bounded by the execution contexts
  // (workers + participating coordinator); trace is the one query in this
  // workload with order-sensitive state and stays whole.
  std::vector<size_t> splits;
  for (const auto& name : ScalingWorkload()) {
    const bool shardable = query::MakeQuery(name)->shardable() != nullptr;
    splits.push_back(shardable ? std::max<size_t>(1, std::min(shards, threads + 1)) : 1);
  }
  double model_speedup = 1.0;
  for (auto _ : state) {
    core::SystemConfig cfg;
    cfg.cycles_per_bin = 1e15;
    cfg.num_threads = threads;
    cfg.max_shards_per_query = shards;
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
    model_speedup = ModelMakespanSpeedup(system.log(), threads, splits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.packets.size()));
  state.counters["model_speedup"] = model_speedup;
}
BENCHMARK(BM_PipelinePacketsShards)
    ->ArgNames({"threads", "shards"})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({4, 8})
    ->Args({8, 8})
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
