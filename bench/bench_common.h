#pragma once

// Shared helpers for the bench harness. Every bench binary regenerates one
// table or figure of the thesis (see DESIGN.md §5) and prints the same rows
// or series the paper reports, scaled to seconds of synthetic traffic.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/api/run.h"
#include "src/core/runner.h"
#include "src/exec/thread_pool.h"
#include "src/query/queries.h"
#include "src/trace/anomaly.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace shedmon::bench {

// Common command-line knobs: --quick shrinks traces further; --seed=N
// perturbs every generator seed; --oracle=measured uses real rdtsc cycles;
// --threads=N fans a driver's independent grid cells (whole system runs)
// over one exec::ThreadPool — results are bit-identical to --threads=0
// under the model oracle, only wall-clock changes. Each cell's system stays
// serial inside (SystemConfig::num_threads is not set from this flag: grid
// and per-query parallelism would multiply thread counts). --shards=N flips
// drivers that support it to the other parallelism axis: cells run
// sequentially but each cell's system runs num_threads=--threads workers
// with intra-query sharding up to N — still bit-identical under the model
// oracle.
struct BenchArgs {
  bool quick = false;
  uint64_t seed_offset = 0;
  core::OracleKind oracle = core::OracleKind::kModel;
  size_t threads = 0;
  size_t shards = 0;

  // Any other argument, or a value that is not a whole number, prints usage
  // and exits 2: `--oracle measured` must not silently run the model oracle.
  static BenchArgs Parse(int argc, char** argv) {
    const auto usage = [&](std::FILE* out) {
      std::fprintf(out,
                   "usage: %s [--quick] [--seed=N] [--oracle=model|measured] [--threads=N] "
                   "[--shards=N]\n",
                   argv[0]);
    };
    const auto reject = [&](const std::string& arg) {
      std::fprintf(stderr, "%s: bad argument '%s'\n", argv[0], arg.c_str());
      usage(stderr);
      std::exit(2);
    };
    const auto number = [&](const std::string& arg, size_t prefix) {
      uint64_t value = 0;
      const char* end = arg.data() + arg.size();
      const auto [ptr, ec] = std::from_chars(arg.data() + prefix, end, value);
      if (ec != std::errc() || ptr != end) {
        reject(arg);
      }
      return value;
    };
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        args.quick = true;
      } else if (arg.rfind("--seed=", 0) == 0) {
        args.seed_offset = number(arg, 7);
      } else if (arg.rfind("--threads=", 0) == 0) {
        args.threads = number(arg, 10);
      } else if (arg.rfind("--shards=", 0) == 0) {
        args.shards = number(arg, 9);
      } else if (arg == "--oracle=measured") {
        args.oracle = core::OracleKind::kMeasured;
      } else if (arg == "--oracle=model") {
        args.oracle = core::OracleKind::kModel;
      } else if (arg == "--help" || arg == "-h") {
        usage(stdout);
        std::exit(0);
      } else {
        reject(arg);
      }
    }
    return args;
  }

  // Applies the --shards axis to one cell's system config: per-query worker
  // parallelism (from --threads) with intra-query sharding on top. Callers
  // that use this run their grid cells without a shared pool (see above).
  void ApplyIntraQuerySharding(api::PipelineBuilder& builder) const {
    if (shards == 0) {
      return;
    }
    builder.Threads(threads).MaxShardsPerQuery(shards);
  }

  // Pool shared by a driver's grid cells; null (serial) when --threads=0.
  std::unique_ptr<exec::ThreadPool> MakePool() const {
    return threads > 0 ? std::make_unique<exec::ThreadPool>(threads) : nullptr;
  }
};

inline void PrintHeader(const std::string& id, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

// Scales a preset down for --quick runs and applies the seed offset.
inline trace::TraceSpec Scaled(trace::TraceSpec spec, const BenchArgs& args,
                               double duration_s = 0.0) {
  if (duration_s > 0.0) {
    spec.duration_s = duration_s;
  }
  if (args.quick) {
    spec.duration_s = std::min(spec.duration_s, 6.0);
  }
  spec.seed += args.seed_offset;
  return spec;
}

// Configures one system at overload factor K (capacity = mean unshedded
// demand * (1 - K), §5.4) with `names` as its query roster. `demand` is the
// precomputed MeasureMeanDemand of the query set, so grid drivers measure it
// once and fan the cells over api::RunPipelineGrid. `buffer_bins` > 0
// overrides the capture-buffer size; the Ch. 4 method comparisons pass 2.0
// to reproduce the thesis's 200 ms buffer emulation.
inline api::PipelineBuilder SpecAtOverload(double demand, const std::vector<std::string>& names,
                                           double k, core::ShedderKind shedder,
                                           shed::StrategyKind strategy, const BenchArgs& args,
                                           bool custom_shedding = false,
                                           bool default_min_rates = true,
                                           double buffer_bins = 0.0) {
  api::PipelineBuilder builder;
  builder.Shedder(shedder)
      .Strategy(strategy)
      .CyclesPerBin(std::max(1.0, demand * (1.0 - k)))
      .CustomShedding(custom_shedding)
      .Oracle(args.oracle)
      .DefaultMinRates(default_min_rates);
  if (buffer_bins > 0.0) {
    builder.BufferBins(buffer_bins);
  }
  for (const std::string& name : names) {
    builder.AddQuery(name);
  }
  return builder;
}

// Runs one system configuration at overload factor K over `trace`.
inline std::unique_ptr<api::Pipeline> RunAtOverload(
    const trace::Trace& trace, const std::vector<std::string>& names, double k,
    core::ShedderKind shedder, shed::StrategyKind strategy, const BenchArgs& args,
    bool custom_shedding = false, bool default_min_rates = true, double buffer_bins = 0.0) {
  const double demand = core::MeasureMeanDemand(names, trace, args.oracle);
  return api::RunTrace(SpecAtOverload(demand, names, k, shedder, strategy, args,
                                      custom_shedding, default_min_rates, buffer_bins),
                       trace);
}

// Per-second aggregation of bin logs for time-series figures.
struct SecondStats {
  double packets = 0.0;
  double dropped = 0.0;
  double unsampled = 0.0;
  double query_cycles = 0.0;
  double predicted = 0.0;
  double avail = 0.0;
  double backlog = 0.0;
  double mean_rate = 1.0;
};

inline std::vector<SecondStats> PerSecond(const std::vector<core::BinLog>& log) {
  std::vector<SecondStats> out;
  size_t i = 0;
  while (i < log.size()) {
    SecondStats s;
    util::RunningStats rate;
    for (size_t j = 0; j < 10 && i < log.size(); ++j, ++i) {
      const auto& bin = log[i];
      s.packets += static_cast<double>(bin.packets_in);
      s.dropped += static_cast<double>(bin.packets_dropped);
      s.unsampled += bin.packets_unsampled;
      s.query_cycles += bin.query_cycles;
      s.predicted += bin.predicted_cycles;
      s.avail += bin.avail_cycles;
      s.backlog = bin.backlog_cycles;
      double mean_r = 0.0;
      for (const double r : bin.rate) {
        mean_r += r;
      }
      if (!bin.rate.empty()) {
        rate.Add(mean_r / static_cast<double>(bin.rate.size()));
      }
    }
    s.mean_rate = rate.count() > 0 ? rate.mean() : 1.0;
    out.push_back(s);
  }
  return out;
}

inline std::string ShedderName(core::ShedderKind kind) {
  switch (kind) {
    case core::ShedderKind::kNoShed:
      return "original (no lshed)";
    case core::ShedderKind::kReactive:
      return "reactive";
    case core::ShedderKind::kPredictive:
      return "predictive";
  }
  return "?";
}

}  // namespace shedmon::bench
