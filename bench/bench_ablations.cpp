// Ablation study for the design choices the thesis motivates but does not
// isolate experimentally. Each ablation disables one mechanism of Alg. 1 /
// Ch. 6 and reports what it buys:
//
//   A1  prediction-error safety margin   (line 8's  pred * (1 + error_hat))
//   A2  buffer discovery                 (§4.1's rtthresh slow-start slack)
//   A3  post-sampling feature re-extraction (line 12's history consistency)
//   A4  measurement scrubbing            (§3.2.4, corrupted TSC readings)
//   A5  cold-start probing               (warm-up bootstrap rate)

#include "bench/bench_common.h"

#include "src/predict/predictors.h"
#include "src/util/rng.h"

namespace {

using namespace shedmon;

struct Outcome {
  double avg_accuracy = 0.0;
  double drops_pct = 0.0;
  double mean_utilization = 0.0;  // spent / capacity
  double overshoot_bins_pct = 0.0;
};

Outcome Evaluate(const Pipeline& result) {
  Outcome o;
  o.avg_accuracy = result.AverageAccuracy();
  o.drops_pct = 100.0 * static_cast<double>(result.total_dropped()) /
                std::max<double>(1.0, static_cast<double>(result.total_packets()));
  util::RunningStats util_stats;
  size_t overshoot = 0;
  const double cap = result.system().capacity();
  for (const auto& bin : result.log()) {
    const double spent = bin.spent_cycles();
    util_stats.Add(spent / cap);
    if (spent > cap * 1.01) {
      ++overshoot;
    }
  }
  o.mean_utilization = util_stats.mean();
  o.overshoot_bins_pct =
      100.0 * static_cast<double>(overshoot) / std::max<size_t>(1, result.log().size());
  return o;
}

std::unique_ptr<Pipeline> RunVariant(const trace::Trace& trace,
                                     const std::vector<std::string>& names, double k,
                                     const bench::BenchArgs& args,
                                     const std::function<void(core::SystemConfig&)>& tweak) {
  const double demand = core::MeasureMeanDemand(names, trace, args.oracle);
  auto builder = bench::SpecAtOverload(demand, names, k, core::ShedderKind::kPredictive,
                                       shed::StrategyKind::kMmfsPkt, args,
                                       /*custom_shedding=*/false, /*default_min_rates=*/false);
  core::SystemConfig config = builder.config();
  tweak(config);
  return api::RunTrace(builder.Config(config), trace);
}

void Report(util::Table& table, const std::string& label, const Outcome& o) {
  table.AddRow({label, util::Fmt(o.avg_accuracy, 3), util::Fmt(o.drops_pct, 2) + "%",
                util::Fmt(o.mean_utilization, 2), util::Fmt(o.overshoot_bins_pct, 1) + "%"});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Ablations", "what each load-shedding mechanism buys");

  trace::TraceSpec spec = trace::CescaII();
  spec.burstiness = 0.7;  // mechanisms matter most under variable load
  auto trace = trace::TraceGenerator(
                   bench::Scaled(spec, args, args.quick ? 8.0 : 20.0))
                   .Generate();
  trace::DdosSpec ddos;
  ddos.start_s = trace.spec.duration_s * 0.5;
  ddos.duration_s = trace.spec.duration_s * 0.15;
  ddos.pps = 2000.0;
  InjectDdos(trace, ddos, 5 + args.seed_offset);

  const std::vector<std::string> names = {"counter", "flows", "application", "top-k"};

  util::Table table({"variant", "avg accuracy", "uncontrolled drops", "mean utilization",
                     "bins over budget"});

  Report(table, "full system (baseline)",
         Evaluate(*RunVariant(trace, names, 0.5, args, [](core::SystemConfig&) {})));

  // A1: no prediction-error safety margin — demands are never inflated.
  Report(table, "A1: no error safety margin",
         Evaluate(*RunVariant(trace, names, 0.5, args,
                              [](core::SystemConfig& cfg) { cfg.error_margin_enabled = false; })));

  // A2: no buffer discovery — the system never borrows buffer slack.
  Report(table, "A2: no rtthresh slack",
         Evaluate(*RunVariant(trace, names, 0.5, args,
                              [](core::SystemConfig& cfg) { cfg.rtthresh_enabled = false; })));

  table.Print(std::cout);
  std::printf(
      "\nReading: the error margin (A1) costs a little accuracy through extra\n"
      "shedding but guards against underprediction; rtthresh (A2) raises mean\n"
      "utilization by borrowing buffer slack, at the price of rate variance.\n");

  // A5: cold-start probing, exposed by the scenario that needs it — an
  // expensive unknown query joining a tightly provisioned running system
  // (Fig. 6.9's arrival, before any cost model exists for it).
  std::printf("\nA5: cold-start probe when an expensive query arrives mid-run:\n\n");
  {
    util::Table t({"variant", "uncontrolled drops", "max backlog/buffer"});
    for (const bool probe : {true, false}) {
      const std::vector<std::string> resident = {"counter", "flows"};
      const double demand = core::MeasureMeanDemand(resident, trace, args.oracle);
      core::SystemConfig cfg;
      cfg.cycles_per_bin = 0.6 * demand;  // already overloaded before the arrival
      cfg.shedder = core::ShedderKind::kPredictive;
      cfg.strategy = shed::StrategyKind::kMmfsPkt;
      if (!probe) {
        cfg.warmup_observations = 0;
        cfg.bootstrap_rate = 1.0;
      }
      auto pipeline = PipelineBuilder()
                          .Config(cfg)
                          .Oracle(args.oracle)
                          .TrackAccuracy(false)
                          .DefaultMinRates(false)
                          .AddQuery("counter")
                          .AddQuery("flows")
                          .BuildUnique();
      // The arrival joins at bin 50: close bins 0..49, then add the query.
      const uint64_t arrival_us = 50 * pipeline->time_bin_us();
      size_t i = 0;
      for (; i < trace.packets.size() && trace.packets[i].ts_us < arrival_us; ++i) {
        pipeline->Push(net::Packet::View(trace.packets[i]));
      }
      pipeline->AdvanceTime(arrival_us);
      pipeline->AddQuery("p2p-detector");
      for (; i < trace.packets.size(); ++i) {
        pipeline->Push(net::Packet::View(trace.packets[i]));
      }
      pipeline->Finish();
      double max_backlog = 0.0;
      for (const core::BinLog& bin : pipeline->log()) {
        max_backlog = std::max(max_backlog, bin.backlog_cycles);
      }
      t.AddRow({probe ? "probe on (baseline)" : "probe off (ablated)",
                std::to_string(pipeline->total_dropped()),
                util::Fmt(max_backlog / (2.0 * pipeline->system().capacity()), 2)});
    }
    t.Print(std::cout);
  }

  // A3: post-sampling re-extraction — isolated on the predictor itself:
  // train MLR with features of the *unsampled* batch while the measured cost
  // is that of the sampled one (the inconsistency the re-extraction avoids).
  std::printf("\nA3: history consistency (features of processed vs offered batch):\n\n");
  {
    util::Rng rng(17 + args.seed_offset);
    predict::MlrPredictor consistent;  // (sampled features, sampled cost)
    predict::MlrPredictor mismatched;  // (full features, sampled cost)
    util::RunningStats err_consistent;
    util::RunningStats err_mismatched;
    for (int i = 0; i < 400; ++i) {
      const double pkts = 300.0 + rng.NextDouble() * 400.0;
      const double rate = 0.2 + 0.6 * rng.NextDouble();
      features::FeatureVector full{};
      full[features::kFeatPackets] = pkts;
      full[features::kFeatBytes] = pkts * 600.0;
      features::FeatureVector sampled = full;
      sampled[features::kFeatPackets] *= rate;
      sampled[features::kFeatBytes] *= rate;
      const double full_cost = 50.0 * pkts;
      const double sampled_cost = full_cost * rate;
      if (i > 100) {
        err_consistent.Add(util::RelativeError(consistent.Predict(full), full_cost));
        err_mismatched.Add(util::RelativeError(mismatched.Predict(full), full_cost));
      }
      consistent.Observe(sampled, sampled_cost);
      mismatched.Observe(full, sampled_cost);
    }
    util::Table t({"history variant", "full-batch prediction error"});
    t.AddRow({"re-extracted (paper, Alg. 1 line 12)", util::Fmt(err_consistent.mean(), 3)});
    t.AddRow({"offered-batch features (ablated)", util::Fmt(err_mismatched.mean(), 3)});
    t.Print(std::cout);
  }

  // A4: measurement scrubbing under injected corruption.
  std::printf("\nA4: measurement scrubbing under 5%% corrupted readings:\n\n");
  {
    util::Rng rng(23 + args.seed_offset);
    predict::MlrPredictor::Config scrub_on;
    predict::MlrPredictor::Config scrub_off = scrub_on;
    scrub_off.scrub_factor = 0.0;
    predict::MlrPredictor with_scrub(scrub_on);
    predict::MlrPredictor without_scrub(scrub_off);
    util::RunningStats err_on;
    util::RunningStats err_off;
    for (int i = 0; i < 400; ++i) {
      const double pkts = 300.0 + rng.NextDouble() * 400.0;
      features::FeatureVector f{};
      f[features::kFeatPackets] = pkts;
      f[features::kFeatBytes] = pkts * 600.0;
      const double truth = 45.0 * pkts;
      // 5% of readings hit by a "context switch": 20x the real cost.
      const double measured = rng.NextDouble() < 0.05 ? truth * 20.0 : truth;
      if (i > 100) {
        err_on.Add(util::RelativeError(with_scrub.Predict(f), truth));
        err_off.Add(util::RelativeError(without_scrub.Predict(f), truth));
      }
      with_scrub.Observe(f, measured);
      without_scrub.Observe(f, measured);
    }
    util::Table t({"scrubbing", "prediction error"});
    t.AddRow({"on (paper, §3.2.4)", util::Fmt(err_on.mean(), 3)});
    t.AddRow({"off (ablated)", util::Fmt(err_off.mean(), 3)});
    t.Print(std::cout);
  }
  std::printf("\n");
  return 0;
}
