// Fig. 6.10 / 6.11: robustness against selfish and buggy custom-shedding
// queries. A selfish p2p-detector ignores its budget; a buggy one burns an
// unrelated amount. The enforcement policy polices both while the remaining
// queries keep their accuracy.

#include "bench/bench_common.h"

#include <memory>

namespace {

using namespace shedmon;

int RunScenario(const std::string& label, bool buggy, const bench::BenchArgs& args) {
  const auto trace = trace::TraceGenerator(
                         bench::Scaled(trace::UpcI(), args, args.quick ? 10.0 : 20.0))
                         .Generate();
  const std::vector<std::string> honest = {"counter", "flows", "high-watermark"};
  const std::vector<std::string> all = {"p2p-detector", "counter", "flows",
                                        "high-watermark"};
  const double demand = core::MeasureMeanDemand(all, trace, args.oracle);

  core::SystemConfig cfg;
  cfg.cycles_per_bin = 0.55 * demand;
  cfg.shedder = core::ShedderKind::kPredictive;
  cfg.strategy = shed::StrategyKind::kMmfsPkt;
  cfg.enable_custom_shedding = true;
  cfg.enforcement.strikes_to_disable = 5;
  cfg.enforcement.penalty_bins = 30;
  auto pipeline = PipelineBuilder().Config(cfg).Oracle(args.oracle).BuildUnique();
  // The offender is user-supplied, so its accuracy reference is passed in:
  // the standard p2p-detector over the unsampled stream.
  std::unique_ptr<query::Query> offender;
  if (buggy) {
    offender = std::make_unique<query::BuggyP2pDetectorQuery>();
  } else {
    offender = std::make_unique<query::SelfishP2pDetectorQuery>();
  }
  pipeline->AddQuery(std::move(offender), {0.1, true}, query::MakeQuery("p2p-detector"));
  for (const auto& name : honest) {
    pipeline->AddQuery(name);
  }
  pipeline->Push(trace);
  pipeline->Finish();

  const core::MonitoringSystem& system = pipeline->system();
  std::printf("\n%s:\n\n", label.c_str());
  util::Table table({"query", "accuracy", "times policed", "correction"});
  for (size_t q = 0; q < all.size(); ++q) {
    table.AddRow({all[q] + (q == 0 ? (buggy ? " (buggy)" : " (selfish)") : ""),
                  util::Fmt(1.0 - pipeline->AccuracyAt(q).mean_error, 2),
                  std::to_string(system.enforcement(q).times_policed()),
                  util::Fmt(system.enforcement(q).correction(), 2)});
  }
  table.Print(std::cout);
  std::printf("uncontrolled drops: %llu\n",
              static_cast<unsigned long long>(system.total_dropped()));

  const bool offender_policed = system.enforcement(0).times_policed() > 0;
  bool honest_ok = true;
  for (size_t q = 1; q < all.size(); ++q) {
    honest_ok = honest_ok && system.enforcement(q).times_policed() == 0;
  }
  return offender_policed && honest_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = shedmon::bench::BenchArgs::Parse(argc, argv);
  shedmon::bench::PrintHeader("Fig 6.10/6.11",
                              "policing selfish and buggy custom-shedding queries");
  const int selfish = RunScenario("Selfish p2p-detector (ignores its budget, Fig 6.10)",
                                  /*buggy=*/false, args);
  const int buggy = RunScenario("Buggy p2p-detector (cost unrelated to budget, Fig 6.11)",
                                /*buggy=*/true, args);
  std::printf(
      "\nPaper shape: the offending query is repeatedly policed (disabled for a\n"
      "penalty period) while the honest queries never are, and the system\n"
      "remains stable with no uncontrolled drops (Figs 6.10/6.11).\n\n");
  return selfish + buggy;
}
