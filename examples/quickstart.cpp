// Quickstart for the public API: build a shedmon::Pipeline with predictive
// load shedding, register two queries through handles, push generated
// traffic at 2x overload packet by packet, watch bins stream out through an
// observer, and read live per-query accuracy straight from the handles.
//
//   ./examples/quickstart

#include <cstdio>

#include "src/api/pipeline.h"
#include "src/query/queries.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"

namespace {

// Observers receive every closed bin on the pushing thread, in bin order.
// This one prints a one-line summary once a second (every tenth 100 ms bin).
class ProgressPrinter : public shedmon::BinObserver {
 public:
  void OnBin(const shedmon::core::BinLog& log, const shedmon::BinStats& stats) override {
    if (stats.bin_index % 10 != 0) {
      return;
    }
    std::printf("  t=%4.1fs  %5zu pkts  utilization %4.0f%%  shed %4.0f%%  drops %zu\n",
                static_cast<double>(log.start_us) * 1e-6, log.packets_in,
                stats.utilization * 100.0, stats.shed_fraction * 100.0, log.packets_dropped);
  }
};

}  // namespace

int main() {
  using namespace shedmon;

  // 1. Traffic: 15 s of synthetic mixed traffic on the CESCA-II profile.
  trace::TraceSpec spec = trace::CescaII();
  spec.duration_s = 15.0;
  const trace::Trace traffic = trace::TraceGenerator(spec).Generate();
  std::printf("generated %zu packets over %.0f s\n", traffic.packets.size(),
              spec.duration_s);

  // 2. Capacity: measure what full processing would need, then provision
  //    half of it — a sustained 2x overload (K = 0.5).
  const double demand =
      core::MeasureMeanDemand({"counter", "flows"}, traffic, core::OracleKind::kModel);

  // 3. The pipeline: fluent configuration, then stable handles per query.
  //    Threads(2) runs the queries (and the reference instances) on two
  //    workers; results are bit-identical to the serial run.
  auto pipeline = PipelineBuilder()
                      .Shedder(core::ShedderKind::kPredictive)
                      .Strategy(shed::StrategyKind::kMmfsPkt)
                      .CyclesPerBin(0.5 * demand)
                      .Threads(2)
                      .Build();
  QueryHandle counter = pipeline.AddQuery("counter");
  QueryHandle flows = pipeline.AddQuery("flows");

  ProgressPrinter printer;
  pipeline.AddObserver(&printer);

  // 4. Push the raw packets; the pipeline bins them into 100 ms batches,
  //    predicts each batch's cost from 42 traffic features, decides how much
  //    to shed, samples, executes, learns — and fires the observer as each
  //    bin closes. No pre-batching on the caller's side.
  std::printf("\nstreaming (one status line per second):\n");
  for (const net::PacketRecord& packet : traffic.packets) {
    pipeline.Push(net::Packet::View(packet));
  }
  pipeline.Finish();

  // 5. Results, straight from the handle: per-interval outputs, scaled by
  //    the applied sampling rates.
  const auto& counter_query = dynamic_cast<const query::CounterQuery&>(counter.query());
  std::printf("\ncounter query, one row per 1 s interval (estimates from sampled data):\n");
  for (size_t i = 0; i < counter_query.snapshots().size(); ++i) {
    std::printf("  interval %2zu: %8.0f packets  %12.0f bytes\n", i,
                counter_query.snapshots()[i].pkts, counter_query.snapshots()[i].bytes);
  }

  // 6. How well did shedding preserve the answers? The pipeline ran
  //    unsampled reference instances alongside, so accuracy is one call.
  std::printf("\naccuracy against the pipeline-managed unsampled references:\n");
  for (const QueryHandle& handle : {counter, flows}) {
    const auto acc = handle.Accuracy();
    std::printf("  %-8s mean error %.2f%%  (stdev %.2f%%)\n", handle.name().c_str(),
                acc.mean_error * 100.0, acc.stdev_error * 100.0);
  }
  std::printf("\nshedding statistics: %llu packets in, %llu lost uncontrolled\n",
              static_cast<unsigned long long>(pipeline.total_packets()),
              static_cast<unsigned long long>(pipeline.total_dropped()));
  std::printf("(the demand was 2x the capacity: everything above was absorbed by\n"
              " controlled sampling, not by dropping packets at the capture buffer)\n");
  return 0;
}
