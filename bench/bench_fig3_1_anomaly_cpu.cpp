// Fig. 3.1: CPU usage of an "unknown" query under an artificially generated
// anomaly, compared with the packet, byte and 5-tuple-flow counts of the same
// traffic. The flows query's cycles track the flow count — not packets or
// bytes — which is the observation motivating multi-feature prediction.

#include "bench/bench_common.h"

#include <unordered_set>

#include "src/core/cost.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 3.1",
                     "CPU of an unknown query vs packets/bytes/flows under an anomaly");

  auto trace =
      trace::TraceGenerator(bench::Scaled(trace::CescaI(), args, 20.0)).Generate();
  trace::DdosSpec ddos;
  ddos.start_s = 8.0;
  ddos.duration_s = 5.0;
  ddos.pps = 2200.0;
  ddos.spoofed_sources = true;  // flow explosion with flat packet counts
  ddos.pkt_len = 60;
  InjectDdos(trace, ddos, 42 + args.seed_offset);

  auto oracle = core::MakeOracle(args.oracle);
  auto q = query::MakeQuery("flows");

  util::Table table({"t (s)", "cycles", "packets", "bytes", "5-tuple flows"});
  trace::Batcher batcher(trace, 100'000);
  trace::Batch batch;
  size_t bin = 0;
  size_t in_interval = 0;
  // Aggregate per second for readability.
  double cyc = 0.0, pkts = 0.0, bytes = 0.0, flows = 0.0;
  std::unordered_set<net::FiveTuple, net::FiveTupleHash> flow_set;
  while (batcher.Next(batch)) {
    query::BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0, &batch.flows};
    core::WorkHint hint{q.get(), &batch.packets, 0.0};
    cyc += oracle->Run(core::WorkKind::kQuery, hint, [&] { q->ProcessBatch(in); });
    pkts += static_cast<double>(batch.size());
    bytes += static_cast<double>(batch.wire_bytes);
    for (const auto& pkt : batch.packets) {
      flow_set.insert(pkt.rec->tuple);
    }
    if (++in_interval >= q->interval_bins()) {
      q->EndInterval();
      in_interval = 0;
    }
    if (++bin % 10 == 0) {
      flows = static_cast<double>(flow_set.size());
      table.AddRow({util::Fmt(static_cast<double>(bin) / 10.0, 0), util::FmtSci(cyc, 2),
                    util::Fmt(pkts, 0), util::FmtSci(bytes, 2), util::Fmt(flows, 0)});
      cyc = pkts = bytes = 0.0;
      flow_set.clear();
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nPaper shape: during the spoofed attack (t=8..13 s) cycles and the\n"
      "flow count surge together while packets/bytes barely move (Fig 3.1).\n\n");
  return 0;
}
