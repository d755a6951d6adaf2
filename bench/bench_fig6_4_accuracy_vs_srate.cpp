// Fig. 6.4: accuracy as a function of the sampling rate for high-watermark,
// top-k and p2p-detector under uniform packet sampling — the validation
// curve used to pick minimum rates, and the motivation for custom shedding
// (the p2p-detector degrades steeply under sampling).

#include "bench/bench_common.h"

#include "src/shed/sampler.h"

int main(int argc, char** argv) {
  using namespace shedmon;
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Fig 6.4",
                     "accuracy vs packet-sampling rate (high-watermark, top-k, p2p-detector)");

  const auto trace = trace::TraceGenerator(
                         bench::Scaled(trace::UpcI(), args, args.quick ? 8.0 : 15.0))
                         .Generate();
  const std::vector<std::string> names = {"high-watermark", "top-k", "p2p-detector"};
  auto reference = query::RunReference(names, trace);

  std::vector<std::string> header = {"srate"};
  for (const auto& name : names) {
    header.push_back(name);
  }
  util::Table table(header);
  const std::vector<double> rates = args.quick
                                        ? std::vector<double>{0.1, 0.5, 1.0}
                                        : std::vector<double>{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
  for (const double rate : rates) {
    std::vector<std::string> row = {util::Fmt(rate, 2)};
    for (size_t qi = 0; qi < names.size(); ++qi) {
      auto q = query::MakeQuery(names[qi]);
      shed::PacketSampler sampler(7 + args.seed_offset);
      trace::Batcher batcher(trace, 100'000);
      trace::Batch batch;
      trace::PacketVec sampled;
      std::vector<uint32_t> rows;
      size_t in_interval = 0;
      while (batcher.Next(batch)) {
        sampler.SampleInto(batch.packets, rate, sampled, rows);
        query::BatchInput in{sampled, batch.start_us, batch.duration_us, rate};
        q->ProcessBatch(in);
        if (++in_interval >= q->interval_bins()) {
          q->EndInterval();
          in_interval = 0;
        }
      }
      if (in_interval > 0) {
        q->EndInterval();
      }
      row.push_back(util::Fmt(1.0 - q->MeanError(*reference[qi]), 2));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::printf(
      "\nPaper shape: high-watermark and top-k degrade gracefully with the\n"
      "rate; the p2p-detector collapses quickly because sampling breaks its\n"
      "payload-signature inspection (Fig 6.4).\n\n");
  return 0;
}
