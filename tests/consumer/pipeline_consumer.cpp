// Minimal find_package(shedmon) consumer driving the public API end to end:
// build a Pipeline, push a second of generated traffic, and check that bins
// streamed out and live accuracy is readable from the handle. CI runs this
// against the installed package so the api/ headers are install-tested.

#include <cstdio>

#include "src/api/pipeline.h"
#include "src/api/sinks.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"

int main() {
  using namespace shedmon;

  trace::TraceSpec spec = trace::CescaII();
  spec.duration_s = 1.0;
  const trace::Trace traffic = trace::TraceGenerator(spec).Generate();

  auto pipeline = PipelineBuilder()
                      .Shedder(core::ShedderKind::kPredictive)
                      .Strategy(shed::StrategyKind::kMmfsPkt)
                      .Build();
  QueryHandle counter = pipeline.AddQuery("counter");
  pipeline.Push(traffic);
  pipeline.Finish();

  if (pipeline.log().empty() || !counter.valid()) {
    std::fprintf(stderr, "FAIL: pipeline processed no bins\n");
    return 1;
  }
  const auto accuracy = counter.Accuracy();
  if (accuracy.mean_error < 0.0 || accuracy.mean_error > 1.0) {
    std::fprintf(stderr, "FAIL: implausible accuracy %f\n", accuracy.mean_error);
    return 1;
  }
  std::printf("OK: %zu bins, %llu packets, counter mean error %.3f\n",
              pipeline.log().size(),
              static_cast<unsigned long long>(pipeline.total_packets()),
              accuracy.mean_error);
  return 0;
}
