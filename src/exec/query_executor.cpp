#include "src/exec/query_executor.h"

#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rt/fault.h"
#include "src/util/cycle_clock.h"

namespace shedmon::exec {

void QueryExecutor::Run(size_t n, const std::function<void(size_t)>& raw_task) const {
  std::function<void(size_t)> task = raw_task;
  if (injector_ != nullptr) {
    // The stall hits whichever thread runs the task — worker or the
    // participating caller — exactly like a genuinely slow query would.
    task = [this, raw_task](size_t i) {
      injector_->OnWorkerTask(bin_index_);
      raw_task(i);
    };
  }
  if (tracer_ != nullptr) {
    // Outermost wrapper so the span covers any injected stall too — the
    // trace should show the wall time a task actually took.
    const std::function<void(size_t)> inner = task;
    obs::Tracer* tracer = tracer_;
    const uint32_t bin = static_cast<uint32_t>(bin_index_);
    task = [tracer, bin, inner](size_t i) {
      obs::Span span(tracer, obs::Stage::kQuery, bin, static_cast<int64_t>(i));
      inner(i);
    };
  }
  if (pool_ == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      task(i);
    }
    return;
  }
  // Grain 1: per-query costs are heterogeneous (Fig. 2.2 spans ~20x), so
  // fine-grained dispatch load-balances better than equal chunks.
  if (wave_seconds_ != nullptr) {
    const uint64_t start_us = util::MonotonicNowUs();
    pool_->ParallelFor(0, n, 1, task);
    wave_seconds_->Observe(static_cast<double>(util::MonotonicNowUs() - start_us) * 1e-6);
  } else {
    pool_->ParallelFor(0, n, 1, task);
  }
}

}  // namespace shedmon::exec
