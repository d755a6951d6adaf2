#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace shedmon::obs {
class Histogram;
class Tracer;
}  // namespace shedmon::obs

namespace shedmon::rt {
class FaultInjector;
}  // namespace shedmon::rt

namespace shedmon::exec {

class ThreadPool;

// Fans index-addressed units of work (one per registered query, in
// shedmon's use) out across a ThreadPool and waits for all of them.
//
// Tasks may run in any order on any worker as long as they only touch state
// owned by their index (plus explicitly thread-safe shared services such as
// the sequenced cost oracle). Everything order-sensitive — accumulating
// BinLog cycle counters, updating smoothers — is the caller's job after Run
// returns: core::MonitoringSystem::ExecuteBin folds its per-query results in
// registration order on the coordinating thread, which is what keeps
// parallel pipelines bit-identical to serial ones.
//
// With a null pool (or n <= 1) the executor degrades to a plain serial loop
// on the calling thread, so callers need no separate serial code path.
class QueryExecutor {
 public:
  // Does not take ownership of `pool`; pass nullptr for inline execution.
  explicit QueryExecutor(ThreadPool* pool) : pool_(pool) {}

  // Runs task(i) for i in [0, n) (on the pool and the calling thread when a
  // pool is available) and waits for all of them. On the pool, an exception
  // from a task propagates after every task finished; inline, at once.
  void Run(size_t n, const std::function<void(size_t)>& task) const;

  // Optional wave timing: when set (and the pool path is taken), each Run
  // records the wall time of its task fan-out wave. Borrowed pointer; null
  // disables. Timing is observational only, so instrumented runs stay
  // bit-identical.
  void SetMetrics(obs::Histogram* wave_seconds) { wave_seconds_ = wave_seconds; }

  // Optional fault injection: when set, every task of every Run wave first
  // passes through injector->OnWorkerTask(bin_index) — the hook for the
  // fault plan's slow-worker stalls. Borrowed pointer; null disables. The
  // coordinator advances the bin index between batches.
  void SetFaultInjector(rt::FaultInjector* injector) { injector_ = injector; }
  void SetBinIndex(size_t bin_index) { bin_index_ = bin_index; }

  // Optional span tracing: when a tracer is set, every task of a Run wave is
  // recorded as one obs::Stage::kQuery span (arg = task index). Borrowed
  // pointer; null disables. Like the metrics, spans are write-only, so
  // traced runs stay bit-identical.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  ThreadPool* pool_;
  obs::Histogram* wave_seconds_ = nullptr;
  rt::FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  size_t bin_index_ = 0;
};

}  // namespace shedmon::exec
