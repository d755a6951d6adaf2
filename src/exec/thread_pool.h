#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace shedmon::exec {

// Optional observability hooks for a pool. Pointers are borrowed from an
// obs::MetricsRegistry owned by whoever owns the pool; null members disable
// the corresponding instrument. Updates go to lock-free striped cells and
// never influence scheduling, so instrumented and bare pools execute tasks
// identically. A fork-join's queued helper is one task: `tasks_total` counts
// helper drains, and `task_seconds` times a whole drain, however many chunks
// it claimed — the chunks the joining caller drains itself are in neither.
struct PoolMetricsHooks {
  obs::Gauge* queue_depth = nullptr;       // tasks currently waiting in the queue
  obs::Counter* tasks_total = nullptr;     // tasks a worker has executed
  obs::Histogram* task_seconds = nullptr;  // per-task wall time, seconds
};

// Fixed-size worker pool for per-query and per-run fan-out.
//
// Fork-joins (Start / ParallelFor) are work-sharing: one shared job record
// holds a claim counter over the range's chunks, and the joining caller plus
// at most num_threads() queued helper tasks claim chunks until the counter
// is drained. The join waits only for chunks to *finish*, never for a helper
// to be scheduled: a helper that starts late finds the counter drained and
// returns without running the body. So the caller never idles while chunks
// are left, and a fork-join may be called from inside one of the pool's own
// tasks (even on a one-worker pool) without deadlocking. Fork-join helpers
// are the only tasks the pool ever queues.
//
// Design notes:
//  - Workers are started once in the constructor and joined in the
//    destructor; the pool is created per MonitoringSystem / per sweep, not
//    per bin, so thread start-up cost is off the hot path.
//  - The queue is FIFO, so helpers start in the order their fork-joins were
//    started. No work stealing: shedmon's tasks (one per query, one per grid
//    cell) are coarse enough that a mutex-guarded deque is not a bottleneck.
//  - The pool makes no fairness or affinity promises; determinism of results
//    is the *callers'* job (see core::MonitoringSystem's sequenced cost
//    charging), not the scheduler's.
class ThreadPool {
  struct JobState;

 public:
  // A started fork-join (see Start); move-constructible only. Join drains and
  // waits; destroying a Job that was never joined stops its unclaimed chunks
  // and waits for the claimed ones, so no helper outlives the frame the body
  // reads — a throwing caller between Start and Join stays safe.
  class Job {
   public:
    Job() = default;  // empty: Join is a no-op
    Job(Job&&) noexcept = default;
    Job& operator=(Job&&) = delete;
    ~Job();

    bool empty() const { return state_ == nullptr; }

    // Drains the chunks no helper has claimed yet on the calling thread,
    // waits until every chunk has finished, then rethrows the error of the
    // lowest-indexed failing chunk, if any. Every chunk runs before the
    // rethrow (a throwing iteration skips only the rest of its own chunk).
    void Join();

   private:
    friend class ThreadPool;
    explicit Job(std::shared_ptr<JobState> state) : state_(std::move(state)) {}

    std::shared_ptr<JobState> state_;
  };

  // Spawns `num_threads` workers. At least one worker is always created so a
  // pool can absorb blocking tasks even when callers ask for zero.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Installs (or clears) the metrics hooks. Guarded by the queue mutex so it
  // may be called while workers are parked; call before submitting work —
  // tasks already in flight may be counted under the old hooks.
  void SetMetrics(const PoolMetricsHooks& hooks) SHEDMON_EXCLUDES(mutex_);

  // Starts a fork-join running body(i) for every i in [begin, end) and
  // returns without waiting. Iterations are batched into chunks of `grain`
  // consecutive indices (grain 0 picks ceil(n / num_threads)); at most
  // min(num_threads(), chunks - 1) helpers are queued, and the rest of the
  // range is left to whichever thread calls Join. The body is owned by the
  // job; whatever it references must stay alive until Join returns (or the
  // Job is destroyed).
  [[nodiscard]] Job Start(size_t begin, size_t end, size_t grain,
                          std::function<void(size_t)> body);

  // Start(begin, end, grain, body).Join(): runs every iteration across the
  // pool and the calling thread, and blocks until all of them finished.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& body);

 private:
  // Queues `copies` copies of `fn` under one lock acquisition.
  void Enqueue(std::function<void()> fn, size_t copies) SHEDMON_EXCLUDES(mutex_);
  void WorkerLoop() SHEDMON_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<std::function<void()>> queue_ SHEDMON_GUARDED_BY(mutex_);
  bool stop_ SHEDMON_GUARDED_BY(mutex_) = false;
  PoolMetricsHooks hooks_ SHEDMON_GUARDED_BY(mutex_);
};

}  // namespace shedmon::exec
