#include "src/exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>

#include "src/util/cycle_clock.h"

namespace shedmon::exec {

// One fork-join, shared by the Job handle and every queued helper, so a
// helper that runs after the join returned still finds live state here.
struct ThreadPool::JobState {
  std::function<void(size_t)> body;
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t chunks = 0;
  std::atomic<size_t> next{0};      // claim counter: next chunk to hand out
  std::atomic<size_t> finished{0};  // chunks run (or cancelled) to the end
  util::Mutex mutex;
  util::CondVar done;
  size_t error_chunk SHEDMON_GUARDED_BY(mutex) = SIZE_MAX;
  std::exception_ptr error SHEDMON_GUARDED_BY(mutex);

  // Marks `n` chunks finished; the one that finishes the last wakes Wait.
  void Complete(size_t n) {
    if (finished.fetch_add(n) + n == chunks) {
      util::MutexLock lock(mutex);
      done.NotifyAll();
    }
  }

  // Claims and runs chunks until the counter is drained. Never throws: a
  // failing chunk's error is kept if no lower-indexed chunk failed.
  void Drain() {
    for (size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      const size_t lo = begin + c * grain;
      const size_t hi = std::min(end, lo + grain);
      try {
        for (size_t i = lo; i < hi; ++i) {
          body(i);
        }
      } catch (...) {
        util::MutexLock lock(mutex);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
      Complete(1);
    }
  }

  // Blocks until every chunk finished; returns the kept error, if any.
  std::exception_ptr Wait() {
    util::MutexLock lock(mutex);
    while (finished.load() < chunks) {
      done.Wait(lock);
    }
    return error;
  }
};

ThreadPool::Job::~Job() {
  if (state_ == nullptr) {
    return;
  }
  // Take every unclaimed chunk at once and count it finished without running
  // it; chunks a helper already claimed run to their end before Wait returns.
  JobState& state = *state_;
  const size_t claimed = state.next.exchange(state.chunks);
  if (claimed < state.chunks) {
    state.Complete(state.chunks - claimed);
  }
  state.Wait();
}

void ThreadPool::Job::Join() {
  if (state_ == nullptr) {
    return;
  }
  const std::shared_ptr<JobState> state = std::move(state_);
  state->Drain();
  if (const std::exception_ptr error = state->Wait()) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::SetMetrics(const PoolMetricsHooks& hooks) {
  util::MutexLock lock(mutex_);
  hooks_ = hooks;
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> fn, size_t copies) {
  {
    util::MutexLock lock(mutex_);
    for (size_t c = 1; c < copies; ++c) {
      queue_.push_back(fn);
    }
    queue_.push_back(std::move(fn));
    if (hooks_.queue_depth != nullptr) {
      hooks_.queue_depth->Add(static_cast<double>(copies));
    }
  }
  if (copies == 1) {
    cv_.NotifyOne();
  } else {
    cv_.NotifyAll();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> fn;
    PoolMetricsHooks hooks;
    {
      util::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) {
        cv_.Wait(lock);
      }
      if (queue_.empty()) {
        return;  // stop_ set and queue drained
      }
      fn = std::move(queue_.front());
      queue_.pop_front();
      hooks = hooks_;
      if (hooks.queue_depth != nullptr) {
        hooks.queue_depth->Add(-1.0);
      }
    }
    if (hooks.task_seconds != nullptr) {
      const uint64_t start_us = util::MonotonicNowUs();
      fn();
      hooks.task_seconds->Observe(static_cast<double>(util::MonotonicNowUs() - start_us) * 1e-6);
    } else {
      fn();
    }
    if (hooks.tasks_total != nullptr) {
      hooks.tasks_total->Increment();
    }
  }
}

ThreadPool::Job ThreadPool::Start(size_t begin, size_t end, size_t grain,
                                  std::function<void(size_t)> body) {
  if (begin >= end) {
    return Job();
  }
  const size_t n = end - begin;
  if (grain == 0) {
    grain = (n + num_threads() - 1) / num_threads();
  }
  // Re-check the grain against the range: it must be at least 1 (a zero
  // grain after shard splitting would loop forever) and at most n (a grain
  // beyond the range collapses to one chunk, never an empty one).
  grain = std::max<size_t>(1, std::min(grain, n));

  auto state = std::make_shared<JobState>();
  state->body = std::move(body);
  state->begin = begin;
  state->end = end;
  state->grain = grain;
  state->chunks = (n + grain - 1) / grain;
  // The joining caller drains too, so one helper per chunk beyond its own.
  const size_t helpers = std::min(num_threads(), state->chunks - 1);
  if (helpers > 0) {
    Enqueue([state] { state->Drain(); }, helpers);
  }
  return Job(std::move(state));
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& body) {
  // The join returns only after every claimed chunk finished, so the job may
  // borrow `body` instead of copying it.
  Start(begin, end, grain, [&body](size_t i) { body(i); }).Join();
}

}  // namespace shedmon::exec
