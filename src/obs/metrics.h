#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace shedmon::obs {

// Lock-free instruments for the hot path plus a mutex-guarded registry for
// registration and scraping. The design mirrors the exact-merge discipline of
// the parallel pipelines (src/exec/): writers update per-stripe atomic cells
// chosen by thread identity, and a scrape folds the stripes into one value.
// Updates never take a lock, never allocate, and never feed back into any
// shedding decision, so instrumentation cannot perturb determinism: BinLogs
// are bit-identical with or without a scraper hammering the registry.
//
// Thread-safety contract: instrument updates and reads may come from any
// thread at any time. Registration (Get*) is mutex-guarded and expected at
// setup time; returned references stay valid for the registry's lifetime, so
// hot paths cache them once and never touch the registry again.

inline constexpr size_t kMetricStripes = 16;

namespace internal {

// Index of the calling thread's stripe: a cheap hash of the thread id.
// Collisions only cost contention, never correctness.
size_t StripeIndex();

// One cache line per cell so stripes on different workers never false-share.
struct alignas(64) AtomicCell {
  std::atomic<double> value{0.0};

  void Add(double delta) {
    double current = value.load(std::memory_order_relaxed);
    while (!value.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
    }
  }
};

}  // namespace internal

// Monotonically increasing sum. Double-valued because shedmon counts
// fractional quantities (e.g. deliberately unsampled packets are attributed
// to queries in fractional shares).
class Counter {
 public:
  void Add(double delta) { stripes_[internal::StripeIndex()].Add(delta); }
  void Increment() { Add(1.0); }

  double Value() const {
    double sum = 0.0;
    for (const internal::AtomicCell& cell : stripes_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::array<internal::AtomicCell, kMetricStripes> stripes_{};
};

// Current value. One atomic cell, not striped: gauges are either set from
// the coordinating thread (per bin) or adjusted by coarse deltas (queue
// depth), so the CAS contention of multi-writer Add is negligible.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: cumulative-style buckets are derived at scrape
// time from per-bucket counts. Bounds are upper edges; an implicit +Inf
// bucket catches the tail. Buckets and the sum are striped like Counter.
class Histogram {
 public:
  struct Data {
    std::vector<double> bounds;    // upper bucket edges, ascending
    std::vector<uint64_t> counts;  // per-bucket (not cumulative), bounds+1 long
    double sum = 0.0;
    uint64_t count = 0;
  };

  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  // Folds the stripes. Counts, sum and count are each internally exact, but
  // a scrape concurrent with writers may see a sum slightly ahead of the
  // counts (or vice versa) — standard Prometheus semantics.
  Data Read() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct Stripe {
    explicit Stripe(size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<uint64_t>> counts;
    internal::AtomicCell sum;
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

enum class MetricType { kCounter, kGauge, kHistogram };

// Sorted so scrape output (and therefore the Prometheus exposition) is
// stable across runs regardless of registration order.
using LabelSet = std::map<std::string, std::string>;

// One time-series as read at scrape time.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string help;
  LabelSet labels;
  double value = 0.0;        // counter / gauge
  Histogram::Data histogram;  // histogram only
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;
};

// Get-or-create registry keyed by (name, labels). A family (one name) has a
// single type and help string; asking for an existing series with a
// different type throws std::logic_error, and a histogram's bounds are fixed
// by its first registration.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name, const LabelSet& labels = {},
                      std::string_view help = "") SHEDMON_EXCLUDES(mutex_);
  Gauge& GetGauge(std::string_view name, const LabelSet& labels = {}, std::string_view help = "")
      SHEDMON_EXCLUDES(mutex_);
  Histogram& GetHistogram(std::string_view name, std::vector<double> bounds,
                          const LabelSet& labels = {}, std::string_view help = "")
      SHEDMON_EXCLUDES(mutex_);

  // Reads every registered series, grouped by family name (sorted), series
  // in registration order within a family. Safe to call from any thread at
  // any time, including while writers are active.
  MetricsSnapshot Snapshot() const SHEDMON_EXCLUDES(mutex_);

 private:
  struct Series {
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<Series> series;
  };

  Family& FamilyFor(std::string_view name, MetricType type, std::string_view help)
      SHEDMON_REQUIRES(mutex_);
  Series* FindSeries(Family& family, const LabelSet& labels) SHEDMON_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::map<std::string, Family, std::less<>> families_ SHEDMON_GUARDED_BY(mutex_);
};

}  // namespace shedmon::obs
