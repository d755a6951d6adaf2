#include "src/obs/metrics.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace shedmon::obs {

namespace internal {

size_t StripeIndex() {
  // Hash once per thread; the id itself is stable for the thread's lifetime.
  static thread_local const size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kMetricStripes;
  return stripe;
}

}  // namespace internal

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::logic_error("Histogram: bucket bounds must be ascending");
  }
  stripes_.reserve(kMetricStripes);
  for (size_t s = 0; s < kMetricStripes; ++s) {
    stripes_.push_back(std::make_unique<Stripe>(bounds_.size() + 1));
  }
}

void Histogram::Observe(double value) {
  // First bucket whose upper edge holds the value; the trailing +Inf bucket
  // absorbs everything beyond the last bound.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  Stripe& stripe = *stripes_[internal::StripeIndex()];
  stripe.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  stripe.sum.Add(value);
}

Histogram::Data Histogram::Read() const {
  Data data;
  data.bounds = bounds_;
  data.counts.assign(bounds_.size() + 1, 0);
  for (const auto& stripe : stripes_) {
    for (size_t b = 0; b < stripe->counts.size(); ++b) {
      data.counts[b] += stripe->counts[b].load(std::memory_order_relaxed);
    }
    data.sum += stripe->sum.value.load(std::memory_order_relaxed);
  }
  for (const uint64_t c : data.counts) {
    data.count += c;
  }
  return data;
}

MetricsRegistry::Family& MetricsRegistry::FamilyFor(std::string_view name, MetricType type,
                                                    std::string_view help) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.type = type;
    family.help = std::string(help);
    it = families_.emplace(std::string(name), std::move(family)).first;
  } else if (it->second.type != type) {
    throw std::logic_error("MetricsRegistry: '" + std::string(name) +
                           "' already registered with a different type");
  }
  return it->second;
}

MetricsRegistry::Series* MetricsRegistry::FindSeries(Family& family, const LabelSet& labels) {
  for (Series& series : family.series) {
    if (series.labels == labels) {
      return &series;
    }
  }
  return nullptr;
}

Counter& MetricsRegistry::GetCounter(std::string_view name, const LabelSet& labels,
                                     std::string_view help) {
  util::MutexLock lock(mutex_);
  Family& family = FamilyFor(name, MetricType::kCounter, help);
  if (Series* series = FindSeries(family, labels)) {
    return *series->counter;
  }
  Series series;
  series.labels = labels;
  series.counter = std::make_unique<Counter>();
  family.series.push_back(std::move(series));
  return *family.series.back().counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, const LabelSet& labels,
                                 std::string_view help) {
  util::MutexLock lock(mutex_);
  Family& family = FamilyFor(name, MetricType::kGauge, help);
  if (Series* series = FindSeries(family, labels)) {
    return *series->gauge;
  }
  Series series;
  series.labels = labels;
  series.gauge = std::make_unique<Gauge>();
  family.series.push_back(std::move(series));
  return *family.series.back().gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name, std::vector<double> bounds,
                                         const LabelSet& labels, std::string_view help) {
  util::MutexLock lock(mutex_);
  Family& family = FamilyFor(name, MetricType::kHistogram, help);
  if (Series* series = FindSeries(family, labels)) {
    return *series->histogram;
  }
  Series series;
  series.labels = labels;
  series.histogram = std::make_unique<Histogram>(std::move(bounds));
  family.series.push_back(std::move(series));
  return *family.series.back().histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  util::MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, family] : families_) {
    for (const Series& series : family.series) {
      MetricSample sample;
      sample.name = name;
      sample.type = family.type;
      sample.help = family.help;
      sample.labels = series.labels;
      switch (family.type) {
        case MetricType::kCounter:
          sample.value = series.counter->Value();
          break;
        case MetricType::kGauge:
          sample.value = series.gauge->Value();
          break;
        case MetricType::kHistogram:
          sample.histogram = series.histogram->Read();
          break;
      }
      snapshot.samples.push_back(std::move(sample));
    }
  }
  return snapshot;
}

}  // namespace shedmon::obs
