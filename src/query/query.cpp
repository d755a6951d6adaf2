#include "src/query/query.h"

#include <algorithm>
#include <stdexcept>
#include <typeinfo>
#include <utility>

#include "src/util/stats.h"

namespace shedmon::query {

Query::Query(std::string name, size_t interval_bins)
    : name_(std::move(name)), interval_bins_(interval_bins == 0 ? 1 : interval_bins) {}

namespace {
// Calls fn(in), or, when the caller passed no flow table, fn on a copy of
// `in` carrying one built here.
template <typename Fn>
void WithFlows(const BatchInput& in, Fn fn) {
  if (in.flows != nullptr) {
    fn(in);
    return;
  }
  trace::FlowTable flows;
  flows.Build(in.packets);
  fn(BatchInput{in.packets, in.start_us, in.duration_us, in.sampling_rate, &flows});
}
}  // namespace

const trace::FlowTable& BatchInput::flow_table() const {
  if (flows == nullptr) {
    throw std::logic_error("query::BatchInput: a per-flow query was given no flow table");
  }
  return *flows;
}

void Query::ProcessBatch(const BatchInput& in) {
  cur_packets_ += static_cast<double>(in.packets.size());
  WithFlows(in, [this](const BatchInput& with) { OnBatch(with); });
}

void Query::ProcessShards(const BatchInput& in, std::vector<std::unique_ptr<ShardState>> shards) {
  ShardableQuery* sh = shardable();
  if (sh == nullptr || shards.empty()) {
    throw std::logic_error("Query::ProcessShards: query is not shardable or no shards given");
  }
  cur_packets_ += static_cast<double>(in.packets.size());
  std::unique_ptr<ShardState> merged = std::move(shards.front());
  for (size_t s = 1; s < shards.size(); ++s) {
    sh->MergeShard(*merged, std::move(*shards[s]));
  }
  sh->ApplyShards(in, std::move(*merged));
}

void Query::ProcessCustom(const BatchInput& in, double fraction) {
  cur_packets_ += static_cast<double>(in.packets.size());
  WithFlows(in, [&](const BatchInput& with) { OnCustomBatch(with, fraction); });
}

void Query::OnCustomBatch(const BatchInput& in, double /*fraction*/) { OnBatch(in); }

void Query::EndInterval() {
  interval_packets_.push_back(cur_packets_);
  cur_packets_ = 0.0;
  OnEndInterval(intervals_done_);
  ++intervals_done_;
}

bool Query::AdoptableFrom(const Query& twin) const {
  return typeid(*this) == typeid(twin) && interval_bins_ == twin.interval_bins_ &&
         intervals_done_ == twin.intervals_done_ && CanAdopt(twin);
}

void Query::AdoptFrom(const Query& twin, Adopt what) {
  const size_t closed = what == Adopt::kLastClosed ? 1 : 0;
  if (typeid(*this) != typeid(twin) || twin.intervals_done_ != intervals_done_ + closed) {
    throw std::logic_error("Query::AdoptFrom: '" + twin.name() + "' is not a twin of '" +
                           name_ + "' at this interval");
  }
  if (what == Adopt::kLastClosed) {
    interval_packets_.push_back(twin.interval_packets_.back());
    ++intervals_done_;
  }
  cur_packets_ = twin.cur_packets_;
  OnAdoptFrom(twin, what);
}

bool Query::CanAdopt(const Query& /*twin*/) const { return false; }

void Query::OnAdoptFrom(const Query& /*twin*/, Adopt /*what*/) {
  throw std::logic_error("Query::AdoptFrom: '" + name_ + "' cannot adopt a twin's state");
}

double Query::IntervalPacketsProcessed(size_t interval) const {
  if (interval >= interval_packets_.size()) {
    return 0.0;
  }
  return interval_packets_[interval];
}

double Query::IntervalError(const Query& reference, size_t interval) const {
  // Generic error for queries without a recoverable unsampled output
  // (trace, pattern-search): one minus the fraction of packets processed.
  const double total = reference.IntervalPacketsProcessed(interval);
  if (total <= 0.0) {
    return 0.0;
  }
  const double mine = IntervalPacketsProcessed(interval);
  return std::clamp(1.0 - mine / total, 0.0, 1.0);
}

double Query::MeanError(const Query& reference) const {
  const size_t n = std::min(completed_intervals(), reference.completed_intervals());
  if (n == 0) {
    return 0.0;
  }
  util::RunningStats stats;
  for (size_t i = 0; i < n; ++i) {
    stats.Add(IntervalError(reference, i));
  }
  return stats.mean();
}

}  // namespace shedmon::query
