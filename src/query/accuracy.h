#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/query/query.h"
#include "src/trace/generator.h"

namespace shedmon::query {

// The reference of a query whose IntervalError reads only processed-packet
// counts (Query::error_reads_results() is false): it carries the query's
// name and interval length and counts the packets of every batch it is fed,
// and keeps no other state, so feeding it costs nothing per packet.
class PacketCountQuery final : public Query {
 public:
  PacketCountQuery(std::string name, size_t interval_bins)
      : Query(std::move(name), interval_bins) {}
  bool error_reads_results() const override { return false; }

 protected:
  void OnBatch(const BatchInput& /*in*/) override {}
  void OnEndInterval(size_t /*interval_index*/) override {}
};

// The reference instance for the named standard query: a PacketCountQuery
// when its error reads only packet counts (trace, pattern-search), else
// MakeQuery(name). Every pipeline-managed and offline reference is built
// here. Throws std::invalid_argument on an unknown name, like MakeQuery.
std::unique_ptr<Query> MakeReference(std::string_view name);

// Runs fresh references (MakeReference) of the named queries over the full,
// unsampled trace; the returned instances hold the ground truth every
// accuracy comparison in the paper is measured against (§2.2.1: "the actual
// value in our experiments is obtained from a complete packet trace").
std::vector<std::unique_ptr<Query>> RunReference(const std::vector<std::string>& names,
                                                 const trace::Trace& trace,
                                                 uint64_t bin_us = 100'000);

// Per-query accuracy summary between a shed run and its reference.
struct AccuracyRow {
  std::string query;
  double mean_error = 0.0;
  double stdev_error = 0.0;
};

AccuracyRow SummarizeAccuracy(const Query& estimate, const Query& reference);

// Per-interval error series (Fig. 5.5-style time series).
std::vector<double> ErrorSeries(const Query& estimate, const Query& reference);

}  // namespace shedmon::query
