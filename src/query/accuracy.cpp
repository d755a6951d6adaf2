#include "src/query/accuracy.h"

#include <algorithm>

#include "src/query/queries.h"
#include "src/trace/batch.h"
#include "src/util/stats.h"

namespace shedmon::query {

std::unique_ptr<Query> MakeReference(std::string_view name) {
  std::unique_ptr<Query> query = MakeQuery(name);
  if (query->error_reads_results()) {
    return query;
  }
  return std::make_unique<PacketCountQuery>(query->name(), query->interval_bins());
}

std::vector<std::unique_ptr<Query>> RunReference(const std::vector<std::string>& names,
                                                 const trace::Trace& trace, uint64_t bin_us) {
  std::vector<std::unique_ptr<Query>> queries;
  queries.reserve(names.size());
  for (const auto& name : names) {
    queries.push_back(MakeReference(name));
  }

  trace::Batcher batcher(trace, bin_us);
  trace::Batch batch;
  std::vector<size_t> bins_in_interval(queries.size(), 0);
  while (batcher.Next(batch)) {
    BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0, &batch.flows};
    for (size_t q = 0; q < queries.size(); ++q) {
      queries[q]->ProcessBatch(in);
      if (++bins_in_interval[q] >= queries[q]->interval_bins()) {
        queries[q]->EndInterval();
        bins_in_interval[q] = 0;
      }
    }
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    if (bins_in_interval[q] > 0) {
      queries[q]->EndInterval();
    }
  }
  return queries;
}

AccuracyRow SummarizeAccuracy(const Query& estimate, const Query& reference) {
  AccuracyRow row;
  row.query = estimate.name();
  util::RunningStats stats;
  const size_t n = std::min(estimate.completed_intervals(), reference.completed_intervals());
  for (size_t i = 0; i < n; ++i) {
    stats.Add(estimate.IntervalError(reference, i));
  }
  row.mean_error = stats.mean();
  row.stdev_error = stats.stdev();
  return row;
}

std::vector<double> ErrorSeries(const Query& estimate, const Query& reference) {
  std::vector<double> series;
  const size_t n = std::min(estimate.completed_intervals(), reference.completed_intervals());
  series.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    series.push_back(estimate.IntervalError(reference, i));
  }
  return series;
}

}  // namespace shedmon::query
