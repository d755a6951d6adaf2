// Bitwise comparison of two standard query instances' completed results,
// for suites that pin two ways of computing them together: sharded vs
// serial execution, and elided vs replayed references.

#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/query/queries.h"
#include "src/query/query.h"

namespace shedmon::test_util {

inline bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

inline bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

// Ranked lists compare in order: a tie broken differently is a difference.
inline bool SameBits(const std::vector<std::pair<uint32_t, double>>& a,
                     const std::vector<std::pair<uint32_t, double>>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !SameBits(a[i].second, b[i].second)) {
      return false;
    }
  }
  return true;
}

// Empty when `a` and `b` are instances of the same standard query whose
// completed intervals hold bit-identical results (snapshots, ranked lists
// in order, processed-packet counts); otherwise what differs first.
inline std::string ResultsDiff(const query::Query& a, const query::Query& b) {
  using namespace query;
  if (a.name() != b.name()) {
    return "names differ: " + a.name() + " vs " + b.name();
  }
  const size_t n = a.completed_intervals();
  if (n != b.completed_intervals()) {
    return a.name() + ": completed intervals " + std::to_string(n) + " vs " +
           std::to_string(b.completed_intervals());
  }
  for (size_t i = 0; i < n; ++i) {
    if (!SameBits(a.IntervalPacketsProcessed(i), b.IntervalPacketsProcessed(i))) {
      return a.name() + ": packets processed differ at interval " + std::to_string(i);
    }
  }
  auto at = [&](size_t i) {
    return a.name() + ": results differ at interval " + std::to_string(i);
  };
  if (const auto* x = dynamic_cast<const CounterQuery*>(&a)) {
    const auto& y = dynamic_cast<const CounterQuery&>(b);
    for (size_t i = 0; i < n; ++i) {
      const auto& p = x->snapshots()[i];
      const auto& q = y.snapshots()[i];
      if (!SameBits(p.pkts, q.pkts) || !SameBits(p.bytes, q.bytes)) {
        return at(i);
      }
    }
  } else if (const auto* x = dynamic_cast<const ApplicationQuery*>(&a)) {
    const auto& y = dynamic_cast<const ApplicationQuery&>(b);
    for (size_t i = 0; i < n; ++i) {
      const auto& p = x->snapshots()[i];
      const auto& q = y.snapshots()[i];
      for (size_t c = 0; c < p.pkts.size(); ++c) {
        if (!SameBits(p.pkts[c], q.pkts[c]) || !SameBits(p.bytes[c], q.bytes[c])) {
          return at(i);
        }
      }
    }
  } else if (const auto* x = dynamic_cast<const HighWatermarkQuery*>(&a)) {
    if (!SameBits(x->watermarks(), dynamic_cast<const HighWatermarkQuery&>(b).watermarks())) {
      return a.name() + ": watermarks differ";
    }
  } else if (const auto* x = dynamic_cast<const FlowsQuery*>(&a)) {
    if (!SameBits(x->flow_counts(), dynamic_cast<const FlowsQuery&>(b).flow_counts())) {
      return a.name() + ": flow counts differ";
    }
  } else if (const auto* x = dynamic_cast<const TopKQuery*>(&a)) {
    const auto& y = dynamic_cast<const TopKQuery&>(b);
    for (size_t i = 0; i < n; ++i) {
      const auto& p = x->snapshots()[i];
      const auto& q = y.snapshots()[i];
      if (!SameBits(p.topk, q.topk) || p.all != q.all) {
        return at(i);
      }
    }
  } else if (const auto* x = dynamic_cast<const TraceQuery*>(&a)) {
    const auto& y = dynamic_cast<const TraceQuery&>(b);
    for (size_t i = 0; i < n; ++i) {
      const auto& p = x->snapshots()[i];
      const auto& q = y.snapshots()[i];
      if (!SameBits(p.pkts_stored, q.pkts_stored) || !SameBits(p.bytes_stored, q.bytes_stored)) {
        return at(i);
      }
    }
  } else if (const auto* x = dynamic_cast<const PatternSearchQuery*>(&a)) {
    if (!SameBits(x->match_counts(), dynamic_cast<const PatternSearchQuery&>(b).match_counts())) {
      return a.name() + ": match counts differ";
    }
  } else if (const auto* x = dynamic_cast<const P2pDetectorQuery*>(&a)) {
    if (x->p2p_flows() != dynamic_cast<const P2pDetectorQuery&>(b).p2p_flows()) {
      return a.name() + ": p2p flows differ";
    }
  } else if (const auto* x = dynamic_cast<const AutofocusQuery*>(&a)) {
    if (x->reports() != dynamic_cast<const AutofocusQuery&>(b).reports()) {
      return a.name() + ": reports differ";
    }
  } else if (const auto* x = dynamic_cast<const SuperSourcesQuery*>(&a)) {
    const auto& y = dynamic_cast<const SuperSourcesQuery&>(b);
    for (size_t i = 0; i < n; ++i) {
      const auto& p = x->snapshots()[i];
      const auto& q = y.snapshots()[i];
      if (!SameBits(p.top, q.top) || p.all != q.all) {
        return at(i);
      }
    }
  } else {
    return a.name() + ": not a standard query";
  }
  return "";
}

}  // namespace shedmon::test_util
