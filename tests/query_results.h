// Bitwise comparison of two standard query instances' completed results,
// for suites that pin two ways of computing them together: sharded vs
// serial execution, elided vs replayed references, and per-flow queries vs
// the per-packet loops they replace.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/query/accuracy.h"
#include "src/query/queries.h"
#include "src/query/query.h"
#include "src/sketch/bitmap.h"
#include "src/sketch/h3.h"
#include "src/trace/batch.h"

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
// in order, processed-packet counts); otherwise what differs first. A
// packet-count reference (query::MakeReference) holds no results, so when
// either side is one, names, interval counts and packet counts are all
// there is to compare — and only for a query whose error reads no more.
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
  if (dynamic_cast<const PacketCountQuery*>(&a) != nullptr ||
      dynamic_cast<const PacketCountQuery*>(&b) != nullptr) {
    if (a.error_reads_results() || b.error_reads_results()) {
      return a.name() + ": a packet-count reference of a query whose error reads results";
    }
    return "";
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
      const auto& p = *x->snapshots()[i];
      const auto& q = *y.snapshots()[i];
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
      const auto& p = *x->snapshots()[i];
      const auto& q = *y.snapshots()[i];
      if (!SameBits(p.top, q.top) || p.all != q.all) {
        return at(i);
      }
    }
  } else {
    return a.name() + ": not a standard query";
  }
  return "";
}

// Per-packet reference implementations of the seven queries that visit
// flows (counter, application, high-watermark, flows, top-k, autofocus,
// super-sources): the loops they ran per packet, in row order, with their
// work weights, sampling-rate rescale and interval-end resets, and ranked
// lists by a full sort. A per-flow query must end up with these results and
// work_units() bit for bit — snapshots and ranked lists.
class PerPacketReference {
 public:
  explicit PerPacketReference(std::string name) : name_(std::move(name)) {}

  void ProcessBatch(const trace::PacketVec& packets, double rate) {
    const double n = static_cast<double>(packets.size());
    const double inv = 1.0 / SafeRate(rate);
    if (name_ == "counter" || name_ == "high-watermark") {
      double bytes = 0.0;
      for (const net::Packet& pkt : packets) {
        bytes += static_cast<double>(pkt.rec->wire_len);
      }
      if (name_ == "counter") {
        counter_cur_.pkts += n * inv;
        counter_cur_.bytes += bytes * inv;
        work_ += 40.0 * n;
      } else {
        watermark_cur_ = std::max(watermark_cur_, bytes * inv);
        work_ += 45.0 * n;
      }
    } else if (name_ == "application") {
      std::array<double, net::kNumAppClasses> pkts{};
      std::array<double, net::kNumAppClasses> bytes{};
      for (const net::Packet& pkt : packets) {
        const auto app = static_cast<size_t>(query::ApplicationQuery::ClassifyPorts(pkt.tuple()));
        pkts[app] += 1.0;
        bytes[app] += static_cast<double>(pkt.rec->wire_len);
      }
      for (size_t c = 0; c < pkts.size(); ++c) {
        if (pkts[c] != 0.0) {
          app_cur_.pkts[c] += pkts[c] * inv;
          app_cur_.bytes[c] += bytes[c] * inv;
        }
      }
      work_ += 70.0 * n;
    } else if (name_ == "flows") {
      double inserts = 0.0;
      for (const net::Packet& pkt : packets) {
        inserts += flows_.insert(pkt.tuple()).second ? 1.0 : 0.0;
      }
      flows_estimate_ += inserts * inv;
      work_ += 90.0 * n + 700.0 * inserts;
    } else if (name_ == "top-k" || name_ == "autofocus") {
      const bool by_dst = name_ == "top-k";
      std::unordered_map<uint32_t, double> batch;
      std::vector<uint32_t> order;
      for (const net::Packet& pkt : packets) {
        const uint32_t key = by_dst ? pkt.tuple().dst_ip : pkt.tuple().src_ip;
        auto [it, fresh] = batch.try_emplace(key, 0.0);
        it->second += static_cast<double>(pkt.rec->wire_len);
        if (fresh) {
          order.push_back(key);
        }
      }
      double inserts = 0.0;
      for (const uint32_t key : order) {
        auto [it, fresh] = keyed_.try_emplace(key, 0.0);
        inserts += fresh ? 1.0 : 0.0;
        it->second += batch.at(key) * inv;
      }
      work_ += by_dst ? 110.0 * n + 350.0 * inserts : 80.0 * n + 260.0 * inserts;
    } else if (name_ == "super-sources") {
      rate_sum_ += SafeRate(rate);
      ++rate_batches_;
      double inserts = 0.0;
      for (const net::Packet& pkt : packets) {
        auto [it, fresh] = fanout_.try_emplace(pkt.tuple().src_ip, 128u);
        inserts += fresh ? 1.0 : 0.0;
        uint8_t key[4];
        std::memcpy(key, &pkt.tuple().dst_ip, 4);
        it->second.Insert(dst_hash_.Hash(key, 4));
      }
      work_ += 85.0 * n + 420.0 * inserts;
    }
  }

  void EndInterval() {
    counter_snaps_.push_back(counter_cur_);
    counter_cur_ = {};
    app_snaps_.push_back(app_cur_);
    app_cur_ = {};
    watermarks_.push_back(watermark_cur_);
    watermark_cur_ = 0.0;
    flow_counts_.push_back(flows_estimate_);
    flows_estimate_ = 0.0;
    flows_.clear();
    if (name_ == "top-k") {
      query::TopKQuery::Snapshot snap;
      snap.all = keyed_;
      snap.topk = Ranked(keyed_, 10);
      topk_snaps_.push_back(std::move(snap));
    } else if (name_ == "autofocus") {
      work_ += 30.0 * static_cast<double>(keyed_.size());
      reports_.push_back(query::AutofocusQuery::ComputeClusters(keyed_, 0.02));
    }
    keyed_.clear();
    query::SuperSourcesQuery::Snapshot snap;
    const double rate =
        rate_batches_ > 0 ? rate_sum_ / static_cast<double>(rate_batches_) : 1.0;
    for (const auto& [src, bitmap] : fanout_) {
      snap.all[src] = bitmap.Estimate() / SafeRate(rate);
    }
    snap.top = Ranked(snap.all, 10);
    super_snaps_.push_back(std::move(snap));
    fanout_.clear();
    rate_sum_ = 0.0;
    rate_batches_ = 0;
  }

  double work_units() const { return work_; }

  // Empty when `q`, a query named like this reference, holds the
  // reference's completed results bit for bit; otherwise what differs.
  std::string Diff(const query::Query& q) const {
    if (q.name() != name_) {
      return "reference for " + name_ + " compared with " + q.name();
    }
    const size_t n = q.completed_intervals();
    if (n != flow_counts_.size()) {
      return name_ + ": completed intervals differ";
    }
    auto at = [&](size_t i) { return name_ + ": results differ at interval " + std::to_string(i); };
    for (size_t i = 0; i < n; ++i) {
      if (const auto* x = dynamic_cast<const query::CounterQuery*>(&q)) {
        const auto& got = x->snapshots()[i];
        if (!SameBits(got.pkts, counter_snaps_[i].pkts) ||
            !SameBits(got.bytes, counter_snaps_[i].bytes)) {
          return at(i);
        }
      } else if (const auto* x = dynamic_cast<const query::ApplicationQuery*>(&q)) {
        const auto& got = x->snapshots()[i];
        for (size_t c = 0; c < got.pkts.size(); ++c) {
          if (!SameBits(got.pkts[c], app_snaps_[i].pkts[c]) ||
              !SameBits(got.bytes[c], app_snaps_[i].bytes[c])) {
            return at(i);
          }
        }
      } else if (const auto* x = dynamic_cast<const query::HighWatermarkQuery*>(&q)) {
        if (!SameBits(x->watermarks()[i], watermarks_[i])) {
          return at(i);
        }
      } else if (const auto* x = dynamic_cast<const query::FlowsQuery*>(&q)) {
        if (!SameBits(x->flow_counts()[i], flow_counts_[i])) {
          return at(i);
        }
      } else if (const auto* x = dynamic_cast<const query::TopKQuery*>(&q)) {
        const auto& got = *x->snapshots()[i];
        if (!SameBits(got.topk, topk_snaps_[i].topk) || got.all != topk_snaps_[i].all) {
          return at(i);
        }
      } else if (const auto* x = dynamic_cast<const query::AutofocusQuery*>(&q)) {
        if (x->reports()[i] != reports_[i]) {
          return at(i);
        }
      } else if (const auto* x = dynamic_cast<const query::SuperSourcesQuery*>(&q)) {
        const auto& got = *x->snapshots()[i];
        if (!SameBits(got.top, super_snaps_[i].top) || got.all != super_snaps_[i].all) {
          return at(i);
        }
      } else {
        return name_ + ": no per-packet reference";
      }
    }
    return "";
  }

 private:
  static double SafeRate(double rate) { return rate > 1e-6 ? rate : 1e-6; }

  // The top `k` entries of `map`: every entry sorted by value descending,
  // then key ascending, and cut to `k`.
  static std::vector<std::pair<uint32_t, double>> Ranked(
      const std::unordered_map<uint32_t, double>& map, size_t k) {
    std::vector<std::pair<uint32_t, double>> sorted(map.begin(), map.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second > b.second || (a.second == b.second && a.first < b.first);
    });
    if (sorted.size() > k) {
      sorted.resize(k);
    }
    return sorted;
  }

  std::string name_;
  double work_ = 0.0;
  query::CounterQuery::Snapshot counter_cur_;
  std::vector<query::CounterQuery::Snapshot> counter_snaps_;
  query::ApplicationQuery::Snapshot app_cur_;
  std::vector<query::ApplicationQuery::Snapshot> app_snaps_;
  double watermark_cur_ = 0.0;
  std::vector<double> watermarks_;
  std::unordered_set<net::FiveTuple, net::FiveTupleHash> flows_;
  double flows_estimate_ = 0.0;
  std::vector<double> flow_counts_;
  std::unordered_map<uint32_t, double> keyed_;  // top-k by dst, autofocus by src
  std::vector<query::TopKQuery::Snapshot> topk_snaps_;
  std::vector<std::set<uint64_t>> reports_;
  sketch::H3Hash dst_hash_{0xfa11};
  std::unordered_map<uint32_t, sketch::DirectBitmap> fanout_;
  double rate_sum_ = 0.0;
  size_t rate_batches_ = 0;
  std::vector<query::SuperSourcesQuery::Snapshot> super_snaps_;
};

}  // namespace shedmon::test_util
