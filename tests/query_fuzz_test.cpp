// Seeded differential fuzz for every query of Table 2.2
// (query::AllQueryNames), each of which runs its whole batch through one
// OnBatch path. Random batches draw their tuples from small key pools, so
// flows and keys repeat within and across batches; four in five packets
// carry a payload with planted pattern-search and P2P signatures (some past
// the detector's 256-byte scan prefix), the rest are header-only; batches
// of one packet and random sampling rates are common. Every query must
//   - match plain per-packet loops bit for bit: results, processed-packet
//     counts and (for the per-flow queries) work_units();
//   - read the same whether the batch carries its flow table or the query
//     builds its own, through ProcessBatch and ProcessCustom alike;
//   - be charged work for the packets it was handed, not the sampling rate
//     it was told (the cost oracle charges work_units() deltas).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/query/queries.h"
#include "src/query/query.h"
#include "src/trace/batch.h"
#include "src/trace/flow_table.h"
#include "src/util/rng.h"
#include "tests/query_results.h"

namespace shedmon {
namespace {

using query::BatchInput;
using query::Query;

constexpr char kPattern[] = "HTTP/1.1";  // PatternSearchQuery's default
constexpr size_t kP2pScanPrefix = 256;   // bytes of a payload the detector inspects

std::vector<std::string> P2pSignatures() {
  return {std::string(trace::BittorrentSignature()), std::string(trace::GnutellaSignature()),
          std::string(trace::EdonkeySignature())};
}

// ----------------------------------------------------------- batch builder --

// Owns records and payload bytes; the packet views stay valid while the
// FuzzBatch is alive (both vectors are sized up front, never reallocated).
struct FuzzBatch {
  std::vector<net::PacketRecord> records;
  std::vector<std::vector<uint8_t>> payloads;
  trace::PacketVec packets;
  trace::FlowTable flows;
};

std::unique_ptr<FuzzBatch> MakeBatch(util::Rng& rng, size_t num_packets) {
  std::vector<std::string> plants = P2pSignatures();
  plants.emplace_back(kPattern);
  auto batch = std::make_unique<FuzzBatch>();
  batch->records.resize(num_packets);
  batch->payloads.resize(num_packets);
  for (size_t i = 0; i < num_packets; ++i) {
    net::PacketRecord& rec = batch->records[i];
    rec.tuple.src_ip = 0x0a000000u + static_cast<uint32_t>(rng.NextBelow(7));
    rec.tuple.dst_ip = 0xc0a80000u + static_cast<uint32_t>(rng.NextBelow(5));
    rec.tuple.src_port = static_cast<uint16_t>(1024 + rng.NextBelow(4));
    rec.tuple.dst_port = static_cast<uint16_t>(rng.NextBelow(4) == 0 ? 80 : 6881);
    rec.tuple.proto = rng.NextBelow(3) == 0 ? net::kProtoUdp : net::kProtoTcp;
    rec.wire_len = static_cast<uint16_t>(40 + rng.NextBelow(1461));
    if (rng.NextBelow(5) == 0) {
      continue;  // header-only
    }
    auto& payload = batch->payloads[i];
    payload.resize(1 + rng.NextBelow(320));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const size_t count = rng.NextBelow(3);  // 0-2, possibly overlapping
    for (size_t p = 0; p < count; ++p) {
      const std::string& plant = plants[rng.NextBelow(plants.size())];
      if (payload.size() >= plant.size()) {
        const size_t at = rng.NextBelow(payload.size() - plant.size() + 1);
        std::memcpy(payload.data() + at, plant.data(), plant.size());
      }
    }
    rec.payload_len = static_cast<uint16_t>(payload.size());
  }
  batch->packets.resize(num_packets);
  for (size_t i = 0; i < num_packets; ++i) {
    net::Packet& pkt = batch->packets[i];
    pkt.rec = &batch->records[i];
    if (!batch->payloads[i].empty()) {
      pkt.payload = batch->payloads[i].data();
      pkt.payload_len = static_cast<uint16_t>(batch->payloads[i].size());
    }
  }
  batch->flows.Build(batch->packets);
  return batch;
}

double RandomRate(util::Rng& rng) {
  const double rates[] = {1.0, 0.5, 0.37, 0.08};
  return rates[rng.NextBelow(4)];
}

// ----------------------------------------------- per-packet query loops --

bool ContainsBytes(const uint8_t* text, size_t len, const std::string& needle) {
  const auto* n = reinterpret_cast<const uint8_t*>(needle.data());
  return std::search(text, text + len, n, n + needle.size()) != text + len;
}

// The bytes trace stores and pattern-search scans: the payload, or the
// header record of a header-only packet.
const uint8_t* EffectiveBytes(const net::Packet& pkt) {
  return pkt.payload_len > 0 ? pkt.payload : reinterpret_cast<const uint8_t*>(pkt.rec);
}
size_t EffectiveLen(const net::Packet& pkt) {
  return pkt.payload_len > 0 ? pkt.payload_len : sizeof(net::PacketRecord);
}

// Per-packet loops for the three queries that visit packets (trace,
// pattern-search, p2p-detector), written with std::search and an ordered
// per-flow map: stored packets and bytes, packets holding the pattern scaled
// by 1/rate per batch, and the flows whose signature shows on two of their
// inspected packets before two signature-less packets close inspection.
class PacketLoopReference {
 public:
  explicit PacketLoopReference(std::string name) : name_(std::move(name)) {}

  void ProcessBatch(const trace::PacketVec& packets, double rate) {
    double found = 0.0;
    for (const net::Packet& pkt : packets) {
      trace_cur_.pkts_stored += 1.0;
      trace_cur_.bytes_stored += static_cast<double>(EffectiveLen(pkt));
      found += ContainsBytes(EffectiveBytes(pkt), EffectiveLen(pkt), kPattern) ? 1.0 : 0.0;
      Inspect(pkt);
    }
    matches_cur_ += found * (1.0 / rate);
  }

  void EndInterval() {
    trace_snaps_.push_back(trace_cur_);
    trace_cur_ = {};
    matches_.push_back(matches_cur_);
    matches_cur_ = 0.0;
    std::set<net::FiveTuple> p2p;
    for (const auto& [tuple, flow] : flows_) {
      if (flow.is_p2p) {
        p2p.insert(tuple);
      }
    }
    p2p_.push_back(std::move(p2p));
    flows_.clear();
  }

  // Empty when `q`, a query named like this reference, holds its completed
  // results bit for bit; otherwise what differs.
  std::string Diff(const Query& q) const {
    if (q.name() != name_ || q.completed_intervals() != matches_.size()) {
      return name_ + ": completed intervals differ";
    }
    for (size_t i = 0; i < matches_.size(); ++i) {
      const std::string at = name_ + ": results differ at interval " + std::to_string(i);
      if (const auto* x = dynamic_cast<const query::TraceQuery*>(&q)) {
        if (!test_util::SameBits(x->snapshots()[i].pkts_stored, trace_snaps_[i].pkts_stored) ||
            !test_util::SameBits(x->snapshots()[i].bytes_stored, trace_snaps_[i].bytes_stored)) {
          return at;
        }
      } else if (const auto* x = dynamic_cast<const query::PatternSearchQuery*>(&q)) {
        if (!test_util::SameBits(x->match_counts()[i], matches_[i])) {
          return at;
        }
      } else if (const auto* x = dynamic_cast<const query::P2pDetectorQuery*>(&q)) {
        if (x->p2p_flows()[i] != p2p_[i]) {
          return at;
        }
      } else {
        return name_ + ": no packet-loop reference";
      }
    }
    return "";
  }

 private:
  struct Flow {
    int seen = 0;
    int hits = 0;
    bool is_p2p = false;
    bool decided = false;
  };

  void Inspect(const net::Packet& pkt) {
    Flow& flow = flows_[pkt.tuple()];
    ++flow.seen;
    if (flow.decided) {
      return;
    }
    if (pkt.payload_len > 0) {
      const size_t scan = std::min<size_t>(pkt.payload_len, kP2pScanPrefix);
      for (const std::string& sig : signatures_) {
        if (ContainsBytes(pkt.payload, scan, sig)) {
          if (++flow.hits >= 2) {
            flow.is_p2p = true;
            flow.decided = true;
          }
          return;
        }
      }
    }
    if (flow.seen >= 2) {
      flow.decided = true;
    }
  }

  std::string name_;
  std::vector<std::string> signatures_ = P2pSignatures();
  query::TraceQuery::Snapshot trace_cur_;
  std::vector<query::TraceQuery::Snapshot> trace_snaps_;
  double matches_cur_ = 0.0;
  std::vector<double> matches_;
  std::map<net::FiveTuple, Flow> flows_;
  std::vector<std::set<net::FiveTuple>> p2p_;
};

bool VisitsPackets(const std::string& name) {
  return name == "trace" || name == "pattern-search" || name == "p2p-detector";
}

// ------------------------------------------------------------- the suites --

class QueryFuzz : public ::testing::TestWithParam<std::string> {};

constexpr int kRounds = 20;
constexpr int kIntervals = 3;
constexpr int kBatchesPerInterval = 3;

// Property: the query's results, per-interval processed-packet counts and
// (per-flow queries) work_units() after every batch equal the per-packet
// loops' (test_util::PerPacketReference, PacketLoopReference).
TEST_P(QueryFuzz, MatchesThePerPacketLoopsExactly) {
  const std::string name = GetParam();
  util::Rng rng(0xf022 + std::hash<std::string>{}(name) % 1024);
  size_t nonempty = 0;  // pattern-search and p2p-detector intervals that found something
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto q = query::MakeQuery(name);
    test_util::PerPacketReference per_flow(name);
    PacketLoopReference per_packet(name);
    std::vector<double> handed;
    for (int interval = 0; interval < kIntervals; ++interval) {
      double packets = 0.0;
      for (int b = 0; b < kBatchesPerInterval; ++b) {
        const auto batch = MakeBatch(rng, 1 + rng.NextBelow(64));
        const double rate = RandomRate(rng);
        q->ProcessBatch({batch->packets, 0, 100'000, rate, &batch->flows});
        packets += static_cast<double>(batch->packets.size());
        if (VisitsPackets(name)) {
          per_packet.ProcessBatch(batch->packets, rate);
        } else {
          per_flow.ProcessBatch(batch->packets, rate);
          ASSERT_TRUE(test_util::SameBits(q->work_units(), per_flow.work_units()))
              << "interval " << interval << " batch " << b;
        }
      }
      handed.push_back(packets);
      q->EndInterval();
      per_flow.EndInterval();
      per_packet.EndInterval();
    }
    if (VisitsPackets(name)) {
      EXPECT_EQ(per_packet.Diff(*q), "");
    } else {
      // Work must match at interval ends too (autofocus charges its
      // clustering there).
      EXPECT_TRUE(test_util::SameBits(q->work_units(), per_flow.work_units()));
      EXPECT_EQ(per_flow.Diff(*q), "");
    }
    for (size_t i = 0; i < handed.size(); ++i) {
      EXPECT_EQ(q->IntervalPacketsProcessed(i), handed[i]) << "interval " << i;
      if (const auto* x = dynamic_cast<const query::PatternSearchQuery*>(q.get())) {
        nonempty += x->match_counts()[i] > 0.0 ? 1 : 0;
      } else if (const auto* x = dynamic_cast<const query::P2pDetectorQuery*>(q.get())) {
        nonempty += x->p2p_flows()[i].empty() ? 0 : 1;
      }
    }
  }
  if (name == "pattern-search" || name == "p2p-detector") {
    EXPECT_GT(nonempty, 0u) << "the planted signatures were never found";
  }
}

// Property: a query handed the batch's flow table and one that builds its
// own end every batch with the same work_units() and every interval with
// the same results; queries that shed their own load take half the batches
// through ProcessCustom at a random fraction.
TEST_P(QueryFuzz, FlowTableNeverChangesTheResult) {
  const std::string name = GetParam();
  util::Rng rng(0x7ab1e + std::hash<std::string>{}(name) % 1024);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto with_table = query::MakeQuery(name);
    auto own_table = query::MakeQuery(name);
    for (int interval = 0; interval < kIntervals; ++interval) {
      for (int b = 0; b < kBatchesPerInterval; ++b) {
        const auto batch = MakeBatch(rng, 1 + rng.NextBelow(64));
        const double rate = RandomRate(rng);
        const BatchInput given{batch->packets, 0, 100'000, rate, &batch->flows};
        const BatchInput bare{batch->packets, 0, 100'000, rate};
        if (with_table->supports_custom_shedding() && rng.NextBelow(2) == 0) {
          const double fraction = rng.NextDouble();
          with_table->ProcessCustom(given, fraction);
          own_table->ProcessCustom(bare, fraction);
        } else {
          with_table->ProcessBatch(given);
          own_table->ProcessBatch(bare);
        }
        ASSERT_TRUE(test_util::SameBits(with_table->work_units(), own_table->work_units()))
            << "interval " << interval << " batch " << b;
      }
      with_table->EndInterval();
      own_table->EndInterval();
      ASSERT_EQ(test_util::ResultsDiff(*with_table, *own_table), "") << "interval " << interval;
    }
  }
}

// Property: the same packets handed at a random sampling rate and at rate 1
// cost the same work after every batch and interval end, and count the same
// processed packets; only the rescaled results may differ.
TEST_P(QueryFuzz, WorkIsChargedForThePacketsNotTheRate) {
  const std::string name = GetParam();
  util::Rng rng(0x3a7e + std::hash<std::string>{}(name) % 1024);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto sampled = query::MakeQuery(name);
    auto full = query::MakeQuery(name);
    for (int interval = 0; interval < kIntervals; ++interval) {
      for (int b = 0; b < kBatchesPerInterval; ++b) {
        const auto batch = MakeBatch(rng, 1 + rng.NextBelow(64));
        sampled->ProcessBatch({batch->packets, 0, 100'000, 0.08 + 0.9 * rng.NextDouble(),
                               &batch->flows});
        full->ProcessBatch({batch->packets, 0, 100'000, 1.0, &batch->flows});
        ASSERT_TRUE(test_util::SameBits(sampled->work_units(), full->work_units()))
            << "interval " << interval << " batch " << b;
      }
      sampled->EndInterval();
      full->EndInterval();
      ASSERT_TRUE(test_util::SameBits(sampled->work_units(), full->work_units()))
          << "end of interval " << interval;
      EXPECT_EQ(sampled->IntervalPacketsProcessed(static_cast<size_t>(interval)),
                full->IntervalPacketsProcessed(static_cast<size_t>(interval)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, QueryFuzz, ::testing::ValuesIn(query::AllQueryNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ------------------------------------------------ pattern-search packets --

// One packet per payload in `payloads`, all of one flow.
struct PayloadBatch {
  explicit PayloadBatch(std::vector<std::string> bytes) : payloads(std::move(bytes)) {
    records.resize(payloads.size());
    for (size_t i = 0; i < payloads.size(); ++i) {
      records[i].tuple = {1, 2, 1024, 80, net::kProtoTcp};
      records[i].wire_len = static_cast<uint16_t>(40 + payloads[i].size());
      records[i].payload_len = static_cast<uint16_t>(payloads[i].size());
      net::Packet pkt;
      pkt.rec = &records[i];
      pkt.payload = reinterpret_cast<const uint8_t*>(payloads[i].data());
      pkt.payload_len = records[i].payload_len;
      packets.push_back(pkt);
    }
  }
  std::vector<std::string> payloads;
  std::vector<net::PacketRecord> records;
  trace::PacketVec packets;
};

double MatchesInOneInterval(const PayloadBatch& batch) {
  query::PatternSearchQuery q;
  q.ProcessBatch({batch.packets, 0, 100'000, 1.0});
  q.EndInterval();
  return q.match_counts()[0];
}

// Each packet is scanned alone: an occurrence split across two consecutive
// packets of a flow, at every split point, is not a match.
TEST(PatternSearchPackets, OccurrenceSplitAcrossTwoPacketsIsNotAMatch) {
  const std::string pattern(kPattern);
  for (size_t split = 1; split < pattern.size(); ++split) {
    SCOPED_TRACE("split after byte " + std::to_string(split));
    const PayloadBatch batch({std::string(20, '.') + pattern.substr(0, split),
                              pattern.substr(split) + std::string(20, '.')});
    EXPECT_EQ(MatchesInOneInterval(batch), 0.0);
  }
}

// A packet holding the pattern counts once, wherever the occurrence sits
// (first byte, last byte, anywhere between) and however many it holds.
TEST(PatternSearchPackets, PacketCountsOnceAtEveryOffset) {
  const std::string pattern(kPattern);
  constexpr size_t kLen = 48;
  std::vector<std::string> payloads;
  for (size_t at = 0; at + pattern.size() <= kLen; ++at) {
    std::string payload(kLen, '.');
    payload.replace(at, pattern.size(), pattern);
    payloads.push_back(payload);
  }
  payloads.push_back(pattern + pattern + std::string(kLen, '.') + pattern);
  payloads.push_back(std::string(kLen, '.'));
  const PayloadBatch batch(payloads);
  EXPECT_EQ(MatchesInOneInterval(batch), static_cast<double>(payloads.size() - 1));
}

}  // namespace
}  // namespace shedmon
