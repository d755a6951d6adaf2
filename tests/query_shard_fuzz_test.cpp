// Seeded differential fuzz for query::ShardableQuery: every shardable
// query's sharded execution must match its serial twin EXACTLY — interval
// results, processed-packet accounting and work_units(), bit for bit — for
// random packet batches, random sampling rates, random shard range
// partitions and random shard *execution* order. Pattern-search additionally
// gets adversarial shard seams placed around (and inside) planted pattern
// occurrences, the case the pattern.size()-1 seam overlap exists for.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
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
using query::ShardableQuery;
using query::ShardState;

constexpr char kPattern[] = "HTTP/1.1";  // PatternSearchQuery's default

// ----------------------------------------------------------- batch builder --

// Owns records and payload bytes; Packets() views stay valid while the
// FuzzBatch is alive (vectors are sized up front, never reallocated after).
// `flows` is the packets' flow table, the shard units of the per-flow
// queries.
struct FuzzBatch {
  std::vector<net::PacketRecord> records;
  std::vector<std::vector<uint8_t>> payloads;
  trace::PacketVec packets;
  trace::FlowTable flows;
  std::vector<size_t> pattern_offsets;  // global unit offsets of planted patterns

  BatchInput Input(double rate) const { return BatchInput{packets, 0, 100'000, rate, &flows}; }
};

// Effective shard-unit length of a packet in pattern-search's byte stream.
size_t EffectiveLen(const net::PacketRecord& rec) {
  return rec.payload_len > 0 ? rec.payload_len : sizeof(net::PacketRecord);
}

FuzzBatch MakeBatch(util::Rng& rng, size_t num_packets) {
  FuzzBatch batch;
  batch.records.resize(num_packets);
  batch.payloads.resize(num_packets);
  const size_t pattern_len = sizeof(kPattern) - 1;
  size_t unit_offset = 0;
  for (size_t i = 0; i < num_packets; ++i) {
    net::PacketRecord& rec = batch.records[i];
    // Small key pools force cross-shard duplicate tuples/keys, the case the
    // merge dedup logic must get right.
    rec.tuple.src_ip = 0x0a000000u + static_cast<uint32_t>(rng.NextU64() % 7);
    rec.tuple.dst_ip = 0xc0a80000u + static_cast<uint32_t>(rng.NextU64() % 5);
    rec.tuple.src_port = static_cast<uint16_t>(1024 + rng.NextU64() % 16);
    rec.tuple.dst_port = static_cast<uint16_t>(rng.NextU64() % 4 == 0 ? 80 : 2000);
    rec.tuple.proto = net::kProtoTcp;
    rec.wire_len = static_cast<uint16_t>(40 + rng.NextU64() % 1461);

    if (rng.NextU64() % 5 != 0) {  // 4 in 5 packets carry a payload
      auto& payload = batch.payloads[i];
      payload.resize(1 + rng.NextU64() % 256);
      for (auto& b : payload) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      // Plant 0-2 (possibly overlapping) pattern occurrences.
      const size_t plants = rng.NextU64() % 3;
      for (size_t p = 0; p < plants && payload.size() >= pattern_len; ++p) {
        const size_t at = rng.NextU64() % (payload.size() - pattern_len + 1);
        std::memcpy(payload.data() + at, kPattern, pattern_len);
        batch.pattern_offsets.push_back(unit_offset + at);
      }
      rec.payload_len = static_cast<uint16_t>(payload.size());
    }
    unit_offset += EffectiveLen(rec);
  }
  batch.packets.resize(num_packets);
  for (size_t i = 0; i < num_packets; ++i) {
    net::Packet& pkt = batch.packets[i];
    pkt.rec = &batch.records[i];
    if (!batch.payloads[i].empty()) {
      pkt.payload = batch.payloads[i].data();
      pkt.payload_len = static_cast<uint16_t>(batch.payloads[i].size());
    }
  }
  batch.flows.Build(batch.packets);
  return batch;
}

// ------------------------------------------------------ sharded execution --

// Turns sorted unique cut points into [0, units) ranges.
std::vector<std::pair<size_t, size_t>> RangesFromCuts(size_t units, std::vector<size_t> cuts) {
  cuts.push_back(0);
  cuts.push_back(units);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (cuts[i] < units) {
      ranges.emplace_back(cuts[i], std::min(cuts[i + 1], units));
    }
  }
  if (ranges.empty()) {
    ranges.emplace_back(0, units);
  }
  return ranges;
}

// Random cut points; for pattern-search batches the cuts cluster around the
// planted occurrences (start-1, start, inside the pattern, one before its
// end, first byte past it) so seams adversarially slice occurrences.
std::vector<std::pair<size_t, size_t>> PickRanges(util::Rng& rng, size_t units,
                                                  const std::vector<size_t>& hot_spots) {
  std::vector<size_t> cuts;
  const size_t random_cuts = rng.NextU64() % 8;
  for (size_t c = 0; c < random_cuts && units > 0; ++c) {
    cuts.push_back(rng.NextU64() % units);
  }
  const size_t pattern_len = sizeof(kPattern) - 1;
  for (const size_t at : hot_spots) {
    if (rng.NextU64() % 2 != 0) {
      continue;
    }
    const size_t deltas[] = {0, 1, pattern_len / 2, pattern_len - 1, pattern_len};
    const size_t delta = deltas[rng.NextU64() % 5];
    if (at + delta <= units) {
      cuts.push_back(at + delta);
    }
    if (at >= 1 && rng.NextU64() % 2 == 0) {
      cuts.push_back(at - 1);
    }
  }
  return RangesFromCuts(units, std::move(cuts));
}

// Runs one batch through the shard path: fork per range, process the ranges
// in a random order (shards are independent, so execution order must not
// matter), hand the partials to ProcessShards in shard-index order.
void ProcessSharded(util::Rng& rng, Query& q, const BatchInput& in,
                    const std::vector<std::pair<size_t, size_t>>& ranges) {
  ShardableQuery* sh = q.shardable();
  ASSERT_NE(sh, nullptr);
  std::vector<std::unique_ptr<ShardState>> states;
  states.reserve(ranges.size());
  for (size_t s = 0; s < ranges.size(); ++s) {
    states.push_back(sh->ForkShard());
  }
  std::vector<size_t> order(ranges.size());
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size(); i > 1; --i) {  // Fisher-Yates on the seeded rng
    std::swap(order[i - 1], order[rng.NextU64() % i]);
  }
  for (const size_t s : order) {
    sh->OnShardBatch(*states[s], in, ranges[s].first, ranges[s].second);
  }
  q.ProcessShards(in, std::move(states));
}

// ------------------------------------------------------ result comparison --

void ExpectSameResults(const Query& sharded, const Query& serial) {
  EXPECT_EQ(sharded.work_units(), serial.work_units()) << "sharded vs serial mismatch";
  EXPECT_EQ(test_util::ResultsDiff(sharded, serial), "") << "sharded vs serial mismatch";
}

// ------------------------------------------------------------- the driver --

std::vector<std::string> ShardableQueryNames() {
  std::vector<std::string> names;
  for (const auto& name : query::AllQueryNames()) {
    if (query::MakeQuery(name)->shardable() != nullptr) {
      names.push_back(name);
    }
  }
  return names;
}

class QueryShardFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(QueryShardFuzz, ShardedMatchesSerialTwinExactly) {
  const std::string name = GetParam();
  util::Rng rng(0x5eed0000 + std::hash<std::string>{}(name) % 1024);
  constexpr int kRounds = 40;
  constexpr int kBatchesPerInterval = 3;

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto sharded_q = query::MakeQuery(name);
    auto serial_q = query::MakeQuery(name);
    ShardableQuery* sh = sharded_q->shardable();
    ASSERT_NE(sh, nullptr);

    for (int b = 0; b < kBatchesPerInterval; ++b) {
      const size_t num_packets = 1 + rng.NextU64() % 64;  // includes 1-packet batches
      const FuzzBatch batch = MakeBatch(rng, num_packets);
      const double rates[] = {1.0, 0.5, 0.37, 0.08};
      const BatchInput in = batch.Input(rates[rng.NextU64() % 4]);

      const size_t units = sh->ShardUnits(in);
      const auto ranges = PickRanges(rng, units, name == "pattern-search"
                                                    ? batch.pattern_offsets
                                                    : std::vector<size_t>{});
      ProcessSharded(rng, *sharded_q, in, ranges);
      serial_q->ProcessBatch(in);
      // Work must match after every batch, not only at interval ends: the
      // cost oracle charges per-batch deltas of this counter.
      EXPECT_EQ(sharded_q->work_units(), serial_q->work_units()) << "sharded vs serial mismatch";
    }
    sharded_q->EndInterval();
    serial_q->EndInterval();
    ExpectSameResults(*sharded_q, *serial_q);
  }
}

INSTANTIATE_TEST_SUITE_P(AllShardableQueries, QueryShardFuzz,
                         ::testing::ValuesIn(ShardableQueryNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// A deterministic, non-fuzz seam check: a single payload whose pattern sits
// exactly on a shard seam must be found by the left shard (which scans the
// pattern.size()-1 overlap) and only counted once even when both shards see
// pattern bytes.
TEST(QueryShardSeams, OccurrenceStraddlingSeamCountsExactlyOnce) {
  util::Rng rng(7);
  const std::string pattern(kPattern);
  for (size_t seam_delta = 0; seam_delta <= pattern.size(); ++seam_delta) {
    SCOPED_TRACE("seam at pattern start + " + std::to_string(seam_delta));
    FuzzBatch batch;
    batch.records.resize(1);
    batch.payloads.resize(1);
    auto& payload = batch.payloads[0];
    payload.assign(64, 0x2e);
    const size_t at = 20;
    std::memcpy(payload.data() + at, pattern.data(), pattern.size());
    batch.records[0].tuple = {1, 2, 1024, 80, net::kProtoTcp};
    batch.records[0].wire_len = 100;
    batch.records[0].payload_len = static_cast<uint16_t>(payload.size());
    batch.packets.resize(1);
    batch.packets[0].rec = &batch.records[0];
    batch.packets[0].payload = payload.data();
    batch.packets[0].payload_len = static_cast<uint16_t>(payload.size());
    batch.flows.Build(batch.packets);

    query::PatternSearchQuery sharded;
    query::PatternSearchQuery serial;
    const BatchInput in = batch.Input(1.0);
    ProcessSharded(rng, sharded, in, {{0, at + seam_delta}, {at + seam_delta, payload.size()}});
    serial.ProcessBatch(in);
    sharded.EndInterval();
    serial.EndInterval();
    ASSERT_EQ(serial.match_counts().size(), 1u);
    EXPECT_EQ(serial.match_counts()[0], 1.0);
    EXPECT_EQ(sharded.match_counts(), serial.match_counts());
    EXPECT_EQ(sharded.work_units(), serial.work_units());
  }
}

}  // namespace
}  // namespace shedmon
