#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/query/accuracy.h"
#include "src/query/queries.h"
#include "src/shed/sampler.h"
#include "src/trace/batch.h"
#include "src/trace/flow_table.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"
#include "tests/query_results.h"

namespace shedmon::query {
namespace {

// --------------------------------------------------------------- Searcher --

size_t StdSearch(const uint8_t* text, size_t len, const std::string& needle) {
  const auto* n = reinterpret_cast<const uint8_t*>(needle.data());
  const uint8_t* it = std::search(text, text + len, n, n + needle.size());
  return it == text + len ? Searcher::kNpos : static_cast<size_t>(it - text);
}

// Needles of every length 1..32 over {a, b, NUL, 0xff}, self-overlapping
// ones whose candidates cluster, and the real payload signatures.
std::vector<std::string> PropertyNeedles() {
  std::vector<std::string> needles = {
      "a",  std::string(1, '\0'), "ab", "aa", "abab", "aabaab", std::string(31, 'a'),
      "abababababababababababababababab", std::string("a\0a\0a", 5), "HTTP/1.1",
      std::string(trace::HttpSignature()), std::string(trace::BittorrentSignature()),
      std::string(trace::GnutellaSignature()), std::string(trace::EdonkeySignature())};
  const std::string alphabet("ab\0\xff", 4);
  util::Rng rng(17);
  for (size_t m = 1; m <= 32; ++m) {
    std::string needle(m, ' ');
    for (auto& c : needle) {
      c = alphabet[rng.NextBelow(alphabet.size())];
    }
    needles.push_back(needle);
  }
  return needles;
}

// A haystack of exactly `len` bytes (so ASan flags any read past the end)
// drawn from the needle's own bytes plus one foreign byte, with the needle
// planted at a random offset half the time.
std::vector<uint8_t> Haystack(const std::string& needle, size_t len, util::Rng& rng) {
  std::string alphabet = needle + '\x7f';
  std::vector<uint8_t> hay(len);
  for (auto& b : hay) {
    b = static_cast<uint8_t>(alphabet[rng.NextBelow(alphabet.size())]);
  }
  if (len >= needle.size() && rng.NextBelow(2) == 0) {
    const size_t at = rng.NextBelow(len - needle.size() + 1);
    std::memcpy(hay.data() + at, needle.data(), needle.size());
  }
  return hay;
}

size_t Find(const Searcher& searcher, const std::string& hay) {
  return searcher.Find(reinterpret_cast<const uint8_t*>(hay.data()), hay.size());
}

TEST(SearcherTest, FindsPatternAtEveryPosition) {
  const Searcher searcher("needle");
  EXPECT_EQ(Find(searcher, "xxneedlexx"), 2u);
  EXPECT_EQ(Find(searcher, "needle....."), 0u);
  EXPECT_EQ(Find(searcher, ".....needle"), 5u);
  // Past the first 16-byte block, and ending on the last byte of a block.
  EXPECT_EQ(Find(searcher, std::string(20, '.') + "needle"), 20u);
  EXPECT_EQ(Find(searcher, std::string(26, '.') + "needle"), 26u);
}

TEST(SearcherTest, MissesAbsentPattern) {
  const Searcher searcher("needle");
  EXPECT_EQ(Find(searcher, "haystack without the n-word"), Searcher::kNpos);
  EXPECT_FALSE(searcher.Contains(nullptr, 0));
}

TEST(SearcherTest, TextShorterThanPattern) {
  const Searcher searcher("longpattern");
  EXPECT_EQ(Find(searcher, "short"), Searcher::kNpos);
  EXPECT_EQ(Find(searcher, "longpatter"), Searcher::kNpos);
}

TEST(SearcherTest, RepeatedSuffixPatterns) {
  // "aabaabababab": first "abab" starts at index 4, overlapping at 6 and 8.
  const Searcher searcher("abab");
  const std::string hay = "aabaabababab";
  std::vector<size_t> starts;
  for (size_t from = 0; from < hay.size();) {
    const size_t at = Find(searcher, hay.substr(from));
    if (at == Searcher::kNpos) {
      break;
    }
    starts.push_back(from + at);
    from += at + 1;
  }
  EXPECT_EQ(starts, (std::vector<size_t>{4, 6, 8}));
}

TEST(SearcherTest, BinaryPatternWithNulBytes) {
  const Searcher searcher(std::string("\xe3\x00\x01", 3));
  const uint8_t text[] = {0x10, 0xe3, 0x00, 0x01, 0x20};
  EXPECT_EQ(searcher.Find(text, sizeof(text)), 1u);
}

TEST(SearcherTest, EmptyNeedleRejected) {
  EXPECT_THROW(Searcher(""), std::invalid_argument);
}

// Every haystack length 0..80 and every start offset into it, so each needle
// meets the block loop and the scalar tail at every boundary between them.
TEST(SearcherTest, MatchesStdSearchAtEveryLengthAndOffset) {
  util::Rng rng(41);
  for (const std::string& needle : PropertyNeedles()) {
    const Searcher searcher(needle);
    for (size_t len = 0; len <= 80; ++len) {
      const std::vector<uint8_t> hay = Haystack(needle, len, rng);
      for (size_t start = 0; start <= len; ++start) {
        const uint8_t* text = hay.data() + start;
        ASSERT_EQ(searcher.Find(text, len - start), StdSearch(text, len - start, needle))
            << "needle size " << needle.size() << ", len " << len << ", start " << start;
      }
    }
  }
}

TEST(SearcherTest, MatchesStdSearchOnLongHaystacks) {
  util::Rng rng(43);
  for (const std::string& needle : PropertyNeedles()) {
    const Searcher searcher(needle);
    for (const size_t len : {256u, 1460u, 4099u}) {
      const std::vector<uint8_t> hay = Haystack(needle, len, rng);
      for (size_t start = 0; start < 17; ++start) {
        const uint8_t* text = hay.data() + start;
        ASSERT_EQ(searcher.Find(text, len - start), StdSearch(text, len - start, needle))
            << "needle size " << needle.size() << ", len " << len << ", start " << start;
      }
    }
  }
}

// ----------------------------------------------------------- query fixture --

struct Fixture {
  std::vector<net::PacketRecord> records;
  std::vector<std::vector<uint8_t>> payloads;

  void Add(uint32_t src, uint32_t dst, uint16_t sport, uint16_t dport, uint8_t proto,
           uint16_t len, std::string payload = "") {
    net::PacketRecord rec;
    rec.tuple = {src, dst, sport, dport, proto};
    rec.wire_len = len;
    rec.payload_len = static_cast<uint16_t>(payload.size());
    records.push_back(rec);
    payloads.emplace_back(payload.begin(), payload.end());
  }

  trace::PacketVec Packets() const {
    trace::PacketVec out;
    for (size_t i = 0; i < records.size(); ++i) {
      net::Packet p;
      p.rec = &records[i];
      if (!payloads[i].empty()) {
        p.payload = payloads[i].data();
        p.payload_len = static_cast<uint16_t>(payloads[i].size());
      }
      out.push_back(p);
    }
    return out;
  }
};

BatchInput Input(const trace::PacketVec& packets, double rate = 1.0) {
  return BatchInput{packets, 0, 100'000, rate};
}

// ---------------------------------------------------------------- counter --

TEST(CounterQueryTest, ExactWithoutSampling) {
  Fixture fx;
  for (int i = 0; i < 25; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  CounterQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  ASSERT_EQ(q.snapshots().size(), 1u);
  EXPECT_DOUBLE_EQ(q.snapshots()[0].pkts, 25.0);
  EXPECT_DOUBLE_EQ(q.snapshots()[0].bytes, 2500.0);
}

TEST(CounterQueryTest, ScalesBySamplingRateInverse) {
  Fixture fx;
  for (int i = 0; i < 30; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  CounterQuery q;
  q.ProcessBatch(Input(packets, 0.5));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.snapshots()[0].pkts, 60.0);
  EXPECT_DOUBLE_EQ(q.snapshots()[0].bytes, 6000.0);
}

TEST(CounterQueryTest, ZeroErrorAgainstIdenticalReference) {
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  CounterQuery a;
  CounterQuery b;
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_DOUBLE_EQ(a.IntervalError(b, 0), 0.0);
}

// ------------------------------------------------------------ application --

TEST(ApplicationQueryTest, ClassifiesWellKnownPorts) {
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 80, 6}), net::AppClass::kWeb);
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 53, 17}), net::AppClass::kDns);
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 6881, 6}), net::AppClass::kP2p);
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 22, 6}), net::AppClass::kSsh);
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 30000, 40000, 6}), net::AppClass::kOther);
  // Source-port fallback for reverse-direction packets.
  EXPECT_EQ(ApplicationQuery::ClassifyPorts({1, 2, 443, 40000, 6}), net::AppClass::kWeb);
}

TEST(ApplicationQueryTest, SplitsTrafficByApp) {
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    fx.Add(1, 2, 30000, 80, net::kProtoTcp, 100);
  }
  for (int i = 0; i < 5; ++i) {
    fx.Add(1, 2, 30000, 53, net::kProtoUdp, 60);
  }
  const auto packets = fx.Packets();
  ApplicationQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  const auto& snap = q.snapshots()[0];
  EXPECT_DOUBLE_EQ(snap.pkts[static_cast<size_t>(net::AppClass::kWeb)], 10.0);
  EXPECT_DOUBLE_EQ(snap.pkts[static_cast<size_t>(net::AppClass::kDns)], 5.0);
}

// --------------------------------------------------------- high-watermark --

TEST(HighWatermarkQueryTest, TracksPeakBin) {
  Fixture small;
  small.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  Fixture large;
  for (int i = 0; i < 50; ++i) {
    large.Add(1, 2, 10, 80, net::kProtoTcp, 1000);
  }
  const auto small_pkts = small.Packets();
  const auto large_pkts = large.Packets();
  HighWatermarkQuery q;
  q.ProcessBatch(Input(small_pkts));
  q.ProcessBatch(Input(large_pkts));
  q.ProcessBatch(Input(small_pkts));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.watermarks()[0], 50000.0);
}

TEST(HighWatermarkQueryTest, CustomShedStrideEstimatesPeak) {
  Fixture fx;
  for (int i = 0; i < 400; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 500);
  }
  const auto packets = fx.Packets();
  HighWatermarkQuery q;
  ASSERT_TRUE(q.supports_custom_shedding());
  q.ProcessCustom(Input(packets), 0.25);
  q.EndInterval();
  // 1-in-4 stride x 4 rescale over uniform sizes is exact.
  EXPECT_NEAR(q.watermarks()[0], 200000.0, 2000.0);
}

// ------------------------------------------------------------------ flows --

TEST(FlowsQueryTest, CountsDistinctFlows) {
  Fixture fx;
  for (uint32_t f = 0; f < 40; ++f) {
    for (int rep = 0; rep < 3; ++rep) {
      fx.Add(100 + f, 2, static_cast<uint16_t>(1000 + f), 80, net::kProtoTcp, 100);
    }
  }
  const auto packets = fx.Packets();
  FlowsQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.flow_counts()[0], 40.0);
}

TEST(FlowsQueryTest, FlowSamplingEstimateScales) {
  Fixture fx;
  for (uint32_t f = 0; f < 100; ++f) {
    fx.Add(100 + f, 2, static_cast<uint16_t>(1000 + f), 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  // Emulate 50% flow sampling: feed half the flows, tell the query rate=0.5.
  trace::PacketVec half(packets.begin(), packets.begin() + 50);
  FlowsQuery q;
  q.ProcessBatch(Input(half, 0.5));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.flow_counts()[0], 100.0);
}

TEST(FlowsQueryTest, IntervalResetsFlowTable) {
  Fixture fx;
  fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  const auto packets = fx.Packets();
  FlowsQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  // Same flow counts once per interval.
  EXPECT_DOUBLE_EQ(q.flow_counts()[0], 1.0);
  EXPECT_DOUBLE_EQ(q.flow_counts()[1], 1.0);
}

TEST(FlowsQueryTest, PrefersFlowSampling) {
  FlowsQuery q;
  EXPECT_EQ(q.preferred_sampling(), SamplingMethod::kFlow);
}

// ------------------------------------------------------------------ top-k --

TEST(TopKQueryTest, RanksDestinationsByBytes) {
  Fixture fx;
  for (int i = 0; i < 30; ++i) {
    fx.Add(1, 100, 10, 80, net::kProtoTcp, 1000);  // heavy hitter
  }
  for (int i = 0; i < 5; ++i) {
    fx.Add(1, 200, 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  TopKQuery q(5);
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  const auto& snap = *q.snapshots()[0];
  ASSERT_GE(snap.topk.size(), 2u);
  EXPECT_EQ(snap.topk[0].first, 100u);
  EXPECT_DOUBLE_EQ(snap.topk[0].second, 30000.0);
}

TEST(TopKQueryTest, PerfectRunHasZeroMisrankedPairs) {
  Fixture fx;
  for (uint32_t d = 0; d < 20; ++d) {
    for (uint32_t rep = 0; rep <= d; ++rep) {
      fx.Add(1, 100 + d, 10, 80, net::kProtoTcp, 100);
    }
  }
  const auto packets = fx.Packets();
  TopKQuery a(5);
  TopKQuery b(5);
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_DOUBLE_EQ(a.IntervalMisrankedPairs(b, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.IntervalError(b, 0), 0.0);
}

TEST(TopKQueryTest, MisrankingDetected) {
  // Estimate sees only the light destinations; reference sees all.
  Fixture light;
  for (uint32_t d = 0; d < 5; ++d) {
    light.Add(1, 200 + d, 10, 80, net::kProtoTcp, 100);
  }
  Fixture full;
  for (uint32_t d = 0; d < 5; ++d) {
    full.Add(1, 200 + d, 10, 80, net::kProtoTcp, 100);
  }
  for (uint32_t d = 0; d < 5; ++d) {
    for (int rep = 0; rep < 50; ++rep) {
      full.Add(1, 100 + d, 10, 80, net::kProtoTcp, 1000);  // true heavies
    }
  }
  const auto light_pkts = light.Packets();
  const auto full_pkts = full.Packets();
  TopKQuery est(5);
  TopKQuery ref(5);
  est.ProcessBatch(Input(light_pkts));
  ref.ProcessBatch(Input(full_pkts));
  est.EndInterval();
  ref.EndInterval();
  // Every (reported, true-heavy) pair is misranked: 5 x 5.
  EXPECT_DOUBLE_EQ(est.IntervalMisrankedPairs(ref, 0), 25.0);
  EXPECT_DOUBLE_EQ(est.IntervalError(ref, 0), 1.0);
}

TEST(TopKQueryTest, SampleAndHoldKeepsHeavyHitters) {
  util::Rng rng(43);
  Fixture fx;
  for (int i = 0; i < 2000; ++i) {
    fx.Add(1, 100, 10, 80, net::kProtoTcp, 1000);  // dominant key
  }
  for (int i = 0; i < 200; ++i) {
    fx.Add(1, 200 + static_cast<uint32_t>(rng.NextBelow(50)), 10, 80, net::kProtoTcp, 100);
  }
  const auto packets = fx.Packets();
  TopKQuery q(3);
  q.ProcessCustom(Input(packets), 0.3);
  q.EndInterval();
  ASSERT_FALSE(q.snapshots()[0]->topk.empty());
  EXPECT_EQ(q.snapshots()[0]->topk[0].first, 100u);
}

// ---------------------------------------------- trace and pattern-search --

TEST(TraceQueryTest, StoresBytesProportionalToInput) {
  Fixture fx;
  for (int i = 0; i < 10; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 500, std::string(460, 'x'));
  }
  const auto packets = fx.Packets();
  TraceQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.snapshots()[0].pkts_stored, 10.0);
  EXPECT_DOUBLE_EQ(q.snapshots()[0].bytes_stored, 4600.0);
}

TEST(TraceQueryTest, GenericErrorIsUnprocessedFraction) {
  Fixture fx;
  for (int i = 0; i < 100; ++i) {
    fx.Add(1, 2, 10, 80, net::kProtoTcp, 100);
  }
  const auto all = fx.Packets();
  const trace::PacketVec quarter(all.begin(), all.begin() + 25);
  TraceQuery est;
  TraceQuery ref;
  est.ProcessBatch(Input(quarter, 0.25));
  ref.ProcessBatch(Input(all));
  est.EndInterval();
  ref.EndInterval();
  EXPECT_DOUBLE_EQ(est.IntervalError(ref, 0), 0.75);
}

TEST(PatternSearchQueryTest, FindsPlantedPattern) {
  Fixture fx;
  fx.Add(1, 2, 10, 80, net::kProtoTcp, 200, "GET /index.html HTTP/1.1\r\n");
  fx.Add(1, 2, 10, 80, net::kProtoTcp, 200, std::string(100, 'z'));
  const auto packets = fx.Packets();
  PatternSearchQuery q("HTTP/1.1");
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  EXPECT_DOUBLE_EQ(q.match_counts()[0], 1.0);
}

// ----------------------------------------------------------- p2p-detector --

Fixture P2pFixture() {
  Fixture fx;
  // One BitTorrent flow: the handshake signature appears on the first two
  // stream packets (as the generator emits), both of which the detector
  // must observe to classify the flow.
  fx.Add(10, 20, 50000, 6881, net::kProtoTcp, 200,
         std::string(trace::BittorrentSignature()) + std::string(50, 'a'));
  fx.Add(10, 20, 50000, 6881, net::kProtoTcp, 200,
         std::string(trace::BittorrentSignature()) + std::string(50, 'a'));
  for (int i = 0; i < 5; ++i) {
    fx.Add(10, 20, 50000, 6881, net::kProtoTcp, 1400, std::string(200, 'b'));
  }
  // One plain web flow.
  fx.Add(11, 21, 50001, 80, net::kProtoTcp, 200, "GET / HTTP/1.1\r\n");
  for (int i = 0; i < 5; ++i) {
    fx.Add(11, 21, 50001, 80, net::kProtoTcp, 1400, std::string(200, 'c'));
  }
  return fx;
}

TEST(P2pDetectorQueryTest, DetectsSignatureFlows) {
  const Fixture fx = P2pFixture();
  const auto packets = fx.Packets();
  P2pDetectorQuery q;
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  ASSERT_EQ(q.p2p_flows().size(), 1u);
  ASSERT_EQ(q.p2p_flows()[0].size(), 1u);
  EXPECT_EQ(q.p2p_flows()[0].begin()->dst_port, 6881);
}

TEST(P2pDetectorQueryTest, ZeroErrorAgainstItself) {
  const Fixture fx = P2pFixture();
  const auto packets = fx.Packets();
  P2pDetectorQuery a;
  P2pDetectorQuery b;
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_DOUBLE_EQ(a.IntervalError(b, 0), 0.0);
}

TEST(P2pDetectorQueryTest, CustomSheddingKeepsDetectionAtModerateBudget) {
  const Fixture fx = P2pFixture();
  const auto packets = fx.Packets();
  P2pDetectorQuery shed;
  P2pDetectorQuery ref;
  shed.ProcessCustom(Input(packets), 0.5);  // above first-packet cost share
  ref.ProcessBatch(Input(packets));
  shed.EndInterval();
  ref.EndInterval();
  EXPECT_DOUBLE_EQ(shed.IntervalError(ref, 0), 0.0);
}

TEST(P2pDetectorQueryTest, SelfishVariantIgnoresBudget) {
  const Fixture fx = P2pFixture();
  const auto packets = fx.Packets();
  SelfishP2pDetectorQuery selfish;
  selfish.ProcessCustom(Input(packets), 0.01);
  selfish.EndInterval();
  // Processed everything despite a 1% budget.
  EXPECT_DOUBLE_EQ(selfish.IntervalPacketsProcessed(0),
                   static_cast<double>(packets.size()));
}

// -------------------------------------------------------------- autofocus --

TEST(AutofocusQueryTest, FindsDominantPrefixCluster) {
  std::unordered_map<uint32_t, double> bytes;
  // 10.1.0.0/16 cluster: many hosts with moderate traffic.
  for (uint32_t h = 0; h < 100; ++h) {
    bytes[0x0a010000 + h] = 100.0;
  }
  // Background noise far away, below threshold.
  bytes[0xc0000001] = 10.0;
  const auto report = AutofocusQuery::ComputeClusters(bytes, 0.10);
  ASSERT_FALSE(report.empty());
  // Autofocus reports the most specific prefixes above threshold: every
  // reported cluster must sit inside 10.1.0.0/16 and be shorter than a host
  // route; the below-threshold noise host must not appear.
  for (const uint64_t enc : report) {
    const uint32_t prefix = static_cast<uint32_t>(enc >> 8);
    const uint32_t len = static_cast<uint32_t>(enc & 0xff);
    EXPECT_EQ(prefix >> 16, 0x0a01u) << std::hex << prefix;
    EXPECT_LT(len, 32u);
    EXPECT_NE(prefix, 0xc0000001u);
  }
}

TEST(AutofocusQueryTest, SingleHeavyHostReportedAsLeaf) {
  std::unordered_map<uint32_t, double> bytes;
  bytes[0x0a0a0a0a] = 1000.0;
  for (uint32_t h = 0; h < 50; ++h) {
    bytes[0x0b000000 + h * 7919] = 1.0;
  }
  const auto report = AutofocusQuery::ComputeClusters(bytes, 0.5);
  bool leaf = false;
  for (const uint64_t enc : report) {
    if ((enc >> 8) == 0x0a0a0a0a && (enc & 0xff) == 32) {
      leaf = true;
    }
  }
  EXPECT_TRUE(leaf);
}

TEST(AutofocusQueryTest, EmptyInputGivesEmptyReport) {
  EXPECT_TRUE(AutofocusQuery::ComputeClusters({}, 0.05).empty());
}

TEST(AutofocusQueryTest, EndToEndZeroErrorUnsampled) {
  Fixture fx;
  for (uint32_t h = 0; h < 60; ++h) {
    fx.Add(0x0a010000 + h, 2, 10, 80, net::kProtoTcp, 500);
  }
  const auto packets = fx.Packets();
  AutofocusQuery a(0.05);
  AutofocusQuery b(0.05);
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_DOUBLE_EQ(a.IntervalError(b, 0), 0.0);
}

// ---------------------------------------------------------- super-sources --

TEST(SuperSourcesQueryTest, IdentifiesLargestFanOut) {
  Fixture fx;
  // Scanner: one source touching 80 destinations.
  for (uint32_t d = 0; d < 80; ++d) {
    fx.Add(999, 1000 + d, 10, 80, net::kProtoTcp, 60);
  }
  // Normal sources: 2 destinations each.
  for (uint32_t s = 0; s < 10; ++s) {
    fx.Add(100 + s, 1, 10, 80, net::kProtoTcp, 60);
    fx.Add(100 + s, 2, 10, 80, net::kProtoTcp, 60);
  }
  const auto packets = fx.Packets();
  SuperSourcesQuery q(3);
  q.ProcessBatch(Input(packets));
  q.EndInterval();
  const auto& snap = *q.snapshots()[0];
  ASSERT_FALSE(snap.top.empty());
  EXPECT_EQ(snap.top[0].first, 999u);
  EXPECT_NEAR(snap.top[0].second, 80.0, 16.0);
}

TEST(SuperSourcesQueryTest, FanOutErrorSmallWhenUnsampled) {
  Fixture fx;
  for (uint32_t s = 0; s < 5; ++s) {
    for (uint32_t d = 0; d < 20 + 10 * s; ++d) {
      fx.Add(10 + s, 1000 + d, 10, 80, net::kProtoTcp, 60);
    }
  }
  const auto packets = fx.Packets();
  SuperSourcesQuery a(5);
  SuperSourcesQuery b(5);
  a.ProcessBatch(Input(packets));
  b.ProcessBatch(Input(packets));
  a.EndInterval();
  b.EndInterval();
  EXPECT_LT(a.IntervalError(b, 0), 0.01);
}

// -------------------------------------------------- factory and reference --

TEST(QueryFactory, BuildsEveryStandardQuery) {
  for (const auto& name : AllQueryNames()) {
    const auto q = MakeQuery(name);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->name(), name);
  }
  EXPECT_THROW(MakeQuery("no-such-query"), std::invalid_argument);
}

TEST(QueryFactory, StandardSetsHaveExpectedSizes) {
  EXPECT_EQ(StandardSevenQueryNames().size(), 7u);
  EXPECT_EQ(StandardNineQueryNames().size(), 9u);
  EXPECT_EQ(AllQueryNames().size(), 10u);
}

TEST(RunReferenceTest, ProducesIntervalsForAllQueries) {
  trace::TraceSpec spec;
  spec.duration_s = 3.0;
  spec.flows_per_s = 150.0;
  spec.payloads = true;
  spec.seed = 77;
  const auto t = trace::TraceGenerator(spec).Generate();
  const auto refs = RunReference({"counter", "flows", "p2p-detector"}, t);
  ASSERT_EQ(refs.size(), 3u);
  for (const auto& q : refs) {
    EXPECT_GE(q->completed_intervals(), 3u) << q->name();
  }
}

TEST(RunReferenceTest, ReferenceIsSelfConsistent) {
  trace::TraceSpec spec;
  spec.duration_s = 2.0;
  spec.flows_per_s = 100.0;
  spec.seed = 78;
  const auto t = trace::TraceGenerator(spec).Generate();
  const auto a = RunReference({"counter"}, t);
  const auto b = RunReference({"counter"}, t);
  EXPECT_NEAR(a[0]->MeanError(*b[0]), 0.0, 1e-12);
}

// Only trace and pattern-search keep the base packet-fraction error, so
// only their references are packet counters; each carries its query's
// name and interval length.
TEST(RunReferenceTest, PacketCountReferencesForCountOnlyErrors) {
  for (const std::string& name : AllQueryNames()) {
    SCOPED_TRACE(name);
    const auto query = MakeQuery(name);
    const auto reference = MakeReference(name);
    const bool counts_only = name == "trace" || name == "pattern-search";
    EXPECT_EQ(query->error_reads_results(), !counts_only);
    EXPECT_EQ(dynamic_cast<const PacketCountQuery*>(reference.get()) != nullptr, counts_only);
    EXPECT_EQ(reference->name(), name);
    EXPECT_EQ(reference->interval_bins(), query->interval_bins());
  }
  EXPECT_THROW(MakeReference("no-such-query"), std::invalid_argument);
}

// ------------------------------------------------- exact reference elision --

// A synthetic trace whose every packet has the same wire length, so byte
// totals tie whenever packet counts do: top-k, super-sources and autofocus
// keys tie often, and a ranking that read unordered iteration order would
// reorder their ranked results. 64 bins: six whole intervals, then four
// bins of a partial one.
const trace::Trace& TieHeavyTrace() {
  static const trace::Trace t = [] {
    trace::TraceSpec spec;
    spec.duration_s = 6.4;
    spec.flows_per_s = 120.0;
    spec.payloads = true;
    spec.seed = 91;
    trace::Trace out = trace::TraceGenerator(spec).Generate();
    for (net::PacketRecord& rec : out.packets) {
      rec.wire_len = 1000;
    }
    return out;
  }();
  return t;
}

// The twin runs shardable queries through the shard path on odd bins, as
// the system does with several shards, so adoption is checked against
// both of its execution paths.
void RunTwinBin(Query& twin, const BatchInput& in, size_t bin) {
  ShardableQuery* sh = twin.shardable();
  if (sh == nullptr || bin % 2 == 0) {
    twin.ProcessBatch(in);
    return;
  }
  const size_t units = sh->ShardUnits(in);
  std::vector<std::unique_ptr<ShardState>> shards;
  for (size_t s = 0; s < 3; ++s) {
    shards.push_back(sh->ForkShard());
    sh->OnShardBatch(*shards.back(), in, units * s / 3, units * (s + 1) / 3);
  }
  twin.ProcessShards(in, std::move(shards));
}

// Property: for every standard query, a reference that per interval either
// adopts the twin's closed interval (never forked), adopts the twin's open
// interval at a random bin and replays the rest (forked), or replays the
// whole interval itself ends up bit-identical to a from-start replay —
// snapshots, ranked lists and the ErrorSeries of a sampled estimate.
TEST(ReferenceElision, AdoptThenReplayEqualsReplayFromStart) {
  constexpr size_t kIntervalBins = 10;
  for (const std::string& name : AllQueryNames()) {
    SCOPED_TRACE(name);
    util::Rng rng(4242);
    auto twin = MakeQuery(name);
    auto replay = MakeQuery(name);
    auto subject = MakeQuery(name);
    auto estimate = MakeQuery(name);
    enum Mode { kNeverForked, kForked, kReplayed } mode = kReplayed;
    size_t fork_bin = 0;
    size_t forks = 0;
    size_t never_forked = 0;

    trace::Batcher batcher(TieHeavyTrace(), 100'000);
    trace::Batch batch;
    size_t bin = 0;
    trace::PacketVec sampled;
    while (batcher.Next(batch)) {
      const size_t pos = bin % kIntervalBins;
      if (pos == 0) {
        ASSERT_TRUE(subject->AdoptableFrom(*twin));
        mode = static_cast<Mode>(rng.NextBelow(3));
        fork_bin = rng.NextBelow(kIntervalBins);
        forks += mode == kForked ? 1 : 0;
        never_forked += mode == kNeverForked ? 1 : 0;
      }
      if (mode == kForked && pos == fork_bin) {
        subject->AdoptFrom(*twin, Query::Adopt::kOpen);
        mode = kReplayed;
      }
      const BatchInput full{batch.packets, batch.start_us, batch.duration_us, 1.0, &batch.flows};
      RunTwinBin(*twin, full, bin);
      replay->ProcessBatch(full);
      if (mode == kReplayed) {
        subject->ProcessBatch(full);
      }
      sampled.clear();
      for (const net::Packet& pkt : batch.packets) {
        if (rng.NextDouble() < 0.5) {
          sampled.push_back(pkt);
        }
      }
      estimate->ProcessBatch({sampled, batch.start_us, batch.duration_us, 0.5});
      if (++bin % kIntervalBins == 0) {
        twin->EndInterval();
        replay->EndInterval();
        estimate->EndInterval();
        if (mode == kReplayed) {
          subject->EndInterval();
        } else {
          subject->AdoptFrom(*twin, Query::Adopt::kLastClosed);
        }
      }
    }
    ASSERT_NE(bin % kIntervalBins, 0u) << "the trace should end in a partial interval";
    twin->EndInterval();
    replay->EndInterval();
    estimate->EndInterval();
    if (mode == kReplayed) {
      subject->EndInterval();
    } else {
      subject->AdoptFrom(*twin, Query::Adopt::kLastClosed);
    }
    EXPECT_GT(forks, 0u);
    EXPECT_GT(never_forked, 0u);

    EXPECT_EQ(test_util::ResultsDiff(*subject, *replay), "");
    const std::vector<double> want = ErrorSeries(*estimate, *replay);
    const std::vector<double> got = ErrorSeries(*estimate, *subject);
    EXPECT_TRUE(test_util::SameBits(want, got));
    EXPECT_EQ(want.size(), 7u);
  }
}

// Ranks break ties by key, so a reference whose map grew larger than its
// twin's (an interval the twin sampled) is adoptable, and adopting the
// twin's next closed interval, 500 tied destinations, gives what replaying
// it would.
TEST(ReferenceElision, LargerHistoryIsAdoptable) {
  TopKQuery big;
  TopKQuery small;
  TopKQuery replayed;
  std::vector<net::PacketRecord> recs(500);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i].tuple.dst_ip = static_cast<uint32_t>(i + 1) * 0x9e3779b1u;
    recs[i].wire_len = 100;
  }
  trace::PacketVec all;
  for (const auto& rec : recs) {
    all.push_back(net::Packet::View(rec));
  }
  const trace::PacketVec few(all.begin(), all.begin() + 5);
  big.ProcessBatch({all, 0, 100'000, 1.0});
  replayed.ProcessBatch({all, 0, 100'000, 1.0});
  small.ProcessBatch({few, 0, 100'000, 0.01});
  big.EndInterval();
  replayed.EndInterval();
  small.EndInterval();
  EXPECT_TRUE(big.AdoptableFrom(small));
  EXPECT_TRUE(small.AdoptableFrom(big));

  small.ProcessBatch({all, 100'000, 100'000, 1.0});
  replayed.ProcessBatch({all, 100'000, 100'000, 1.0});
  small.EndInterval();
  replayed.EndInterval();
  big.AdoptFrom(small, Query::Adopt::kLastClosed);
  EXPECT_EQ(test_util::ResultsDiff(big, replayed), "");
  EXPECT_EQ(big.snapshots()[1], small.snapshots()[1]);  // shared, not copied
}

// Property: top-k's and super-sources' snapshot of an interval (every key's
// estimate and the ranked list) depends on that interval's packets only, not
// on how many keys earlier intervals held (0 to 10k, some sampled) or at
// what rate they ran. The interval is tie-heavy: 600 destinations and 120
// sources with equal byte totals and fan-outs, plus random traffic.
TEST(HistoryFreeRanks, IntervalSnapshotsIgnoreEarlierIntervals) {
  util::Rng rng(2718);
  auto random_bin = [&rng](size_t n, uint32_t keys) {
    std::vector<net::PacketRecord> recs(n);
    for (net::PacketRecord& rec : recs) {
      rec.tuple = {static_cast<uint32_t>(rng.NextBelow(keys)) * 0x9e3779b1u,
                   static_cast<uint32_t>(rng.NextBelow(keys)) * 0x85ebca6bu,
                   static_cast<uint16_t>(rng.NextBelow(4)), 80, net::kProtoTcp};
      rec.wire_len = static_cast<uint16_t>(40 + 40 * rng.NextBelow(3));
    }
    return recs;
  };
  std::vector<std::vector<net::PacketRecord>> interval;
  for (size_t b = 0; b < 10; ++b) {
    std::vector<net::PacketRecord> recs = random_bin(300, 5000);
    for (uint32_t i = 0; i < 1200; ++i) {
      net::PacketRecord rec;
      rec.tuple = {(1'000'000 + i % 120) * 0x9e3779b1u, (2'000'000 + i % 600) * 0x85ebca6bu,
                   1234, 80, net::kProtoTcp};
      rec.wire_len = 500;
      recs.push_back(rec);
    }
    interval.push_back(std::move(recs));
  }
  // Runs `q` over `history`'s earlier intervals, then `interval`; returns
  // the last snapshot's holder.
  auto run = [&](Query& q, const std::vector<std::pair<size_t, double>>& history) {
    uint64_t start = 0;
    for (const auto& [keys, rate] : history) {
      for (size_t b = 0; b < 10; ++b) {
        const auto recs = random_bin(keys == 0 ? 0 : 1 + keys / 5, static_cast<uint32_t>(keys + 1));
        trace::PacketVec packets;
        for (const auto& rec : recs) {
          packets.push_back(net::Packet::View(rec));
        }
        q.ProcessBatch({packets, start, 100'000, rate});
        start += 100'000;
      }
      q.EndInterval();
    }
    for (const auto& recs : interval) {
      trace::PacketVec packets;
      for (const auto& rec : recs) {
        packets.push_back(net::Packet::View(rec));
      }
      q.ProcessBatch({packets, start, 100'000, 1.0});
      start += 100'000;
    }
    q.EndInterval();
  };
  auto same_all = [](const std::unordered_map<uint32_t, double>& a,
                     const std::unordered_map<uint32_t, double>& b) {
    return a.size() == b.size() && std::all_of(a.begin(), a.end(), [&b](const auto& kv) {
             const auto it = b.find(kv.first);
             return it != b.end() && test_util::SameBits(it->second, kv.second);
           });
  };

  TopKQuery topk_fresh;
  SuperSourcesQuery super_fresh;
  run(topk_fresh, {});
  run(super_fresh, {});
  const TopKQuery::Snapshot& topk_want = *topk_fresh.snapshots().back();
  const SuperSourcesQuery::Snapshot& super_want = *super_fresh.snapshots().back();
  ASSERT_EQ(topk_want.topk.size(), 10u);
  ASSERT_EQ(super_want.top.size(), 10u);
  // The tied keys fill both lists, so a ranking by anything but the key
  // would show.
  EXPECT_EQ(topk_want.topk.front().second, topk_want.topk.back().second);
  EXPECT_EQ(super_want.top.front().second, super_want.top.back().second);

  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<std::pair<size_t, double>> history;
    const size_t intervals = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < intervals; ++i) {
      const size_t keys = trial == 0 ? 0 : rng.NextBelow(10'001);
      history.emplace_back(keys, rng.NextBelow(2) == 0 ? 1.0 : 0.1 + 0.8 * rng.NextDouble());
    }
    TopKQuery topk;
    SuperSourcesQuery super;
    run(topk, history);
    run(super, history);
    const TopKQuery::Snapshot& topk_got = *topk.snapshots().back();
    const SuperSourcesQuery::Snapshot& super_got = *super.snapshots().back();
    EXPECT_TRUE(test_util::SameBits(topk_got.topk, topk_want.topk));
    EXPECT_TRUE(same_all(topk_got.all, topk_want.all));
    EXPECT_TRUE(test_util::SameBits(super_got.top, super_want.top));
    EXPECT_TRUE(same_all(super_got.all, super_want.all));
  }
}

TEST(ReferenceElision, OnlyTwinsAtTheSameIntervalAdopt) {
  CounterQuery counter;
  FlowsQuery flows;
  TopKQuery top5(5);
  TopKQuery top10(10);
  P2pDetectorQuery p2p;
  SelfishP2pDetectorQuery selfish;
  EXPECT_FALSE(counter.AdoptableFrom(flows));
  EXPECT_FALSE(top5.AdoptableFrom(top10));
  EXPECT_FALSE(p2p.AdoptableFrom(selfish));
  EXPECT_THROW(counter.AdoptFrom(flows, Query::Adopt::kOpen), std::logic_error);

  CounterQuery twin;
  // kLastClosed needs the twin one interval ahead; kOpen needs it level.
  EXPECT_THROW(counter.AdoptFrom(twin, Query::Adopt::kLastClosed), std::logic_error);
  twin.EndInterval();
  EXPECT_FALSE(counter.AdoptableFrom(twin));
  EXPECT_THROW(counter.AdoptFrom(twin, Query::Adopt::kOpen), std::logic_error);
  counter.AdoptFrom(twin, Query::Adopt::kLastClosed);
  EXPECT_EQ(counter.completed_intervals(), 1u);
  EXPECT_TRUE(counter.AdoptableFrom(twin));
}

// Parameterized sweep reproducing Fig. 6.4's shape: error grows as the
// sampling rate falls, and at full rate the error vanishes.
class SamplingSweep : public ::testing::TestWithParam<double> {};

TEST_P(SamplingSweep, CounterErrorBoundedByRate) {
  const double rate = GetParam();
  trace::TraceSpec spec;
  spec.duration_s = 4.0;
  spec.flows_per_s = 200.0;
  spec.seed = 79;
  const auto t = trace::TraceGenerator(spec).Generate();
  trace::Batcher batcher(t, 100'000);
  trace::Batch batch;
  util::Rng rng(80);
  CounterQuery est;
  CounterQuery ref;
  size_t bins = 0;
  while (batcher.Next(batch)) {
    trace::PacketVec sampled;
    for (const auto& pkt : batch.packets) {
      if (rng.NextDouble() < rate) {
        sampled.push_back(pkt);
      }
    }
    est.ProcessBatch(BatchInput{sampled, batch.start_us, batch.duration_us, rate});
    ref.ProcessBatch(BatchInput{batch.packets, batch.start_us, batch.duration_us, 1.0});
    if (++bins % 10 == 0) {
      est.EndInterval();
      ref.EndInterval();
    }
  }
  const double err = est.MeanError(ref);
  if (rate >= 0.999) {
    EXPECT_NEAR(err, 0.0, 1e-9);
  } else {
    // Binomial sampling error at ~hundreds of packets per interval.
    EXPECT_LT(err, 0.30 * std::sqrt((1.0 - rate) / rate));
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplingSweep, ::testing::Values(0.05, 0.1, 0.3, 0.6, 1.0));

// ------------------------------------------------------- per-flow queries --

// A random bin of one of the shapes the per-flow visit must get right: many
// packets per flow, one packet per flow (the attack case), no packets, one
// flow. Three wire lengths make ties in the byte rankings common.
enum class FlowBinKind { kDuplicateHeavy, kOnePacketPerFlow, kEmpty, kSingleFlow };

struct FlowBin {
  std::vector<net::PacketRecord> records;
  trace::PacketVec packets;
  trace::FlowTable flows;
};

std::unique_ptr<FlowBin> MakeFlowBin(util::Rng& rng, FlowBinKind kind) {
  auto bin = std::make_unique<FlowBin>();
  size_t n = 1 + rng.NextBelow(200);
  if (kind == FlowBinKind::kEmpty) {
    n = 0;
  } else if (kind == FlowBinKind::kOnePacketPerFlow) {
    n = 1 + rng.NextBelow(400);
  }
  const uint16_t ports[] = {80, 53, 22, 2000};
  const uint16_t lengths[] = {40, 576, 1500};
  bin->records.resize(n);
  for (size_t i = 0; i < n; ++i) {
    net::FiveTuple& t = bin->records[i].tuple;
    t = {0x0a000001u, 0xc0a80001u, 4242, 80, net::kProtoTcp};  // kSingleFlow
    if (kind == FlowBinKind::kDuplicateHeavy) {
      t.src_ip += static_cast<uint32_t>(rng.NextBelow(6));
      t.dst_ip += static_cast<uint32_t>(rng.NextBelow(5));
      t.src_port = static_cast<uint16_t>(1000 + rng.NextBelow(3));
      t.dst_port = ports[rng.NextBelow(4)];
      t.proto = rng.NextBelow(2) == 0 ? net::kProtoTcp : net::kProtoUdp;
    } else if (kind == FlowBinKind::kOnePacketPerFlow) {
      t.src_ip += static_cast<uint32_t>(rng.NextBelow(50));
      t.dst_ip += static_cast<uint32_t>(rng.NextBelow(300));
      t.src_port = static_cast<uint16_t>(i);  // a distinct tuple per packet
      t.dst_port = ports[rng.NextBelow(4)];
    }
    bin->records[i].wire_len = lengths[rng.NextBelow(3)];
  }
  for (const net::PacketRecord& rec : bin->records) {
    bin->packets.push_back(net::Packet::View(rec));
  }
  bin->flows.Build(bin->packets);
  return bin;
}

// Runs `in` through the shard path in `shards` even ranges of its units.
void ProcessInShards(Query& q, const BatchInput& in, size_t shards) {
  ShardableQuery* sh = q.shardable();
  ASSERT_NE(sh, nullptr);
  const size_t units = sh->ShardUnits(in);
  std::vector<std::unique_ptr<ShardState>> states;
  for (size_t s = 0; s < shards; ++s) {
    states.push_back(sh->ForkShard());
    sh->OnShardBatch(*states.back(), in, units * s / shards, units * (s + 1) / shards);
  }
  q.ProcessShards(in, std::move(states));
}

// The queries that visit flows: all but the per-packet three.
std::vector<std::string> PerFlowQueryNames() {
  std::vector<std::string> names;
  for (const std::string& name : AllQueryNames()) {
    if (name != "trace" && name != "pattern-search" && name != "p2p-detector") {
      names.push_back(name);
    }
  }
  return names;
}

class PerFlowQueries : public ::testing::TestWithParam<std::string> {};

// Property: each per-flow query, handed random bins as a whole batch, a
// packet-sampled view or a flow-sampled view, ends up with the results and
// work_units() of the per-packet loops (test_util::PerPacketReference), bit
// for bit, whether it reads the view's flow table, builds its own (no table
// given) or runs in 2 or 8 shards.
TEST_P(PerFlowQueries, MatchThePerPacketLoopsOnEveryView) {
  const std::string name = GetParam();
  util::Rng rng(0xf10e + std::hash<std::string>{}(name) % 1024);
  constexpr int kRounds = 6;
  constexpr int kIntervals = 4;
  constexpr int kBatchesPerInterval = 3;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    test_util::PerPacketReference reference(name);
    // Serial on the view's table, serial on a table of its own, 2 shards, 8.
    std::vector<std::unique_ptr<Query>> subjects;
    for (int i = 0; i < 4; ++i) {
      subjects.push_back(MakeQuery(name));
    }
    shed::FlowSampler flow_sampler(rng.NextU64());
    for (int interval = 0; interval < kIntervals; ++interval) {
      for (int b = 0; b < kBatchesPerInterval; ++b) {
        const auto bin = MakeFlowBin(rng, static_cast<FlowBinKind>(rng.NextBelow(4)));
        const int view = static_cast<int>(rng.NextBelow(3));  // whole, packet-, flow-sampled
        const double rates[] = {0.5, 0.37, 0.08};
        const double rate = view == 0 ? 1.0 : rates[rng.NextBelow(3)];
        trace::PacketVec kept;
        std::vector<uint32_t> rows;
        if (view == 1) {
          for (uint32_t row = 0; row < bin->packets.size(); ++row) {
            if (rng.NextDouble() < rate) {
              kept.push_back(bin->packets[row]);
              rows.push_back(row);
            }
          }
        } else if (view == 2) {
          flow_sampler.SampleInto(bin->packets, bin->flows, rate, kept, rows);
        }
        trace::FlowTable kept_flows;
        kept_flows.Subset(bin->flows, rows);
        const trace::PacketVec& packets = view == 0 ? bin->packets : kept;
        const trace::FlowTable* flows = view == 0 ? &bin->flows : &kept_flows;
        const BatchInput in{packets, 0, 100'000, rate, flows};

        reference.ProcessBatch(packets, rate);
        subjects[0]->ProcessBatch(in);
        subjects[1]->ProcessBatch({packets, 0, 100'000, rate});
        ProcessInShards(*subjects[2], in, 2);
        ProcessInShards(*subjects[3], in, 8);
        for (size_t i = 0; i < subjects.size(); ++i) {
          ASSERT_TRUE(test_util::SameBits(subjects[i]->work_units(), reference.work_units()))
              << "subject " << i << " interval " << interval << " batch " << b << " view "
              << view;
        }
      }
      reference.EndInterval();
      for (const auto& q : subjects) {
        q->EndInterval();
      }
    }
    for (size_t i = 0; i < subjects.size(); ++i) {
      EXPECT_EQ(reference.Diff(*subjects[i]), "") << "subject " << i;
      EXPECT_EQ(test_util::ResultsDiff(*subjects[i], *subjects[0]), "") << "subject " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SevenQueries, PerFlowQueries, ::testing::ValuesIn(PerFlowQueryNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace shedmon::query
