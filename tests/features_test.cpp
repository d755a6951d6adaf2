#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/features/extractor.h"
#include "src/features/features.h"
#include "src/trace/batch.h"
#include "src/trace/flow_table.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"

namespace shedmon::features {
namespace {

TEST(Features, IndexLayoutIsDense) {
  EXPECT_EQ(kNumFeatures, 42);
  std::set<int> seen = {kFeatPackets, kFeatBytes};
  for (int a = 0; a < kNumAggregates; ++a) {
    for (int c = 0; c < kCountersPerAggregate; ++c) {
      const int idx = FeatureIndex(static_cast<Aggregate>(a), static_cast<Counter>(c));
      EXPECT_TRUE(seen.insert(idx).second) << idx;
      EXPECT_GE(idx, 2);
      EXPECT_LT(idx, kNumFeatures);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kNumFeatures));
}

TEST(Features, NamesAreUniqueAndMeaningful) {
  std::set<std::string> names;
  for (int i = 0; i < kNumFeatures; ++i) {
    names.insert(std::string(FeatureName(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumFeatures));
  EXPECT_EQ(FeatureName(kFeatPackets), "packets");
  EXPECT_EQ(FeatureName(kFeatBytes), "bytes");
  EXPECT_EQ(FeatureName(kFeatNewFiveTuple), "new_5-tuple");
  EXPECT_EQ(FeatureName(-1), "invalid");
  EXPECT_EQ(FeatureName(kNumFeatures), "invalid");
}

TEST(Features, AggregateKeyLengths) {
  net::FiveTuple t{0x01020304, 0x05060708, 1000, 80, net::kProtoTcp};
  uint8_t key[13];
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcIp, key), 4u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kDstIp, key), 4u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kProto, key), 1u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcDstIp, key), 8u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcPortProto, key), 3u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kDstPortProto, key), 3u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcIpSrcPortProto, key), 7u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kDstIpDstPortProto, key), 7u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kSrcDstPortProto, key), 5u);
  EXPECT_EQ(AggregateKey(t, Aggregate::kFiveTuple, key), 13u);
}

TEST(Features, AggregateKeysDiscriminateOnlyTheirFields) {
  net::FiveTuple a{0x01020304, 0x05060708, 1000, 80, net::kProtoTcp};
  net::FiveTuple b = a;
  b.src_port = 2000;  // src-ip key must not change, 5-tuple key must
  uint8_t ka[13];
  uint8_t kb[13];
  const size_t la = AggregateKey(a, Aggregate::kSrcIp, ka);
  const size_t lb = AggregateKey(b, Aggregate::kSrcIp, kb);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(ka), la),
            std::string(reinterpret_cast<char*>(kb), lb));
  const size_t fa = AggregateKey(a, Aggregate::kFiveTuple, ka);
  const size_t fb = AggregateKey(b, Aggregate::kFiveTuple, kb);
  EXPECT_NE(std::string(reinterpret_cast<char*>(ka), fa),
            std::string(reinterpret_cast<char*>(kb), fb));
}

// Builds a PacketVec with n packets per tuple spec.
struct PacketFixture {
  std::vector<net::PacketRecord> records;
  trace::PacketVec packets;

  void Add(uint32_t src, uint32_t dst, uint16_t sport, uint16_t dport, uint8_t proto,
           uint16_t len = 100) {
    net::PacketRecord rec;
    rec.tuple = {src, dst, sport, dport, proto};
    rec.wire_len = len;
    records.push_back(rec);
  }
  void Finish() {
    packets.clear();
    for (const auto& rec : records) {
      net::Packet p;
      p.rec = &rec;
      packets.push_back(p);
    }
  }
};

TEST(Extractor, CountsPacketsAndBytesExactly) {
  PacketFixture fx;
  for (int i = 0; i < 50; ++i) {
    fx.Add(1, 2, 3, 4, net::kProtoTcp, 200);
  }
  fx.Finish();
  FeatureExtractor ex;
  const FeatureVector f = ex.Extract(fx.packets);
  EXPECT_DOUBLE_EQ(f[kFeatPackets], 50.0);
  EXPECT_DOUBLE_EQ(f[kFeatBytes], 50.0 * 200.0);
}

TEST(Extractor, UniqueCountTracksDistinctTuples) {
  PacketFixture fx;
  for (uint32_t i = 0; i < 200; ++i) {
    fx.Add(100 + i, 2, static_cast<uint16_t>(1000 + i), 80, net::kProtoTcp);
  }
  // Plus 300 repeats of a single tuple.
  for (int i = 0; i < 300; ++i) {
    fx.Add(1, 2, 3, 4, net::kProtoTcp);
  }
  fx.Finish();
  FeatureExtractor ex;
  const FeatureVector f = ex.Extract(fx.packets);
  EXPECT_NEAR(f[kFeatUniqueFiveTuple], 201.0, 30.0);
  // repeated-in-batch = packets - unique.
  EXPECT_NEAR(f[FeatureIndex(Aggregate::kFiveTuple, Counter::kRepeatedBatch)],
              500.0 - 201.0, 30.0);
}

TEST(Extractor, NewCounterSeparatesFreshFromSeen) {
  PacketFixture first;
  for (uint32_t i = 0; i < 100; ++i) {
    first.Add(10 + i, 2, 1000, 80, net::kProtoTcp);
  }
  first.Finish();
  PacketFixture second;
  for (uint32_t i = 0; i < 100; ++i) {
    second.Add(10 + i, 2, 1000, 80, net::kProtoTcp);  // all seen before
  }
  for (uint32_t i = 0; i < 50; ++i) {
    second.Add(5000 + i, 2, 1000, 80, net::kProtoTcp);  // fresh
  }
  second.Finish();

  FeatureExtractor ex;
  ex.StartInterval();
  (void)ex.Extract(first.packets);
  const FeatureVector f = ex.Extract(second.packets);
  const double new_src = f[FeatureIndex(Aggregate::kSrcIp, Counter::kNew)];
  EXPECT_NEAR(new_src, 50.0, 20.0);
  // repeated-in-interval = packets - new.
  EXPECT_NEAR(f[FeatureIndex(Aggregate::kSrcIp, Counter::kRepeatedInterval)], 100.0, 20.0);
}

TEST(Extractor, StartIntervalResetsNewState) {
  PacketFixture fx;
  for (uint32_t i = 0; i < 100; ++i) {
    fx.Add(10 + i, 2, 1000, 80, net::kProtoTcp);
  }
  fx.Finish();
  FeatureExtractor ex;
  (void)ex.Extract(fx.packets);
  ex.StartInterval();
  const FeatureVector f = ex.Extract(fx.packets);
  // After the reset every key counts as new again.
  EXPECT_NEAR(f[FeatureIndex(Aggregate::kSrcIp, Counter::kNew)], 100.0, 20.0);
}

TEST(Extractor, EmptyBatchGivesZeroVector) {
  trace::PacketVec empty;
  FeatureExtractor ex;
  const FeatureVector f = ex.Extract(empty);
  for (int i = 0; i < kNumFeatures; ++i) {
    EXPECT_NEAR(f[static_cast<size_t>(i)], 0.0, 1e-9) << FeatureName(i);
  }
}

TEST(Extractor, DeterministicForSameSeedAndInput) {
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher b1(t, 100'000);
  trace::Batcher b2(t, 100'000);
  trace::Batch batch1;
  trace::Batch batch2;
  FeatureExtractor e1;
  FeatureExtractor e2;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b1.Next(batch1));
    ASSERT_TRUE(b2.Next(batch2));
    const FeatureVector f1 = e1.Extract(batch1.packets);
    const FeatureVector f2 = e2.Extract(batch2.packets);
    for (int k = 0; k < kNumFeatures; ++k) {
      EXPECT_DOUBLE_EQ(f1[static_cast<size_t>(k)], f2[static_cast<size_t>(k)]);
    }
  }
}

TEST(FusedAggregates, ByteIndicesMatchAggregateKeySerialization) {
  // AggregateByteIndices must describe AggregateKey exactly: extracting the
  // indexed bytes from the canonical serialization yields the materialized
  // key, for every aggregate, over random tuples.
  util::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    net::FiveTuple t;
    t.src_ip = static_cast<uint32_t>(rng.NextU64());
    t.dst_ip = static_cast<uint32_t>(rng.NextU64());
    t.src_port = static_cast<uint16_t>(rng.NextU64());
    t.dst_port = static_cast<uint16_t>(rng.NextU64());
    t.proto = static_cast<uint8_t>(rng.NextU64());
    const auto canonical = t.Bytes();
    for (int a = 0; a < kNumAggregates; ++a) {
      const auto agg = static_cast<Aggregate>(a);
      uint8_t key[13];
      const size_t len = AggregateKey(t, agg, key);
      const auto indices = AggregateByteIndices(agg);
      ASSERT_EQ(indices.size(), len) << AggregateName(agg);
      for (size_t j = 0; j < len; ++j) {
        EXPECT_EQ(canonical[indices[j]], key[j]) << AggregateName(agg) << " byte " << j;
      }
    }
  }
}

TEST(FusedAggregates, FusedHashesMatchPerAggregateReference) {
  // The tentpole equivalence property: one fused pass over the 13 canonical
  // bytes produces, for all ten aggregates, exactly the hash the seed
  // implementation computed via AggregateKey + per-aggregate H3Hash.
  const uint64_t base_seed = 0x5eed;
  const sketch::FusedTupleHasher fused = MakeAggregateHasher(base_seed);
  std::vector<sketch::H3Hash> reference;
  for (int a = 0; a < kNumAggregates; ++a) {
    reference.emplace_back(AggregateHashSeed(base_seed, static_cast<Aggregate>(a)));
  }

  util::Rng rng(32);
  std::array<uint64_t, kNumAggregates> h;
  for (int i = 0; i < 5000; ++i) {
    net::FiveTuple t;
    t.src_ip = static_cast<uint32_t>(rng.NextU64());
    t.dst_ip = static_cast<uint32_t>(rng.NextU64());
    t.src_port = static_cast<uint16_t>(rng.NextU64());
    t.dst_port = static_cast<uint16_t>(rng.NextU64());
    t.proto = static_cast<uint8_t>(rng.NextU64());
    const auto canonical = t.Bytes();
    fused.HashAllFixed<13, kNumAggregates>(canonical.data(), h);
    for (int a = 0; a < kNumAggregates; ++a) {
      uint8_t key[13];
      const size_t len = AggregateKey(t, static_cast<Aggregate>(a), key);
      EXPECT_EQ(h[static_cast<size_t>(a)], reference[static_cast<size_t>(a)].Hash(key, len))
          << AggregateName(static_cast<Aggregate>(a));
    }
  }
}

TEST(Extractor, FusedExtractMatchesReferenceBitExactly) {
  // Extract (fused + batch-local tuple dedupe) and ExtractReference (the
  // seed's per-aggregate path) must produce bit-identical feature vectors,
  // including across interval state carried over multiple batches.
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher b1(t, 100'000);
  trace::Batcher b2(t, 100'000);
  trace::Batch batch1;
  trace::Batch batch2;
  FeatureExtractor fused_ex;
  FeatureExtractor reference_ex;
  int bins = 0;
  while (b1.Next(batch1) && b2.Next(batch2)) {
    if (++bins % 10 == 0) {  // exercise interval resets too
      fused_ex.StartInterval();
      reference_ex.StartInterval();
    }
    const FeatureVector f = fused_ex.Extract(batch1.packets);
    const FeatureVector r = reference_ex.ExtractReference(batch2.packets);
    for (int k = 0; k < kNumFeatures; ++k) {
      ASSERT_DOUBLE_EQ(f[static_cast<size_t>(k)], r[static_cast<size_t>(k)])
          << "bin " << bins << " feature " << FeatureName(k);
    }
  }
  EXPECT_GT(bins, 20);
}

// Bitwise equality of two feature vectors, naming the first differing one.
void ExpectBitIdentical(const FeatureVector& got, const FeatureVector& want,
                        const std::string& where) {
  for (int k = 0; k < kNumFeatures; ++k) {
    uint64_t g;
    uint64_t w;
    std::memcpy(&g, &got[static_cast<size_t>(k)], sizeof g);
    std::memcpy(&w, &want[static_cast<size_t>(k)], sizeof w);
    ASSERT_EQ(g, w) << where << " feature " << FeatureName(k) << ": "
                    << got[static_cast<size_t>(k)] << " vs " << want[static_cast<size_t>(k)];
  }
}

TEST(Extractor, KeyedCountingOverRowSubsetsMatchesReference) {
  // The system keys each bin once, then every query's counter re-counts the
  // flows of the rows it kept. Over several intervals, keyed counting of
  // random row subsets must equal the unkeyed per-aggregate reference run on
  // exactly those packets, with each side carrying its own interval state.
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher batcher(t, 100'000);
  std::vector<trace::Batch> bins;
  for (trace::Batch b; bins.size() < 30 && batcher.Next(b);) {
    bins.push_back(std::move(b));
  }
  // Synthetic bins: one tuple repeated throughout, and hundreds of distinct
  // tuples that all share one protocol (a single proto-aggregate key).
  PacketFixture repeated;
  for (int i = 0; i < 300; ++i) {
    repeated.Add(7, 8, 9, 10, net::kProtoUdp, static_cast<uint16_t>(60 + i % 7));
  }
  repeated.Finish();
  PacketFixture same_proto;
  for (uint32_t i = 0; i < 500; ++i) {
    same_proto.Add(1000 + i % 37, 2000 + i % 101, static_cast<uint16_t>(i), 80, net::kProtoTcp,
                   static_cast<uint16_t>(40 + i));
  }
  same_proto.Finish();
  std::vector<const trace::PacketVec*> inputs;
  for (size_t i = 0; i < bins.size(); ++i) {
    inputs.push_back(&bins[i].packets);
    if (i == 4) {
      inputs.push_back(&repeated.packets);
    }
    if (i == 12) {
      inputs.push_back(&same_proto.packets);
      inputs.push_back(&same_proto.packets);  // a second time: nothing new
    }
  }

  FeatureExtractor keyer;  // hashes each bin for the counter under test
  const FeatureExtractor::Config config;
  FeatureCounter counter(config.mrb_components, config.mrb_bits);
  FeatureExtractor reference;
  trace::FlowTable kept;
  util::Rng rng(2024);
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i % 7 == 0) {
      counter.StartInterval();
      reference.StartInterval();
    }
    const trace::PacketVec& packets = *inputs[i];
    (void)keyer.Extract(packets);
    const BinKeys& keys = keyer.keys();
    ASSERT_EQ(keys.rows(), packets.size());
    // Cycle through the empty subset, every row, and random rates.
    const int mode = static_cast<int>(i % 4);
    const double rate = mode == 0 ? 0.0 : mode == 1 ? 1.0 : rng.NextDouble();
    std::vector<uint32_t> rows;
    trace::PacketVec subset;
    for (uint32_t row = 0; row < packets.size(); ++row) {
      if (mode == 1 || (mode != 0 && rng.NextDouble() < rate)) {
        rows.push_back(row);
        subset.push_back(packets[row]);
      }
    }
    const FeatureVector want = reference.ExtractReference(subset);
    const std::string where = "input " + std::to_string(i) + " (" +
                              std::to_string(rows.size()) + "/" +
                              std::to_string(packets.size()) + " rows)";
    if (mode == 1 && i % 8 == 1) {
      ExpectBitIdentical(counter.CountAll(keys), want, where + " CountAll");
    } else {
      kept.Subset(*keys.flows, rows);
      ExpectBitIdentical(counter.Count(keys, kept), want, where);
    }
  }
}

TEST(Extractor, KeysDedupeTuplesInFirstSeenOrder) {
  PacketFixture fx;
  fx.Add(1, 2, 3, 4, net::kProtoTcp, 100);
  fx.Add(5, 6, 7, 8, net::kProtoUdp, 200);
  fx.Add(1, 2, 3, 4, net::kProtoTcp, 300);
  fx.Add(1, 2, 3, 4, net::kProtoUdp, 400);  // differs from row 0 only in proto
  fx.Finish();
  FeatureExtractor ex;
  (void)ex.Extract(fx.packets);
  const BinKeys& keys = ex.keys();
  ASSERT_NE(keys.flows, nullptr);
  const auto ids = keys.flows->flow_of_row();
  EXPECT_EQ(std::vector<uint32_t>(ids.begin(), ids.end()), (std::vector<uint32_t>{0, 1, 0, 2}));
  EXPECT_EQ(keys.bytes, 1000.0);
  ASSERT_EQ(keys.distinct(), 3u);
  const sketch::FusedTupleHasher fused = MakeAggregateHasher(ex.config().seed);
  AggregateHashes h;
  const auto bytes = fx.records[3].tuple.Bytes();
  fused.HashAllFixed<13, kNumAggregates>(bytes.data(), h);
  EXPECT_EQ(keys.hashes[2], h);
}

TEST(Extractor, RealTrafficUniqueCountsAreConsistent) {
  // On generated traffic the MRB estimates must track exact counts.
  const trace::Trace t = trace::TraceGenerator(trace::CescaI()).Generate();
  trace::Batcher batcher(t, 100'000);
  trace::Batch batch;
  FeatureExtractor ex;
  int checked = 0;
  while (batcher.Next(batch) && checked < 20) {
    if (batch.size() < 100) {
      continue;
    }
    std::unordered_set<uint32_t> srcs;
    std::unordered_set<net::FiveTuple, net::FiveTupleHash> tuples;
    for (const auto& pkt : batch.packets) {
      srcs.insert(pkt.rec->tuple.src_ip);
      tuples.insert(pkt.rec->tuple);
    }
    const FeatureVector f = ex.Extract(batch.packets);
    EXPECT_NEAR(f[FeatureIndex(Aggregate::kSrcIp, Counter::kUnique)],
                static_cast<double>(srcs.size()),
                std::max(12.0, 0.2 * static_cast<double>(srcs.size())));
    EXPECT_NEAR(f[kFeatUniqueFiveTuple], static_cast<double>(tuples.size()),
                std::max(15.0, 0.2 * static_cast<double>(tuples.size())));
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

}  // namespace
}  // namespace shedmon::features
