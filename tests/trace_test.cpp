#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/api/pipeline.h"
#include "src/net/frame.h"
#include "src/query/query.h"
#include "src/trace/anomaly.h"
#include "src/trace/batch.h"
#include "src/trace/flow_table.h"
#include "src/trace/generator.h"
#include "src/trace/pcap.h"
#include "src/trace/spec.h"
#include "src/trace/trace_io.h"
#include "tests/temp_path.h"

namespace shedmon::trace {
namespace {

TraceSpec SmallSpec() {
  TraceSpec spec;
  spec.name = "test";
  spec.duration_s = 5.0;
  spec.flows_per_s = 200.0;
  spec.payloads = true;
  spec.seed = 3;
  return spec;
}

TEST(Generator, DeterministicForSeed) {
  const Trace a = TraceGenerator(SmallSpec()).Generate();
  const Trace b = TraceGenerator(SmallSpec()).Generate();
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (size_t i = 0; i < a.packets.size(); i += 97) {
    EXPECT_EQ(a.packets[i].ts_us, b.packets[i].ts_us);
    EXPECT_EQ(a.packets[i].tuple, b.packets[i].tuple);
  }
}

TEST(Generator, PacketsSortedAndWithinDuration) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  ASSERT_FALSE(t.packets.empty());
  for (size_t i = 1; i < t.packets.size(); ++i) {
    EXPECT_LE(t.packets[i - 1].ts_us, t.packets[i].ts_us);
  }
  EXPECT_LT(t.packets.back().ts_us, 5'000'000u);
}

TEST(Generator, ProducesPlausibleRate) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  // ~200 flows/s x ~4-10 pkts/flow x 5 s.
  EXPECT_GT(t.packets.size(), 2000u);
  EXPECT_LT(t.packets.size(), 60000u);
}

TEST(Generator, AppMixIncludesMajorClasses) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  std::set<net::AppClass> seen;
  for (const auto& p : t.packets) {
    seen.insert(p.app);
  }
  EXPECT_TRUE(seen.count(net::AppClass::kWeb));
  EXPECT_TRUE(seen.count(net::AppClass::kDns));
  EXPECT_TRUE(seen.count(net::AppClass::kP2p));
}

TEST(Generator, TcpFlowsStartWithSyn) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  std::set<net::FiveTuple> seen;
  size_t first_pkts = 0;
  size_t syn_first = 0;
  for (const auto& p : t.packets) {
    if (p.tuple.proto != net::kProtoTcp) {
      continue;
    }
    if (seen.insert(p.tuple).second) {
      ++first_pkts;
      if ((p.tcp_flags & net::kTcpSyn) != 0) {
        ++syn_first;
      }
    }
  }
  ASSERT_GT(first_pkts, 100u);
  // Within-flow reordering across bins can shuffle a few; most hold.
  EXPECT_GT(static_cast<double>(syn_first) / static_cast<double>(first_pkts), 0.9);
}

TEST(Generator, HeaderOnlySpecHasNoPayload) {
  TraceSpec spec = SmallSpec();
  spec.payloads = false;
  const Trace t = TraceGenerator(spec).Generate();
  for (const auto& p : t.packets) {
    EXPECT_EQ(p.payload_len, 0);
  }
}

TEST(Generator, PresetsHaveDistinctCharacters) {
  EXPECT_FALSE(CescaI().payloads);
  EXPECT_TRUE(CescaII().payloads);
  EXPECT_GT(Cenic().burstiness, CescaI().burstiness);
  EXPECT_GT(Abilene().duration_s, CescaI().duration_s);
  EXPECT_TRUE(UpcI().payloads);
}

TEST(Anomaly, DdosAddsPacketsInWindow) {
  Trace t = TraceGenerator(SmallSpec()).Generate();
  const size_t before = t.packets.size();
  DdosSpec ddos;
  ddos.start_s = 1.0;
  ddos.duration_s = 2.0;
  ddos.pps = 1000.0;
  InjectDdos(t, ddos, 5);
  EXPECT_NEAR(static_cast<double>(t.packets.size() - before), 2000.0, 300.0);
  for (size_t i = 1; i < t.packets.size(); ++i) {
    ASSERT_LE(t.packets[i - 1].ts_us, t.packets[i].ts_us);
  }
  for (const auto& p : t.packets) {
    if (p.app == net::AppClass::kAttack) {
      EXPECT_GE(p.ts_us, 1'000'000u);
      EXPECT_LT(p.ts_us, 3'100'000u);
      EXPECT_EQ(p.tuple.dst_ip, ddos.target_ip);
    }
  }
}

TEST(Anomaly, SpoofedDdosExplodesSourceCount) {
  Trace t;
  t.spec.duration_s = 3.0;
  DdosSpec ddos;
  ddos.start_s = 0.0;
  ddos.duration_s = 3.0;
  ddos.pps = 2000.0;
  ddos.spoofed_sources = true;
  InjectDdos(t, ddos, 7);
  std::set<uint32_t> srcs;
  for (const auto& p : t.packets) {
    srcs.insert(p.tuple.src_ip);
  }
  // Nearly every spoofed packet has a unique source.
  EXPECT_GT(srcs.size(), t.packets.size() * 9 / 10);
}

TEST(Anomaly, OnOffDdosLeavesGaps) {
  Trace t;
  t.spec.duration_s = 10.0;
  DdosSpec ddos;
  ddos.start_s = 0.0;
  ddos.duration_s = 8.0;
  ddos.pps = 1000.0;
  ddos.on_off_period_s = 1.0;
  InjectDdos(t, ddos, 9);
  // Packets only in the "on" seconds: [0,1), [2,3), [4,5), [6,7).
  for (const auto& p : t.packets) {
    const double sec = static_cast<double>(p.ts_us) * 1e-6;
    const int second = static_cast<int>(sec);
    EXPECT_EQ(second % 2, 0) << sec;
  }
}

TEST(Anomaly, WormScansManyDestinationsOnOnePort) {
  Trace t;
  t.spec.duration_s = 5.0;
  WormSpec worm;
  worm.start_s = 0.0;
  worm.duration_s = 5.0;
  worm.pps = 1000.0;
  InjectWorm(t, worm, 11);
  std::set<uint32_t> dsts;
  for (const auto& p : t.packets) {
    EXPECT_EQ(p.tuple.dst_port, worm.dst_port);
    dsts.insert(p.tuple.dst_ip);
  }
  EXPECT_GT(dsts.size(), 4000u);
}

TEST(Anomaly, ByteBurstUsesLargePackets) {
  Trace t;
  t.spec.duration_s = 3.0;
  ByteBurstSpec burst;
  burst.start_s = 0.5;
  burst.duration_s = 1.0;
  InjectByteBurst(t, burst, 13);
  ASSERT_FALSE(t.packets.empty());
  for (const auto& p : t.packets) {
    EXPECT_EQ(p.wire_len, 1500);
  }
}

TEST(Batcher, CoversWholeTraceWithoutLoss) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  size_t total = 0;
  size_t bins = 0;
  uint64_t expected_start = 0;
  while (batcher.Next(batch)) {
    EXPECT_EQ(batch.start_us, expected_start);
    expected_start += 100'000;
    total += batch.size();
    ++bins;
  }
  EXPECT_EQ(total, t.packets.size());
  EXPECT_EQ(bins, batcher.num_bins());
  EXPECT_NEAR(static_cast<double>(bins), 50.0, 1.0);
}

TEST(Batcher, PacketsFallInsideTheirBin) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  while (batcher.Next(batch)) {
    for (const auto& pkt : batch.packets) {
      EXPECT_GE(pkt.ts_us(), batch.start_us);
      EXPECT_LT(pkt.ts_us(), batch.start_us + batch.duration_us);
    }
  }
}

TEST(Batcher, MaterializesDeterministicPayloads) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher b1(t, 100'000);
  Batcher b2(t, 100'000);
  Batch batch1;
  Batch batch2;
  ASSERT_TRUE(b1.Next(batch1));
  ASSERT_TRUE(b2.Next(batch2));
  ASSERT_EQ(batch1.size(), batch2.size());
  for (size_t i = 0; i < batch1.size(); ++i) {
    ASSERT_EQ(batch1.packets[i].payload_len, batch2.packets[i].payload_len);
    if (batch1.packets[i].payload_len > 0) {
      EXPECT_EQ(std::memcmp(batch1.packets[i].payload, batch2.packets[i].payload,
                            batch1.packets[i].payload_len),
                0);
    }
  }
}

TEST(Batcher, PlantsSignaturesForP2pFlows) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  bool found_p2p_sig = false;
  const auto bt = BittorrentSignature();
  const auto gn = GnutellaSignature();
  const auto ed = EdonkeySignature();
  while (batcher.Next(batch) && !found_p2p_sig) {
    for (const auto& pkt : batch.packets) {
      if (pkt.payload_len < 24) {
        continue;
      }
      const char* data = reinterpret_cast<const char*>(pkt.payload);
      if (std::memcmp(data, bt.data(), std::min(bt.size(), size_t{20})) == 0 ||
          std::memcmp(data, gn.data(), std::min(gn.size(), size_t{20})) == 0 ||
          std::memcmp(data, ed.data(), ed.size()) == 0) {
        found_p2p_sig = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_p2p_sig);
}

TEST(Batcher, WireBytesMatchesSum) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  while (batcher.Next(batch)) {
    uint64_t sum = 0;
    for (const auto& pkt : batch.packets) {
      sum += pkt.rec->wire_len;
    }
    EXPECT_EQ(sum, batch.wire_bytes);
  }
}

TEST(Pcap, ExportedFileHasValidStructure) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  const std::string path = test::TempPath("shedmon_test.pcap");
  const size_t written = ExportPcap(t, path);
  EXPECT_EQ(written, t.packets.size());

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), 4);
  EXPECT_EQ(magic, 0xa1b2c3d4u);
  std::remove(path.c_str());
}

TEST(Pcap, FrameHasWellFormedHeaders) {
  net::PacketRecord rec;
  rec.tuple = {0x0a000001, 0xc0a80001, 12345, 80, net::kProtoTcp};
  rec.wire_len = 140;
  rec.payload_len = 100;
  rec.payload_class = net::PayloadClass::kHttpRequest;
  rec.payload_seed = 42;
  rec.tcp_flags = net::kTcpAck;
  const auto frame = SynthesizeFrame(rec);
  ASSERT_GE(frame.size(), 14u + 20u + 20u);
  // EtherType IPv4.
  EXPECT_EQ(frame[12], 0x08);
  EXPECT_EQ(frame[13], 0x00);
  // IPv4 version/IHL.
  EXPECT_EQ(frame[14], 0x45);
  // Protocol and addresses at their offsets.
  EXPECT_EQ(frame[14 + 9], net::kProtoTcp);
  EXPECT_EQ(frame[14 + 12], 0x0a);
  EXPECT_EQ(frame[14 + 16], 0xc0);
  // Ports in network byte order.
  EXPECT_EQ((frame[34] << 8) | frame[35], 12345);
  EXPECT_EQ((frame[36] << 8) | frame[37], 80);
  // The payload (with the HTTP signature) starts after 54 header bytes.
  const std::string sig(HttpSignature());
  EXPECT_EQ(std::memcmp(frame.data() + 54, sig.data(), 8), 0);
}

TEST(Pcap, IpChecksumVerifies) {
  net::PacketRecord rec;
  rec.tuple = {0x01020304, 0x05060708, 1111, 2222, net::kProtoUdp};
  rec.wire_len = 60;
  const auto frame = SynthesizeFrame(rec);
  // RFC 1071: the checksum of a header including its checksum field is 0.
  uint32_t sum = 0;
  for (size_t i = 14; i + 1 < 14 + 20; i += 2) {
    sum += static_cast<uint32_t>((frame[i] << 8) | frame[i + 1]);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  EXPECT_EQ(static_cast<uint16_t>(~sum), 0);
}

TEST(Pcap, RoundTripPreservesTuplesAndTiming) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  const std::string path = test::TempPath("shedmon_roundtrip.pcap");
  ExportPcap(t, path);
  const Trace back = ImportPcap(path);
  ASSERT_EQ(back.packets.size(), t.packets.size());
  // Import normalizes timestamps to the first packet.
  const uint64_t base = t.packets.front().ts_us;
  for (size_t i = 0; i < t.packets.size(); i += 101) {
    EXPECT_EQ(back.packets[i].tuple, t.packets[i].tuple) << i;
    EXPECT_EQ(back.packets[i].ts_us, t.packets[i].ts_us - base) << i;
    if (t.packets[i].tuple.proto == net::kProtoTcp) {
      EXPECT_EQ(back.packets[i].tcp_flags, t.packets[i].tcp_flags) << i;
    }
  }
  std::remove(path.c_str());
}

TEST(Pcap, SnaplenTruncatesStoredBytes) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  const std::string full_path = test::TempPath("shedmon_full.pcap");
  const std::string snap_path = test::TempPath("shedmon_snap.pcap");
  ExportPcap(t, full_path);
  ExportPcap(t, snap_path, 64);
  std::ifstream full(full_path, std::ios::binary | std::ios::ate);
  std::ifstream snap(snap_path, std::ios::binary | std::ios::ate);
  EXPECT_GT(full.tellg(), snap.tellg());
  // Truncated captures still import (headers fit in 64 bytes).
  const Trace back = ImportPcap(snap_path);
  EXPECT_EQ(back.packets.size(), t.packets.size());
  std::remove(full_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(Pcap, ImportRejectsGarbage) {
  const std::string path = test::TempPath("shedmon_garbage.pcap");
  std::ofstream out(path, std::ios::binary);
  out << "this is not a pcap file at all";
  out.close();
  EXPECT_THROW(ImportPcap(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- Adversarial pcap fixtures --------------------------------------------
// Hand-built capture files that exercise the hardened import path: impossible
// IP header lengths, hostile record lengths, mid-record truncation, and
// non-IPv4 interleave. Headers are written native-endian, matching what
// ExportPcap emits and PcapReader reads.

void AppendRaw(std::vector<uint8_t>& out, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out.insert(out.end(), p, p + len);
}

void AppendU16(std::vector<uint8_t>& out, uint16_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendU32(std::vector<uint8_t>& out, uint32_t v) { AppendRaw(out, &v, sizeof(v)); }

std::vector<uint8_t> PcapHeaderBytes(uint32_t snaplen = 262144) {
  std::vector<uint8_t> out;
  AppendU32(out, 0xa1b2c3d4u);  // microsecond magic
  AppendU16(out, 2);
  AppendU16(out, 4);
  AppendU32(out, 0);  // thiszone
  AppendU32(out, 0);  // sigfigs
  AppendU32(out, snaplen);
  AppendU32(out, 1);  // LINKTYPE_ETHERNET
  return out;
}

// Appends a record header claiming `incl_len` stored bytes, then however many
// bytes `stored` actually holds — letting tests lie about the length.
void AppendRecord(std::vector<uint8_t>& out, uint64_t ts_us, uint32_t incl_len,
                  const std::vector<uint8_t>& stored) {
  AppendU32(out, static_cast<uint32_t>(ts_us / 1'000'000));
  AppendU32(out, static_cast<uint32_t>(ts_us % 1'000'000));
  AppendU32(out, incl_len);
  AppendU32(out, incl_len);  // orig_len
  AppendRaw(out, stored.data(), stored.size());
}

std::string WriteFixture(const std::string& name, const std::vector<uint8_t>& bytes) {
  const std::string path = test::TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

net::PacketRecord GoodTcpRecord(uint16_t src_port) {
  net::PacketRecord rec;
  rec.tuple = {0x0a000001, 0xc0a80001, src_port, 443, net::kProtoTcp};
  rec.payload_len = 64;
  rec.wire_len = 20 + 20 + rec.payload_len;  // wire-faithful IP total length
  rec.tcp_flags = net::kTcpAck;
  return rec;
}

TEST(FrameDecode, RejectsImpossibleIhl) {
  // IHL nibbles 0 and 15 on a frame with exactly eth + 20 captured bytes:
  // below the 20-byte minimum and past the capture respectively. IHL 6 (24
  // bytes) is also past this capture. None may be dereferenced.
  std::vector<uint8_t> frame = SynthesizeFrame(GoodTcpRecord(1000));
  frame.resize(net::kEthHeaderLen + net::kIpv4MinHeaderLen);
  net::DecodedFrame decoded;
  for (const uint8_t ihl : {0, 1, 4, 6, 15}) {
    frame[14] = static_cast<uint8_t>(0x40 | ihl);
    EXPECT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
              net::FrameDecodeStatus::kMalformed)
        << "ihl nibble " << int{ihl};
  }
  // IHL 5 on the same capture is the legal minimum.
  frame[14] = 0x45;
  EXPECT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
            net::FrameDecodeStatus::kOk);
}

TEST(FrameDecode, RejectsTcpDataOffsetBelowMinimum) {
  std::vector<uint8_t> frame = SynthesizeFrame(GoodTcpRecord(1000));
  net::DecodedFrame decoded;
  for (const uint8_t off : {0, 1, 4}) {
    frame[14 + 20 + 12] = static_cast<uint8_t>(off << 4);
    EXPECT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
              net::FrameDecodeStatus::kMalformed)
        << "data offset nibble " << int{off};
  }
  frame[14 + 20 + 12] = 0x50;
  EXPECT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
            net::FrameDecodeStatus::kOk);
}

TEST(FrameDecode, ClampsPayloadToCapturedBytes) {
  // A snapped capture: IP total length claims 64 payload bytes but only 10
  // made it into the file. payload_len keeps the wire truth; the view must
  // not extend past the capture.
  const net::PacketRecord rec = GoodTcpRecord(1000);
  std::vector<uint8_t> frame = SynthesizeFrame(rec);
  frame.resize(14 + 20 + 20 + 10);
  net::DecodedFrame decoded;
  ASSERT_EQ(net::DecodeEthernetFrame(frame.data(), frame.size(), &decoded),
            net::FrameDecodeStatus::kOk);
  EXPECT_EQ(decoded.rec.payload_len, 64);
  EXPECT_EQ(decoded.payload_captured, 10);
  EXPECT_EQ(decoded.payload, frame.data() + 14 + 20 + 20);
}

TEST(Pcap, ImportSkipsMalformedAndNonIpv4Interleave) {
  std::vector<uint8_t> file = PcapHeaderBytes();
  const net::PacketRecord good1 = GoodTcpRecord(1000);
  const net::PacketRecord good2 = GoodTcpRecord(2000);

  std::vector<uint8_t> frame = SynthesizeFrame(good1);
  AppendRecord(file, 100, static_cast<uint32_t>(frame.size()), frame);

  // An ARP frame (EtherType 0x0806): normal link noise, silently skipped.
  std::vector<uint8_t> arp(42, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  AppendRecord(file, 200, static_cast<uint32_t>(arp.size()), arp);

  // IPv4 with a hostile IHL nibble of 15: counted out, never read.
  std::vector<uint8_t> bad_ihl = SynthesizeFrame(good1);
  bad_ihl.resize(14 + 20);
  bad_ihl[14] = 0x4f;
  AppendRecord(file, 300, static_cast<uint32_t>(bad_ihl.size()), bad_ihl);

  // TCP data offset of 1 word: impossible, skipped.
  std::vector<uint8_t> bad_off = SynthesizeFrame(good1);
  bad_off[14 + 20 + 12] = 0x10;
  AppendRecord(file, 400, static_cast<uint32_t>(bad_off.size()), bad_off);

  frame = SynthesizeFrame(good2);
  AppendRecord(file, 500, static_cast<uint32_t>(frame.size()), frame);

  const std::string path = WriteFixture("shedmon_interleave.pcap", file);
  const Trace t = ImportPcap(path);
  ASSERT_EQ(t.packets.size(), 2u);
  EXPECT_EQ(t.packets[0].tuple, good1.tuple);
  EXPECT_EQ(t.packets[1].tuple, good2.tuple);
  EXPECT_EQ(t.packets[0].ts_us, 0u);    // normalized to the first good packet
  EXPECT_EQ(t.packets[1].ts_us, 400u);  // 500 - 100
  std::remove(path.c_str());
}

TEST(Pcap, ImportRejectsOversizedInclLen) {
  // incl_len of 1 GiB: the old path did buf.resize(incl_len) — an
  // attacker-controlled allocation. Now it must throw before buffering.
  std::vector<uint8_t> file = PcapHeaderBytes();
  AppendRecord(file, 100, 1u << 30, {});
  const std::string path = WriteFixture("shedmon_oversize.pcap", file);
  EXPECT_THROW(ImportPcap(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pcap, ImportRejectsInclLenBeyondSnaplen) {
  // Even a modest incl_len is a lie when it exceeds the header's snaplen.
  std::vector<uint8_t> file = PcapHeaderBytes(/*snaplen=*/64);
  std::vector<uint8_t> stored(100, 0);
  AppendRecord(file, 100, 100, stored);
  const std::string path = WriteFixture("shedmon_snaplie.pcap", file);
  EXPECT_THROW(ImportPcap(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pcap, ImportThrowsOnTruncatedMidRecord) {
  std::vector<uint8_t> file = PcapHeaderBytes();
  const std::vector<uint8_t> frame = SynthesizeFrame(GoodTcpRecord(1000));
  AppendRecord(file, 100, static_cast<uint32_t>(frame.size()), frame);
  // Second record claims 120 bytes but the file ends after 50.
  std::vector<uint8_t> partial(frame.begin(), frame.begin() + 50);
  AppendRecord(file, 200, 120, partial);
  const std::string path = WriteFixture("shedmon_truncated.pcap", file);
  EXPECT_THROW(ImportPcap(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pcap, ReaderAwaitsThenResumesOnGrowingFile) {
  // The live-follow contract: a mid-record tail reports kAwait and rewinds,
  // so the same Next() call succeeds once the writer appends the rest.
  const std::vector<uint8_t> frame = SynthesizeFrame(GoodTcpRecord(1000));
  std::vector<uint8_t> file = PcapHeaderBytes();
  std::vector<uint8_t> partial(frame.begin(), frame.begin() + 30);
  AppendRecord(file, 1'234'567, static_cast<uint32_t>(frame.size()), partial);
  const std::string path = WriteFixture("shedmon_growing.pcap", file);

  PcapReader reader(path);
  std::vector<uint8_t> buf(reader.max_record_bytes());
  PcapReader::RecordInfo info;
  EXPECT_EQ(reader.Next(buf.data(), buf.size(), &info), PcapReader::Status::kAwait);
  EXPECT_EQ(reader.Next(buf.data(), buf.size(), &info), PcapReader::Status::kAwait);

  {
    std::ofstream append(path, std::ios::binary | std::ios::app);
    append.write(reinterpret_cast<const char*>(frame.data() + 30),
                 static_cast<std::streamsize>(frame.size() - 30));
  }
  ASSERT_EQ(reader.Next(buf.data(), buf.size(), &info), PcapReader::Status::kRecord);
  EXPECT_EQ(info.ts_us, 1'234'567u);
  EXPECT_EQ(info.captured, frame.size());
  EXPECT_EQ(std::memcmp(buf.data(), frame.data(), frame.size()), 0);
  EXPECT_EQ(reader.Next(buf.data(), buf.size(), &info), PcapReader::Status::kEof);
  std::remove(path.c_str());
}

TEST(Pcap, RoundTripIsFieldExact) {
  // Every decoded field — not a sample — must survive export + import for
  // wire-faithful records (wire_len == headers + payload).
  Trace t;
  for (uint16_t i = 0; i < 50; ++i) {
    net::PacketRecord rec;
    const bool tcp = i % 3 != 0;
    rec.tuple = {0x0a000000u + i, 0xc0a80000u + i, static_cast<uint16_t>(1024 + i),
                 static_cast<uint16_t>(tcp ? 443 : 53),
                 tcp ? net::kProtoTcp : net::kProtoUdp};
    rec.payload_len = static_cast<uint16_t>(i * 7 % 200);
    rec.wire_len = static_cast<uint16_t>(20 + (tcp ? 20 : 8) + rec.payload_len);
    rec.ts_us = 1'000'000 + static_cast<uint64_t>(i) * 137;
    rec.tcp_flags = tcp ? net::kTcpAck : 0;
    t.packets.push_back(rec);
  }
  const std::string path = test::TempPath("shedmon_exact.pcap");
  ExportPcap(t, path);
  const Trace back = ImportPcap(path);
  ASSERT_EQ(back.packets.size(), t.packets.size());
  for (size_t i = 0; i < t.packets.size(); ++i) {
    EXPECT_EQ(back.packets[i].tuple, t.packets[i].tuple) << i;
    EXPECT_EQ(back.packets[i].ts_us, t.packets[i].ts_us - t.packets[0].ts_us) << i;
    EXPECT_EQ(back.packets[i].wire_len, t.packets[i].wire_len) << i;
    EXPECT_EQ(back.packets[i].payload_len, t.packets[i].payload_len) << i;
    EXPECT_EQ(back.packets[i].tcp_flags, t.packets[i].tcp_flags) << i;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RoundTripsPacketsExactly) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  const std::string path = test::TempPath("shedmon_roundtrip.trace");
  SaveTrace(t, path);
  const Trace loaded = LoadTrace(path);
  ASSERT_EQ(loaded.packets.size(), t.packets.size());
  EXPECT_EQ(loaded.spec.name, t.spec.name);
  for (size_t i = 0; i < t.packets.size(); i += 53) {
    EXPECT_EQ(loaded.packets[i].ts_us, t.packets[i].ts_us);
    EXPECT_EQ(loaded.packets[i].tuple, t.packets[i].tuple);
    EXPECT_EQ(loaded.packets[i].wire_len, t.packets[i].wire_len);
    EXPECT_EQ(loaded.packets[i].payload_seed, t.packets[i].payload_seed);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(LoadTrace("/nonexistent/file.trace"), std::runtime_error);
}

// ------------------------------------------------------------- flow table --

// From-scratch description of `packets`' flows: first-seen ids per row and
// exact per-flow totals, keyed by an ordered map instead of the table's
// open-addressing set. Empty when `table` says the same.
std::string FlowTableDiff(const FlowTable& table, const PacketVec& packets) {
  std::map<net::FiveTuple, uint32_t> ids;
  std::vector<FlowTable::Flow> flows;
  std::vector<uint32_t> flow_of_row;
  for (size_t row = 0; row < packets.size(); ++row) {
    const auto [it, fresh] =
        ids.emplace(packets[row].rec->tuple, static_cast<uint32_t>(flows.size()));
    if (fresh) {
      flows.push_back({static_cast<uint32_t>(row), 0, 0});
    }
    flow_of_row.push_back(it->second);
    ++flows[it->second].packets;
    flows[it->second].bytes += packets[row].rec->wire_len;
  }
  if (table.rows() != packets.size() || table.num_flows() != flows.size()) {
    return "row or flow count differs";
  }
  for (size_t row = 0; row < packets.size(); ++row) {
    if (table.flow_of_row()[row] != flow_of_row[row]) {
      return "flow id of row " + std::to_string(row) + " differs";
    }
    if (table.wire_len()[row] != packets[row].rec->wire_len) {
      return "wire length of row " + std::to_string(row) + " differs";
    }
  }
  for (size_t f = 0; f < flows.size(); ++f) {
    const FlowTable::Flow& got = table.flows()[f];
    if (got.first_row != flows[f].first_row || got.packets != flows[f].packets ||
        got.bytes != flows[f].bytes) {
      return "flow " + std::to_string(f) + " totals differ";
    }
  }
  return "";
}

// Records with the given (src ip, wire length), other tuple fields fixed.
std::vector<net::PacketRecord> Records(std::initializer_list<std::pair<uint32_t, uint16_t>> spec) {
  std::vector<net::PacketRecord> recs;
  for (const auto& [src, len] : spec) {
    net::PacketRecord& rec = recs.emplace_back();
    rec.tuple = {src, 9, 1000, 80, net::kProtoTcp};
    rec.wire_len = len;
  }
  return recs;
}

PacketVec View(const std::vector<net::PacketRecord>& recs) {
  PacketVec packets;
  for (const auto& rec : recs) {
    packets.push_back(net::Packet::View(rec));
  }
  return packets;
}

TEST(FlowTable, IdsAreDenseInFirstSeenOrderWithExactTotals) {
  const auto recs = Records({{7, 100}, {3, 60}, {7, 1500}, {5, 40}, {3, 60}, {7, 1}});
  FlowTable table;
  table.Build(View(recs));
  const std::vector<uint32_t> want_ids = {0, 1, 0, 2, 1, 0};
  EXPECT_TRUE(std::equal(want_ids.begin(), want_ids.end(), table.flow_of_row().begin(),
                         table.flow_of_row().end()));
  ASSERT_EQ(table.num_flows(), 3u);
  EXPECT_EQ(table.flows()[0].first_row, 0u);
  EXPECT_EQ(table.flows()[0].packets, 3u);
  EXPECT_EQ(table.flows()[0].bytes, 1601u);
  EXPECT_EQ(table.flows()[1].first_row, 1u);
  EXPECT_EQ(table.flows()[1].packets, 2u);
  EXPECT_EQ(table.flows()[1].bytes, 120u);
  EXPECT_EQ(table.flows()[2].first_row, 3u);
  EXPECT_EQ(table.flows()[2].packets, 1u);
  EXPECT_EQ(table.flows()[2].bytes, 40u);
  EXPECT_TRUE(table.parent_flow().empty());
}

TEST(FlowTable, ReuseAcrossBinsForgetsThePreviousBin) {
  // One table rebuilt bin after bin (the epoch reset) must describe each bin
  // exactly as a fresh table does: repeated, reordered, shrinking, empty and
  // growing bins, the last one large enough to regrow the tuple set.
  std::vector<std::vector<net::PacketRecord>> bins = {
      Records({{1, 10}, {2, 20}, {1, 30}}),
      Records({{2, 5}, {1, 5}, {2, 5}, {4, 5}}),
      Records({{4, 7}}),
      {},
  };
  std::vector<net::PacketRecord> big;
  for (uint32_t i = 0; i < 5000; ++i) {
    net::PacketRecord& rec = big.emplace_back();
    rec.tuple = {i % 700, i % 3, static_cast<uint16_t>(i % 11), 80, net::kProtoUdp};
    rec.wire_len = static_cast<uint16_t>(40 + i % 1400);
  }
  bins.push_back(big);
  bins.push_back(Records({{1, 10}, {2, 20}, {1, 30}}));
  FlowTable reused;
  for (size_t b = 0; b < bins.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    const PacketVec packets = View(bins[b]);
    reused.Build(packets);
    EXPECT_EQ(FlowTableDiff(reused, packets), "");
    FlowTable fresh;
    fresh.Build(packets);
    EXPECT_EQ(FlowTableDiff(fresh, packets), "");
  }
}

// The set FlowTable dedupes with and FlowsQuery keeps its interval in:
// insertion-order ids, growth past the half-load threshold without losing
// members or ids, and an O(1) clear that forgets every member, used
// interval after interval against a std::set.
TEST(TupleSet, GrowsKeepingIdsAndClearsEveryMember) {
  TupleSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains({1, 2, 3, 4, net::kProtoTcp}));
  uint32_t next = 1;
  for (const size_t members : {5u, 3000u, 0u, 40u, 3000u}) {
    SCOPED_TRACE(members);
    set.clear();
    std::map<net::FiveTuple, uint32_t> want;
    for (size_t i = 0; i < 2 * members; ++i) {
      // Every member is inserted twice; keys change from round to round.
      const net::FiveTuple t = {next + static_cast<uint32_t>(i % members), 9,
                                static_cast<uint16_t>(i % members), 80, net::kProtoUdp};
      const auto [id, fresh] = set.insert(t);
      const auto [it, inserted] = want.try_emplace(t, static_cast<uint32_t>(want.size()));
      EXPECT_EQ(fresh, inserted);
      EXPECT_EQ(id, it->second);
    }
    EXPECT_EQ(set.size(), want.size());
    for (const auto& [t, id] : want) {
      EXPECT_TRUE(set.contains(t));
      EXPECT_EQ(set.insert(t), std::make_pair(id, false));
    }
    EXPECT_FALSE(set.contains({next + 7000, 9, 0, 80, net::kProtoUdp}));
    next += 10'000;
  }
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains({next - 10'000, 9, 0, 80, net::kProtoUdp}));
}

TEST(FlowTable, BatcherBinsCarryTheirTable) {
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  Batcher batcher(t, 100'000);
  Batch batch;
  size_t repeated = 0;
  while (batcher.Next(batch)) {
    ASSERT_EQ(FlowTableDiff(batch.flows, batch.packets), "") << "bin at " << batch.start_us;
    repeated += batch.size() - batch.flows.num_flows();
  }
  EXPECT_GT(repeated, 0u);
}

TEST(FlowTable, SubsetTotalsTheKeptRowsInFirstKeptOrder) {
  // Rows 1 and 4 are kept from flow 1 and row 2 from flow 0: the subset
  // meets flow 1 first, so the ids swap relative to the parent.
  const auto recs = Records({{7, 100}, {3, 60}, {7, 1500}, {5, 40}, {3, 61}, {7, 1}});
  const PacketVec packets = View(recs);
  FlowTable parent;
  parent.Build(packets);
  const std::vector<uint32_t> rows = {1, 2, 4};
  PacketVec kept;
  for (const uint32_t row : rows) {
    kept.push_back(packets[row]);
  }
  FlowTable subset;
  subset.Subset(parent, rows);
  EXPECT_EQ(FlowTableDiff(subset, kept), "");
  ASSERT_EQ(subset.num_flows(), 2u);
  EXPECT_EQ(subset.parent_flow()[0], 1u);
  EXPECT_EQ(subset.parent_flow()[1], 0u);
  EXPECT_EQ(subset.flows()[0].bytes, 121u);
  EXPECT_EQ(subset.flows()[1].first_row, 1u);

  subset.Subset(parent, {});
  EXPECT_EQ(subset.rows(), 0u);
  EXPECT_EQ(subset.num_flows(), 0u);
}

// Checks, for every batch a per-flow consumer is handed, that its flow table
// describes exactly the packets of that batch.
class FlowTableProbe : public query::Query {
 public:
  FlowTableProbe() : Query("flow-table-probe", 10) {}
  size_t checked() const { return checked_; }

 protected:
  void OnBatch(const query::BatchInput& in) override {
    ASSERT_NE(in.flows, nullptr);
    ASSERT_EQ(FlowTableDiff(*in.flows, in.packets), "") << "bin at " << in.start_us;
    ++checked_;
  }
  void OnEndInterval(size_t) override {}

 private:
  size_t checked_ = 0;
};

TEST(FlowTable, IngestCapDropOldestTablesCoverThePostEvictionRows) {
  // Evicting the oldest records of the open bin shifts every surviving row:
  // the table a pipeline builds at the bin close must index the batch's
  // packets, not the ingest buffer.
  auto pipeline = api::PipelineBuilder()
                      .Shedder(core::ShedderKind::kNoShed)
                      .IngestCap(300, rt::OverflowPolicy::kDropOldest)
                      .TrackAccuracy(false)
                      .BuildUnique();
  auto probe = std::make_unique<FlowTableProbe>();
  const FlowTableProbe& checks = *probe;
  pipeline->AddQuery(std::move(probe));
  const Trace t = TraceGenerator(SmallSpec()).Generate();
  pipeline->Push(t);
  pipeline->Finish();
  EXPECT_GT(pipeline->Stats().ingest_dropped, 0u);
  EXPECT_EQ(checks.checked(), pipeline->log().size());
}

}  // namespace
}  // namespace shedmon::trace
