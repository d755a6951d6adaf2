#include "src/trace/batch.h"

#include <algorithm>
#include <cstring>

#include "src/util/rng.h"

namespace shedmon::trace {

std::string_view HttpSignature() { return "GET / HTTP/1.1\r\nHost: "; }
std::string_view BittorrentSignature() { return "\x13"  "BitTorrent protocol"; }
std::string_view GnutellaSignature() { return "GNUTELLA CONNECT/0.6"; }
std::string_view EdonkeySignature() { return "\xe3\x47\x00\x00"; }

void MaterializePayload(const net::PacketRecord& rec, uint8_t* out) {
  const size_t len = rec.payload_len;
  if (len == 0) {
    return;
  }
  // Cheap deterministic filler; one 64-bit word per 8 bytes.
  uint64_t state = (static_cast<uint64_t>(rec.payload_seed) << 17) ^ rec.ts_us;
  size_t i = 0;
  while (i + 8 <= len) {
    const uint64_t w = util::SplitMix64(state);
    std::memcpy(out + i, &w, 8);
    i += 8;
  }
  if (i < len) {
    const uint64_t w = util::SplitMix64(state);
    std::memcpy(out + i, &w, len - i);
  }

  std::string_view sig;
  switch (rec.payload_class) {
    case net::PayloadClass::kHttpRequest:
      sig = HttpSignature();
      break;
    case net::PayloadClass::kBittorrent:
      sig = BittorrentSignature();
      break;
    case net::PayloadClass::kGnutella:
      sig = GnutellaSignature();
      break;
    case net::PayloadClass::kEdonkey:
      sig = EdonkeySignature();
      break;
    case net::PayloadClass::kNone:
    case net::PayloadClass::kRandom:
      return;
  }
  const size_t n = std::min(sig.size(), len);
  std::memcpy(out, sig.data(), n);
}

Batcher::Batcher(const Trace& trace, uint64_t bin_us) : trace_(trace), bin_us_(bin_us) {
  const uint64_t dur = trace.duration_us();
  num_bins_ = dur == 0 ? 0 : static_cast<size_t>((dur + bin_us - 1) / bin_us);
}

bool Batcher::Next(Batch& out) {
  if (next_bin_ >= num_bins_) {
    return false;
  }
  const uint64_t start = static_cast<uint64_t>(next_bin_) * bin_us_;
  const uint64_t end = start + bin_us_;
  ++next_bin_;

  out.start_us = start;
  out.duration_us = bin_us_;
  out.packets.clear();
  out.arena.clear();
  out.wire_bytes = 0;

  const size_t first = cursor_;
  size_t payload_total = 0;
  while (cursor_ < trace_.packets.size() && trace_.packets[cursor_].ts_us < end) {
    payload_total += trace_.packets[cursor_].payload_len;
    ++cursor_;
  }
  const size_t count = cursor_ - first;
  hw_packets_ = std::max(hw_packets_, count);
  hw_payload_ = std::max(hw_payload_, payload_total);
  out.packets.reserve(hw_packets_);
  out.arena.reserve(hw_payload_);
  out.arena.resize(payload_total);

  size_t offset = 0;
  for (size_t i = first; i < cursor_; ++i) {
    const net::PacketRecord& rec = trace_.packets[i];
    net::Packet pkt;
    pkt.rec = &rec;
    pkt.payload_len = rec.payload_len;
    if (rec.payload_len > 0) {
      uint8_t* dst = out.arena.data() + offset;
      MaterializePayload(rec, dst);
      pkt.payload = dst;
      offset += rec.payload_len;
    }
    out.packets.push_back(pkt);
    out.wire_bytes += rec.wire_len;
  }
  out.flows.Build(out.packets);
  return true;
}

}  // namespace shedmon::trace
