#include "src/capture/capture.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/capture/slots.h"
#include "src/capture/source.h"
#include "src/net/frame.h"

namespace shedmon::capture {

namespace {

void Validate(const CaptureConfig& config) {
  if (config.sources.empty()) {
    throw std::invalid_argument("capture: config has no sources");
  }
  for (const SourceSpec& spec : config.sources) {
    if (spec.kind == SourceSpec::Kind::kPcapFile && spec.path.empty()) {
      throw std::invalid_argument("capture: pcap source needs a path");
    }
  }
}

std::unique_ptr<CaptureSource> MakeSource(const SourceSpec& spec, CaptureShared* shared) {
  switch (spec.kind) {
    case SourceSpec::Kind::kUdp:
      return std::make_unique<UdpSource>(spec, shared);
    case SourceSpec::Kind::kTcp:
      return std::make_unique<TcpSource>(spec, shared);
    case SourceSpec::Kind::kPcapFile:
      return std::make_unique<PcapFollowSource>(spec, shared);
  }
  throw std::invalid_argument("capture: unknown source kind");
}

}  // namespace

CaptureLoop::CaptureLoop(CaptureConfig config, IngestSink* sink, obs::MetricsRegistry* metrics,
                         obs::Tracer* tracer)
    : config_(std::move(config)), sink_(sink), tracer_(tracer), metrics_(metrics) {
  Validate(config_);
  if (config_.clock == nullptr) {
    config_.clock = rt::DefaultClock();
  }
}

CaptureLoop::~CaptureLoop() { Stop(); }

void CaptureLoop::Start() {
  if (running_ || stopped_) {
    throw std::logic_error("CaptureLoop::Start: single-shot; already started");
  }
  shared_ = std::make_unique<CaptureShared>(config_.sources.size(), config_.snap_bytes,
                                            config_.queue_capacity, config_.overflow);
  if (metrics_ != nullptr) {
    CaptureCounters& c = shared_->counters;
    c.m_packets = &metrics_->GetCounter("shedmon_capture_packets_total", {},
                                        "Frames decoded and pushed into the pipeline");
    c.m_truncated = &metrics_->GetCounter("shedmon_capture_truncated_total", {},
                                          "Frames longer than the capture snaplen");
    const std::string_view drop_help = "Capture frames lost before ingestion, by reason";
    c.m_dropped_queue =
        &metrics_->GetCounter("shedmon_capture_dropped_total", {{"reason", "queue_full"}}, drop_help);
    c.m_dropped_no_slot =
        &metrics_->GetCounter("shedmon_capture_dropped_total", {{"reason", "no_slot"}}, drop_help);
    c.m_dropped_late =
        &metrics_->GetCounter("shedmon_capture_dropped_total", {{"reason", "late"}}, drop_help);
    c.m_dropped_decode =
        &metrics_->GetCounter("shedmon_capture_dropped_total", {{"reason", "decode"}}, drop_help);
  }
  // Open everything before starting anything: a bind failure must surface
  // synchronously with no threads to unwind.
  try {
    for (const SourceSpec& spec : config_.sources) {
      sources_.push_back(MakeSource(spec, shared_.get()));
      if (metrics_ != nullptr) {
        sources_.back()->SetThroughputCounters(
            &metrics_->GetCounter("shedmon_capture_frames_total",
                                  {{"source", SourceKindName(spec.kind)}},
                                  "Frames accepted off the wire, by source kind"),
            &metrics_->GetCounter("shedmon_capture_bytes_total",
                                  {{"source", SourceKindName(spec.kind)}},
                                  "Captured frame bytes, by source kind"));
      }
      sources_.back()->Open();
    }
  } catch (...) {
    sources_.clear();
    shared_.reset();
    throw;
  }
  for (std::unique_ptr<CaptureSource>& source : sources_) {
    source->Start();
  }
  consumer_ = std::thread([this] { ConsumerLoop(); });
  running_ = true;
}

void CaptureLoop::Stop() {
  if (!running_) {
    return;
  }
  // Clean drain: stop the producers first (closing the pool unblocks any
  // source parked waiting for a slot), then close the ring so the consumer
  // processes everything already captured before exiting.
  for (std::unique_ptr<CaptureSource>& source : sources_) {
    source->SignalStop();
  }
  shared_->pool.Close();
  for (std::unique_ptr<CaptureSource>& source : sources_) {
    source->Join();
  }
  shared_->ring.Close();
  if (consumer_.joinable()) {
    consumer_.join();
  }
  running_ = false;
  stopped_ = true;
}

size_t CaptureLoop::num_sources() const { return sources_.size(); }

uint16_t CaptureLoop::port(size_t index) const {
  return index < sources_.size() ? sources_[index]->port() : 0;
}

CaptureStats CaptureLoop::stats() const {
  CaptureStats stats;
  if (shared_ == nullptr) {
    return stats;
  }
  const CaptureCounters& c = shared_->counters;
  stats.frames = c.frames.load(std::memory_order_relaxed);
  stats.bytes = c.bytes.load(std::memory_order_relaxed);
  stats.packets = c.packets.load(std::memory_order_relaxed);
  stats.truncated = c.truncated.load(std::memory_order_relaxed);
  stats.dropped_queue = c.dropped_queue.load(std::memory_order_relaxed);
  stats.dropped_no_slot = c.dropped_no_slot.load(std::memory_order_relaxed);
  stats.dropped_late = c.dropped_late.load(std::memory_order_relaxed);
  stats.dropped_decode = c.dropped_decode.load(std::memory_order_relaxed);
  return stats;
}

void CaptureLoop::ConsumerLoop() {
  rt::Clock* clock = config_.clock.get();

  // The capture timeline is anchored at the first decoded packet: its
  // embedded timestamp maps to "now". From then on the sink's clock is
  // advanced to (elapsed wall time - late_slack), so bins close even when
  // the wire goes quiet. Under a ManualClock elapsed stays 0 and binning is
  // driven purely by embedded timestamps — bit-identical to offline replay.
  bool have_anchor = false;
  uint64_t anchor_trace_us = 0;
  uint64_t anchor_wall_us = 0;
  uint64_t advanced_us = 0;

  const auto advance_wall = [&] {
    if (!have_anchor) {
      return;
    }
    const uint64_t now = clock->NowUs();
    const uint64_t elapsed = now > anchor_wall_us ? now - anchor_wall_us : 0;
    const uint64_t lag = config_.late_slack_us;
    const uint64_t target = anchor_trace_us + (elapsed > lag ? elapsed - lag : 0);
    if (target > advanced_us) {
      advanced_us = target;
      sink_->AdvanceTime(target);
    }
  };

  const auto handle_slot = [&](uint32_t index) {
    CaptureSlot& slot = shared_->pool.at(index);
    net::DecodedFrame decoded;
    const net::FrameDecodeStatus status = net::DecodeEthernetFrame(
        slot.bytes.data() + slot.frame_off, slot.frame_len, &decoded);
    if (status != net::FrameDecodeStatus::kOk) {
      CaptureCounters::Bump(shared_->counters.dropped_decode,
                            shared_->counters.m_dropped_decode);
      return;
    }
    uint64_t ts_us;
    if (slot.has_ts) {
      ts_us = slot.ts_us;
    } else if (have_anchor) {
      // Raw frame with no embedded timestamp: stamp with the capture
      // timeline's current position.
      const uint64_t now = clock->NowUs();
      ts_us = anchor_trace_us + (now > anchor_wall_us ? now - anchor_wall_us : 0);
    } else {
      ts_us = 0;
    }
    decoded.rec.ts_us = ts_us;
    // Copy only bytes that exist: a snaplen-truncated payload shrinks the
    // record, it never reads past the captured data.
    decoded.rec.payload_len = decoded.payload_captured;
    if (!have_anchor) {
      have_anchor = true;
      anchor_trace_us = ts_us;
      anchor_wall_us = clock->NowUs();
    }
    if (ts_us < sink_->OpenBinStartUs()) {
      CaptureCounters::Bump(shared_->counters.dropped_late, shared_->counters.m_dropped_late);
      return;
    }
    sink_->Push(net::Packet{&decoded.rec, decoded.payload, decoded.payload_captured});
    CaptureCounters::Bump(shared_->counters.packets, shared_->counters.m_packets);
  };

  for (;;) {
    std::optional<uint32_t> index = shared_->ring.PopFor(config_.poll_us);
    if (!index.has_value()) {
      if (shared_->ring.closed() && shared_->ring.Size() == 0) {
        break;
      }
      advance_wall();
      continue;
    }
    // Drain the burst under one span: per-packet spans would dwarf the work.
    {
      obs::Span span(tracer_, obs::Stage::kCapture, static_cast<uint32_t>(sink_->NextBin()));
      do {
        handle_slot(*index);
        // Push copied the payload, so the slot is free again at once.
        shared_->pool.Release(*index);
        index = shared_->ring.TryPop();
      } while (index.has_value());
    }
    advance_wall();
  }
}

}  // namespace shedmon::capture
