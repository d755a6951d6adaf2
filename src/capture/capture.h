#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/packet.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rt/bounded_queue.h"
#include "src/rt/clock.h"

namespace shedmon::capture {

// Live capture front-end: socket/file sources fill pre-allocated slots, a
// ring of slot indices carries them to one consumer thread, and the consumer
// decodes each Ethernet frame in place and pushes it into the pipeline,
// which copies the payload into the open bin's arena like any other Push.
// A slot recycles as soon as its frame is pushed, so a bin of any size never
// holds capture memory and never stalls the sources. The consumer also
// drives the pipeline clock (AdvanceTime) from an injectable rt::Clock, so
// bins close on wall time even when the sources go quiet; with a ManualClock
// the wall contribution is zero and binning is driven purely by embedded
// timestamps, which makes the whole path bit-identical to an offline replay
// of the same records.

// Replay framing. A datagram or stream record may carry the original trace
// timestamp so live binning reproduces the offline one exactly. Big-endian.
//
//   UDP datagram:  [u32 kDatagramMagic][u64 ts_us][Ethernet frame]
//                  (no magic: the whole payload is a frame, stamped with
//                  the capture timeline on arrival)
//   TCP stream:    repeated [u32 kStreamMagic][u32 frame_len][u64 ts_us]
//                  [frame_len bytes of Ethernet frame]
inline constexpr uint32_t kDatagramMagic = 0x53484d44;  // "SHMD"
inline constexpr size_t kDatagramHeaderLen = 12;
inline constexpr uint32_t kStreamMagic = 0x53484d53;  // "SHMS"
inline constexpr size_t kStreamHeaderLen = 16;

// Hard ceiling on a framed record, mirroring the pcap importer's cap: a
// frame_len above this is a protocol error (desynced or hostile stream),
// not a buffer to allocate.
inline constexpr uint32_t kMaxFrameBytes = 256 * 1024;

// One ingest endpoint.
struct SourceSpec {
  enum class Kind : uint8_t { kUdp = 0, kTcp, kPcapFile };

  Kind kind = Kind::kUdp;
  uint16_t port = 0;  // listeners bind 127.0.0.1:<port>; 0 picks a free port
  std::string path;   // kPcapFile: capture file to follow (tail -f style)

  static SourceSpec Udp(uint16_t port) {
    SourceSpec spec;
    spec.kind = Kind::kUdp;
    spec.port = port;
    return spec;
  }
  static SourceSpec Tcp(uint16_t port) {
    SourceSpec spec;
    spec.kind = Kind::kTcp;
    spec.port = port;
    return spec;
  }
  static SourceSpec PcapFile(std::string path) {
    SourceSpec spec;
    spec.kind = Kind::kPcapFile;
    spec.path = std::move(path);
    return spec;
  }
};

const char* SourceKindName(SourceSpec::Kind kind);

struct CaptureConfig {
  std::vector<SourceSpec> sources;

  // Slot ring geometry. snap_bytes is the per-slot capture length; frames
  // longer than it are truncated (and counted), like a pcap snaplen. The
  // slot pool is derived, not configured: queue_capacity slots for the ring,
  // one per source being filled and one being decoded.
  uint32_t snap_bytes = 2048;
  size_t queue_capacity = 1024;
  rt::OverflowPolicy overflow = rt::OverflowPolicy::kBlock;

  // The consumer advances the pipeline clock to (wall elapsed - late_slack),
  // so a packet may arrive up to late_slack_us behind real time before it is
  // dropped as late.
  uint64_t late_slack_us = 200'000;

  // Consumer ring-poll granularity: the longest the loop sleeps before
  // re-checking wall time when no frames arrive.
  uint64_t poll_us = 2'000;

  // Wall clock driving AdvanceTime. Null: the owning pipeline's rt clock
  // (injectable — a ManualClock freezes the wall contribution entirely).
  std::shared_ptr<rt::Clock> clock;
};

// What the capture loop needs from the pipeline. api::Pipeline adapts itself
// to this interface (see PipelineBuilder::CaptureFrom); tests substitute
// recorders. All calls are made from the single consumer thread, matching
// Pipeline's single-coordinator contract.
class IngestSink {
 public:
  virtual ~IngestSink() = default;

  // Push a packet (api::Pipeline::Push); the payload bytes are copied, so
  // the slot they came from may be reused as soon as the call returns.
  virtual void Push(const net::Packet& packet) = 0;

  // Close every bin strictly before target_us (api::Pipeline::AdvanceTime).
  virtual void AdvanceTime(uint64_t target_us) = 0;

  // Index of the currently open (next-to-close) bin.
  virtual uint64_t NextBin() const = 0;

  // Start timestamp of the open bin; packets older than this are late.
  virtual uint64_t OpenBinStartUs() const = 0;
};

// Counter snapshot (see slots.h for the live cells).
struct CaptureStats {
  uint64_t frames = 0;           // frames accepted off the wire
  uint64_t bytes = 0;            // captured frame bytes
  uint64_t packets = 0;          // decoded and pushed into the sink
  uint64_t truncated = 0;        // frames longer than snap_bytes
  uint64_t dropped_queue = 0;    // lost to ring overflow
  uint64_t dropped_no_slot = 0;  // lost because no capture slot was free
  uint64_t dropped_late = 0;     // behind the open bin on arrival
  uint64_t dropped_decode = 0;   // not decodable as Ethernet/IPv4

  uint64_t dropped() const {
    return dropped_queue + dropped_no_slot + dropped_late + dropped_decode;
  }
};

class CaptureSource;
struct CaptureShared;

// Owns the sources, the slot pool/ring, and the consumer thread. Single-shot:
// Start once, Stop once (idempotent). Stop is a clean drain — sources are
// stopped and joined first, then the ring is closed and the consumer
// processes everything already captured before exiting.
class CaptureLoop {
 public:
  // `metrics` and `tracer` may be null. Throws std::invalid_argument on a
  // config with no sources or a pcap source without a path.
  CaptureLoop(CaptureConfig config, IngestSink* sink, obs::MetricsRegistry* metrics,
              obs::Tracer* tracer);
  ~CaptureLoop();
  CaptureLoop(const CaptureLoop&) = delete;
  CaptureLoop& operator=(const CaptureLoop&) = delete;

  // Opens every source (throws std::runtime_error if a bind/open fails —
  // nothing is left running), then starts the source threads and the
  // consumer.
  void Start();

  // Stops sources, drains the ring through the sink, joins everything.
  void Stop();

  bool running() const { return running_; }
  size_t num_sources() const;
  // Bound port of source `index` (valid after Start; 0 for pcap sources).
  uint16_t port(size_t index) const;
  CaptureStats stats() const;
  const CaptureConfig& config() const { return config_; }

 private:
  void ConsumerLoop();

  CaptureConfig config_;
  IngestSink* sink_;
  obs::Tracer* tracer_;
  obs::MetricsRegistry* metrics_;
  std::unique_ptr<CaptureShared> shared_;
  std::vector<std::unique_ptr<CaptureSource>> sources_;
  std::thread consumer_;
  bool running_ = false;
  bool stopped_ = false;
};

}  // namespace shedmon::capture
