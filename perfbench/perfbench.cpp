// End-to-end benchmark binary for shedmon. Generates one workload's input
// from a seed, then runs complete pipeline passes (Build -> ingest ->
// Finish) until the time budget is spent, and writes every raw per-pass
// measurement as one JSON document. perfbench/run.py turns that document
// into the benchmark's metrics; see perfbench/README.md for definitions.
//
//   shedmon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --workdir DIR --out FILE
//
// Everything that is input rather than program (trace generation, payload
// materialization, frame synthesis, the capacity measurement) happens
// before the first timed pass. The capture-replay generator runs in a
// forked child process, so its CPU time and memory stay out of the
// system's numbers.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/api/pipeline.h"
#include "src/capture/capture.h"
#include "src/core/runner.h"
#include "src/net/frame.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/queries.h"
#include "src/shed/strategy.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/pcap.h"
#include "src/trace/spec.h"

namespace {

using shedmon::api::Pipeline;
using shedmon::api::PipelineBuilder;
namespace capture = shedmon::capture;
namespace core = shedmon::core;
namespace net = shedmon::net;
namespace obs = shedmon::obs;
namespace query = shedmon::query;
namespace shed = shedmon::shed;
namespace trace = shedmon::trace;

// ---------------------------------------------------------------------------
// Clocks and process counters
// ---------------------------------------------------------------------------

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// VmRSS / VmHWM from /proc/self/status, in KiB (-1 when unreadable).
long StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len && line[key_len] == ':') {
      return std::strtol(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return -1;
}

// Ticks the host took away from the CPUs this process may run on (the
// "steal" column of /proc/stat for every CPU in the affinity mask). On a
// shared virtual machine this is the main source of run-to-run noise.
uint64_t StealTicks() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    return 0;
  }
  std::ifstream in("/proc/stat");
  std::string line;
  uint64_t ticks = 0;
  while (std::getline(in, line)) {
    if (line.compare(0, 3, "cpu") != 0 || line.size() < 4 || line[3] < '0' || line[3] > '9') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    uint64_t v[8] = {};
    fields >> cpu;
    for (uint64_t& x : v) {
      fields >> x;
    }
    if (cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &mask)) {
      ticks += v[7];  // user nice system idle iowait irq softirq steal
    }
  }
  return ticks;
}

// Wall time, packets handed over, process CPU time and steal ticks at one
// point of a pass, all relative to the pass start. run.py cuts a pass into
// windows between consecutive samples and times the program over the
// windows in which the host took no CPU time away.
struct Sample {
  int64_t t_ns = 0;
  uint64_t packets = 0;
  double cpu_s = 0.0;
  uint64_t steal_ticks = 0;
};

class Sampler {
 public:
  // One sample per bin hand-over at most, and at most one per window.
  static constexpr uint64_t kWindowNs = 50'000'000;

  Sampler() : start_(NowNs()), cpu0_(ProcessCpuS()), steal0_(StealTicks()) {
    samples_.push_back(Sample{});
    last_ = start_;
  }
  uint64_t start() const { return start_; }
  void MaybeTake(uint64_t now, uint64_t packets) {
    if (now - last_ >= kWindowNs) {
      Take(now, packets);
    }
  }
  void Take(uint64_t now, uint64_t packets) {
    samples_.push_back(Sample{static_cast<int64_t>(now - start_), packets, ProcessCpuS() - cpu0_,
                              StealTicks() - steal0_});
    last_ = now;
  }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  uint64_t start_;
  double cpu0_;
  uint64_t steal0_;
  uint64_t last_;
  std::vector<Sample> samples_;
};

// Resets the RSS high-water mark to the current RSS ("5" > clear_refs), so
// VmHWM afterwards is the peak of the window that follows.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Minimal JSON writer
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& Begin(char c) {
    Sep();
    out_ << c;
    first_ = true;
    return *this;
  }
  Json& End(char c) {
    out_ << c;
    first_ = false;
    return *this;
  }
  Json& Key(const std::string& key) {
    Sep();
    out_ << '"' << key << "\":";
    first_ = true;
    return *this;
  }
  Json& Num(double v) {
    Sep();
    if (!std::isfinite(v)) {
      out_ << "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ << buf;
    }
    return *this;
  }
  Json& Int(uint64_t v) {
    Sep();
    out_ << v;
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else {
        out_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
      }
    }
    out_ << '"';
    return *this;
  }
  Json& F(const std::string& key, double v) { return Key(key).Num(v); }
  Json& I(const std::string& key, uint64_t v) { return Key(key).Int(v); }
  std::string str() const { return out_.str(); }

 private:
  void Sep() {
    if (!first_) {
      out_ << ',';
    }
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Workloads and their inputs
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  trace::TraceSpec spec;
  std::vector<std::string> queries;
  shed::StrategyKind strategy = shed::StrategyKind::kEqSrates;
  double capacity_factor = 1.0;  // cycles_per_bin = factor x mean model demand
  double duration_factor = 1.0;  // trace length as a multiple of the preset's
  size_t threads = 0;
  size_t shards = 1;
  bool capture = false;
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  if (name == "overload-payload") {
    w->spec = trace::UpcI();
    w->queries = query::AllQueryNames();
    w->strategy = shed::StrategyKind::kMmfsPkt;
    w->capacity_factor = 0.5;  // overload factor K = 0.5
    w->threads = 2;
    w->shards = 2;
    w->duration_factor = 2.0;
  } else if (name == "fullrate-headers") {
    w->spec = trace::Abilene();
    w->queries = query::StandardSevenQueryNames();
    w->capacity_factor = 2.0;  // nothing is shed
    w->duration_factor = 2.0;
  } else if (name == "capture-replay") {
    w->spec = trace::CescaII();
    w->queries = {"counter", "flows"};
    w->capacity_factor = 2.0;
    w->capture = true;
  } else {
    return false;
  }
  // Keep the preset's traffic model; only the random stream depends on the
  // benchmark seed. The Push workloads replay a longer capture of the same
  // model, so that one pass spans several of its slowest (12 s) burst
  // periods and per-bin figures depend less on the seed.
  w->spec.seed = w->spec.seed * 1'000'003ULL + seed;
  w->spec.duration_s *= w->duration_factor;
  return true;
}

struct Input {
  trace::Trace trace;
  std::vector<uint8_t> payload_bytes;  // materialized payloads, back to back
  std::vector<net::Packet> packets;    // views over trace records + payloads
  std::vector<uint64_t> bin_of;        // time bin of each packet
  std::vector<uint8_t> last_of_bin;    // 1 for the last packet of its bin
  double demand = 0.0;                 // mean model demand per bin (cycles)
  double gen_s = 0.0;                  // generation time (diagnostic only)
  double rss_mb = 0.0;                 // process RSS once the input is ready
};

constexpr uint64_t kBinUs = 100'000;

void PrepareInput(const Workload& w, Input* in) {
  const uint64_t t0 = NowNs();
  in->trace = trace::TraceGenerator(w.spec).Generate();
  const auto& recs = in->trace.packets;
  size_t total_payload = 0;
  for (const net::PacketRecord& rec : recs) {
    total_payload += rec.payload_len;
  }
  in->payload_bytes.resize(total_payload);
  in->packets.resize(recs.size());
  in->bin_of.resize(recs.size());
  in->last_of_bin.assign(recs.size(), 0);
  size_t off = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    const net::PacketRecord& rec = recs[i];
    uint8_t* bytes = nullptr;
    if (rec.payload_len > 0) {
      bytes = in->payload_bytes.data() + off;
      trace::MaterializePayload(rec, bytes);
      off += rec.payload_len;
    }
    in->packets[i] = net::Packet{&rec, bytes, rec.payload_len};
    in->bin_of[i] = rec.ts_us / kBinUs;
    if (i > 0 && in->bin_of[i] != in->bin_of[i - 1]) {
      in->last_of_bin[i - 1] = 1;
    }
  }
  if (!recs.empty()) {
    in->last_of_bin.back() = 1;
  }
  in->demand = core::MeasureMeanDemand(w.queries, in->trace, core::OracleKind::kModel, kBinUs);
  in->gen_s = static_cast<double>(NowNs() - t0) * 1e-9;
  in->rss_mb = static_cast<double>(StatusKb("VmRSS")) / 1024.0;
}

PipelineBuilder MakeBuilder(const Workload& w, const Input& in, const std::string& csv_path) {
  PipelineBuilder b;
  b.TimeBin(kBinUs)
      .Strategy(w.strategy)
      .Oracle(core::OracleKind::kModel)
      .TrackAccuracy(true)
      .CyclesPerBin(std::max(1.0, in.demand * w.capacity_factor))
      .CsvTo(csv_path);
  if (w.threads > 0) {
    b.Threads(w.threads).MaxShardsPerQuery(w.shards);
  }
  for (const std::string& q : w.queries) {
    b.AddQuery(q);
  }
  return b;
}

// ---------------------------------------------------------------------------
// Per-pass record
// ---------------------------------------------------------------------------

// Records each OnBin with its wall time; the per-bin pairing with the
// bin's last hand-over happens in run.py (stats.pair_lags).
class LagObserver final : public shedmon::api::BinObserver {
 public:
  explicit LagObserver(uint64_t origin_ns) : origin_ns_(origin_ns) {}
  void OnBin(const core::BinLog& /*log*/, const shedmon::api::BinStats& stats) override {
    events.emplace_back(stats.bin_index, static_cast<int64_t>(NowNs() - origin_ns_));
  }
  void set_origin(uint64_t origin_ns) { origin_ns_ = origin_ns; }

  std::vector<std::pair<uint64_t, int64_t>> events;

 private:
  uint64_t origin_ns_;
};

struct HistSum {
  double sum = 0.0;
  uint64_t count = 0;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
};

struct Pass {
  std::string kind;  // "push", "capture" or "offline" (capture's Push replica)
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Sample> samples;
  double rss_peak_mb = 0.0;
  bool rss_reset_ok = false;
  uint64_t offered = 0;
  uint64_t delivered = 0;
  uint64_t bins = 0;
  uint64_t expected_bins = 0;
  std::map<std::string, uint64_t> drops;
  double mean_accuracy = 0.0;
  double min_accuracy = 0.0;
  uint64_t binlog_hash = 0;
  std::vector<std::pair<uint64_t, int64_t>> handover;  // (bin, ns since start)
  std::vector<std::pair<uint64_t, int64_t>> onbin;
  std::vector<std::string> failed_checks;
  std::vector<std::string> notes;
  // BinLog-derived shares.
  double shed_packets = 0.0;
  uint64_t packets_in = 0;
  uint64_t overload_bins = 0;
  double abs_error_sum = 0.0;
  uint64_t abs_error_n = 0;
  uint64_t copied_bytes = 0;
  // Outside timing of the public calls: sampled non-closing Push calls and
  // every closing one.
  double push_ns_sum = 0.0;
  uint64_t push_n = 0;
  std::vector<double> close_ms;
  // Exported metrics (traced passes only).
  std::map<std::string, HistSum> stage_us;
  HistSum task_s;
  HistSum wave_s;
  double tasks_total = 0.0;
  uint64_t spans_dropped = 0;
  // capture-replay only
  double blocked_send_s = 0.0;
  double drain_us_sum = 0.0;
};

uint64_t Fnv(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

template <typename T>
uint64_t FnvValue(uint64_t h, T v) {
  return Fnv(h, &v, sizeof(v));
}

uint64_t HashBinLog(uint64_t h, const core::BinLog& b) {
  h = FnvValue(h, b.start_us);
  h = FnvValue(h, static_cast<uint64_t>(b.packets_in));
  h = FnvValue(h, static_cast<uint64_t>(b.packets_dropped));
  h = FnvValue(h, b.packets_unsampled);
  h = FnvValue(h, static_cast<uint8_t>(b.batch_dropped));
  h = FnvValue(h, static_cast<uint8_t>(b.overload));
  for (const double v : {b.predicted_cycles, b.avail_cycles, b.query_cycles, b.ps_cycles,
                         b.ls_cycles, b.como_cycles, b.backlog_cycles, b.rtthresh,
                         b.deadline_overrun_us}) {
    h = FnvValue(h, v);
  }
  for (const double v : b.rate) {
    h = FnvValue(h, v);
  }
  for (const double v : b.per_query_cycles) {
    h = FnvValue(h, v);
  }
  for (const bool v : b.disabled) {
    h = FnvValue(h, static_cast<uint8_t>(v));
  }
  h = FnvValue(h, b.degradation);
  h = FnvValue(h, static_cast<uint8_t>(b.deadline_missed));
  return h;
}

bool SameBinLog(const core::BinLog& a, const core::BinLog& b) {
  return HashBinLog(14695981039346656037ULL, a) == HashBinLog(14695981039346656037ULL, b);
}

// Everything read back from a finished pipeline: results, accounting,
// checks and (when traced) the exported stage metrics.
void Collect(Pipeline& p, Pass* pass) {
  const auto& log = p.log();
  pass->bins = log.size();
  uint64_t h = 14695981039346656037ULL;
  uint64_t dropped = 0;
  for (const core::BinLog& b : log) {
    h = HashBinLog(h, b);
    pass->packets_in += b.packets_in;
    dropped += b.packets_dropped;
    pass->shed_packets += b.packets_unsampled;
    pass->overload_bins += b.overload ? 1 : 0;
    // Prediction error where it is observable from a BinLog: in bins that
    // ran every query unshed, the predicted demand and the measured query
    // cycles describe the same work.
    const bool unshed =
        std::all_of(b.rate.begin(), b.rate.end(), [](double r) { return r >= 1.0; }) &&
        std::none_of(b.disabled.begin(), b.disabled.end(), [](bool d) { return d; });
    if (unshed && b.query_cycles > 1e-9 && b.predicted_cycles > 1e-9) {
      pass->abs_error_sum += std::abs(b.predicted_cycles - b.query_cycles) / b.query_cycles;
      ++pass->abs_error_n;
    }
  }
  pass->mean_accuracy = p.AverageAccuracy();
  pass->min_accuracy = p.MinimumAccuracy();
  h = FnvValue(h, pass->mean_accuracy);
  h = FnvValue(h, pass->min_accuracy);
  pass->binlog_hash = h;
  pass->delivered = pass->packets_in - dropped;
  pass->drops["uncontrolled"] = dropped;
  const shedmon::api::PipelineStats stats = p.Stats();
  pass->drops["ingest"] = stats.ingest_dropped;
  pass->copied_bytes = stats.ingest_copied_bytes;
  if (stats.packets != pass->packets_in || stats.dropped != dropped) {
    pass->failed_checks.push_back("stats_match_binlogs");
  }
  if (!(pass->mean_accuracy >= 0.0 && pass->mean_accuracy <= 1.0 && pass->min_accuracy >= 0.0 &&
        pass->min_accuracy <= pass->mean_accuracy + 1e-12)) {
    pass->failed_checks.push_back("accuracy_range");
  }
  if (p.tracer() != nullptr) {
    pass->spans_dropped = p.tracer()->dropped();
  }
  if (!pass->traced) {
    return;
  }
  const obs::MetricsSnapshot snap = p.Metrics().Snapshot();
  for (const obs::MetricSample& s : snap.samples) {
    const auto to_sum = [&](HistSum* out) {
      out->sum = s.histogram.sum;
      out->count = s.histogram.count;
      out->bounds = s.histogram.bounds;
      out->buckets = s.histogram.counts;
    };
    if (s.name == "shedmon_stage_wall_us") {
      const auto it = s.labels.find("stage");
      if (it != s.labels.end()) {
        to_sum(&pass->stage_us[it->second]);
      }
    } else if (s.name == "shedmon_exec_task_seconds") {
      to_sum(&pass->task_s);
    } else if (s.name == "shedmon_exec_wave_seconds") {
      to_sum(&pass->wave_s);
    } else if (s.name == "shedmon_exec_tasks_total") {
      pass->tasks_total = s.value;
    }
  }
}

void CheckConservation(Pass* pass) {
  uint64_t accounted = pass->delivered;
  for (const auto& [reason, n] : pass->drops) {
    accounted += n;
  }
  if (accounted != pass->offered) {
    pass->failed_checks.push_back("packet_conservation");
  }
}

// ---------------------------------------------------------------------------
// Push workloads: closed loop, one pass = Build + push whole trace + Finish
// ---------------------------------------------------------------------------

Pass RunPushPass(const PipelineBuilder& builder, const Input& in, bool traced, const char* kind) {
  const size_t num_packets = in.packets.size();
  Pass pass;
  pass.kind = kind;
  pass.traced = traced;
  malloc_trim(0);
  pass.rss_reset_ok = ResetPeakRss();
  const long rss_before = StatusKb("VmRSS");

  const uint64_t b0 = NowNs();
  std::unique_ptr<Pipeline> p = builder.BuildUnique();
  LagObserver lag(b0);
  p->AddObserver(&lag);
  const uint64_t b1 = NowNs();
  pass.setup_s = static_cast<double>(b1 - b0) * 1e-9;

  Sampler sampler;
  const uint64_t start = sampler.start();
  lag.set_origin(start);
  pass.handover.reserve(num_packets / 64 + 16);
  pass.close_ms.reserve(num_packets / 64 + 16);
  // Traced and untraced passes run this same loop, so they differ only in
  // Tracing(true). Push is timed from outside only where that is cheap
  // against the work: the Push that closes a bin (the first packet of the
  // next one), and every kPushSampleEvery-th other Push. The sampler runs
  // before a bin's hand-over is stamped, so its cost stays out of the lag.
  constexpr size_t kPushSampleEvery = 64;
  for (size_t i = 0; i < num_packets; ++i) {
    if (in.last_of_bin[i] != 0) {
      sampler.MaybeTake(NowNs(), i);
      pass.handover.emplace_back(in.bin_of[i], static_cast<int64_t>(NowNs() - start));
    }
    const bool closes = i > 0 && in.last_of_bin[i - 1] != 0;
    if (!closes && i % kPushSampleEvery != 0) {
      p->Push(in.packets[i]);
      continue;
    }
    const uint64_t a = NowNs();
    p->Push(in.packets[i]);
    const uint64_t b = NowNs();
    if (closes) {
      pass.close_ms.push_back(static_cast<double>(b - a) * 1e-6);
    } else {
      pass.push_ns_sum += static_cast<double>(b - a);
      ++pass.push_n;
    }
  }
  p->Finish();
  const uint64_t end = NowNs();
  sampler.Take(end, num_packets);
  pass.samples = sampler.samples();
  pass.wall_s = static_cast<double>(end - start) * 1e-9;
  pass.cpu_s = pass.samples.back().cpu_s;
  const long hwm = StatusKb("VmHWM");
  pass.rss_peak_mb = static_cast<double>(hwm - rss_before) / 1024.0;
  pass.onbin = std::move(lag.events);
  pass.offered = num_packets;
  Collect(*p, &pass);
  pass.expected_bins = num_packets == 0 ? 0 : in.bin_of[num_packets - 1] + 1;
  if (pass.bins != pass.expected_bins) {
    pass.failed_checks.push_back("bin_count");
  }
  CheckConservation(&pass);
  p.reset();
  return pass;
}

// ---------------------------------------------------------------------------
// capture-replay: a forked generator streams pre-synthesized TCP-framed
// records into the live capture front-end (Pipeline::StartCapture, what
// PipelineBuilder::CaptureFrom runs) at the shipping defaults.
// ---------------------------------------------------------------------------

bool WriteAll(int fd, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = write(fd, p, len);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t len) {
  auto* p = static_cast<uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = read(fd, p, len);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

void PutBe32(std::vector<uint8_t>& out, uint32_t v) {
  for (int s = 24; s >= 0; s -= 8) {
    out.push_back(static_cast<uint8_t>(v >> s));
  }
}

void PutBe64(std::vector<uint8_t>& out, uint64_t v) {
  for (int s = 56; s >= 0; s -= 8) {
    out.push_back(static_cast<uint8_t>(v >> s));
  }
}

// What the generator reports after streaming once.
struct GenReport {
  uint64_t sent = 0;
  uint64_t first_send_ns = 0;
  uint64_t blocked_ns = 0;
  std::vector<std::pair<uint64_t, uint64_t>> bin_last_sent;  // (bin, absolute ns)
};

// Child side. Commands on ctl: 'P' + u16 port = stream to that port until
// the trace ends or 'S' arrives; 'Q' = exit. Replies on res: 'R' once the
// frames are synthesized, then one report per stream.
[[noreturn]] void GeneratorMain(const Input& in, int ctl, int res) {
  std::vector<uint8_t> stream;
  std::vector<size_t> record_end;
  record_end.reserve(in.trace.packets.size());
  for (const net::PacketRecord& rec : in.trace.packets) {
    const std::vector<uint8_t> frame = trace::SynthesizeFrame(rec);
    PutBe32(stream, capture::kStreamMagic);
    PutBe32(stream, static_cast<uint32_t>(frame.size()));
    PutBe64(stream, rec.ts_us);
    stream.insert(stream.end(), frame.begin(), frame.end());
    record_end.push_back(stream.size());
  }
  const char ready = 'R';
  if (!WriteAll(res, &ready, 1)) {
    _exit(2);
  }
  for (;;) {
    char cmd = 0;
    if (!ReadAll(ctl, &cmd, 1) || cmd == 'Q') {
      _exit(0);
    }
    if (cmd != 'P') {
      continue;
    }
    uint16_t port = 0;
    if (!ReadAll(ctl, &port, sizeof(port))) {
      _exit(2);
    }
    GenReport rep;
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 || (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
                   errno != EINPROGRESS)) {
      _exit(3);
    }
    size_t off = 0;
    size_t rec = 0;
    bool stop = false;
    const size_t n = record_end.size();
    while (rec < n && !stop) {
      const ssize_t w = send(fd, stream.data() + off, record_end[rec] - off, MSG_NOSIGNAL);
      if (w > 0) {
        if (rep.first_send_ns == 0) {
          rep.first_send_ns = NowNs();
        }
        off += static_cast<size_t>(w);
        while (rec < n && off >= record_end[rec]) {
          if (in.last_of_bin[rec] != 0) {
            rep.bin_last_sent.emplace_back(in.bin_of[rec], NowNs());
          }
          ++rec;
          if ((rec & 63) == 0) {
            pollfd pc{ctl, POLLIN, 0};
            if (poll(&pc, 1, 0) > 0) {
              stop = true;  // the 'S' byte is consumed below
              break;
            }
          }
        }
        continue;
      }
      if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != ENOTCONN &&
          errno != EINTR) {
        _exit(4);
      }
      // The socket is full: the receiver stalls. Wait for room or a stop.
      const uint64_t b0 = NowNs();
      pollfd fds[2] = {{fd, POLLOUT, 0}, {ctl, POLLIN, 0}};
      const int pr = poll(fds, 2, 1000);
      if (rep.first_send_ns != 0) {
        rep.blocked_ns += NowNs() - b0;
      }
      if (pr > 0 && (fds[1].revents & POLLIN) != 0) {
        stop = true;
      }
    }
    // Stop only at a record boundary so the stream stays well framed.
    if (stop && off != (rec == 0 ? 0 : record_end[rec - 1])) {
      while (rec < n && off < record_end[rec]) {
        const ssize_t w = send(fd, stream.data() + off, record_end[rec] - off, MSG_NOSIGNAL);
        if (w > 0) {
          off += static_cast<size_t>(w);
        } else {
          pollfd pw{fd, POLLOUT, 0};
          const uint64_t b0 = NowNs();
          poll(&pw, 1, 1000);
          rep.blocked_ns += NowNs() - b0;
        }
      }
      if (in.last_of_bin[rec] != 0) {
        rep.bin_last_sent.emplace_back(in.bin_of[rec], NowNs());
      }
      ++rec;
    }
    if (stop) {
      char s = 0;
      (void)ReadAll(ctl, &s, 1);
    }
    rep.sent = rec;
    shutdown(fd, SHUT_WR);
    close(fd);
    const uint64_t head[4] = {rep.sent, rep.first_send_ns, rep.blocked_ns,
                              rep.bin_last_sent.size()};
    bool ok = WriteAll(res, head, sizeof(head));
    for (const auto& [bin, t] : rep.bin_last_sent) {
      const uint64_t pair[2] = {bin, t};
      ok = ok && WriteAll(res, pair, sizeof(pair));
    }
    if (!ok) {
      _exit(5);
    }
  }
}

class Generator {
 public:
  explicit Generator(const Input& in) {
    int ctl[2];
    int res[2];
    if (pipe(ctl) != 0 || pipe(res) != 0) {
      throw std::runtime_error("generator: pipe failed");
    }
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ < 0) {
      throw std::runtime_error("generator: fork failed");
    }
    if (pid_ == 0) {
      close(ctl[1]);
      close(res[0]);
      GeneratorMain(in, ctl[0], res[1]);
    }
    close(ctl[0]);
    close(res[1]);
    ctl_ = ctl[1];
    res_ = res[0];
    char ready = 0;
    if (!ReadAll(res_, &ready, 1) || ready != 'R') {
      throw std::runtime_error("generator: child failed while synthesizing frames");
    }
  }
  ~Generator() {
    if (pid_ > 0) {
      const char q = 'Q';
      (void)WriteAll(ctl_, &q, 1);
      close(ctl_);
      close(res_);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void Start(uint16_t port) {
    char msg[3] = {'P', 0, 0};
    std::memcpy(msg + 1, &port, sizeof(port));
    if (!WriteAll(ctl_, msg, sizeof(msg))) {
      throw std::runtime_error("generator: control pipe closed");
    }
  }
  void Stop() {
    const char s = 'S';
    (void)WriteAll(ctl_, &s, 1);
  }
  // True once the stream report is available (waits up to timeout_ms).
  bool ReportReady(int timeout_ms) const {
    pollfd p{res_, POLLIN, 0};
    return poll(&p, 1, timeout_ms) > 0;
  }
  GenReport ReadReport() {
    GenReport rep;
    uint64_t head[4];
    if (!ReadAll(res_, head, sizeof(head))) {
      throw std::runtime_error("generator: stream failed (no report)");
    }
    rep.sent = head[0];
    rep.first_send_ns = head[1];
    rep.blocked_ns = head[2];
    rep.bin_last_sent.resize(head[3]);
    for (auto& pair : rep.bin_last_sent) {
      uint64_t v[2];
      if (!ReadAll(res_, v, sizeof(v))) {
        throw std::runtime_error("generator: truncated report");
      }
      pair = {v[0], v[1]};
    }
    return rep;
  }
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int ctl_ = -1;
  int res_ = -1;
};

// Thrown when the capture watchdog fires; main() reports it as a failed run.
struct Stalled : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// A capture run in which no frame is accepted for this long has stalled for
// good (the slot stall in perfbench/README.md) and fails instead of hanging.
constexpr double kWatchdogS = 45.0;

Pass RunCapturePass(const PipelineBuilder& base, const Input& in, bool traced, double budget_s,
                    Generator& gen) {
  constexpr int kSetupReps = 5;
  Pass pass;
  pass.kind = "capture";
  pass.traced = traced;
  capture::CaptureConfig cfg;  // shipping defaults: slots, queue, late slack
  cfg.sources.push_back(capture::SourceSpec::Tcp(0));
  const uint64_t watchdog_ns = static_cast<uint64_t>(kWatchdogS * 1e9);
  // Set-up samples: Build(), then StartCapture() binds the listener and
  // starts the capture threads (after the observer is attached, so the
  // capture thread sees it). The last build is the live one.
  LagObserver lag(0);
  std::vector<double> setups;
  std::unique_ptr<Pipeline> p;
  long rss_before = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    p.reset();
    malloc_trim(0);
    if (r == kSetupReps - 1) {
      pass.rss_reset_ok = ResetPeakRss();
    }
    rss_before = StatusKb("VmRSS");
    const uint64_t b0 = NowNs();
    p = base.BuildUnique();
    p->AddObserver(&lag);
    p->StartCapture(cfg);
    setups.push_back(static_cast<double>(NowNs() - b0) * 1e-9);
  }
  std::sort(setups.begin(), setups.end());
  pass.setup_s = setups[setups.size() / 2];

  const uint16_t port = p->capture()->port(0);
  const double cpu0 = ProcessCpuS();
  const uint64_t steal0 = StealTicks();
  const uint64_t t0 = NowNs();
  gen.Start(port);
  bool stop_sent = false;
  uint64_t last_progress = NowNs();
  uint64_t last_seen = 0;
  while (!gen.ReportReady(10)) {
    const uint64_t now = NowNs();
    const capture::CaptureStats cs = p->capture_stats();
    if (cs.frames != last_seen) {
      last_seen = cs.frames;
      last_progress = now;
    }
    if (!stop_sent && static_cast<double>(now - t0) * 1e-9 >= budget_s) {
      gen.Stop();
      stop_sent = true;
    }
    if (now - last_progress > watchdog_ns) {
      gen.Kill();
      (void)p.release();  // its capture threads may never join
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "capture-replay: watchdog: no frame accepted for %.0f s after %llu frames "
                    "(generator blocked, capture slots never released)",
                    kWatchdogS, static_cast<unsigned long long>(last_seen));
      throw Stalled(msg);
    }
  }
  const GenReport rep = gen.ReadReport();
  // Every sent frame must be taken off the socket and either pushed or
  // counted as dropped before the sources stop, or it would vanish silently.
  last_progress = NowNs();
  for (;;) {
    const capture::CaptureStats cs = p->capture_stats();
    if (cs.packets + cs.dropped() >= rep.sent) {
      break;
    }
    const uint64_t now = NowNs();
    if (cs.frames != last_seen) {
      last_seen = cs.frames;
      last_progress = now;
    }
    if (now - last_progress > watchdog_ns) {
      (void)p.release();
      throw Stalled("capture-replay: watchdog: sent frames never drained (slots never released)");
    }
    usleep(1000);
  }
  p->StopCapture();
  p->Finish();
  const uint64_t end = NowNs();
  const double cpu1 = ProcessCpuS();
  pass.rss_peak_mb = static_cast<double>(StatusKb("VmHWM") - rss_before) / 1024.0;

  const uint64_t origin = rep.first_send_ns != 0 ? rep.first_send_ns : t0;
  pass.wall_s = static_cast<double>(end - origin) * 1e-9;
  pass.cpu_s = cpu1 - cpu0;
  // One window: the whole pass, from the first frame sent.
  pass.samples = {Sample{}, Sample{static_cast<int64_t>(end - origin), rep.sent, pass.cpu_s,
                                   StealTicks() - steal0}};
  pass.offered = rep.sent;
  pass.blocked_send_s = static_cast<double>(rep.blocked_ns) * 1e-9;
  for (const auto& [bin, t] : rep.bin_last_sent) {
    pass.handover.emplace_back(bin, static_cast<int64_t>(t) - static_cast<int64_t>(origin));
  }
  for (const auto& [bin, t] : lag.events) {
    pass.onbin.emplace_back(bin, t - static_cast<int64_t>(origin));
  }
  Collect(*p, &pass);
  const capture::CaptureStats cs = p->capture_stats();
  pass.drops["queue"] = cs.dropped_queue;
  pass.drops["no_slot"] = cs.dropped_no_slot;
  pass.drops["late"] = cs.dropped_late;
  pass.drops["decode"] = cs.dropped_decode;
  if (cs.frames != rep.sent) {
    pass.failed_checks.push_back("capture_frames_match_sent");
  }
  const auto cap = pass.stage_us.find("capture");
  pass.drain_us_sum = cap != pass.stage_us.end() ? cap->second.sum : 0.0;
  // Wall-clock binning may close empty bins past the last packet; every bin
  // up to the last sent packet's must exist.
  pass.expected_bins = rep.sent == 0 ? 0 : in.bin_of[rep.sent - 1] + 1;
  bool trailing_empty = true;
  for (size_t b = pass.expected_bins; b < p->log().size(); ++b) {
    trailing_empty = trailing_empty && p->log()[b].packets_in == 0;
  }
  if (pass.bins < pass.expected_bins || !trailing_empty) {
    pass.failed_checks.push_back("bin_count");
  }
  CheckConservation(&pass);

  // Results must equal an offline Push of the packets that got in. Frames
  // travel in order on one stream, so a late drop is always the tail of a
  // bin that wall-clock time already closed: bin b kept its first
  // packets_in packets. Other losses leave no such record; then the
  // comparison is skipped (and noted).
  if (cs.dropped_queue + cs.dropped_no_slot + cs.dropped_decode == 0 && rep.sent > 0) {
    const auto& live = p->log();
    std::unique_ptr<Pipeline> offline = base.BuildUnique();
    uint64_t bin = 0;
    uint64_t taken = 0;
    for (size_t i = 0; i < rep.sent; ++i) {
      if (in.bin_of[i] != bin) {
        bin = in.bin_of[i];
        taken = 0;
      }
      if (bin < live.size() && taken < live[bin].packets_in) {
        offline->Push(net::Packet::View(in.trace.packets[i]));
        ++taken;
      }
    }
    offline->Finish();
    const auto& a = offline->log();
    bool same = a.size() <= live.size() && offline->AverageAccuracy() == p->AverageAccuracy() &&
                offline->MinimumAccuracy() == p->MinimumAccuracy();
    for (size_t i = 0; same && i < a.size(); ++i) {
      same = SameBinLog(a[i], live[i]);
    }
    if (!same) {
      pass.failed_checks.push_back("capture_equals_offline_push");
    }
    pass.notes.push_back("offline_push_compared");
  } else {
    pass.notes.push_back("offline_push_skipped_losses");
  }
  p.reset();
  return pass;
}

// net::DecodeEthernetFrame over the workload's own frames, timed from
// outside (median of 5 sweeps).
double DecodeNsPerPkt(const Input& in) {
  const size_t n = std::min<size_t>(in.trace.packets.size(), 50'000);
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    frames.push_back(trace::SynthesizeFrame(in.trace.packets[i]));
  }
  std::vector<double> sweeps;
  uint64_t ok = 0;
  for (int r = 0; r < 5; ++r) {
    const uint64_t t0 = NowNs();
    for (const auto& f : frames) {
      net::DecodedFrame out;
      ok += net::DecodeEthernetFrame(f.data(), f.size(), &out) == net::FrameDecodeStatus::kOk;
    }
    const double ns = static_cast<double>(NowNs() - t0);
    sweeps.push_back(ns / static_cast<double>(std::max<size_t>(n, 1)));
  }
  if (ok != 5 * n) {
    throw std::runtime_error("net::DecodeEthernetFrame rejected a synthesized frame");
  }
  std::sort(sweeps.begin(), sweeps.end());
  return sweeps[2];
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void WriteHist(Json& j, const std::string& key, const HistSum& h) {
  j.Key(key).Begin('{').F("sum", h.sum).I("count", h.count).Key("bounds").Begin('[');
  for (const double b : h.bounds) {
    j.Num(b);
  }
  j.End(']').Key("buckets").Begin('[');
  for (const uint64_t c : h.buckets) {
    j.Int(c);
  }
  j.End(']').End('}');
}

void WritePairs(Json& j, const std::string& key,
                const std::vector<std::pair<uint64_t, int64_t>>& pairs) {
  j.Key(key).Begin('[');
  for (const auto& [bin, t] : pairs) {
    j.Begin('[').Int(bin).Num(static_cast<double>(t)).End(']');
  }
  j.End(']');
}

void WritePass(Json& j, const Pass& p) {
  j.Begin('{');
  j.Key("kind").Str(p.kind).Key("traced").Bool(p.traced);
  j.F("setup_s", p.setup_s).F("wall_s", p.wall_s).F("cpu_s", p.cpu_s);
  j.F("rss_peak_mb", p.rss_peak_mb).Key("rss_reset_ok").Bool(p.rss_reset_ok);
  j.I("offered", p.offered).I("delivered", p.delivered).I("packets_in", p.packets_in);
  j.I("bins", p.bins).I("expected_bins", p.expected_bins);
  j.Key("drops").Begin('{');
  for (const auto& [reason, n] : p.drops) {
    j.I(reason, n);
  }
  j.End('}');
  j.F("mean_accuracy", p.mean_accuracy).F("min_accuracy", p.min_accuracy);
  j.Key("binlog_hash").Str(std::to_string(p.binlog_hash));
  j.F("shed_packets", p.shed_packets).I("overload_bins", p.overload_bins);
  j.F("abs_error_sum", p.abs_error_sum).I("abs_error_n", p.abs_error_n);
  j.I("copied_bytes", p.copied_bytes);
  j.F("push_ns_sum", p.push_ns_sum).I("push_n", p.push_n);
  j.Key("close_ms").Begin('[');
  for (const double v : p.close_ms) {
    j.Num(v);
  }
  j.End(']');
  j.Key("stage_us").Begin('{');
  for (const auto& [stage, h] : p.stage_us) {
    WriteHist(j, stage, h);
  }
  j.End('}');
  WriteHist(j, "exec_task_s", p.task_s);
  WriteHist(j, "exec_wave_s", p.wave_s);
  j.F("exec_tasks_total", p.tasks_total).I("spans_dropped", p.spans_dropped);
  j.F("blocked_send_s", p.blocked_send_s).F("drain_us_sum", p.drain_us_sum);
  j.Key("failed_checks").Begin('[');
  for (const auto& c : p.failed_checks) {
    j.Str(c);
  }
  j.End(']').Key("notes").Begin('[');
  for (const auto& c : p.notes) {
    j.Str(c);
  }
  j.End(']');
  j.Key("samples").Begin('[');
  for (const Sample& x : p.samples) {
    j.Begin('[').Num(static_cast<double>(x.t_ns)).Int(x.packets).Num(x.cpu_s).Int(x.steal_ticks);
    j.End(']');
  }
  j.End(']');
  WritePairs(j, "handover", p.handover);
  WritePairs(j, "onbin", p.onbin);
  j.End('}');
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->out.empty() && a->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // A generator that died must show up as a failed run, not kill the
  // benchmark when it writes to the closed control pipe.
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) || !MakeWorkload(args.workload, args.seed, &w)) {
    std::fprintf(stderr,
                 "usage: shedmon_perfbench --workload overload-payload|fullrate-headers|"
                 "capture-replay --seed N --seconds S --trace 0|1 --workdir DIR --out FILE\n");
    return 2;
  }
  Input in;
  PrepareInput(w, &in);
  const std::string csv = args.workdir + "/" + w.name + ".csv";
  const PipelineBuilder untraced = MakeBuilder(w, in, csv);
  PipelineBuilder traced_builder = untraced;
  traced_builder.Tracing(true);

  std::vector<Pass> passes;
  std::string error;
  double decode_ns = 0.0;
  const uint64_t begin = NowNs();
  const auto elapsed_s = [&] { return static_cast<double>(NowNs() - begin) * 1e-9; };
  try {
    if (args.trace) {
      decode_ns = DecodeNsPerPkt(in);
    }
    if (!w.capture) {
      // Untraced and traced passes alternate in a traced run, so both sides
      // see the same machine state.
      bool next_traced = false;
      do {
        const bool traced = args.trace && next_traced;
        passes.push_back(RunPushPass(traced ? traced_builder : untraced, in, traced, "push"));
        next_traced = !next_traced;
      } while (elapsed_s() < args.seconds || (args.trace && passes.size() < 2));
    } else {
      Generator gen(in);
      const int modes = args.trace ? 2 : 1;
      for (int m = 0; m < modes; ++m) {
        const bool traced = m == 1;
        const double budget = std::max(1.0, (args.seconds - elapsed_s()) / (modes - m));
        passes.push_back(
            RunCapturePass(traced ? traced_builder : untraced, in, traced, budget, gen));
      }
      if (args.trace) {
        // The Push API numbers for this workload come from offline Push
        // replicas of the same trace, one untraced and one traced.
        for (const bool traced : {false, true}) {
          passes.push_back(RunPushPass(traced ? traced_builder : untraced, in, traced, "offline"));
        }
      }
    }
  } catch (const Stalled& e) {
    error = e.what();
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }

  Json j;
  j.Begin('{');
  j.Key("workload").Str(w.name).I("seed", args.seed).F("seconds", args.seconds);
  j.Key("trace").Bool(args.trace).Key("error").Str(error);
  j.F("gen_s", in.gen_s).F("input_rss_mb", in.rss_mb).I("trace_packets", in.trace.packets.size());
  j.F("demand_cycles", in.demand).F("decode_ns_per_pkt", decode_ns);
  j.I("threads", w.threads).I("shards", w.shards).I("bin_us", kBinUs);
  j.Key("passes").Begin('[');
  for (const Pass& p : passes) {
    WritePass(j, p);
  }
  j.End(']').End('}');
  std::ofstream out(args.out);
  out << j.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    // A stalled capture may hold threads that never join; leave without
    // running destructors.
    std::fflush(nullptr);
    _exit(3);
  }
  return 0;
}
