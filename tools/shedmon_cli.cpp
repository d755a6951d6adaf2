// shedmon — command-line front end to the library.
//
//   shedmon generate --preset cesca2 --duration 30 --seed 7 --out t.smt
//   shedmon info t.smt
//   shedmon export-pcap t.smt t.pcap
//   shedmon inject-ddos t.smt --start 10 --duration 5 --pps 3000 --out t2.smt
//   shedmon run t.smt --queries counter,flows --k 0.5 --strategy mmfs_pkt
//   shedmon capture --listen-udp 0 --queries counter,flows --capacity 5e6
//   shedmon replay t.smt --udp 9000 --pps 20000
//
// `run` executes the full predictive load-shedding pipeline over a saved
// trace and reports per-query accuracy against an unsampled reference plus
// the shedding statistics — the same loop every bench uses. `capture` runs
// the same pipeline against live input (loopback UDP/TCP listeners or a
// growing pcap file) and `replay` feeds a saved trace into it.

#include <cstdio>
#include <cstring>
#include <csignal>
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/config.h"
#include "src/api/pipeline.h"
#include "src/capture/capture.h"
#include "src/capture/replay.h"
#include "src/obs/prometheus.h"
#include "src/core/runner.h"
#include "src/rt/clock.h"
#include "src/query/queries.h"
#include "src/trace/anomaly.h"
#include "src/trace/generator.h"
#include "src/trace/pcap.h"
#include "src/trace/spec.h"
#include "src/trace/trace_io.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using namespace shedmon;

// ----------------------------------------------------------- flag parsing --

class Flags;

// What a verb accepts on its command line.
struct Verb {
  std::string_view name;
  int (*run)(const Flags& flags);
  std::vector<std::string_view> flags;     // take a value: --flag V or --flag=V
  std::vector<std::string_view> switches;  // boolean: --flag, or --flag=V
  // Also accept every pipeline key's flag from the config table
  // (src/api/config.h); those become settings, applied in argv order.
  bool pipeline_keys;
};

bool Contains(const std::vector<std::string_view>& names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

// Throws ConfigError on a flag the verb does not declare or a missing value.
class Flags {
 public:
  Flags(int argc, char** argv, const Verb& verb) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
      const api::ConfigKey* key = verb.pipeline_keys ? api::FindFlag(name) : nullptr;
      const bool is_switch = key != nullptr ? key->boolean : Contains(verb.switches, name);
      if (key == nullptr && !is_switch && !Contains(verb.flags, name)) {
        throw ConfigError("unknown flag --" + name);
      }
      std::string value = "true";
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else if (!is_switch) {
        if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
          throw ConfigError("--" + name + " needs a value");
        }
        value = argv[++i];
      }
      if (key != nullptr) {
        settings_.push_back({key, value, "--" + name});
      }
      values_[name] = value;
    }
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    return Has(key) ? api::ParseNumber("--" + key, Get(key)) : fallback;
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    return Has(key) ? api::ParseUnsigned("--" + key, Get(key)) : fallback;
  }
  bool Switch(const std::string& key) const {
    return Has(key) && api::ParseBool("--" + key, Get(key));
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  const std::vector<std::string>& positional() const { return positional_; }
  const std::vector<api::Setting>& settings() const { return settings_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<api::Setting> settings_;
};

trace::TraceSpec PresetByName(const std::string& name) {
  if (name == "cesca1") {
    return trace::CescaI();
  }
  if (name == "cesca2") {
    return trace::CescaII();
  }
  if (name == "abilene") {
    return trace::Abilene();
  }
  if (name == "cenic") {
    return trace::Cenic();
  }
  if (name == "upc1") {
    return trace::UpcI();
  }
  throw std::invalid_argument("unknown preset '" + name +
                              "' (cesca1|cesca2|abilene|cenic|upc1)");
}

int Usage() {
  std::printf(
      "usage: shedmon <command> [flags]\n"
      "\n"
      "  generate    --preset P [--duration S] [--seed N] [--flows-per-s F]\n"
      "              [--burstiness B] --out FILE [--pcap FILE]\n"
      "  info        FILE\n"
      "  export-pcap FILE OUT.pcap [--snaplen N]\n"
      "  inject-ddos FILE --out FILE [--start S] [--duration S] [--pps N]\n"
      "              [--on-off S] [--target-ip HEX]\n"
      "  run         FILE [--k 0.5] [--restore] [pipeline flags]\n"
      "  capture     --listen-udp PORT | --listen-tcp PORT | --follow-pcap FILE\n"
      "              --capacity CYCLES [--duration S] [--snap BYTES]\n"
      "              [--queue N] [--overflow block|drop-newest|drop-oldest]\n"
      "              [--late-slack-us N] [pipeline flags]\n"
      "  replay      FILE --udp PORT | --tcp PORT [--pps N]\n"
      "  queries     (list available queries and their default min rates)\n"
      "\n"
      "run provisions (1 - K) x the trace's measured demand per bin; capture\n"
      "takes an absolute --capacity and runs until --duration S or SIGINT/TERM.\n"
      "Port 0 binds a free port (printed). Both take the pipeline flags, each\n"
      "also a config-file key (src/api/config.h), applied over the defaults\n"
      "--strategy mmfs_pkt --queries counter,flows,application, then over\n"
      "--config FILE, in order:\n"
      "  --queries a,b,c --bin-us N --capacity CYCLES --threads N\n"
      "  --shedder predictive|reactive|noshed|none --custom --oracle model|measured\n"
      "  --strategy eq_srates|mmfs_cpu|mmfs_pkt|eq|cpu|pkt\n"
      "  --csv FILE --jsonl FILE   per-bin rows\n"
      "  --deadline F              per-bin wall-clock budget of F x the bin;\n"
      "                            overruns climb a degradation ladder\n"
      "  --ingest-cap N            bound the open bin at N records; --ingest-policy\n"
      "                            drop-newest (default)|drop-oldest\n"
      "  --fault-plan SPEC         fault injection: 'seed=7,stall_bin=3:80000'\n"
      "  --sink-retries N          retry failed sink writes, then quarantine\n"
      "  --checkpoint FILE         crash-safe snapshots every --checkpoint-every\n"
      "                            bins; run --restore resumes from it\n"
      "  --serve PORT              HTTP /metrics /healthz /stats /trace\n"
      "plus --metrics-out FILE (Prometheus text at exit and on SIGUSR1) and\n"
      "--trace-out FILE (per-stage spans as Chrome trace-event JSON).\n"
      "Unknown flags, config keys and values exit 2 naming the culprit.\n");
  return 2;
}

// ------------------------------------------------------------- commands --

int CmdGenerate(const Flags& flags) {
  trace::TraceSpec spec = PresetByName(flags.Get("preset", "cesca2"));
  spec.duration_s = flags.GetDouble("duration", spec.duration_s);
  spec.seed = flags.GetU64("seed", spec.seed);
  spec.flows_per_s = flags.GetDouble("flows-per-s", spec.flows_per_s);
  spec.burstiness = flags.GetDouble("burstiness", spec.burstiness);
  const std::string out = flags.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  const trace::Trace t = trace::TraceGenerator(spec).Generate();
  SaveTrace(t, out);
  std::printf("wrote %zu packets (%.1f s of '%s') to %s\n", t.packets.size(),
              spec.duration_s, spec.name.c_str(), out.c_str());
  if (flags.Has("pcap")) {
    const size_t n = trace::ExportPcap(t, flags.Get("pcap"));
    std::printf("exported %zu frames to %s\n", n, flags.Get("pcap").c_str());
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "info: trace file required\n");
    return 2;
  }
  const trace::Trace t = trace::LoadTrace(flags.positional()[0]);
  uint64_t bytes = 0;
  std::map<net::AppClass, size_t> apps;
  std::map<uint32_t, uint64_t> talkers;
  for (const auto& rec : t.packets) {
    bytes += rec.wire_len;
    ++apps[rec.app];
    talkers[rec.tuple.src_ip] += rec.wire_len;
  }
  const double dur = static_cast<double>(t.duration_us()) * 1e-6;
  std::printf("trace:    %s\n", t.spec.name.c_str());
  std::printf("packets:  %zu (%.0f pkts/s)\n", t.packets.size(),
              static_cast<double>(t.packets.size()) / dur);
  std::printf("bytes:    %llu (%.2f Mb/s)\n", static_cast<unsigned long long>(bytes),
              static_cast<double>(bytes) * 8.0 / dur / 1e6);
  std::printf("duration: %.1f s\n\napplication mix (ground truth):\n", dur);
  for (const auto& [app, count] : apps) {
    std::printf("  %-10s %6.2f%%\n", std::string(net::AppClassName(app)).c_str(),
                100.0 * static_cast<double>(count) / static_cast<double>(t.packets.size()));
  }
  std::vector<std::pair<uint64_t, uint32_t>> top;
  for (const auto& [ip, b] : talkers) {
    top.emplace_back(b, ip);
  }
  std::sort(top.rbegin(), top.rend());
  std::printf("\ntop talkers by bytes:\n");
  for (size_t i = 0; i < top.size() && i < 5; ++i) {
    std::printf("  %-16s %llu\n", net::Ipv4ToString(top[i].second).c_str(),
                static_cast<unsigned long long>(top[i].first));
  }
  return 0;
}

int CmdExportPcap(const Flags& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "export-pcap: input and output files required\n");
    return 2;
  }
  const trace::Trace t = trace::LoadTrace(flags.positional()[0]);
  const size_t n = trace::ExportPcap(t, flags.positional()[1],
                                     static_cast<uint32_t>(flags.GetU64("snaplen", 0)));
  std::printf("exported %zu frames to %s\n", n, flags.positional()[1].c_str());
  return 0;
}

int CmdInjectDdos(const Flags& flags) {
  if (flags.positional().empty() || !flags.Has("out")) {
    std::fprintf(stderr, "inject-ddos: input file and --out required\n");
    return 2;
  }
  trace::Trace t = trace::LoadTrace(flags.positional()[0]);
  trace::DdosSpec ddos;
  ddos.start_s = flags.GetDouble("start", 10.0);
  ddos.duration_s = flags.GetDouble("duration", 5.0);
  ddos.pps = flags.GetDouble("pps", 3000.0);
  ddos.on_off_period_s = flags.GetDouble("on-off", 0.0);
  if (flags.Has("target-ip")) {
    ddos.target_ip = static_cast<uint32_t>(std::stoul(flags.Get("target-ip"), nullptr, 16));
  }
  InjectDdos(t, ddos, flags.GetU64("seed", 99));
  SaveTrace(t, flags.Get("out"));
  std::printf("injected DDoS (t=%.1f..%.1f s, %.0f pps) -> %s (%zu packets)\n",
              ddos.start_s, ddos.start_s + ddos.duration_s, ddos.pps,
              flags.Get("out").c_str(), t.packets.size());
  return 0;
}

// SIGUSR1 asks the run loop for a mid-run metrics dump; the handler only
// flips this flag, the dump itself happens between Push calls.
volatile std::sig_atomic_t g_metrics_dump_requested = 0;

void RequestMetricsDump(int) { g_metrics_dump_requested = 1; }

// SIGINT/SIGTERM ask the capture loop to stop; same flag-only discipline.
volatile std::sig_atomic_t g_stop_requested = 0;

void RequestStop(int) { g_stop_requested = 1; }

// Async-signal-safety: the handlers above only store to a volatile
// sig_atomic_t — no stdio, allocation or locks run in signal context.
void OnSignal(int signal, void (*handler)(int), int flags) {
  struct sigaction action = {};
  sigemptyset(&action.sa_mask);
  action.sa_handler = handler;
  action.sa_flags = flags;
  sigaction(signal, &action, nullptr);
}

void DumpMetrics(const Pipeline& pipeline, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "run: cannot write metrics to %s\n", path.c_str());
    return;
  }
  obs::PrometheusEncoder::Encode(pipeline.Metrics().Snapshot(), out);
}

// End-of-run report shared by `run` and `capture`: per-query accuracy table
// plus the packet tally.
void PrintResults(const Pipeline& pipeline) {
  util::Table table({"query", "min rate", "mean srate", "accuracy error"});
  for (size_t q = 0; q < pipeline.num_queries(); ++q) {
    const std::string& name = pipeline.system().query(q).name();
    util::RunningStats rate;
    for (const auto& bin : pipeline.log()) {
      if (q < bin.rate.size()) {
        rate.Add(bin.rate[q]);
      }
    }
    std::string accuracy = "-";
    try {
      const auto acc = pipeline.AccuracyAt(q);
      accuracy = util::FmtPercent(acc.mean_error, 2) + " ±" +
                 util::Fmt(acc.stdev_error * 100.0, 2);
    } catch (const std::logic_error&) {
      // No reference tracked (config file with track_accuracy = false).
    }
    table.AddRow({name, util::Fmt(core::DefaultMinRate(name), 2), util::Fmt(rate.mean(), 2),
                  accuracy});
  }
  table.Print(std::cout);
  std::printf("\npackets: %llu in, %llu uncontrolled drops (%.2f%%)\n",
              static_cast<unsigned long long>(pipeline.total_packets()),
              static_cast<unsigned long long>(pipeline.total_dropped()),
              100.0 * static_cast<double>(pipeline.total_dropped()) /
                  std::max<double>(1.0, static_cast<double>(pipeline.total_packets())));
}

uint16_t PortFlag(const Flags& flags, const std::string& name) {
  const uint64_t port = flags.GetU64(name, 0);
  if (port > 65535) {
    throw ConfigError("--" + name + ": expected a port (0-65535), got '" + flags.Get(name) + "'");
  }
  return static_cast<uint16_t>(port);
}

// `run` and `capture` share everything but their input: a saved trace pushed
// record by record, or live sources whose consumer thread drives Push and
// AdvanceTime while this thread waits for a signal or --duration.
int CmdPipeline(const Flags& flags, bool live) {
  const char* verb = live ? "capture" : "run";
  // One defaults list for both verbs, applied before --config and the flags.
  const api::Setting defaults[] = {
      {api::FindKey("system.strategy"), "mmfs_pkt", "default strategy"},
      {api::FindKey("queries.add"), "counter,flows,application", "default queries"}};
  PipelineBuilder builder;
  api::ApplySettings(builder, defaults);
  if (flags.Has("config")) {
    api::ApplySettings(builder, api::ReadConfigFile(flags.Get("config")));
  }
  api::ApplySettings(builder, flags.settings());

  trace::Trace t;
  const double k = flags.GetDouble("k", 0.5);
  if (live) {
    capture::CaptureConfig capture_config;
    if (flags.Has("listen-udp")) {
      capture_config.sources.push_back(capture::SourceSpec::Udp(PortFlag(flags, "listen-udp")));
    }
    if (flags.Has("listen-tcp")) {
      capture_config.sources.push_back(capture::SourceSpec::Tcp(PortFlag(flags, "listen-tcp")));
    }
    if (flags.Has("follow-pcap")) {
      capture_config.sources.push_back(capture::SourceSpec::PcapFile(flags.Get("follow-pcap")));
    }
    if (capture_config.sources.empty()) {
      throw ConfigError("at least one of --listen-udp / --listen-tcp / --follow-pcap required");
    }
    capture_config.snap_bytes =
        static_cast<uint32_t>(flags.GetU64("snap", capture_config.snap_bytes));
    capture_config.queue_capacity = flags.GetU64("queue", capture_config.queue_capacity);
    if (flags.Has("overflow")) {
      capture_config.overflow = api::ParseOverflowPolicy("--overflow", flags.Get("overflow"));
    }
    capture_config.late_slack_us = flags.GetU64("late-slack-us", capture_config.late_slack_us);
    // Live capture has no trace to measure demand against, so capacity is an
    // absolute cycle budget: --capacity, or the config file's cycles_per_bin.
    if (builder.config().cycles_per_bin <= 0.0) {
      throw ConfigError("--capacity CYCLES required (or a config file with cycles_per_bin)");
    }
    builder.CaptureFrom(capture_config);
  } else {
    if (flags.positional().empty()) {
      throw ConfigError("trace file required");
    }
    t = trace::LoadTrace(flags.positional()[0]);
    // --k provisions a fraction of the measured demand; an explicit
    // --capacity or config-file cycles_per_bin wins unless --k is passed.
    if (flags.Has("k") || builder.config().cycles_per_bin <= 0.0) {
      const double demand = core::MeasureMeanDemand(builder.query_names(), t, builder.oracle(),
                                                    builder.config().time_bin_us);
      builder.CyclesPerBin(std::max(1.0, demand * (1.0 - k)));
    }
  }
  const std::string trace_out = flags.Get("trace-out");
  if (!trace_out.empty()) {
    builder.Tracing();
  }

  // Install the handlers before any listener opens so an early signal is
  // never lost. No SA_RESTART for the stop signals: they must break the wait
  // loop's sleep; SIGUSR1 keeps trace-file reads transparent to it.
  if (live) {
    OnSignal(SIGINT, RequestStop, 0);
    OnSignal(SIGTERM, RequestStop, 0);
  }
  const std::string metrics_out = flags.Get("metrics-out");
  if (!metrics_out.empty()) {
    OnSignal(SIGUSR1, RequestMetricsDump, SA_RESTART);
  }

  std::unique_ptr<Pipeline> pipeline;
  uint64_t resume_us = 0;
  if (flags.Switch("restore")) {
    const std::string checkpoint = flags.Get("checkpoint");
    if (checkpoint.empty()) {
      throw ConfigError("--restore needs --checkpoint FILE");
    }
    pipeline = builder.RestoreOrBuild(checkpoint);
    resume_us = pipeline->next_bin() * pipeline->time_bin_us();
    if (resume_us > 0) {
      std::fprintf(stderr, "run: restored %s, resuming at bin %llu (t=%.1f s)\n",
                   checkpoint.c_str(), static_cast<unsigned long long>(pipeline->next_bin()),
                   static_cast<double>(resume_us) * 1e-6);
    }
  } else {
    pipeline = builder.BuildUnique();
  }

  // Wrappers parse the "capturing" and "serving" lines to find bound ports
  // (port 0 binds an ephemeral one), so keep their shape stable.
  if (const capture::CaptureLoop* loop = pipeline->capture(); loop != nullptr) {
    for (size_t i = 0; i < loop->num_sources(); ++i) {
      const capture::SourceSpec& spec = loop->config().sources[i];
      if (spec.kind == capture::SourceSpec::Kind::kPcapFile) {
        std::printf("capturing pcap://%s\n", spec.path.c_str());
      } else {
        std::printf("capturing %s://127.0.0.1:%u\n", capture::SourceKindName(spec.kind),
                    loop->port(i));
      }
    }
  }
  if (pipeline->serve_port() != 0) {
    std::printf("serving http://127.0.0.1:%u (/metrics /healthz /stats /trace)\n",
                pipeline->serve_port());
  }
  const double capacity = builder.config().cycles_per_bin;
  if (live) {
    std::printf("running %zu queries (capacity %.3g cycles/bin); stop with SIGINT/SIGTERM\n\n",
                pipeline->num_queries(), capacity);
  } else {
    std::printf("running %zu queries at overload K=%.2f (capacity %.3g cycles/bin, %s)\n\n",
                pipeline->num_queries(), k, capacity,
                builder.oracle() == core::OracleKind::kMeasured ? "measured cycles"
                                                                : "model cycles");
  }
  // Progress marker for wrappers (stdout is block-buffered when piped): the
  // banner doubles as "the signal handlers are installed, the run is live".
  std::fflush(stdout);

  const auto poll_metrics_dump = [&] {
    if (g_metrics_dump_requested != 0 && !metrics_out.empty()) {
      g_metrics_dump_requested = 0;
      DumpMetrics(*pipeline, metrics_out);
      std::fprintf(stderr, "%s: metrics dumped to %s (SIGUSR1)\n", verb, metrics_out.c_str());
    }
  };
  if (live) {
    const double duration_s = flags.GetDouble("duration", 0.0);
    const std::shared_ptr<rt::Clock> clock = rt::DefaultClock();
    const uint64_t start_us = clock->NowUs();
    while (g_stop_requested == 0 &&
           (duration_s <= 0.0 ||
            static_cast<double>(clock->NowUs() - start_us) < duration_s * 1e6)) {
      poll_metrics_dump();
      clock->SleepUs(50'000);
    }
  } else {
    for (const net::PacketRecord& packet : t.packets) {
      if (packet.ts_us < resume_us) {
        continue;  // bins the restored checkpoint already covers
      }
      poll_metrics_dump();
      pipeline->Push(net::Packet::View(packet));
    }
  }
  pipeline->Finish();  // stops capture, drains the ring, closes the last bin
  if (!metrics_out.empty()) {
    DumpMetrics(*pipeline, metrics_out);
  }
  if (!trace_out.empty()) {
    pipeline->DumpTrace(trace_out);
  }

  if (live) {
    const capture::CaptureStats cs = pipeline->capture_stats();
    std::printf("capture: %llu frames (%llu bytes), %llu decoded packets, %llu truncated\n",
                static_cast<unsigned long long>(cs.frames),
                static_cast<unsigned long long>(cs.bytes),
                static_cast<unsigned long long>(cs.packets),
                static_cast<unsigned long long>(cs.truncated));
    std::printf(
        "capture drops: %llu total (%llu queue, %llu no-slot, %llu late, %llu decode)\n",
        static_cast<unsigned long long>(cs.dropped()),
        static_cast<unsigned long long>(cs.dropped_queue),
        static_cast<unsigned long long>(cs.dropped_no_slot),
        static_cast<unsigned long long>(cs.dropped_late),
        static_cast<unsigned long long>(cs.dropped_decode));
  }
  PrintResults(*pipeline);
  const api::PipelineStats stats = pipeline->Stats();
  if (pipeline->governor() != nullptr || stats.ingest_dropped > 0 || stats.checkpoints > 0) {
    std::printf(
        "rt: %llu deadline misses, degradation level %d, %llu ingest drops, "
        "%llu checkpoints\n",
        static_cast<unsigned long long>(stats.deadline_misses), stats.degradation_level,
        static_cast<unsigned long long>(stats.ingest_dropped),
        static_cast<unsigned long long>(stats.checkpoints));
  }
  for (const char* sink : {"csv", "jsonl"}) {
    if (flags.Has(sink)) {
      std::printf("per-bin log written to %s\n", flags.Get(sink).c_str());
    }
  }
  if (!trace_out.empty()) {
    std::printf("trace (Chrome trace-event JSON) written to %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    std::printf("metrics (Prometheus text format) written to %s\n", metrics_out.c_str());
  }
  return 0;
}

// Accepts "PORT" or "host:PORT"; replay always targets loopback, the host
// part is tolerated so banner lines can be pasted back verbatim.
uint16_t ParsePort(const std::string& value) {
  const size_t colon = value.rfind(':');
  return static_cast<uint16_t>(
      std::stoul(colon == std::string::npos ? value : value.substr(colon + 1)));
}

int CmdReplay(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "replay: trace file required\n");
    return 2;
  }
  if (flags.Has("udp") == flags.Has("tcp")) {
    std::fprintf(stderr, "replay: exactly one of --udp PORT or --tcp PORT required\n");
    return 2;
  }
  const trace::Trace t = trace::LoadTrace(flags.positional()[0]);
  capture::ReplayOptions options;
  options.pps = flags.GetU64("pps", 0);
  if (flags.Has("udp")) {
    const uint16_t port = ParsePort(flags.Get("udp"));
    const size_t sent = capture::ReplayTraceUdp(t, port, options);
    std::printf("replayed %zu/%zu packets to udp://127.0.0.1:%u\n", sent, t.packets.size(),
                port);
  } else {
    const uint16_t port = ParsePort(flags.Get("tcp"));
    const size_t sent = capture::ReplayTraceTcp(t, port, options);
    std::printf("replayed %zu/%zu packets to tcp://127.0.0.1:%u\n", sent, t.packets.size(),
                port);
  }
  return 0;
}

int CmdQueries() {
  util::Table table({"query", "default min rate (Table 5.2)", "preferred shedding"});
  for (const auto& name : query::AllQueryNames()) {
    const auto q = query::MakeQuery(name);
    const bool custom = q->supports_custom_shedding();
    table.AddRow({name, util::Fmt(core::DefaultMinRate(name), 2),
                  std::string(q->preferred_sampling() == query::SamplingMethod::kFlow
                                  ? "flow sampling"
                                  : "packet sampling") +
                      (custom ? " + custom" : "")});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Verb> verbs = {
      {"generate", CmdGenerate,
       {"preset", "duration", "seed", "flows-per-s", "burstiness", "out", "pcap"}, {}, false},
      {"info", CmdInfo, {}, {}, false},
      {"export-pcap", CmdExportPcap, {"snaplen"}, {}, false},
      {"inject-ddos", CmdInjectDdos,
       {"out", "start", "duration", "pps", "on-off", "target-ip", "seed"}, {}, false},
      {"run", [](const Flags& flags) { return CmdPipeline(flags, false); },
       {"config", "k", "metrics-out", "trace-out"}, {"restore"}, true},
      {"capture", [](const Flags& flags) { return CmdPipeline(flags, true); },
       {"config", "metrics-out", "trace-out", "duration", "listen-udp", "listen-tcp",
        "follow-pcap", "snap", "queue", "overflow", "late-slack-us"},
       {}, true},
      {"replay", CmdReplay, {"udp", "tcp", "pps"}, {}, false},
      {"queries", [](const Flags&) { return CmdQueries(); }, {}, {}, false},
  };
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  const auto verb = std::find_if(verbs.begin(), verbs.end(),
                                 [&](const Verb& v) { return v.name == command; });
  if (verb == verbs.end()) {
    return Usage();
  }
  try {
    return verb->run(Flags(argc, argv, *verb));
  } catch (const ConfigError& e) {
    // A rejected flag, key or value: the operator's to fix, like bad usage.
    std::fprintf(stderr, "shedmon %s: %s\n", command.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shedmon %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
