// Tracing + HTTP observability endpoint suite: the per-stage span tracer
// must emit well-formed Chrome trace-event JSON covering every pipeline
// stage, count (never hide) dropped spans, and feed the stage-wall
// histograms; the embedded ObsServer must answer /metrics, /healthz,
// /stats and /trace, reject malformed requests, and fail Build() loudly
// when its port is taken. Above all, both surfaces are one-way: a pipeline
// being traced and scraped under load produces BinLogs bit-identical to a
// plain one at every thread count.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/config.h"
#include "src/api/pipeline.h"
#include "src/core/runner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"

namespace shedmon {
namespace {

const trace::Trace& TracingTrace() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::CescaII();
    spec.duration_s = 3.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  return trace;
}

core::SystemConfig BaseConfig(size_t threads) {
  core::SystemConfig config;
  config.shedder = core::ShedderKind::kPredictive;
  config.num_threads = threads;
  config.cycles_per_bin = 0.5 * core::MeasureMeanDemand({"counter", "flows"}, TracingTrace(),
                                                        core::OracleKind::kModel);
  return config;
}

std::unique_ptr<api::Pipeline> BuildPipeline(size_t threads, bool tracing, bool serve) {
  api::PipelineBuilder builder;
  builder.Config(BaseConfig(threads)).AddQuery("counter").AddQuery("flows");
  if (tracing) {
    builder.Tracing();
  }
  if (serve) {
    builder.ServeOn(0);  // ephemeral port; read it back via serve_port()
  }
  return builder.BuildUnique();
}

void ExpectBinLogsIdentical(const std::vector<core::BinLog>& golden,
                            const std::vector<core::BinLog>& actual) {
  ASSERT_EQ(golden.size(), actual.size());
  for (size_t b = 0; b < golden.size(); ++b) {
    SCOPED_TRACE("bin " + std::to_string(b));
    const core::BinLog& g = golden[b];
    const core::BinLog& a = actual[b];
    EXPECT_EQ(g.start_us, a.start_us);
    EXPECT_EQ(g.packets_in, a.packets_in);
    EXPECT_EQ(g.packets_dropped, a.packets_dropped);
    EXPECT_EQ(g.packets_unsampled, a.packets_unsampled);
    EXPECT_EQ(g.batch_dropped, a.batch_dropped);
    EXPECT_EQ(g.overload, a.overload);
    EXPECT_EQ(g.predicted_cycles, a.predicted_cycles);
    EXPECT_EQ(g.avail_cycles, a.avail_cycles);
    EXPECT_EQ(g.query_cycles, a.query_cycles);
    EXPECT_EQ(g.ps_cycles, a.ps_cycles);
    EXPECT_EQ(g.ls_cycles, a.ls_cycles);
    EXPECT_EQ(g.como_cycles, a.como_cycles);
    EXPECT_EQ(g.backlog_cycles, a.backlog_cycles);
    EXPECT_EQ(g.rtthresh, a.rtthresh);
    EXPECT_EQ(g.rate, a.rate);
    EXPECT_EQ(g.per_query_cycles, a.per_query_cycles);
    EXPECT_EQ(g.disabled, a.disabled);
    EXPECT_EQ(g.degradation, a.degradation);
    EXPECT_EQ(g.deadline_missed, a.deadline_missed);
    EXPECT_EQ(g.deadline_overrun_us, a.deadline_overrun_us);
  }
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 client (raw sockets, Connection: close)
// ---------------------------------------------------------------------------

// Writes raw bytes to 127.0.0.1:port and returns everything the server sends
// back until it closes the connection.
std::string SendRaw(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

struct HttpReply {
  int status = 0;
  std::string body;
};

HttpReply Get(uint16_t port, const std::string& path) {
  const std::string raw =
      SendRaw(port, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
  HttpReply reply;
  const size_t space = raw.find(' ');
  if (space != std::string::npos) {
    reply.status = std::stoi(raw.substr(space + 1));
  }
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    reply.body = raw.substr(header_end + 4);
  }
  return reply;
}

// Extracts every value of a numeric JSON field, in order of appearance.
std::vector<uint64_t> JsonFieldValues(const std::string& json, const std::string& field) {
  std::vector<uint64_t> values;
  const std::string needle = "\"" + field + "\":";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    values.push_back(std::stoull(json.substr(pos)));
  }
  return values;
}

// ---------------------------------------------------------------------------
// Tracer: span coverage, export schema, bounded drops
// ---------------------------------------------------------------------------

TEST(Tracing, SpansCoverEveryStageAcrossThreadCounts) {
  for (const size_t threads : {0, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto pipeline = BuildPipeline(threads, /*tracing=*/true, /*serve=*/false);
    pipeline->Push(TracingTrace());
    pipeline->Finish();

    ASSERT_NE(pipeline->tracer(), nullptr);
    std::vector<bool> seen(obs::kStageCount, false);
    for (const obs::SpanRecord& span : pipeline->tracer()->Snapshot()) {
      seen[static_cast<size_t>(span.stage)] = true;
    }
    EXPECT_TRUE(seen[static_cast<size_t>(obs::Stage::kBinClose)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::Stage::kExtraction)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::Stage::kPrediction)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::Stage::kShedDecision)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::Stage::kQuery)]);
    EXPECT_TRUE(seen[static_cast<size_t>(obs::Stage::kSink)]);
  }
}

TEST(Tracing, ExportIsWellFormedChromeTraceJson) {
  auto pipeline = BuildPipeline(2, /*tracing=*/true, /*serve=*/false);
  pipeline->Push(TracingTrace());
  pipeline->Finish();
  const std::string json = pipeline->tracer()->ExportChromeTrace();

  // Envelope: the two keys Perfetto / about:tracing require.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Every duration event is complete ("ph":"X" with a dur); instants carry
  // the thread scope. Nothing else is emitted.
  const size_t durations = JsonFieldValues(json, "dur").size();
  size_t x_events = 0;
  size_t pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++x_events;
    pos += 8;
  }
  EXPECT_EQ(durations, x_events);
  EXPECT_GT(x_events, 0u);

  // The exporter sorts spans: timestamps must be non-decreasing so the
  // timeline loads without Perfetto re-sorting gigabytes.
  const std::vector<uint64_t> ts = JsonFieldValues(json, "ts");
  ASSERT_FALSE(ts.empty());
  for (size_t i = 1; i < ts.size(); ++i) {
    ASSERT_LE(ts[i - 1], ts[i]) << "event " << i;
  }
}

TEST(Tracing, DroppedSpansAreCountedNeverSilent) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(/*spans_per_stripe=*/4);  // tiny ring: drops guaranteed
  tracer.AttachMetrics(&metrics);
  for (uint32_t i = 0; i < 100; ++i) {
    tracer.Record(obs::Stage::kQuery, i, 1, i);
  }
  EXPECT_GT(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.Snapshot().size() + tracer.dropped(), 100u);
  double counted = 0.0;
  for (const auto& sample : metrics.Snapshot().samples) {
    if (sample.name == "shedmon_obs_trace_dropped_total") {
      counted += sample.value;
    }
  }
  EXPECT_EQ(counted, static_cast<double>(tracer.dropped()));
  // The export advertises the loss instead of pretending completeness.
  EXPECT_NE(tracer.ExportChromeTrace().find("\"dropped_spans\":"), std::string::npos);
}

// A ring keeps a run's head and drops its tail; the export states both the
// loss and the stretch of time the kept spans cover.
TEST(Tracing, ExportStatesTheKeptWindow) {
  obs::Tracer tracer(/*spans_per_stripe=*/2);
  for (uint32_t i = 0; i < 5; ++i) {
    tracer.Record(obs::Stage::kQuery, /*start_us=*/100 + 10 * i, /*dur_us=*/1, i);
  }
  EXPECT_EQ(tracer.dropped(), 3u);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(json.find("\"otherData\":{\"dropped_spans\":3,\"kept_first_ts_us\":100,"
                      "\"kept_last_ts_us\":110}"),
            std::string::npos)
      << json;

  // Nothing kept, no window.
  const obs::Tracer idle;
  EXPECT_NE(idle.ExportChromeTrace().find("\"otherData\":{\"dropped_spans\":0}"),
            std::string::npos);
}

TEST(Tracing, StageWallHistogramsRideTheSameSpans) {
  auto pipeline = BuildPipeline(0, /*tracing=*/true, /*serve=*/false);
  pipeline->Push(TracingTrace());
  pipeline->Finish();
  size_t stage_samples = 0;
  for (const auto& sample : pipeline->Metrics().Snapshot().samples) {
    if (sample.name == "shedmon_stage_wall_us") {
      ++stage_samples;
      EXPECT_TRUE(sample.labels.count("stage"));
    }
  }
  // At least the single-threaded stages report wall time.
  EXPECT_GE(stage_samples, 4u);
}

// ---------------------------------------------------------------------------
// HTTP endpoint
// ---------------------------------------------------------------------------

TEST(Tracing, HttpEndpointsServeMetricsHealthzStatsTrace) {
  auto pipeline = BuildPipeline(0, /*tracing=*/true, /*serve=*/true);
  const uint16_t port = pipeline->serve_port();
  ASSERT_GT(port, 0);
  pipeline->Push(TracingTrace());
  pipeline->Finish();

  const HttpReply metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE shedmon_bins_total counter"), std::string::npos);
  EXPECT_NE(metrics.body.find("shedmon_stage_wall_us"), std::string::npos);

  const HttpReply healthz = Get(port, "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(healthz.body.find("\"degradation_rung\":\"none\""), std::string::npos);

  const HttpReply stats = Get(port, "/stats");
  EXPECT_EQ(stats.status, 200);
  const std::vector<uint64_t> bins = JsonFieldValues(stats.body, "bins");
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_EQ(bins[0], pipeline->Stats().bins);
  EXPECT_NE(stats.body.find("\"quarantined_sinks\":0"), std::string::npos);

  const HttpReply trace = Get(port, "/trace?anything=goes");  // query strings stripped
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.body.find("{\"traceEvents\":["), 0u);
}

TEST(Tracing, HttpMalformedRequestGets400) {
  auto pipeline = BuildPipeline(0, /*tracing=*/false, /*serve=*/true);
  EXPECT_NE(SendRaw(pipeline->serve_port(), "GARBAGE\r\n\r\n").find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(SendRaw(pipeline->serve_port(), "GET /metrics SMTP/1.0\r\n\r\n")
                .find("400 Bad Request"),
            std::string::npos);
  // Wrong method on a valid path is its own failure class.
  EXPECT_NE(
      SendRaw(pipeline->serve_port(), "POST /metrics HTTP/1.1\r\n\r\n").find("405 Method"),
      std::string::npos);
}

TEST(Tracing, HttpSegmentedRequestIsReassembled) {
  // A GET split across TCP segments (tiny congestion windows, deliberate
  // trickling) must be reassembled up to the blank-line terminator, not
  // parsed fragment-by-fragment. The old single-recv server answered 400.
  auto pipeline = BuildPipeline(0, /*tracing=*/false, /*serve=*/true);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(pipeline->serve_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::vector<std::string> segments = {"GET /hea", "lthz HTTP/1.1\r\n",
                                             "Host: 127.0.0.1\r\n", "\r\n"};
  for (const std::string& segment : segments) {
    ASSERT_EQ(::send(fd, segment.data(), segment.size(), 0),
              static_cast<ssize_t>(segment.size()));
    // Long enough that the server's recv loop wakes between segments.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::string reply;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(reply.find("200 OK"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
}

TEST(Tracing, HttpOversizedHeaderIsCappedNotBuffered) {
  // A client that streams headers without ever sending the blank-line
  // terminator is cut off at the 16 KiB cap: the server answers from what it
  // has (instead of growing an unbounded std::string or hanging until the
  // flood ends), closes the connection, and keeps serving other clients.
  auto pipeline = BuildPipeline(0, /*tracing=*/false, /*serve=*/true);
  std::string request = "GET /healthz HTTP/1.1\r\n";
  request.append(64 * 1024, 'X');  // 4x the cap, no terminator
  const std::string reply = SendRaw(pipeline->serve_port(), request);
  EXPECT_NE(reply.find("HTTP/1.1"), std::string::npos) << reply;
  // The accept loop survives to serve the next client.
  EXPECT_EQ(Get(pipeline->serve_port(), "/healthz").status, 200);
}

TEST(Tracing, HttpUnknownPathGets404) {
  auto pipeline = BuildPipeline(0, /*tracing=*/false, /*serve=*/true);
  EXPECT_EQ(Get(pipeline->serve_port(), "/nope").status, 404);
}

TEST(Tracing, HttpTraceIs404WhenTracingDisabled) {
  auto pipeline = BuildPipeline(0, /*tracing=*/false, /*serve=*/true);
  const HttpReply reply = Get(pipeline->serve_port(), "/trace");
  EXPECT_EQ(reply.status, 404);
  EXPECT_NE(reply.body.find("tracing disabled"), std::string::npos);
}

TEST(Tracing, HttpPortInUseFailsAtBuildWithConfigError) {
  // Squat a loopback port the way another daemon would.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t taken = ntohs(addr.sin_port);

  api::PipelineBuilder builder;
  builder.Config(BaseConfig(0)).AddQuery("counter").ServeOn(taken);
  EXPECT_THROW(builder.BuildUnique(), api::ConfigError);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// One-way observability: tracing + scraping change nothing
// ---------------------------------------------------------------------------

// The load-shedding results must not depend on whether anyone is watching: a
// pipeline with tracing enabled and scrapers hammering every endpoint
// mid-run produces BinLogs bit-identical to a plain pipeline, at every
// thread count.
TEST(Tracing, ScrapedPipelineDeterminismAtEveryThreadCount) {
  for (const size_t threads : {0, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));

    auto golden = BuildPipeline(threads, /*tracing=*/false, /*serve=*/false);
    golden->Push(TracingTrace());
    golden->Finish();

    auto observed = BuildPipeline(threads, /*tracing=*/true, /*serve=*/true);
    const uint16_t port = observed->serve_port();
    std::atomic<bool> stop{false};
    std::vector<std::thread> scrapers;
    for (int s = 0; s < 2; ++s) {
      scrapers.emplace_back([port, &stop] {
        const std::string paths[] = {"/metrics", "/healthz", "/stats", "/trace"};
        for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          Get(port, paths[i % 4]);
        }
      });
    }
    observed->Push(TracingTrace());
    observed->Finish();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& scraper : scrapers) {
      scraper.join();
    }

    ExpectBinLogsIdentical(golden->log(), observed->log());
  }
}

}  // namespace
}  // namespace shedmon
