#include "src/api/pipeline.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/api/sinks.h"
#include "src/core/runner.h"
#include "src/exec/thread_pool.h"
#include "src/obs/prometheus.h"
#include "src/obs/snapshot.h"
#include "src/query/queries.h"
#include "src/rt/atomic_file.h"

namespace shedmon::api {

namespace {
constexpr size_t kNpos = static_cast<size_t>(-1);

// Sink-path probe for eager validation: Build() must fail before a system
// exists, not after the first bin, so the path is opened (append, to not
// clobber an existing file) and closed again.
void CheckWritable(const std::string& path, std::string_view what) {
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    throw ConfigError(std::string(what) + ": cannot open '" + path + "' for writing");
  }
}

// Adapts a Pipeline to the capture loop's sink interface. A plain borrowing
// adapter (not a Pipeline base class) keeps the facade non-virtual; every
// call arrives on the capture consumer thread, which is the coordinator
// while capture runs.
class PipelineIngestSink final : public capture::IngestSink {
 public:
  explicit PipelineIngestSink(Pipeline* pipeline) : pipeline_(pipeline) {}

  void Push(const net::Packet& packet) override { pipeline_->Push(packet); }
  void AdvanceTime(uint64_t target_us) override { pipeline_->AdvanceTime(target_us); }
  uint64_t NextBin() const override { return pipeline_->next_bin(); }
  uint64_t OpenBinStartUs() const override {
    return pipeline_->next_bin() * pipeline_->time_bin_us();
  }

 private:
  Pipeline* pipeline_;
};
}  // namespace

// ---------------------------------------------------------------------------
// QueryHandle
// ---------------------------------------------------------------------------

bool QueryHandle::valid() const {
  return pipeline_ != nullptr && id_ != 0 && pipeline_->FindSlot(id_) != kNpos;
}

size_t QueryHandle::index() const {
  if (pipeline_ == nullptr || id_ == 0) {
    throw std::logic_error("QueryHandle: not attached to a Pipeline");
  }
  return pipeline_->SlotIndex(id_);
}

const std::string& QueryHandle::name() const { return query().name(); }

query::Query& QueryHandle::query() const {
  const size_t i = index();  // validates the handle before any dereference
  return pipeline_->system_->query(i);
}

const query::Query* QueryHandle::reference() const {
  const size_t i = index();
  return pipeline_->slots_[i].reference.get();
}

query::AccuracyRow QueryHandle::Accuracy() const { return pipeline_->AccuracyAt(index()); }

double QueryHandle::MeanAccuracy() const { return pipeline_->MeanAccuracyAt(index()); }

// ---------------------------------------------------------------------------
// PipelineBuilder
// ---------------------------------------------------------------------------

PipelineBuilder& PipelineBuilder::Config(const core::SystemConfig& config) {
  config_ = config;
  return *this;
}

PipelineBuilder& PipelineBuilder::TimeBin(uint64_t bin_us) {
  config_.time_bin_us = bin_us;
  return *this;
}

PipelineBuilder& PipelineBuilder::CyclesPerBin(double cycles) {
  config_.cycles_per_bin = cycles;
  return *this;
}

PipelineBuilder& PipelineBuilder::Shedder(core::ShedderKind kind) {
  config_.shedder = kind;
  return *this;
}

PipelineBuilder& PipelineBuilder::Strategy(shed::StrategyKind kind) {
  config_.strategy = kind;
  return *this;
}

PipelineBuilder& PipelineBuilder::BufferBins(double bins) {
  config_.buffer_bins = bins;
  return *this;
}

PipelineBuilder& PipelineBuilder::CustomShedding(bool enable) {
  config_.enable_custom_shedding = enable;
  return *this;
}

PipelineBuilder& PipelineBuilder::Threads(size_t num_threads) {
  config_.num_threads = num_threads;
  return *this;
}

PipelineBuilder& PipelineBuilder::MaxShardsPerQuery(size_t /*n*/) { return *this; }

PipelineBuilder& PipelineBuilder::Seed(uint64_t seed) {
  config_.seed = seed;
  return *this;
}

PipelineBuilder& PipelineBuilder::Oracle(core::OracleKind kind) {
  oracle_ = kind;
  return *this;
}

PipelineBuilder& PipelineBuilder::TrackAccuracy(bool enable) {
  track_accuracy_ = enable;
  return *this;
}

PipelineBuilder& PipelineBuilder::DefaultMinRates(bool enable) {
  default_min_rates_ = enable;
  return *this;
}

PipelineBuilder& PipelineBuilder::AddQuery(std::string_view name) {
  queries_.push_back({std::string(name), std::nullopt});
  return *this;
}

PipelineBuilder& PipelineBuilder::AddQuery(std::string_view name,
                                           const core::QueryConfig& config) {
  queries_.push_back({std::string(name), config});
  return *this;
}

PipelineBuilder& PipelineBuilder::CsvTo(std::string path) {
  csv_path_ = std::move(path);
  return *this;
}

PipelineBuilder& PipelineBuilder::JsonlTo(std::string path) {
  jsonl_path_ = std::move(path);
  return *this;
}

PipelineBuilder& PipelineBuilder::LogTo(std::string path) {
  log_path_ = std::move(path);
  return *this;
}

PipelineBuilder& PipelineBuilder::Deadline(double budget_fraction) {
  rt::GovernorConfig config;
  config.budget_fraction = budget_fraction;
  return Deadline(config);
}

PipelineBuilder& PipelineBuilder::Deadline(const rt::GovernorConfig& config) {
  if (config.budget_fraction > 0.0) {
    governor_config_ = config;
  } else {
    governor_config_.reset();  // 0 disables
  }
  return *this;
}

PipelineBuilder& PipelineBuilder::RtClock(std::shared_ptr<rt::Clock> clock) {
  clock_ = std::move(clock);
  return *this;
}

PipelineBuilder& PipelineBuilder::IngestCap(size_t max_records, rt::OverflowPolicy policy) {
  ingest_cap_ = max_records;
  ingest_policy_ = policy;
  return *this;
}

PipelineBuilder& PipelineBuilder::InjectFaults(const rt::FaultPlan& plan) {
  fault_plan_ = plan;
  return *this;
}

PipelineBuilder& PipelineBuilder::CheckpointTo(std::string path) {
  checkpoint_path_ = std::move(path);
  return *this;
}

PipelineBuilder& PipelineBuilder::CheckpointEvery(size_t bins) {
  checkpoint_every_ = bins;
  return *this;
}

PipelineBuilder& PipelineBuilder::SinkRetry(const rt::RetryPolicy& policy) {
  sink_retry_ = policy;
  return *this;
}

PipelineBuilder& PipelineBuilder::Tracing(bool enable) {
  tracing_ = enable;
  return *this;
}

PipelineBuilder& PipelineBuilder::ServeOn(uint16_t port) {
  serve_port_ = port;
  return *this;
}

PipelineBuilder& PipelineBuilder::CaptureFrom(capture::CaptureConfig config) {
  capture_config_ = std::move(config);
  return *this;
}

std::unique_ptr<Pipeline> PipelineBuilder::RestoreOrBuild(const std::string& path) const {
  Validate();  // the builder's options are attached to a restored pipeline too
  std::unique_ptr<Pipeline> pipeline;
  std::ifstream in(path, std::ios::binary);
  if (in) {
    try {
      pipeline = Restore(in);
    } catch (const obs::SnapshotError&) {
      // Torn or corrupt checkpoint: the atomic writer makes this unlikely,
      // but an operator-truncated file must not keep the monitor down.
      pipeline = nullptr;
    }
  }
  if (pipeline == nullptr) {
    return BuildUnique();
  }
  pipeline->AttachBuilderOptions(*this);
  return pipeline;
}

std::vector<std::string> PipelineBuilder::query_names() const {
  std::vector<std::string> names;
  for (const PendingQuery& pending : queries_) {
    names.push_back(pending.name);
  }
  return names;
}

void PipelineBuilder::Validate() const {
  if (config_.time_bin_us == 0) {
    throw ConfigError("time_bin_us must be positive");
  }
  if (config_.cycles_per_bin < 0.0) {
    throw ConfigError("cycles_per_bin must be >= 0 (0 = oracle's real-time budget)");
  }
  if (!(config_.buffer_bins > 0.0)) {
    throw ConfigError("buffer_bins must be positive");
  }
  if (!(config_.ewma_alpha > 0.0) || config_.ewma_alpha > 1.0) {
    throw ConfigError("ewma_alpha must be in (0, 1]");
  }
  if (config_.como_overhead_fraction < 0.0 || config_.como_overhead_fraction >= 1.0) {
    throw ConfigError("como_overhead_fraction must be in [0, 1)");
  }
  if (config_.bootstrap_rate < 0.0 || config_.bootstrap_rate > 1.0) {
    throw ConfigError("bootstrap_rate must be in [0, 1]");
  }
  if (config_.reactive_min_rate < 0.0 || config_.reactive_min_rate > 1.0) {
    throw ConfigError("reactive_min_rate must be in [0, 1]");
  }
  if (config_.system_interval_bins == 0) {
    throw ConfigError("system_interval_bins must be positive");
  }
  for (const PendingQuery& pending : queries_) {
    // MakeQuery is the authority on the standard roster; a cheap construction
    // here turns a typo into a ConfigError before any system exists.
    try {
      (void)query::MakeQuery(pending.name);
    } catch (const std::invalid_argument& e) {
      throw ConfigError(std::string("unknown query '") + pending.name + "': " + e.what());
    }
    if (pending.config && (pending.config->min_sampling_rate < 0.0 ||
                           pending.config->min_sampling_rate > 1.0)) {
      throw ConfigError("query '" + pending.name + "': min_sampling_rate must be in [0, 1]");
    }
  }
  if (capture_config_) {
    if (capture_config_->sources.empty()) {
      throw ConfigError("CaptureFrom: config has no sources");
    }
    for (const capture::SourceSpec& spec : capture_config_->sources) {
      if (spec.kind == capture::SourceSpec::Kind::kPcapFile && spec.path.empty()) {
        throw ConfigError("CaptureFrom: pcap source needs a path");
      }
    }
  }
  if (ingest_cap_ > 0 && ingest_policy_ == rt::OverflowPolicy::kBlock) {
    throw ConfigError(
        "ingest_policy (--ingest-policy) block: Push cannot block on a full open bin, because "
        "only the pushing thread can close it; use drop-newest or drop-oldest");
  }
  if (checkpoint_every_ > 0 && checkpoint_path_.empty()) {
    throw ConfigError("CheckpointEvery without CheckpointTo: no checkpoint path set");
  }
  if (!csv_path_.empty()) {
    CheckWritable(csv_path_, "csv sink");
  }
  if (!jsonl_path_.empty()) {
    CheckWritable(jsonl_path_, "jsonl sink");
  }
  if (!log_path_.empty()) {
    CheckWritable(log_path_, "event log");
  }
  if (!checkpoint_path_.empty()) {
    CheckWritable(checkpoint_path_, "checkpoint");
  }
}

Pipeline PipelineBuilder::Build() const {
  Validate();
  return Pipeline(*this);
}

std::unique_ptr<Pipeline> PipelineBuilder::BuildUnique() const {
  Validate();
  return std::unique_ptr<Pipeline>(new Pipeline(*this));
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

Pipeline::Pipeline(const core::SystemConfig& config, core::OracleKind oracle_kind,
                   bool track_accuracy, bool default_min_rates)
    : track_accuracy_(track_accuracy),
      default_min_rates_(default_min_rates),
      oracle_kind_(oracle_kind),
      bin_us_(config.time_bin_us) {
  if (config.time_bin_us == 0) {
    // ConfigError derives from std::invalid_argument, the contract callers
    // relied on before eager builder validation existed.
    throw ConfigError("Pipeline: time_bin_us must be positive");
  }
  system_ = std::make_unique<core::MonitoringSystem>(config, core::MakeOracle(oracle_kind));
  const char* ref_help =
      "Reference bins replayed over the unsampled stream, elided, or counted as packets";
  m_ref_replayed_ = &system_->metrics().GetCounter("shedmon_reference_bins_total",
                                                   {{"mode", "replayed"}}, ref_help);
  m_ref_elided_ = &system_->metrics().GetCounter("shedmon_reference_bins_total",
                                                 {{"mode", "elided"}}, ref_help);
  m_ref_counted_ = &system_->metrics().GetCounter("shedmon_reference_bins_total",
                                                  {{"mode", "counted"}}, ref_help);
  fork_hook_ = [this](std::span<const core::QueryRun> runs) { ForkInexact(runs); };
  RefreshStats();
}

Pipeline::Pipeline(const PipelineBuilder& builder)
    : Pipeline(builder.config_, builder.oracle_, builder.track_accuracy_,
               builder.default_min_rates_) {
  for (const PipelineBuilder::PendingQuery& pending : builder.queries_) {
    if (pending.config) {
      AddQuery(pending.name, *pending.config);
    } else {
      AddQuery(pending.name);
    }
  }
  AttachBuilderOptions(builder);
}

Pipeline::~Pipeline() = default;

void Pipeline::AttachBuilderOptions(const PipelineBuilder& builder) {
  if (!builder.csv_path_.empty()) {
    auto sink = std::make_unique<CsvBinSink>(builder.csv_path_);
    rt_sinks_.push_back(sink.get());
    AddObserver(std::move(sink));
  }
  if (!builder.jsonl_path_.empty()) {
    auto sink = std::make_unique<JsonlBinSink>(builder.jsonl_path_);
    rt_sinks_.push_back(sink.get());
    AddObserver(std::move(sink));
  }
  if (!builder.log_path_.empty()) {
    SetLogger(std::make_unique<obs::JsonlLogger>(builder.log_path_));
  }

  // rt options: one clock drives the governor, fault injector and sink
  // retry backoff; it stays null (capture falls back to its own default)
  // when none of them is armed.
  clock_ = builder.clock_;
  if (clock_ == nullptr &&
      (builder.fault_plan_ || builder.governor_config_ || builder.sink_retry_)) {
    clock_ = rt::DefaultClock();
  }
  if (builder.fault_plan_) {
    injector_ = std::make_unique<rt::FaultInjector>(*builder.fault_plan_, clock_);
    system_->SetFaultInjector(injector_.get());
  }
  if (builder.governor_config_) {
    governor_ = std::make_unique<rt::DeadlineGovernor>(*builder.governor_config_, clock_);
    governor_->Attach(&system_->metrics(), logger_.get());
  }
  ingest_cap_ = builder.ingest_cap_;
  ingest_policy_ = builder.ingest_policy_;
  if (ingest_cap_ > 0) {
    m_ingest_dropped_ = &system_->metrics().GetCounter(
        "shedmon_rt_ingest_dropped_total", {},
        "Records rejected or evicted by the bounded ingest buffer");
  }
  if (builder.sink_retry_) {
    for (ResilientSinkBase* sink : rt_sinks_) {
      sink->EnableResilience(*builder.sink_retry_, clock_);
    }
  }
  AttachSinkRt();
  checkpoint_path_ = builder.checkpoint_path_;
  checkpoint_every_ = builder.checkpoint_every_;

  // obs options: both one-way, never read back by a decision.
  if (builder.tracing_) {
    tracer_ = std::make_unique<obs::Tracer>();
    tracer_->AttachMetrics(&system_->metrics());
    system_->SetTracer(tracer_.get());
    if (governor_ != nullptr) {
      governor_->SetTracer(tracer_.get());
    }
    // Published last: once the HTTP thread can see the tracer, it is fully
    // attached and safe to snapshot.
    tracer_view_.store(tracer_.get(), std::memory_order_release);
  }
  if (builder.serve_port_) {
    RefreshStats();  // the handler must see valid stats before the first bin
    try {
      server_ = std::make_unique<obs::ObsServer>(
          *builder.serve_port_, [this](const std::string& path) { return HandleHttp(path); });
    } catch (const std::runtime_error& e) {
      // Port squatting is a deployment error the operator must see at
      // Build(), not a silent fallback; the listen socket deliberately
      // avoids SO_REUSEADDR so the bind fails loudly here.
      throw ConfigError(e.what());
    }
  }
  RefreshStats();
  // Last: once capture runs, its consumer thread is the coordinator.
  if (builder.capture_config_) {
    StartCapture(*builder.capture_config_);
  }
}

size_t Pipeline::FindSlot(uint64_t id) const noexcept {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id == id) {
      return i;
    }
  }
  return kNpos;
}

size_t Pipeline::SlotIndex(uint64_t id) const {
  const size_t index = FindSlot(id);
  if (index == kNpos) {
    throw std::logic_error("QueryHandle: query was removed from the Pipeline");
  }
  return index;
}

void Pipeline::EnsureOpen(std::string_view op) const {
  if (finished_) {
    throw std::logic_error(std::string(op) + " called after Pipeline::Finish()");
  }
}

QueryHandle Pipeline::AddQuery(std::string_view name) {
  core::QueryConfig config;
  if (default_min_rates_) {
    config.min_sampling_rate = core::DefaultMinRate(name);
  }
  return AddQuery(name, config);
}

QueryHandle Pipeline::AddQuery(std::string_view name, const core::QueryConfig& config) {
  return Register(config, query::MakeQuery(name),
                  track_accuracy_ ? query::MakeReference(name) : nullptr, /*built=*/true);
}

QueryHandle Pipeline::AddQuery(std::unique_ptr<query::Query> query,
                               const core::QueryConfig& config,
                               std::unique_ptr<query::Query> reference) {
  if (query == nullptr) {
    throw std::invalid_argument("Pipeline::AddQuery: query must not be null");
  }
  return Register(config, std::move(query), std::move(reference), /*built=*/false);
}

QueryHandle Pipeline::Register(const core::QueryConfig& config,
                               std::unique_ptr<query::Query> query,
                               std::unique_ptr<query::Query> reference, bool built) {
  EnsureOpen("AddQuery");
  Slot slot;
  slot.counted = built && reference != nullptr && !query->error_reads_results();
  slot.elidable = built && !slot.counted;
  slot.reference = std::move(reference);
  system_->AddQuery(std::move(query), config);
  slot.id = next_id_++;
  slots_.push_back(std::move(slot));
  if (logger_ != nullptr) {
    logger_->Write(obs::LogEvent("query_added")
                       .Str("query", system_->query(slots_.size() - 1).name())
                       .Int("bin", open_bin_)
                       .Num("min_sampling_rate", config.min_sampling_rate));
  }
  RefreshStats();
  return QueryHandle(this, slots_.back().id);
}

DetachedQuery Pipeline::Detach(QueryHandle handle) {
  EnsureOpen("Detach");
  if (handle.pipeline_ != this) {
    throw std::logic_error("Pipeline::Detach: handle belongs to another Pipeline");
  }
  const size_t index = SlotIndex(handle.id_);
  if (slots_[index].elided) {
    // The reference leaves with the open interval it would have replayed.
    slots_[index].reference->AdoptFrom(system_->query(index), query::Query::Adopt::kOpen);
  }
  DetachedQuery detached;
  detached.reference = std::move(slots_[index].reference);
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(index));
  detached.query = system_->RemoveQuery(index);
  if (logger_ != nullptr) {
    logger_->Write(obs::LogEvent("query_removed")
                       .Str("query", detached.query->name())
                       .Int("bin", open_bin_));
  }
  RefreshStats();
  return detached;
}

void Pipeline::AddObserver(BinObserver* observer) {
  if (observer != nullptr) {
    observers_.push_back(observer);
  }
}

void Pipeline::AddObserver(std::unique_ptr<BinObserver> observer) {
  if (observer != nullptr) {
    observers_.push_back(observer.get());
    owned_observers_.push_back(std::move(observer));
  }
}

void Pipeline::Push(const net::Packet& packet) {
  net::PacketRecord record = *packet.rec;
  record.payload_len = packet.payload_len;
  AppendRecord(record, packet.payload);
}

void Pipeline::Push(std::span<const net::Packet> packets) {
  for (const net::Packet& packet : packets) {
    Push(packet);
  }
}

void Pipeline::Push(const trace::Trace& trace) {
  for (const net::PacketRecord& record : trace.packets) {
    AppendRecord(record, nullptr);
  }
}

void Pipeline::AppendRecord(const net::PacketRecord& record, const uint8_t* payload_bytes) {
  EnsureOpen("Push");
  const uint64_t bin = record.ts_us / bin_us_;
  if (bin < open_bin_) {
    throw std::invalid_argument("Pipeline::Push: packet is older than the open time bin");
  }
  if (bin > open_bin_) {
    FlushThrough(bin);
  }
  if (ingest_cap_ > 0 && open_records() >= ingest_cap_) {
    ++ingest_dropped_;
    if (m_ingest_dropped_ != nullptr) {
      m_ingest_dropped_->Increment();
    }
    // Validate() admits only the two drop policies.
    if (ingest_policy_ == rt::OverflowPolicy::kDropNewest) {
      return;
    }
    // kDropOldest evicts by advancing the head; the evicted payload bytes
    // idle in the arena until the bin closes (see the ingest_head_ comment).
    wire_bytes_ -= records_[ingest_head_].wire_len;
    ++ingest_head_;
  }
  records_.push_back(record);
  if (record.payload_len > 0) {
    if (payload_bytes != nullptr) {
      // One pass: a resize would zero the bytes the copy then overwrites.
      arena_.insert(arena_.end(), payload_bytes, payload_bytes + record.payload_len);
      ingest_copied_bytes_ += record.payload_len;
    } else {
      const size_t offset = arena_.size();
      arena_.resize(offset + record.payload_len);
      trace::MaterializePayload(record, arena_.data() + offset);
    }
  }
  wire_bytes_ += record.wire_len;
}

void Pipeline::AdvanceTime(uint64_t ts_us) {
  EnsureOpen("AdvanceTime");
  const uint64_t bin = ts_us / bin_us_;
  if (bin > open_bin_) {
    FlushThrough(bin);
  }
}

void Pipeline::FlushThrough(uint64_t bin_index) {
  while (open_bin_ < bin_index) {
    CloseOpenBin();
  }
}

void Pipeline::CloseOpenBin() {
  batch_.start_us = open_bin_ * bin_us_;
  batch_.duration_us = bin_us_;
  batch_.wire_bytes = wire_bytes_;
  batch_.packets.clear();
  batch_.packets.reserve(open_records());
  // Evicted records still hold their arena bytes, so the offsets count them.
  size_t offset = 0;
  for (size_t i = 0; i < ingest_head_; ++i) {
    offset += records_[i].payload_len;
  }
  for (size_t i = ingest_head_; i < records_.size(); ++i) {
    net::Packet packet;
    packet.rec = &records_[i];
    packet.payload_len = records_[i].payload_len;
    packet.payload = packet.payload_len == 0 ? nullptr : arena_.data() + offset;
    offset += packet.payload_len;
    batch_.packets.push_back(packet);
  }

  // Deadline bracket: the directive shaped by bin N-1's overrun applies to
  // this bin, and this bin's wall-clock verdict shapes bin N+1 — never the
  // bin being measured, so deadline-clean runs stay bit-identical.
  {
    const uint32_t bin = static_cast<uint32_t>(open_bin_);
    obs::Span bin_span(tracer_.get(), obs::Stage::kBinClose, bin);
    if (governor_ != nullptr) {
      system_->SetDegradation(governor_->Begin());
    }
    {
      // The bin's one 5-tuple dedupe: extraction, the flow samplers, the
      // per-flow queries and their references all read this table.
      obs::Span flows_span(tracer_.get(), obs::Stage::kExtraction, bin);
      batch_.flows.Build(batch_.packets);
    }
    // With a pool, the reference replay (§2.2.1) starts before the system's
    // waves and overlaps them: it reads only batch_ and each replaying
    // slot's own reference, never the system or its oracle, so BinLogs and
    // accuracies cannot move. Elided and counted slots are not in the job,
    // so the fork hook may switch elided ones to replaying without a race,
    // and FinishReferences counts the rest on the coordinator. If ProcessBatch
    // throws, the Job's destructor stops the unclaimed replays and waits out
    // the running ones before batch_ dies.
    PlanReferences();
    exec::ThreadPool* pool = replay_.size() > 1 ? system_->pool() : nullptr;
    exec::ThreadPool::Job references = [&] {
      if (pool == nullptr) {
        return exec::ThreadPool::Job();
      }
      // Queuing the helpers is reference work the close pays for too.
      obs::Span start_span(tracer_.get(), obs::Stage::kReference, bin);
      return pool->Start(0, replay_.size(), 1, [this](size_t k) { ReplayReference(replay_[k]); });
    }();
    forked_.clear();
    system_->ProcessBatch(batch_, fork_hook_);
    UpdateTallies(system_->log().back());
    {
      // With a pool this span is the reference time the close still waits for.
      obs::Span ref_span(tracer_.get(), obs::Stage::kReference, bin);
      if (references.empty()) {
        for (const size_t i : replay_) {
          ReplayReference(i);
        }
      } else {
        references.Join();
      }
      FinishReferences();
    }
    if (governor_ != nullptr) {
      governor_->End(bin_us_, open_bin_);
      system_->MarkDeadline(governor_->last_deadline_missed(), governor_->last_overrun_us());
    }
    {
      obs::Span sink_span(tracer_.get(), obs::Stage::kSink, bin);
      NotifyObservers();
    }
  }

  batch_.packets.clear();
  records_.clear();
  arena_.clear();
  ingest_head_ = 0;
  wire_bytes_ = 0;
  ++bins_processed_;
  ++open_bin_;
  MaybeCheckpoint();
  RefreshStats();
}

void Pipeline::PlanReferences() {
  replay_.clear();
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.reference == nullptr || slot.counted) {
      continue;
    }
    if (slot.ref_bins_in_interval == 0) {
      // A query shed in its last interval is likely shed again: replaying
      // from bin 0 keeps that replay on the pool, overlapping the waves,
      // instead of forking it later onto the coordinator.
      slot.elided = slot.elidable && !slot.shed &&
                    slot.reference->AdoptableFrom(system_->query(i));
      slot.shed = false;
    }
    if (!slot.elided) {
      replay_.push_back(i);
    }
  }
}

void Pipeline::ForkInexact(std::span<const core::QueryRun> runs) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    const core::QueryRun& run = runs[i];
    // Exact: the query sees this whole bin unscaled, as its reference would
    // (a rate within kEps of 1 skips sampling but still rescales by 1/rate).
    if (slot.reference == nullptr || (run.execute && !run.custom && run.rate == 1.0)) {
      continue;
    }
    slot.shed = true;
    if (slot.elided) {
      obs::Span span(tracer_.get(), obs::Stage::kReference, static_cast<uint32_t>(open_bin_));
      slot.reference->AdoptFrom(system_->query(i), query::Query::Adopt::kOpen);
      slot.elided = false;
      forked_.push_back(i);
    }
  }
}

void Pipeline::FinishReferences() {
  for (const size_t i : forked_) {
    ReplayReference(i);
  }
  size_t elided = 0;
  size_t counted = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.counted) {
      // A packet counter's ProcessBatch only adds the bin's packet count.
      ReplayReference(i);
      ++counted;
      continue;
    }
    if (!slot.elided) {
      continue;
    }
    ++elided;
    if (++slot.ref_bins_in_interval >= slot.reference->interval_bins()) {
      // The system query closed this interval in ProcessBatch.
      slot.reference->AdoptFrom(system_->query(i), query::Query::Adopt::kLastClosed);
      slot.ref_bins_in_interval = 0;
    }
  }
  m_ref_replayed_->Add(static_cast<double>(replay_.size() + forked_.size()));
  m_ref_elided_->Add(static_cast<double>(elided));
  m_ref_counted_->Add(static_cast<double>(counted));
}

void Pipeline::ReplayReference(size_t i) {
  Slot& slot = slots_[i];
  slot.reference->ProcessBatch(
      {batch_.packets, batch_.start_us, batch_.duration_us, 1.0, &batch_.flows});
  if (++slot.ref_bins_in_interval >= slot.reference->interval_bins()) {
    slot.reference->EndInterval();
    slot.ref_bins_in_interval = 0;
  }
}

void Pipeline::NotifyObservers() {
  if (observers_.empty()) {
    return;
  }
  const core::BinLog& log = system_->log().back();
  BinStats stats;
  stats.bin_index = bins_processed_;
  stats.num_queries = system_->num_queries();
  stats.capacity = system_->capacity();
  stats.spent_cycles = log.query_cycles + log.ps_cycles + log.ls_cycles + log.como_cycles;
  stats.utilization = stats.capacity > 0.0 ? stats.spent_cycles / stats.capacity : 0.0;
  const double in_pkts = static_cast<double>(log.packets_in);
  stats.drop_fraction = in_pkts > 0.0 ? static_cast<double>(log.packets_dropped) / in_pkts : 0.0;
  stats.shed_fraction = in_pkts > 0.0 ? log.packets_unsampled / in_pkts : 0.0;
  stats.query_names.reserve(system_->num_queries());
  for (size_t q = 0; q < system_->num_queries(); ++q) {
    stats.query_names.push_back(system_->query(q).name());
  }
  for (BinObserver* observer : observers_) {
    observer->OnBin(log, stats);
  }
}

void Pipeline::Finish() {
  if (finished_) {
    return;
  }
  StopCapture();  // drain everything already captured into the open bin
  if (open_records() > 0) {
    CloseOpenBin();
  }
  system_->Finish();
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.reference == nullptr || slot.ref_bins_in_interval == 0) {
      continue;
    }
    if (slot.elided) {
      // system_->Finish() closed the query's partial interval just now.
      slot.reference->AdoptFrom(system_->query(i), query::Query::Adopt::kLastClosed);
    } else {
      slot.reference->EndInterval();
    }
    slot.ref_bins_in_interval = 0;
  }
  finished_ = true;
  for (BinObserver* observer : observers_) {
    observer->OnRunEnd();
  }
  if (logger_ != nullptr) {
    logger_->Write(obs::LogEvent("finish")
                       .Int("bins", bins_processed_)
                       .Int("packets", system_->total_packets())
                       .Int("dropped", system_->total_dropped()));
    logger_->Flush();
  }
  RefreshStats();
}

void Pipeline::UpdateTallies(const core::BinLog& log) {
  ++tally_bins_;
  shed_packets_ += log.packets_unsampled;
  if (log.overload) {
    ++overload_bins_;
  }
  if (log.batch_dropped) {
    ++batches_dropped_;
  }
  const double capacity = system_->capacity();
  const double spent = log.query_cycles + log.ps_cycles + log.ls_cycles + log.como_cycles;
  last_util_ = capacity > 0.0 ? spent / capacity : 0.0;
  util_sum_ += last_util_;
  if (logger_ != nullptr) {
    logger_->Write(obs::LogEvent("bin_closed")
                       .Int("bin", open_bin_)
                       .Int("packets", log.packets_in)
                       .Int("dropped", log.packets_dropped)
                       .Num("shed", log.packets_unsampled)
                       .Bool("overload", log.overload)
                       .Num("utilization", last_util_)
                       .Num("backlog_cycles", log.backlog_cycles));
  }
}

PipelineStats Pipeline::Stats() const {
  util::MutexLock lock(stats_mutex_);
  return published_stats_;
}

PipelineStats Pipeline::ComputeStats() const {
  PipelineStats stats;
  stats.bins = bins_processed_;
  stats.queries = system_->num_queries();
  stats.packets = system_->total_packets();
  stats.dropped = system_->total_dropped();
  stats.shed = shed_packets_;
  stats.overload_bins = overload_bins_;
  stats.batches_dropped = batches_dropped_;
  stats.capacity = system_->capacity();
  stats.last_utilization = last_util_;
  stats.mean_utilization = tally_bins_ > 0 ? util_sum_ / static_cast<double>(tally_bins_) : 0.0;
  stats.prediction_error_ewma = system_->error_ewma_value();
  stats.backlog_cycles = system_->backlog_cycles();
  stats.ingest_dropped = ingest_dropped_;
  stats.deadline_misses = governor_ != nullptr ? governor_->deadline_misses() : 0;
  stats.degradation_level = governor_ != nullptr ? governor_->level() : 0;
  stats.checkpoints = checkpoints_written_;
  stats.ingest_copied_bytes = ingest_copied_bytes_;
  if (capture_ != nullptr) {
    const capture::CaptureStats capture_stats = capture_->stats();
    stats.capture_packets = capture_stats.packets;
    stats.capture_dropped = capture_stats.dropped();
  }
  return stats;
}

void Pipeline::RefreshStats() {
  PipelineStats stats = ComputeStats();
  size_t quarantined = 0;
  for (ResilientSinkBase* sink : rt_sinks_) {
    quarantined += sink->quarantined() ? 1 : 0;
  }
  util::MutexLock lock(stats_mutex_);
  published_stats_ = stats;
  published_quarantined_sinks_ = quarantined;
}

void Pipeline::StartCapture(capture::CaptureConfig config) {
  EnsureOpen("StartCapture");
  if (capture_ != nullptr) {
    throw ConfigError("Pipeline::StartCapture: capture was already started");
  }
  if (config.clock == nullptr) {
    config.clock = clock_;  // may still be null; the loop falls back to DefaultClock
  }
  capture_sink_ = std::make_unique<PipelineIngestSink>(this);
  try {
    capture_ = std::make_unique<capture::CaptureLoop>(std::move(config), capture_sink_.get(),
                                                      &system_->metrics(), tracer_.get());
    // Publish before Start(): from then on the consumer thread is the
    // coordinator and reads capture_ and the tallies itself.
    RefreshStats();
    capture_->Start();
  } catch (const std::exception& e) {
    capture_.reset();
    capture_sink_.reset();
    throw ConfigError(std::string("capture: ") + e.what());
  }
}

void Pipeline::StopCapture() {
  if (capture_ != nullptr && capture_->running()) {
    capture_->Stop();
    RefreshStats();
  }
}

capture::CaptureStats Pipeline::capture_stats() const {
  return capture_ != nullptr ? capture_->stats() : capture::CaptureStats{};
}

void Pipeline::SetLogger(std::unique_ptr<obs::JsonlLogger> logger) {
  logger_ = std::move(logger);
  // The governor and resilient sinks hold a borrowed logger pointer;
  // re-attach so their events follow the replacement (or detach on null).
  if (governor_ != nullptr) {
    governor_->Attach(&system_->metrics(), logger_.get());
  }
  AttachSinkRt();
}

// ---------------------------------------------------------------------------
// Real-time robustness
// ---------------------------------------------------------------------------

void Pipeline::AttachSinkRt() {
  for (ResilientSinkBase* sink : rt_sinks_) {
    sink->AttachRt(injector_.get(), &system_->metrics(), logger_.get());
  }
}

void Pipeline::MaybeCheckpoint() {
  if (checkpoint_path_.empty()) {
    return;
  }
  const size_t every =
      checkpoint_every_ > 0 ? checkpoint_every_ : system_->config().system_interval_bins;
  if (bins_processed_ == 0 || bins_processed_ % every != 0) {
    return;
  }
  // Snapshots are only legal on measurement-interval boundaries; off-cadence
  // configurations simply skip until the two align.
  if (!system_->AtIntervalBoundary() || open_records() > 0) {
    return;
  }
  try {
    obs::Span span(tracer_.get(), obs::Stage::kCheckpoint, static_cast<uint32_t>(open_bin_));
    std::ostringstream buf(std::ios::binary);
    Snapshot(buf);
    std::string bytes = buf.str();
    if (injector_ != nullptr && injector_->TakeSnapshotCorruption() && !bytes.empty()) {
      bytes[bytes.size() / 2] ^= 0x20;  // injected torn/corrupt checkpoint
    }
    rt::WriteFileAtomic(checkpoint_path_, bytes);
    ++checkpoints_written_;
    if (logger_ != nullptr) {
      logger_->Write(obs::LogEvent("rt_checkpoint")
                         .Str("path", checkpoint_path_)
                         .Int("bin", open_bin_)
                         .Int("bytes", bytes.size()));
    }
  } catch (const std::exception& e) {
    // Losing a checkpoint must not kill the measurement: log and move on.
    if (logger_ != nullptr) {
      logger_->Write(obs::LogEvent("rt_checkpoint_failed")
                         .Str("path", checkpoint_path_)
                         .Int("bin", open_bin_)
                         .Str("error", e.what()));
    }
  }
}

query::AccuracyRow Pipeline::AccuracyAt(size_t index) const {
  if (index >= slots_.size()) {
    throw std::out_of_range("Pipeline::AccuracyAt: no query at this index");
  }
  if (slots_[index].reference == nullptr) {
    throw std::logic_error("Pipeline::AccuracyAt: no reference tracked for this query");
  }
  return query::SummarizeAccuracy(system_->query(index), *slots_[index].reference);
}

double Pipeline::MeanAccuracyAt(size_t index) const {
  return std::clamp(1.0 - AccuracyAt(index).mean_error, 0.0, 1.0);
}

double Pipeline::AverageAccuracy() const {
  double sum = 0.0;
  size_t tracked = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].reference != nullptr) {
      sum += MeanAccuracyAt(i);
      ++tracked;
    }
  }
  return tracked == 0 ? 0.0 : sum / static_cast<double>(tracked);
}

double Pipeline::MinimumAccuracy() const {
  double min = 1.0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].reference != nullptr) {
      min = std::min(min, MeanAccuracyAt(i));
    }
  }
  return min;
}

// ---------------------------------------------------------------------------
// Tracing & HTTP endpoint
// ---------------------------------------------------------------------------

void Pipeline::DumpTrace(const std::string& path) const {
  if (tracer_ == nullptr) {
    throw std::logic_error("Pipeline::DumpTrace: tracing is not enabled");
  }
  if (!tracer_->WriteChromeTrace(path)) {
    throw std::runtime_error("Pipeline::DumpTrace: cannot write '" + path + "'");
  }
}

namespace {

void AppendJsonKey(std::ostream& out, bool& first, std::string_view key) {
  out << (first ? "" : ",") << '"' << key << "\":";
  first = false;
}

void StatsToJson(const PipelineStats& stats, size_t quarantined_sinks, std::ostream& out) {
  bool first = true;
  out << '{';
  AppendJsonKey(out, first, "bins");
  out << stats.bins;
  AppendJsonKey(out, first, "queries");
  out << stats.queries;
  AppendJsonKey(out, first, "packets");
  out << stats.packets;
  AppendJsonKey(out, first, "dropped");
  out << stats.dropped;
  AppendJsonKey(out, first, "shed");
  out << stats.shed;
  AppendJsonKey(out, first, "overload_bins");
  out << stats.overload_bins;
  AppendJsonKey(out, first, "batches_dropped");
  out << stats.batches_dropped;
  AppendJsonKey(out, first, "capacity");
  out << stats.capacity;
  AppendJsonKey(out, first, "last_utilization");
  out << stats.last_utilization;
  AppendJsonKey(out, first, "mean_utilization");
  out << stats.mean_utilization;
  AppendJsonKey(out, first, "prediction_error_ewma");
  out << stats.prediction_error_ewma;
  AppendJsonKey(out, first, "backlog_cycles");
  out << stats.backlog_cycles;
  AppendJsonKey(out, first, "ingest_dropped");
  out << stats.ingest_dropped;
  AppendJsonKey(out, first, "deadline_misses");
  out << stats.deadline_misses;
  AppendJsonKey(out, first, "degradation_level");
  out << stats.degradation_level;
  AppendJsonKey(out, first, "degradation_rung");
  out << '"' << rt::DegradeActionName(static_cast<uint8_t>(stats.degradation_level)) << '"';
  AppendJsonKey(out, first, "checkpoints");
  out << stats.checkpoints;
  AppendJsonKey(out, first, "capture_packets");
  out << stats.capture_packets;
  AppendJsonKey(out, first, "capture_dropped");
  out << stats.capture_dropped;
  AppendJsonKey(out, first, "ingest_copied_bytes");
  out << stats.ingest_copied_bytes;
  AppendJsonKey(out, first, "quarantined_sinks");
  out << quarantined_sinks;
  out << '}';
}

}  // namespace

obs::ObsServer::Response Pipeline::HandleHttp(const std::string& raw_path) const {
  // Scrapers commonly append query strings ("/metrics?format=..."); route on
  // the path alone.
  const std::string path = raw_path.substr(0, raw_path.find('?'));

  PipelineStats stats;
  size_t quarantined = 0;
  {
    util::MutexLock lock(stats_mutex_);
    stats = published_stats_;
    quarantined = published_quarantined_sinks_;
  }

  obs::ObsServer::Response response;
  if (path == "/metrics") {
    response.body = obs::PrometheusEncoder::Encode(system_->metrics().Snapshot());
    return response;
  }
  if (path == "/healthz") {
    const bool degraded = stats.degradation_level > 0 || quarantined > 0;
    std::ostringstream body;
    body << "{\"status\":\"" << (degraded ? "degraded" : "ok") << "\",\"degradation_level\":"
         << stats.degradation_level << ",\"degradation_rung\":\""
         << rt::DegradeActionName(static_cast<uint8_t>(stats.degradation_level))
         << "\",\"deadline_misses\":" << stats.deadline_misses
         << ",\"quarantined_sinks\":" << quarantined << ",\"bins\":" << stats.bins << "}\n";
    response.content_type = "application/json";
    response.body = body.str();
    return response;
  }
  if (path == "/stats") {
    std::ostringstream body;
    StatsToJson(stats, quarantined, body);
    body << '\n';
    response.content_type = "application/json";
    response.body = body.str();
    return response;
  }
  if (path == "/trace") {
    obs::Tracer* tracer = tracer_view_.load(std::memory_order_acquire);
    if (tracer == nullptr) {
      response.status = 404;
      response.body = "tracing disabled; build the pipeline with Tracing()\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = tracer->ExportChromeTrace();
    return response;
  }
  if (path == "/" || path.empty()) {
    response.body = "shedmon observability endpoint\n/metrics\n/healthz\n/stats\n/trace\n";
    return response;
  }
  response.status = 404;
  response.body = "not found: " + path + "\n";
  return response;
}

}  // namespace shedmon::api
