#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/core/cost.h"
#include "src/exec/query_executor.h"
#include "src/exec/thread_pool.h"
#include "src/features/extractor.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/predict/engine.h"
#include "src/query/query.h"
#include "src/shed/enforcement.h"
#include "src/shed/sampler.h"
#include "src/rt/fault.h"
#include "src/rt/governor.h"
#include "src/shed/strategy.h"
#include "src/trace/batch.h"
#include "src/trace/flow_table.h"
#include "src/util/ewma.h"
#include "src/util/rng.h"

namespace shedmon::core {

// How overload is handled (§4.5.1 / §5.5.3 systems under comparison).
enum class ShedderKind {
  kNoShed,     // "original": drop packets when the capture buffer fills
  kReactive,   // SEDA-like: rate from the previous bin's consumption (eq. 4.1)
  kPredictive  // Alg. 1: predict, then allocate via a ShedStrategy
};

struct QueryConfig {
  // m_q: minimum sampling rate the user declares (Ch. 5); 0 = no floor.
  double min_sampling_rate = 0.0;
  // Allow this query to use its own shedding method when it offers one and
  // the system has custom shedding enabled (Ch. 6).
  bool allow_custom_shedding = true;
};

struct SystemConfig {
  uint64_t time_bin_us = 100'000;
  // System capacity C in cycles per time bin. <= 0 means "use the oracle's
  // real-time budget" (only meaningful with the measured oracle).
  double cycles_per_bin = 0.0;
  ShedderKind shedder = ShedderKind::kPredictive;
  shed::StrategyKind strategy = shed::StrategyKind::kEqSrates;
  predict::PredictorConfig predictor;
  features::FeatureExtractor::Config extractor;
  // Capture buffer size in time bins. The thesis's testbed had 256 MB of DAG
  // buffer (seconds of traffic); its 200 ms figure was only the emulation
  // used to estimate the no-shedding baseline's error. Five bins (500 ms)
  // absorb a single badly under-predicted burst bin without uncontrolled
  // loss while still exposing sustained overload in the baselines.
  double buffer_bins = 5.0;
  // EWMA weight for the prediction-error and overhead smoothers (§4.3).
  double ewma_alpha = 0.9;
  // Inflate demands by the smoothed prediction error (Alg. 1 line 8's
  // "(1 + error_hat)" safeguard). Disable only for ablation studies.
  bool error_margin_enabled = true;
  // Fixed share of capacity consumed by core CoMo tasks (capture, storage).
  double como_overhead_fraction = 0.05;
  // alpha floor of the reactive controller (eq. 4.1).
  double reactive_min_rate = 0.05;
  // Measurement interval of the shared prediction-stage feature extractor.
  size_t system_interval_bins = 10;
  // §4.1 buffer-discovery (slow-start) threshold on top of avail_cycles.
  bool rtthresh_enabled = true;
  // Cold-start guard: while a query's prediction model has fewer than
  // `warmup_observations`, its batches are probed at most at `bootstrap_rate`
  // so an unknown (possibly expensive) query cannot blow the cycle budget
  // before the system has learned its cost. The linear feature model then
  // extrapolates from the sampled observations to full batches.
  size_t warmup_observations = 5;
  double bootstrap_rate = 0.1;
  // Ch. 6: let queries that support it shed their own load, policed by the
  // enforcement policy.
  bool enable_custom_shedding = false;
  shed::EnforcementConfig enforcement;
  uint64_t seed = 42;
  // Worker threads for the per-bin, per-query pipeline stages (sampling,
  // query processing, post-shed re-extraction, model fits) and for the
  // reference instances an api::Pipeline runs. 0 = serial, today's
  // single-threaded behavior. Any value yields bit-identical BinLogs and
  // accuracies under the deterministic model oracle: per-query work fans out
  // over an exec::ThreadPool while cost charges are sequenced and results
  // folded into the BinLog in registration order on the coordinating thread.
  // A query's batch always runs whole, as one task on one worker.
  size_t num_threads = 0;
};

// Everything the system recorded about one time bin, the raw material for
// every Ch. 4-6 figure.
struct BinLog {
  uint64_t start_us = 0;
  size_t packets_in = 0;
  size_t packets_dropped = 0;    // uncontrolled (capture buffer overflow)
  double packets_unsampled = 0;  // shed deliberately via sampling
  bool batch_dropped = false;
  bool overload = false;
  double predicted_cycles = 0.0;  // sum over queries, before safety margin
  double avail_cycles = 0.0;
  double query_cycles = 0.0;  // measured, after shedding
  double ps_cycles = 0.0;     // prediction subsystem (extraction + fit)
  double ls_cycles = 0.0;     // load shedding (sampling + re-extraction)
  double como_cycles = 0.0;
  double backlog_cycles = 0.0;  // buffer occupancy after this bin
  double rtthresh = 0.0;
  std::vector<double> rate;          // per query
  std::vector<double> per_query_cycles;
  std::vector<bool> disabled;
  // Real-time robustness bookkeeping (src/rt). All three stay at their zero
  // defaults unless a deadline governor is attached and fired, so runs
  // without one are bit-identical to pre-rt builds.
  uint8_t degradation = 0;       // rt::DegradeAction applied to this bin
  bool deadline_missed = false;  // bin overran its wall-clock budget
  double deadline_overrun_us = 0.0;
};

// One query's share of a bin as the system is about to run it, handed to
// ProcessBatch's pre-execution hook.
struct QueryRun {
  bool execute = false;  // false: the query sees nothing of this bin
  bool custom = false;   // Ch. 6: the query sheds its own load
  double rate = 0.0;     // sampling rate the query's results are scaled by
};
// Called once per bin on the coordinating thread, after the shedding
// decision and before any query's state changes, with one entry per
// registered query in registration order. A dropped bin passes entries that
// do not execute. The hook may read the queries, never change them.
using PreExecuteHook = std::function<void(std::span<const QueryRun>)>;

// The CoMo-like monitoring pipeline with the thesis's load shedding scheme.
// Offline and online behave identically (§2.3.2); capacity is an explicit
// cycle budget per 100 ms bin, and a backlog/buffer emulation produces the
// uncontrolled drops the reactive and no-shedding baselines suffer.
class MonitoringSystem {
 public:
  MonitoringSystem(const SystemConfig& config, std::unique_ptr<CostOracle> oracle);
  ~MonitoringSystem();

  MonitoringSystem(const MonitoringSystem&) = delete;
  MonitoringSystem& operator=(const MonitoringSystem&) = delete;

  // Registers a query before or between batches (Fig. 6.9 adds them mid-run).
  query::Query& AddQuery(std::unique_ptr<query::Query> query, const QueryConfig& config = {});

  // Unregisters the query at `index` between batches and returns it so its
  // results stay readable. Later queries shift down one index, which is why
  // the supported public surface (api::Pipeline) hands out stable handles
  // instead of indices. Throws std::out_of_range on a bad index.
  std::unique_ptr<query::Query> RemoveQuery(size_t index);

  // `pre_execute`, when set, sees every query's share of this bin before
  // the queries run (see PreExecuteHook).
  void ProcessBatch(const trace::Batch& batch, const PreExecuteHook& pre_execute = nullptr);
  // Flushes any partially filled measurement intervals at end of input.
  void Finish();

  const std::vector<BinLog>& log() const { return log_; }
  size_t num_queries() const { return queries_.size(); }
  query::Query& query(size_t i) { return *queries_[i]->query; }
  const query::Query& query(size_t i) const { return *queries_[i]->query; }
  const shed::EnforcementPolicy& enforcement(size_t i) const { return queries_[i]->enforcement; }
  // The query's cost model and feature counter (read-only).
  const predict::PredictionEngine& engine(size_t i) const { return queries_[i]->engine; }

  const SystemConfig& config() const { return config_; }
  double capacity() const { return capacity_; }
  // Worker pool behind num_threads; null when the system runs serially. The
  // facade reuses it between batches (e.g. for reference instances); it must
  // only be driven from the coordinating thread, never from inside a batch.
  exec::ThreadPool* pool() const { return pool_.get(); }

  uint64_t total_packets() const { return total_packets_; }
  uint64_t total_dropped() const { return total_dropped_; }

  // ---- Observability -------------------------------------------------------
  // Live metrics registry; always present. The hot path caches instrument
  // pointers, updates them once per bin on the coordinating thread, and
  // never reads them back, so scraping at any moment cannot perturb results.
  obs::MetricsRegistry& metrics() { return *registry_; }
  const obs::MetricsRegistry& metrics() const { return *registry_; }

  // Optional span tracer: when set, every bin records per-stage spans
  // (shared extraction, prediction, shedding decision, per-query
  // execution). Borrowed pointer; nullptr
  // (the default) detaches. Spans are write-only like the metrics, so traced
  // runs stay bit-identical.
  void SetTracer(obs::Tracer* tracer);

  const QueryConfig& query_config(size_t i) const { return queries_[i]->config; }
  double backlog_cycles() const { return backlog_cycles_; }
  double error_ewma_value() const { return error_ewma_.value(); }

  // ---- Real-time robustness (src/rt) ---------------------------------------
  // Degradation directive for subsequent ProcessBatch calls, normally issued
  // per bin by a rt::DeadlineGovernor (via api::Pipeline). kBoostShedding
  // scales granted sampling rates by rate_scale (never below a query's
  // declared minimum — if the floors themselves bust the budget the ladder
  // escalates past them); kTruncate additionally disables the last
  // `truncate_queries` enabled queries (highest registration index = lowest
  // priority); kDropBin discards the whole batch like a capture-buffer
  // overflow. A default-constructed Directive restores normal processing and
  // is bit-exact with never having called this.
  void SetDegradation(const rt::Directive& directive) { degrade_ = directive; }
  // Fault-injection hook; nullptr (the default) detaches. The injector's
  // OnBinStart fires before each batch and its worker hook is threaded
  // through the exec fan-out.
  void SetFaultInjector(rt::FaultInjector* injector);
  // Stamps the governor's stopwatch verdict onto the most recent bin; the
  // fields are pure bookkeeping read by sinks/tests, never by shedding.
  void MarkDeadline(bool missed, double overrun_us);

  // ---- Snapshot/restore ----------------------------------------------------
  // True when every query's measurement interval and the system's shared
  // interval are freshly reset — the only points where per-interval query
  // and extractor state is empty, making the numeric state below a complete
  // description of the run.
  bool AtIntervalBoundary() const;
  // Serializes the mutable numeric state (RNG, smoothers, buffer/threshold,
  // per-query sampler/enforcement/predictor state, oracle state). The
  // configuration and query roster travel separately (api::Pipeline writes
  // them first); LoadState expects the same roster in the same order.
  void SaveState(obs::SnapshotWriter& w) const;
  void LoadState(obs::SnapshotReader& r);

 private:
  struct QueryRuntime {
    std::unique_ptr<query::Query> query;
    QueryConfig config;
    predict::PredictionEngine engine;
    shed::PacketSampler pkt_sampler;
    shed::FlowSampler flow_sampler;
    shed::EnforcementPolicy enforcement;
    size_t bins_in_interval = 0;
    // Per-query instruments (labelled {query=<name>}), borrowed from
    // registry_; set right after registration, written once per bin by the
    // coordinator.
    obs::Gauge* m_rate = nullptr;
    obs::Counter* m_cycles = nullptr;
    obs::Counter* m_disabled_bins = nullptr;
    obs::Gauge* m_times_policed = nullptr;
    // Reusable buffers the samplers write into: sampling a batch stops
    // allocating once they have grown to the query's working set.
    // sample_rows[i] is the row of sample_buf[i] in the batch, and
    // sample_flows totals those rows per flow (a FlowTable::Subset of the
    // bin's table): what the query and the history update visit. Valid only
    // within the bin's query wave — the Packets point into the current
    // Batch's arena — so ExecuteQuery clears the buffers (capacity kept)
    // and none of the three may be read between bins.
    trace::PacketVec sample_buf;
    std::vector<uint32_t> sample_rows;
    trace::FlowTable sample_flows;
  };

  // One query's share of a bin as a shedder decided it. The three shedders
  // differ only in how they fill these; ExecuteBin runs every plan the same
  // way.
  struct QueryPlan {
    double rate = 0.0;
    // Runs iff the query is neither disabled nor granted a zero rate; a
    // query that does not run has its whole share of the batch shed.
    bool execute = false;
    bool custom = false;    // Ch. 6: the query sheds its own load at `rate`
    double expected = 0.0;  // granted cycles, rate x predicted demand (predictive)
    uint64_t base_seq = 0;  // first reserved charge slot (set by ExecuteBin)
  };
  // The prediction stage's extraction of the whole bin, shared with every
  // query's history update (§3.4.4): its features, reused at full rate, and
  // its keys, which each query's counter re-counts over the flows it kept.
  struct SharedExtraction {
    const features::FeatureVector& features;
    const features::BinKeys& keys;
  };
  // What ExecuteBin hands back to the shedder's smoothers.
  struct BinTotals {
    double used = 0.0;         // measured query cycles
    double expected = 0.0;     // sum of the executed plans' expected cycles
    double measured_ls = 0.0;  // load shedding cycles the queries charged
  };

  // The shedders: each decides the bin's rates (and updates its own
  // smoothers), then hands the plan to ExecuteBin.
  void RunPredictive(const trace::Batch& batch, BinLog& log);
  void RunReactive(const trace::Batch& batch, BinLog& log);
  void RunNoShed(const trace::Batch& batch, BinLog& log);
  void RecordDroppedBin(const trace::Batch& batch, BinLog& log);
  // Applies the active directive's boost/truncate rungs to a finished rate
  // allocation, in place; shared by the predictive and reactive paths.
  void ApplyDegradation(std::vector<double>& rate, std::vector<bool>& disabled);
  // Runs one bin's plan: reserves the charge slots in registration order,
  // fans the queries out in one wave, and folds their results into `log` in
  // registration order — charges, packets shed, per-query and total query
  // cycles. A non-null `shared` (predictive only)
  // feeds the cost models from the prediction-stage extraction.
  BinTotals ExecuteBin(const trace::Batch& batch, std::vector<QueryPlan>& plan,
                       const SharedExtraction* shared, BinLog& log);

  // What one query's execution inside a bin produced. Tasks run on workers
  // and only touch state owned by their query; everything order-sensitive is
  // carried here and folded into the BinLog by ExecuteBin — the one place
  // the fold happens — on the coordinating thread in registration order,
  // replaying the serial schedule charge by charge so accumulated cycle
  // counters are bit-identical to serial execution.
  struct QueryTaskResult {
    struct Charge {
      bool ls = false;  // ls_cycles (true) or ps_cycles (false)
      double cycles = 0.0;
    };
    double used = 0.0;       // measured query cycles
    double unsampled = 0.0;  // contribution to BinLog::packets_unsampled
    // Subsystem charges in serial call order. Capacity 3 is exact: the
    // sampled update_history path charges sampling + re-extraction + fit
    // (the query charge itself travels in `used`).
    std::array<Charge, 3> charges{};
    size_t num_charges = 0;

    void AddCharge(bool ls, double cycles) {
      assert(num_charges < charges.size());
      charges[num_charges++] = {ls, cycles};
    }
  };

  // Number of oracle calls one query's execution will make for the given
  // parameters; the coordinator reserves exactly this many charge slots per
  // query (in registration order) before fanning tasks out, so sequenced
  // charges match the serial call schedule no matter which worker runs when.
  static uint64_t PlanOracleCalls(double rate, bool update_history);
  static uint64_t PlanCustomOracleCalls(double rate);

  // The per-query pipeline for one bin: samples the batch (totalling the
  // kept rows per flow); when `shared` is set, re-counts the kept flows'
  // features for the history update (reusing the shared features at full
  // rate — the §3.4.4 computation sharing); runs the query over the sampled
  // view; then fits the cost model (Alg. 1 line 12). Consumes reserved
  // charge slots from `base_seq`. Safe to call concurrently for distinct
  // queries.
  QueryTaskResult ExecuteQuery(QueryRuntime& qr, const trace::Batch& batch, double rate,
                               const SharedExtraction* shared, uint64_t base_seq);
  // Custom-shedding execution path (Ch. 6). Only the predictive shedder
  // delegates, so the shared extraction is always there.
  QueryTaskResult ExecuteCustom(QueryRuntime& qr, const trace::Batch& batch, double rate,
                                double granted, const SharedExtraction& shared,
                                uint64_t base_seq);

  void TickIntervals();
  void UpdateBufferAndThreshold(double spent_total);

  // System-level instruments, borrowed from registry_ and cached at
  // construction so per-bin updates are pointer stores, not map lookups.
  struct Instruments {
    obs::Counter* bins_total = nullptr;
    obs::Counter* packets_total = nullptr;
    obs::Counter* packets_dropped_total = nullptr;
    obs::Counter* packets_shed_total = nullptr;
    obs::Counter* batches_dropped_total = nullptr;
    obs::Counter* overload_bins_total = nullptr;
    obs::Gauge* capacity_cycles = nullptr;
    obs::Gauge* backlog_cycles = nullptr;
    obs::Gauge* rtthresh_cycles = nullptr;
    obs::Gauge* avail_cycles = nullptr;
    obs::Gauge* utilization = nullptr;
    obs::Gauge* prediction_error_ewma = nullptr;
    obs::Histogram* bin_utilization = nullptr;
    obs::Histogram* prediction_error_ratio = nullptr;
    // Indexed by ladder rung (1=boost 2=truncate 3=drop; [0] unused) so each
    // degraded bin counts under its rung-name label.
    std::array<obs::Counter*, 4> rt_degraded_bins{};
    obs::Counter* rt_dropped_bins = nullptr;
    obs::Counter* rt_truncated_queries = nullptr;
  };

  void InitInstruments();
  // Publishes one finished bin into the registry. Runs on the coordinating
  // thread after the bin's BinLog is final; reads the log, never writes any
  // shedding state, so it cannot perturb results.
  void UpdateBinInstruments(const BinLog& log);

  SystemConfig config_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  Instruments ins_;
  std::unique_ptr<CostOracle> oracle_;
  std::unique_ptr<exec::ThreadPool> pool_;  // null when num_threads == 0
  exec::QueryExecutor executor_;
  std::unique_ptr<shed::ShedStrategy> strategy_;
  features::FeatureExtractor sys_extractor_;
  std::vector<std::unique_ptr<QueryRuntime>> queries_;
  util::Rng rng_;
  rt::Directive degrade_;
  rt::FaultInjector* injector_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  const PreExecuteHook* pre_execute_ = nullptr;  // set for one ProcessBatch call
  // The flow table of the batch in ProcessBatch (set for one call): the
  // batch's own, or own_flows_ built for a batch that came without one.
  const trace::FlowTable* flows_ = nullptr;
  trace::FlowTable own_flows_;

  double capacity_ = 0.0;
  double backlog_cycles_ = 0.0;
  double rtthresh_ = 0.0;
  double ssthresh_ = 0.0;
  util::Ewma error_ewma_;     // \hat{error} of Alg. 1
  util::Ewma ls_ewma_;        // \hat{ls_cycles}
  util::Ewma ps_ewma_;        // prediction-subsystem overhead estimate
  double reactive_rate_ = 1.0;
  double reactive_consumed_prev_ = 0.0;
  size_t sys_bins_in_interval_ = 0;

  std::vector<BinLog> log_;
  uint64_t total_packets_ = 0;
  uint64_t total_dropped_ = 0;
};

}  // namespace shedmon::core
