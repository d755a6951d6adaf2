#include "src/core/system.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "src/obs/trace.h"

namespace shedmon::core {

namespace {
constexpr double kEps = 1e-9;
// Above this rate the batch is considered unsampled and the history can be
// updated with full-cost observations on the custom-shedding path.
constexpr double kNearFullRate = 0.95;
}  // namespace

MonitoringSystem::MonitoringSystem(const SystemConfig& config,
                                   std::unique_ptr<CostOracle> oracle)
    : config_(config),
      registry_(std::make_unique<obs::MetricsRegistry>()),
      oracle_(std::move(oracle)),
      pool_(config.num_threads > 0 ? std::make_unique<exec::ThreadPool>(config.num_threads)
                                   : nullptr),
      executor_(pool_.get()),
      strategy_(shed::MakeStrategy(config.strategy)),
      sys_extractor_(config.extractor),
      rng_(config.seed),
      error_ewma_(config.ewma_alpha, 0.0),
      ls_ewma_(config.ewma_alpha, 0.0),
      ps_ewma_(config.ewma_alpha, 0.0) {
  capacity_ = config_.cycles_per_bin > 0.0 ? config_.cycles_per_bin
                                           : oracle_->DefaultBinBudget(config_.time_bin_us);
  ssthresh_ = config_.buffer_bins * capacity_;  // "initialized to infinity" (§4.1)
  InitInstruments();
}

void MonitoringSystem::InitInstruments() {
  obs::MetricsRegistry& reg = *registry_;
  ins_.bins_total = &reg.GetCounter("shedmon_bins_total", {}, "Time bins processed");
  ins_.packets_total =
      &reg.GetCounter("shedmon_packets_total", {}, "Packets offered to the system");
  ins_.packets_dropped_total = &reg.GetCounter(
      "shedmon_packets_dropped_total", {}, "Packets lost to capture buffer overflow (uncontrolled)");
  ins_.packets_shed_total = &reg.GetCounter(
      "shedmon_packets_shed_total", {}, "Packets shed deliberately via sampling (query-averaged)");
  ins_.batches_dropped_total =
      &reg.GetCounter("shedmon_batches_dropped_total", {}, "Whole batches lost to a full buffer");
  ins_.overload_bins_total = &reg.GetCounter("shedmon_overload_bins_total", {},
                                             "Bins where predicted demand exceeded budget");
  ins_.capacity_cycles = &reg.GetGauge("shedmon_capacity_cycles", {}, "Cycle budget per time bin");
  ins_.backlog_cycles =
      &reg.GetGauge("shedmon_backlog_cycles", {}, "Capture buffer occupancy after the last bin");
  ins_.rtthresh_cycles =
      &reg.GetGauge("shedmon_rtthresh_cycles", {}, "Buffer-discovery slack threshold (section 4.1)");
  ins_.avail_cycles =
      &reg.GetGauge("shedmon_avail_cycles", {}, "Cycles available to queries in the last bin");
  ins_.utilization =
      &reg.GetGauge("shedmon_utilization", {}, "Cycles spent over capacity in the last bin");
  ins_.prediction_error_ewma = &reg.GetGauge("shedmon_prediction_error_ewma", {},
                                             "Smoothed relative prediction error (Alg. 1)");
  ins_.bin_utilization =
      &reg.GetHistogram("shedmon_bin_utilization", {0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0},
                        {}, "Per-bin cycles spent over capacity");
  ins_.prediction_error_ratio = &reg.GetHistogram(
      "shedmon_prediction_error_ratio", {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0}, {},
      "Per-bin |predicted - actual| / actual query cycles");
  for (uint8_t rung = 1; rung <= 3; ++rung) {
    ins_.rt_degraded_bins[rung] = &reg.GetCounter(
        "shedmon_rt_degraded_bins_total", {{"rung", rt::DegradeActionName(rung)}},
        "Bins processed under a degradation directive, by ladder rung");
  }
  ins_.rt_dropped_bins = &reg.GetCounter("shedmon_rt_dropped_bins_total", {},
                                         "Bins dropped whole by the deadline ladder");
  ins_.rt_truncated_queries = &reg.GetCounter(
      "shedmon_rt_truncated_queries_total", {},
      "Query executions skipped by the truncation rung of the deadline ladder");
  ins_.capacity_cycles->Set(capacity_);

  if (pool_ != nullptr) {
    exec::PoolMetricsHooks hooks;
    hooks.queue_depth =
        &reg.GetGauge("shedmon_exec_queue_depth", {}, "Tasks waiting in the pool queue");
    hooks.tasks_total = &reg.GetCounter(
        "shedmon_exec_tasks_total", {},
        "Fork-join helper drains run by pool workers (not the caller's own chunks)");
    hooks.task_seconds =
        &reg.GetHistogram("shedmon_exec_task_seconds", {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0}, {},
                          "Wall time of one helper drain in seconds");
    pool_->SetMetrics(hooks);
    executor_.SetMetrics(
        &reg.GetHistogram("shedmon_exec_wave_seconds", {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0}, {},
                          "Per-bin query-wave wall time in seconds"));
  }
}

void MonitoringSystem::UpdateBinInstruments(const BinLog& log) {
  ins_.bins_total->Increment();
  ins_.packets_total->Add(static_cast<double>(log.packets_in));
  ins_.packets_dropped_total->Add(static_cast<double>(log.packets_dropped));
  ins_.packets_shed_total->Add(log.packets_unsampled);
  if (log.batch_dropped) {
    ins_.batches_dropped_total->Increment();
  }
  if (log.overload) {
    ins_.overload_bins_total->Increment();
  }
  ins_.capacity_cycles->Set(capacity_);
  ins_.backlog_cycles->Set(backlog_cycles_);
  ins_.rtthresh_cycles->Set(rtthresh_);
  ins_.avail_cycles->Set(log.avail_cycles);
  const double spent = log.query_cycles + log.ps_cycles + log.ls_cycles + log.como_cycles;
  const double util = capacity_ > kEps ? spent / capacity_ : 0.0;
  ins_.utilization->Set(util);
  ins_.bin_utilization->Observe(util);
  ins_.prediction_error_ewma->Set(error_ewma_.value());
  if (log.query_cycles > kEps && log.predicted_cycles > kEps) {
    ins_.prediction_error_ratio->Observe(
        std::abs(log.predicted_cycles - log.query_cycles) / log.query_cycles);
  }
  for (size_t q = 0; q < queries_.size(); ++q) {
    QueryRuntime& qr = *queries_[q];
    if (qr.m_rate == nullptr) {
      continue;
    }
    qr.m_rate->Set(q < log.rate.size() ? log.rate[q] : 0.0);
    qr.m_cycles->Add(q < log.per_query_cycles.size() ? log.per_query_cycles[q] : 0.0);
    if (q < log.disabled.size() && log.disabled[q]) {
      qr.m_disabled_bins->Increment();
    }
    qr.m_times_policed->Set(static_cast<double>(qr.enforcement.GetState().times_policed));
  }
}

MonitoringSystem::~MonitoringSystem() = default;

query::Query& MonitoringSystem::AddQuery(std::unique_ptr<query::Query> query,
                                         const QueryConfig& config) {
  auto runtime = std::make_unique<QueryRuntime>(QueryRuntime{
      std::move(query), config,
      predict::PredictionEngine(config_.predictor, config_.extractor),
      shed::PacketSampler(rng_.NextU64()), shed::FlowSampler(rng_.NextU64()),
      shed::EnforcementPolicy(config_.enforcement), 0, nullptr, nullptr, nullptr, nullptr, {}, {}});
  queries_.push_back(std::move(runtime));
  // Baseline the oracle's per-query bookkeeping: a no-op for fresh
  // instances, and what keeps a re-registered veteran instance charged only
  // for its new work.
  oracle_->OnQueryAdded(queries_.back()->query.get());
  QueryRuntime& qr = *queries_.back();
  const obs::LabelSet labels{{"query", qr.query->name()}};
  qr.m_rate = &registry_->GetGauge("shedmon_query_sampling_rate", labels,
                                   "Sampling rate granted in the last bin");
  qr.m_cycles =
      &registry_->GetCounter("shedmon_query_cycles_total", labels, "Measured query cycles");
  qr.m_disabled_bins = &registry_->GetCounter("shedmon_query_disabled_bins_total", labels,
                                              "Bins where the query was disabled");
  qr.m_times_policed = &registry_->GetGauge("shedmon_query_times_policed", labels,
                                            "Enforcement policing actions against the query");
  return *qr.query;
}

std::unique_ptr<query::Query> MonitoringSystem::RemoveQuery(size_t index) {
  if (index >= queries_.size()) {
    throw std::out_of_range("MonitoringSystem::RemoveQuery: no query at this index");
  }
  std::unique_ptr<query::Query> query = std::move(queries_[index]->query);
  queries_.erase(queries_.begin() + static_cast<std::ptrdiff_t>(index));
  // Drop the oracle's baseline for this instance so a future allocation
  // reusing the address can never inherit a stale work counter.
  oracle_->OnQueryRemoved(query.get());
  return query;
}

void MonitoringSystem::SetFaultInjector(rt::FaultInjector* injector) {
  injector_ = injector;
  executor_.SetFaultInjector(injector);
}

void MonitoringSystem::SetTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  executor_.SetTracer(tracer);
}

void MonitoringSystem::MarkDeadline(bool missed, double overrun_us) {
  if (log_.empty()) {
    return;
  }
  log_.back().deadline_missed = missed;
  log_.back().deadline_overrun_us = overrun_us;
}

// Accounts a bin whose batch is lost in its entirety before any query work:
// the capture-buffer overflow of Fig. 4.2 and the kDropBin rung of the
// deadline ladder share this path. The bin still drains capacity.
void MonitoringSystem::RecordDroppedBin(const trace::Batch& batch, BinLog& log) {
  if (*pre_execute_) {
    const std::vector<QueryRun> nothing(queries_.size());
    (*pre_execute_)(nothing);
  }
  log.batch_dropped = true;
  log.packets_dropped = batch.size();
  total_dropped_ += batch.size();
  backlog_cycles_ = std::max(0.0, backlog_cycles_ - capacity_);
  log.backlog_cycles = backlog_cycles_;
  log.rtthresh = rtthresh_;
  TickIntervals();
  UpdateBinInstruments(log);
  log_.push_back(std::move(log));
}

void MonitoringSystem::ProcessBatch(const trace::Batch& batch,
                                    const PreExecuteHook& pre_execute) {
  pre_execute_ = &pre_execute;
  // Batches from a Batcher or an api::Pipeline carry their flow table; one
  // filled by hand gets it built here.
  if (batch.flows.rows() == batch.size()) {
    flows_ = &batch.flows;
  } else {
    own_flows_.Build(batch.packets);
    flows_ = &own_flows_;
  }
  if (injector_ != nullptr) {
    injector_->OnBinStart(log_.size());
  }
  executor_.SetBinIndex(log_.size());

  BinLog log;
  log.start_us = batch.start_us;
  log.packets_in = batch.size();
  log.rate.assign(queries_.size(), 0.0);
  log.per_query_cycles.assign(queries_.size(), 0.0);
  log.disabled.assign(queries_.size(), false);
  log.como_cycles = config_.como_overhead_fraction * capacity_;
  log.degradation = static_cast<uint8_t>(degrade_.action);
  if (degrade_.action != rt::DegradeAction::kNone) {
    ins_.rt_degraded_bins[log.degradation]->Increment();
  }
  total_packets_ += batch.size();

  const double buffer_cap = config_.buffer_bins * capacity_;

  // Capture-buffer emulation: when the backlog has filled the buffer, the
  // incoming batch is lost in its entirety before any processing — these are
  // the uncontrolled "DAG drops" of Fig. 4.2.
  if (backlog_cycles_ >= buffer_cap - kEps) {
    RecordDroppedBin(batch, log);
    return;
  }

  // Final rung of the deadline ladder: processing keeps missing its
  // real-time budget even truncated, so sacrifice the whole bin to let the
  // system catch up — a controlled, accounted version of what a live probe
  // would otherwise suffer as capture-buffer overflow.
  if (degrade_.action == rt::DegradeAction::kDropBin) {
    ins_.rt_dropped_bins->Increment();
    RecordDroppedBin(batch, log);
    return;
  }

  switch (config_.shedder) {
    case ShedderKind::kPredictive:
      RunPredictive(batch, log);
      break;
    case ShedderKind::kReactive:
      RunReactive(batch, log);
      break;
    case ShedderKind::kNoShed:
      RunNoShed(batch, log);
      break;
  }

  const double spent =
      log.query_cycles + log.ps_cycles + log.ls_cycles + log.como_cycles;
  UpdateBufferAndThreshold(spent);
  log.backlog_cycles = backlog_cycles_;
  log.rtthresh = rtthresh_;

  TickIntervals();
  UpdateBinInstruments(log);
  log_.push_back(std::move(log));
}

void MonitoringSystem::ApplyDegradation(std::vector<double>& rate,
                                        std::vector<bool>& disabled) {
  if (degrade_.action == rt::DegradeAction::kNone) {
    return;
  }
  if (degrade_.rate_scale < 1.0) {
    for (size_t q = 0; q < rate.size(); ++q) {
      if (disabled[q]) {
        continue;
      }
      // Scale the grant but keep the user's declared minimum (m_q is a
      // contract, §5.2) as long as it was being honoured: if the floors
      // alone still bust the wall-clock budget, the ladder's next rungs —
      // truncation and whole-bin drops — break the contract explicitly and
      // observably instead of this rung eroding it silently.
      const double floor = std::min(rate[q], queries_[q]->config.min_sampling_rate);
      rate[q] = std::max(rate[q] * degrade_.rate_scale, floor);
    }
  }
  int left = degrade_.truncate_queries;
  for (size_t q = rate.size(); q-- > 0 && left > 0;) {
    if (disabled[q] || rate[q] <= kEps) {
      continue;
    }
    rate[q] = 0.0;
    disabled[q] = true;
    --left;
    ins_.rt_truncated_queries->Increment();
  }
}

uint64_t MonitoringSystem::PlanOracleCalls(double rate, bool update_history) {
  rate = std::clamp(rate, 0.0, 1.0);
  const bool sampled = rate < 1.0 - kEps;
  uint64_t calls = 1;  // the query itself
  if (sampled) {
    ++calls;  // sampler
  }
  if (update_history) {
    ++calls;  // model fit
    if (sampled) {
      ++calls;  // re-extraction (shared extraction reused at full rate)
    }
  }
  return calls;
}

uint64_t MonitoringSystem::PlanCustomOracleCalls(double rate) {
  return std::clamp(rate, 0.0, 1.0) >= kNearFullRate ? 3 : 1;
}

MonitoringSystem::QueryTaskResult MonitoringSystem::ExecuteQuery(QueryRuntime& qr,
                                                                 const trace::Batch& batch,
                                                                 double rate,
                                                                 const SharedExtraction* shared,
                                                                 uint64_t base_seq) {
  QueryTaskResult result;
  rate = std::clamp(rate, 0.0, 1.0);
  const trace::PacketVec* packets = &batch.packets;
  const trace::FlowTable* flows = flows_;
  if (rate < 1.0 - kEps) {
    WorkHint sample_hint{qr.query.get(), &batch.packets, 0.0};
    result.AddCharge(/*ls=*/true,
                     oracle_->RunAt(base_seq++, WorkKind::kSampling, sample_hint, [&] {
                       if (qr.query->preferred_sampling() != query::SamplingMethod::kFlow) {
                         qr.pkt_sampler.SampleInto(batch.packets, rate, qr.sample_buf,
                                                   qr.sample_rows);
                       } else {
                         qr.flow_sampler.SampleInto(batch.packets, *flows_, rate,
                                                    qr.sample_buf, qr.sample_rows);
                       }
                       qr.sample_flows.Subset(*flows_, qr.sample_rows);
                     }));
    packets = &qr.sample_buf;
    flows = &qr.sample_flows;
  }

  // Re-extract features on the packets the query actually processes so the
  // regression history stays consistent (Alg. 1 line 12): the query's own
  // counter re-counts the kept flows from the bin's shared keys, charged to
  // the load shedding subsystem. At full rate the prediction-stage
  // extraction is reused (§3.4.4 sharing). Reactive mode keeps no history
  // and skips this entirely.
  features::FeatureVector features{};
  if (shared != nullptr) {
    if (rate >= 1.0 - kEps) {
      features = shared->features;
    } else {
      WorkHint extract_hint{qr.query.get(), packets, 0.0};
      result.AddCharge(/*ls=*/true,
                       oracle_->RunAt(base_seq++, WorkKind::kFeatureExtraction, extract_hint, [&] {
                         features = qr.engine.counter().Count(shared->keys, qr.sample_flows);
                       }));
    }
  }

  query::BatchInput in{*packets, batch.start_us, batch.duration_us, rate, flows};
  WorkHint query_hint{qr.query.get(), packets, 0.0};
  const double used = oracle_->RunAt(base_seq++, WorkKind::kQuery, query_hint,
                                     [&] { qr.query->ProcessBatch(in); });

  if (shared != nullptr) {
    WorkHint fit_hint{qr.query.get(), nullptr,
                      static_cast<double>(config_.predictor.history)};
    result.AddCharge(/*ls=*/false,
                     oracle_->RunAt(base_seq++, WorkKind::kFcbfMlr, fit_hint, [&] {
                       qr.engine.ObserveActual(features, used);
                     }));
  }

  result.unsampled =
      (static_cast<double>(batch.size()) - static_cast<double>(packets->size())) /
      std::max<double>(1.0, static_cast<double>(queries_.size()));
  // Drop the sampled view before the batch (and its payload arena) can be
  // recycled; the buffers keep their capacity for the next bin.
  qr.sample_buf.clear();
  qr.sample_rows.clear();
  result.used = used;
  return result;
}

MonitoringSystem::QueryTaskResult MonitoringSystem::ExecuteCustom(QueryRuntime& qr,
                                                                  const trace::Batch& batch,
                                                                  double rate, double granted,
                                                                  const SharedExtraction& shared,
                                                                  uint64_t base_seq) {
  QueryTaskResult result;
  rate = std::clamp(rate, 0.0, 1.0);
  // The query receives the *unsampled* batch (sampling_rate = 1); the budget
  // fraction travels separately so custom methods don't double-correct.
  query::BatchInput in{batch.packets, batch.start_us, batch.duration_us, 1.0, flows_};
  WorkHint query_hint{qr.query.get(), &batch.packets, 0.0};
  const double used = oracle_->RunAt(base_seq++, WorkKind::kQuery, query_hint,
                                     [&] { qr.query->ProcessCustom(in, rate); });

  // §6.1.1: compare actual vs expected consumption; the correction factor and
  // the policing decision both come from this observation.
  qr.enforcement.Observe(granted, used);

  // History discipline for custom shedding: the model must keep predicting
  // the query's *full* cost from the input features, so only genuine
  // full-cost samples (near-full-rate bins) are fed back; shed bins leave
  // the coefficients untouched and predictions still track the traffic
  // through the features. (Feeding back used/rate would let a selfish query
  // launder its overuse into inflated demand; feeding back the model's own
  // prediction creates a self-reinforcing drift.)
  if (rate >= kNearFullRate) {
    features::FeatureVector full_features{};
    WorkHint extract_hint{qr.query.get(), &batch.packets, 0.0};
    result.AddCharge(/*ls=*/false,
                     oracle_->RunAt(base_seq++, WorkKind::kFeatureExtraction, extract_hint, [&] {
                       full_features = qr.engine.counter().CountAll(shared.keys);
                     }));
    WorkHint fit_hint{qr.query.get(), nullptr,
                      static_cast<double>(config_.predictor.history)};
    result.AddCharge(/*ls=*/false,
                     oracle_->RunAt(base_seq++, WorkKind::kFcbfMlr, fit_hint, [&] {
                       qr.engine.ObserveActual(full_features, used);
                     }));
  }

  result.unsampled = static_cast<double>(batch.size()) * (1.0 - rate) /
                     std::max<double>(1.0, static_cast<double>(queries_.size()));
  result.used = used;
  return result;
}

void MonitoringSystem::RunPredictive(const trace::Batch& batch, BinLog& log) {
  const size_t n = queries_.size();
  const uint32_t bin = static_cast<uint32_t>(log_.size());

  // Phase 1 (Alg. 1 lines 3-6): shared feature extraction + per-query
  // prediction of the cost of the full batch. Keying the batch's flows here
  // is the bin's only feature hashing: every query's history update
  // re-counts these keys.
  features::FeatureVector f_full{};
  WorkHint extract_hint{nullptr, &batch.packets, 0.0};
  {
    obs::Span span(tracer_, obs::Stage::kExtraction, bin);
    log.ps_cycles += oracle_->Run(WorkKind::kFeatureExtraction, extract_hint,
                                  [&] { f_full = sys_extractor_.Extract(batch.packets, *flows_); });
  }
  const SharedExtraction shared{f_full, sys_extractor_.keys()};

  std::vector<double> pred(n, 0.0);
  double pred_total = 0.0;
  {
    obs::Span span(tracer_, obs::Stage::kPrediction, bin);
    for (size_t q = 0; q < n; ++q) {
      pred[q] = std::max(0.0, queries_[q]->engine.PredictCycles(f_full));
      pred_total += pred[q];
    }
  }
  log.predicted_cycles = pred_total;

  // Phases 2-3 are one shed_decision span: availability, allocation and the
  // ladder rungs together form the decision the trace should show.
  const uint64_t shed_start_us = tracer_ != nullptr ? tracer_->NowUs() : 0;

  // Phase 2 (line 7): available cycles, corrected by measured overheads and
  // the buffer-discovery slack (rtthresh - delay). The effective slack is
  // additionally capped by the remaining buffer headroom so one bin's
  // overshoot can never fill the capture buffer and cause drops.
  const double ps_hat = std::max(ps_ewma_.value(), log.ps_cycles);
  double avail = capacity_ - log.como_cycles - ps_hat;
  if (config_.rtthresh_enabled) {
    // Borrow at most one bin's worth of buffer: enough to smooth transient
    // under-use, small enough that rate decisions stay stable and a badly
    // under-predicted burst still fits in the remaining buffer headroom.
    const double headroom = std::max(0.0, capacity_ - backlog_cycles_);
    avail += std::min(rtthresh_, headroom) - backlog_cycles_;
  } else {
    avail -= backlog_cycles_;
  }
  avail = std::max(0.0, avail);
  log.avail_cycles = avail;

  // Phase 3 (lines 8-9): decide whether and how much to shed. Demands are
  // inflated by the prediction-error EWMA as a safety margin, and by each
  // query's enforcement correction when custom shedding is active.
  const double err = config_.error_margin_enabled ? error_ewma_.value() : 0.0;
  const double ls_hat = ls_ewma_.value();
  const double budget = std::max(0.0, avail - ls_hat);
  std::vector<shed::QueryDemand> demands(n);
  for (size_t q = 0; q < n; ++q) {
    double demand = pred[q] * (1.0 + err);
    if (config_.enable_custom_shedding) {
      demand *= queries_[q]->enforcement.correction();
    }
    demands[q].predicted_cycles = std::max(demand, 1.0);
    demands[q].min_sampling_rate = queries_[q]->config.min_sampling_rate;
  }
  shed::Allocation alloc = strategy_->Allocate(demands, budget);
  log.overload = pred_total * (1.0 + err) > budget + kEps;

  // Deadline-ladder boost/truncate rungs act on the finished allocation, so
  // the cycle-oracle-driven decision above stays untouched (and bit-exact)
  // whenever the governor is quiet.
  ApplyDegradation(alloc.rate, alloc.disabled);
  if (tracer_ != nullptr) {
    tracer_->Record(obs::Stage::kShedDecision, shed_start_us, tracer_->NowUs() - shed_start_us,
                    bin);
  }

  // Phase 4 (lines 10-16): shed and execute. Pre-execution bookkeeping
  // (penalty ticks, warm-up probes, rate finalization) stays on the
  // coordinating thread in registration order; ExecuteBin then reserves the
  // charge slots, fans the queries out and folds them back in that order.
  std::vector<QueryPlan> plan(n);
  for (size_t q = 0; q < n; ++q) {
    QueryRuntime& qr = *queries_[q];
    if (config_.enable_custom_shedding && qr.enforcement.InPenalty()) {
      qr.enforcement.Tick();
      alloc.rate[q] = 0.0;
      alloc.disabled[q] = true;
    }
    if (qr.engine.predictor().history_size() < config_.warmup_observations) {
      // Probe cautiously while the cost model is cold, but never undercut the
      // user's declared minimum rate (m_q is a contract, §5.2).
      const double probe =
          std::max(config_.bootstrap_rate, qr.config.min_sampling_rate);
      alloc.rate[q] = std::min(alloc.rate[q], probe);
    }
    log.rate[q] = alloc.rate[q];
    log.disabled[q] = alloc.disabled[q];
    plan[q].rate = alloc.rate[q];
    plan[q].execute = !alloc.disabled[q] && alloc.rate[q] > kEps;
    // Custom shedding is only delegated once the query's cost model is warm:
    // the system needs a trustworthy full-cost prediction before it can
    // verify that the query honours its budget (§6.1.1). Until then the
    // query is sampled like any other, which also yields clean
    // (features, cycles) observations to bootstrap the model.
    plan[q].custom = config_.enable_custom_shedding && qr.config.allow_custom_shedding &&
                     qr.query->supports_custom_shedding() &&
                     qr.engine.predictor().history_size() >= config_.warmup_observations;
    plan[q].expected = alloc.rate[q] * pred[q];
  }
  const BinTotals totals = ExecuteBin(batch, plan, &shared, log);

  // Phase 5 (line 17 + §4.3): smoothers for the next bin.
  if (totals.used > kEps && totals.expected > kEps) {
    error_ewma_.Update(std::max(0.0, 1.0 - totals.expected / totals.used));
  }
  ls_ewma_.Update(totals.measured_ls);
  ps_ewma_.Update(log.ps_cycles);
}

void MonitoringSystem::RunReactive(const trace::Batch& batch, BinLog& log) {
  // Eq. 4.1: the sampling rate follows the previous bin's consumption.
  const double avail = std::max(0.0, capacity_ - log.como_cycles - backlog_cycles_);
  log.avail_cycles = avail;
  if (reactive_consumed_prev_ > kEps) {
    reactive_rate_ = std::min(
        1.0, std::max(config_.reactive_min_rate,
                      reactive_rate_ * avail / reactive_consumed_prev_));
  } else {
    reactive_rate_ = 1.0;
  }
  log.overload = reactive_rate_ < 1.0 - kEps;

  // The deadline ladder applies on top of the reactive controller exactly as
  // it does on the predictive allocation: scale the granted rates, then
  // truncate the lowest-priority queries. The controller's own state
  // (reactive_rate_) deliberately stays unscaled so recovery after the
  // governor steps down starts from the controller's view, not the ladder's.
  std::fill(log.rate.begin(), log.rate.end(), reactive_rate_);
  ApplyDegradation(log.rate, log.disabled);
  std::vector<QueryPlan> plan(queries_.size());
  for (size_t q = 0; q < plan.size(); ++q) {
    plan[q].rate = log.rate[q];
    plan[q].execute = !log.disabled[q] && log.rate[q] > kEps;
  }
  // Reactive systems skip the prediction subsystem: no history upkeep.
  const BinTotals totals = ExecuteBin(batch, plan, nullptr, log);
  reactive_consumed_prev_ = totals.used + log.ls_cycles;
}

void MonitoringSystem::RunNoShed(const trace::Batch& batch, BinLog& log) {
  log.avail_cycles = std::max(0.0, capacity_ - log.como_cycles);
  std::fill(log.rate.begin(), log.rate.end(), 1.0);
  std::vector<QueryPlan> plan(queries_.size(), QueryPlan{1.0, true});
  const BinTotals totals = ExecuteBin(batch, plan, nullptr, log);
  log.overload = totals.used > log.avail_cycles;
}

MonitoringSystem::BinTotals MonitoringSystem::ExecuteBin(
    const trace::Batch& batch, std::vector<QueryPlan>& plan,
    const SharedExtraction* shared, BinLog& log) {
  const size_t n = plan.size();
  if (*pre_execute_) {
    std::vector<QueryRun> runs(n);
    for (size_t q = 0; q < n; ++q) {
      runs[q] = {plan[q].execute, plan[q].custom, plan[q].rate};
    }
    (*pre_execute_)(runs);
  }
  // Charge slots are reserved in registration order so the sequenced cost
  // schedule matches the serial one whichever worker then runs which query.
  for (QueryPlan& p : plan) {
    if (p.execute) {
      p.base_seq = oracle_->ReserveSequence(
          p.custom ? PlanCustomOracleCalls(p.rate) : PlanOracleCalls(p.rate, shared != nullptr));
    }
  }

  // One wave: each query's whole pipeline is one task.
  std::vector<QueryTaskResult> results(n);
  executor_.Run(n, [&](size_t q) {
    const QueryPlan& p = plan[q];
    if (!p.execute) {
      return;
    }
    QueryRuntime& qr = *queries_[q];
    if (p.custom) {
      assert(shared != nullptr);
      results[q] = ExecuteCustom(qr, batch, p.rate, p.expected, *shared, p.base_seq);
    } else {
      results[q] = ExecuteQuery(qr, batch, p.rate, shared, p.base_seq);
    }
  });

  // The fold replays registration order on the coordinator, charge by
  // charge, exactly as the serial schedule would have accumulated it.
  BinTotals totals;
  for (size_t q = 0; q < n; ++q) {
    if (!plan[q].execute) {
      log.packets_unsampled +=
          static_cast<double>(batch.size()) / std::max<double>(1.0, static_cast<double>(n));
      continue;
    }
    const QueryTaskResult& r = results[q];
    const double ls_before = log.ls_cycles;
    for (size_t c = 0; c < r.num_charges; ++c) {
      (r.charges[c].ls ? log.ls_cycles : log.ps_cycles) += r.charges[c].cycles;
    }
    totals.measured_ls += log.ls_cycles - ls_before;
    log.packets_unsampled += r.unsampled;
    log.per_query_cycles[q] = r.used;
    totals.used += r.used;
    totals.expected += plan[q].expected;
  }
  log.query_cycles = totals.used;
  return totals;
}

void MonitoringSystem::TickIntervals() {
  obs::Span span(tracer_, obs::Stage::kIntervalEnd, static_cast<uint32_t>(log_.size()));
  for (auto& qr_ptr : queries_) {
    QueryRuntime& qr = *qr_ptr;
    if (++qr.bins_in_interval >= qr.query->interval_bins()) {
      qr.query->EndInterval();
      qr.engine.StartInterval();
      qr.flow_sampler.Reseed(rng_.NextU64());
      qr.bins_in_interval = 0;
    }
  }
  if (++sys_bins_in_interval_ >= config_.system_interval_bins) {
    sys_extractor_.StartInterval();
    sys_bins_in_interval_ = 0;
  }
}

void MonitoringSystem::UpdateBufferAndThreshold(double spent_total) {
  const double buffer_cap = config_.buffer_bins * capacity_;
  backlog_cycles_ = std::max(0.0, backlog_cycles_ + spent_total - capacity_);

  if (!config_.rtthresh_enabled) {
    return;
  }
  // §4.1 buffer discovery: grow the allowance while the system underuses its
  // budget; collapse it (slow-start style) when the buffer starts filling.
  if (backlog_cycles_ > std::min(capacity_, 0.5 * buffer_cap)) {
    ssthresh_ = std::max(rtthresh_ / 2.0, capacity_ * 0.01);
    rtthresh_ = 0.0;
  } else if (spent_total < capacity_) {
    if (rtthresh_ < ssthresh_) {
      rtthresh_ = std::max(capacity_ * 0.001, rtthresh_ * 2.0);  // exponential
    } else {
      rtthresh_ += capacity_ * 0.01;  // linear
    }
    rtthresh_ = std::min(rtthresh_, std::min(capacity_, 0.9 * buffer_cap));
  }
}

bool MonitoringSystem::AtIntervalBoundary() const {
  if (sys_bins_in_interval_ != 0) {
    return false;
  }
  for (const auto& qr : queries_) {
    if (qr->bins_in_interval != 0) {
      return false;
    }
  }
  return true;
}

void MonitoringSystem::SaveState(obs::SnapshotWriter& w) const {
  w.RngState(rng_.State());
  w.F64(capacity_);
  w.F64(backlog_cycles_);
  w.F64(rtthresh_);
  w.F64(ssthresh_);
  w.F64(error_ewma_.value());
  w.Bool(error_ewma_.seeded());
  w.F64(ls_ewma_.value());
  w.Bool(ls_ewma_.seeded());
  w.F64(ps_ewma_.value());
  w.Bool(ps_ewma_.seeded());
  w.F64(reactive_rate_);
  w.F64(reactive_consumed_prev_);
  w.U64(sys_bins_in_interval_);
  w.U64(total_packets_);
  w.U64(total_dropped_);
  w.U64(queries_.size());
  for (const auto& qr : queries_) {
    w.U64(qr->bins_in_interval);
    w.RngState(qr->pkt_sampler.RngState());
    w.U64(qr->flow_sampler.seed());
    const shed::EnforcementPolicy::State es = qr->enforcement.GetState();
    w.F64(es.usage_ratio);
    w.Bool(es.usage_ratio_seeded);
    w.I64(es.strikes);
    w.I64(es.penalty_left);
    w.U64(es.times_policed);
    qr->engine.predictor().SaveState(w);
  }
  oracle_->SaveState(w);
}

void MonitoringSystem::LoadState(obs::SnapshotReader& r) {
  rng_.SetState(r.RngState());
  capacity_ = r.F64();
  backlog_cycles_ = r.F64();
  rtthresh_ = r.F64();
  ssthresh_ = r.F64();
  {
    const double v = r.F64();
    error_ewma_.Restore(v, r.Bool());
  }
  {
    const double v = r.F64();
    ls_ewma_.Restore(v, r.Bool());
  }
  {
    const double v = r.F64();
    ps_ewma_.Restore(v, r.Bool());
  }
  reactive_rate_ = r.F64();
  reactive_consumed_prev_ = r.F64();
  sys_bins_in_interval_ = static_cast<size_t>(r.U64());
  total_packets_ = r.U64();
  total_dropped_ = r.U64();
  const uint64_t n = r.U64();
  if (n != queries_.size()) {
    throw obs::SnapshotError("snapshot query count does not match the registered roster");
  }
  for (auto& qr : queries_) {
    qr->bins_in_interval = static_cast<size_t>(r.U64());
    qr->pkt_sampler.SetRngState(r.RngState());
    qr->flow_sampler.Reseed(r.U64());
    shed::EnforcementPolicy::State es;
    es.usage_ratio = r.F64();
    es.usage_ratio_seeded = r.Bool();
    es.strikes = static_cast<int>(r.I64());
    es.penalty_left = static_cast<int>(r.I64());
    es.times_policed = r.U64();
    qr->enforcement.SetState(es);
    qr->engine.predictor().LoadState(r);
  }
  oracle_->LoadState(r);
}

void MonitoringSystem::Finish() {
  for (auto& qr_ptr : queries_) {
    QueryRuntime& qr = *qr_ptr;
    if (qr.bins_in_interval > 0) {
      qr.query->EndInterval();
      qr.bins_in_interval = 0;
    }
  }
}

}  // namespace shedmon::core
