// Pipeline snapshot/restore: the versioned binary format behind
// Pipeline::Snapshot and PipelineBuilder::Restore.
//
// Layout (all primitives via obs::SnapshotWriter, little-endian):
//   magic + version
//   SystemConfig (every field, fixed order)
//   oracle kind, track_accuracy, default_min_rates
//   query roster: count, then per query (name, QueryConfig)
//   MonitoringSystem::SaveState (RNG, smoothers, buffer/threshold, per-query
//     sampler/enforcement/predictor state, oracle state)
//   pipeline scalars (open_bin, bins_processed, next handle id)
//
// The format captures exactly the state that determines future BinLogs.
// Query *results* are not serialized: snapshots are only legal on a
// measurement-interval boundary, where per-interval query state is empty and
// a freshly constructed query instance produces the same work-unit deltas
// (and therefore the same model-oracle charges) as the veteran it replaces.
// Accuracy references, the metrics registry and PipelineStats restart from
// zero on restore — they describe the restoring process, not the run.

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/api/pipeline.h"
#include "src/obs/snapshot.h"
#include "src/query/queries.h"
#include "src/rt/atomic_file.h"

namespace shedmon::api {

namespace {

void WriteSystemConfig(obs::SnapshotWriter& w, const core::SystemConfig& c) {
  w.U64(c.time_bin_us);
  w.F64(c.cycles_per_bin);
  w.U8(static_cast<uint8_t>(c.shedder));
  w.U8(static_cast<uint8_t>(c.strategy));
  w.U8(static_cast<uint8_t>(c.predictor.kind));
  w.U64(c.predictor.history);
  w.F64(c.predictor.fcbf_threshold);
  w.F64(c.predictor.ewma_alpha);
  w.I64(c.predictor.slr_feature);
  w.U32(c.extractor.mrb_components);
  w.U32(c.extractor.mrb_bits);
  w.U64(c.extractor.seed);
  w.F64(c.buffer_bins);
  w.F64(c.ewma_alpha);
  w.Bool(c.error_margin_enabled);
  w.F64(c.como_overhead_fraction);
  w.F64(c.reactive_min_rate);
  w.U64(c.system_interval_bins);
  w.Bool(c.rtthresh_enabled);
  w.U64(c.warmup_observations);
  w.F64(c.bootstrap_rate);
  w.Bool(c.enable_custom_shedding);
  w.F64(c.enforcement.ewma_alpha);
  w.F64(c.enforcement.over_tolerance);
  w.F64(c.enforcement.gross_violation_factor);
  w.I64(c.enforcement.strikes_to_disable);
  w.I64(c.enforcement.penalty_bins);
  w.U64(c.seed);
  w.U64(c.num_threads);
}

uint8_t CheckedEnum(uint8_t value, uint8_t max, const char* what) {
  if (value > max) {
    throw obs::SnapshotError(std::string("snapshot holds an unknown ") + what + " value");
  }
  return value;
}

core::SystemConfig ReadSystemConfig(obs::SnapshotReader& r) {
  core::SystemConfig c;
  c.time_bin_us = r.U64();
  c.cycles_per_bin = r.F64();
  c.shedder = static_cast<core::ShedderKind>(CheckedEnum(r.U8(), 2, "shedder"));
  c.strategy = static_cast<shed::StrategyKind>(CheckedEnum(r.U8(), 2, "strategy"));
  c.predictor.kind = static_cast<predict::PredictorKind>(CheckedEnum(r.U8(), 2, "predictor"));
  c.predictor.history = static_cast<size_t>(r.U64());
  c.predictor.fcbf_threshold = r.F64();
  c.predictor.ewma_alpha = r.F64();
  c.predictor.slr_feature = static_cast<int>(r.I64());
  c.extractor.mrb_components = r.U32();
  c.extractor.mrb_bits = r.U32();
  c.extractor.seed = r.U64();
  c.buffer_bins = r.F64();
  c.ewma_alpha = r.F64();
  c.error_margin_enabled = r.Bool();
  c.como_overhead_fraction = r.F64();
  c.reactive_min_rate = r.F64();
  c.system_interval_bins = static_cast<size_t>(r.U64());
  c.rtthresh_enabled = r.Bool();
  c.warmup_observations = static_cast<size_t>(r.U64());
  c.bootstrap_rate = r.F64();
  c.enable_custom_shedding = r.Bool();
  c.enforcement.ewma_alpha = r.F64();
  c.enforcement.over_tolerance = r.F64();
  c.enforcement.gross_violation_factor = r.F64();
  c.enforcement.strikes_to_disable = static_cast<int>(r.I64());
  c.enforcement.penalty_bins = static_cast<int>(r.I64());
  c.seed = r.U64();
  c.num_threads = static_cast<size_t>(r.U64());
  return c;
}

}  // namespace

void Pipeline::Snapshot(std::ostream& out) const {
  if (!records_.empty()) {
    throw obs::SnapshotError(
        "Pipeline::Snapshot: the open bin holds packets; snapshot between bins "
        "(after AdvanceTime to a bin boundary)");
  }
  if (!system_->AtIntervalBoundary()) {
    throw obs::SnapshotError(
        "Pipeline::Snapshot: not on a measurement-interval boundary; per-interval "
        "query state would be lost");
  }
  for (size_t q = 0; q < system_->num_queries(); ++q) {
    // Only the standard roster restores by name; user-supplied instances
    // cannot be reconstructed from a stream.
    try {
      (void)query::MakeQuery(system_->query(q).name());
    } catch (const std::invalid_argument&) {
      throw obs::SnapshotError("Pipeline::Snapshot: query '" + system_->query(q).name() +
                               "' is not a standard query and cannot be serialized");
    }
  }

  obs::SnapshotWriter w(out);
  w.Magic();
  WriteSystemConfig(w, system_->config());
  w.U8(static_cast<uint8_t>(oracle_kind_));
  w.Bool(track_accuracy_);
  w.Bool(default_min_rates_);
  w.U64(system_->num_queries());
  for (size_t q = 0; q < system_->num_queries(); ++q) {
    w.Str(system_->query(q).name());
    const core::QueryConfig& qc = system_->query_config(q);
    w.F64(qc.min_sampling_rate);
    w.Bool(qc.allow_custom_shedding);
  }
  system_->SaveState(w);
  w.U64(open_bin_);
  w.U64(bins_processed_);
  w.U64(next_id_);
  w.Trailer();
  if (!out) {
    throw obs::SnapshotError("Pipeline::Snapshot: write failed");
  }
  if (logger_ != nullptr) {
    logger_->Write(obs::LogEvent("snapshot").Int("bin", open_bin_).Int("queries",
                                                                       system_->num_queries()));
  }
}

void Pipeline::Snapshot(const std::string& path) const {
  // Serialize fully in memory, then publish via write-to-temp + fsync +
  // rename: readers either see the old file or the complete new one, never
  // a torn snapshot — a crash mid-write cannot destroy the previous state.
  std::ostringstream buf(std::ios::binary);
  Snapshot(buf);
  try {
    rt::WriteFileAtomic(path, buf.str());
  } catch (const std::runtime_error& e) {
    throw obs::SnapshotError("Pipeline::Snapshot: write to '" + path +
                             "' failed: " + e.what());
  }
}

std::unique_ptr<Pipeline> PipelineBuilder::Restore(std::istream& in) {
  obs::SnapshotReader r(in);
  r.Magic();
  const core::SystemConfig config = ReadSystemConfig(r);
  const auto oracle = static_cast<core::OracleKind>(CheckedEnum(r.U8(), 1, "oracle"));
  const bool track_accuracy = r.Bool();
  const bool default_min_rates = r.Bool();

  auto pipeline = std::unique_ptr<Pipeline>(
      new Pipeline(config, oracle, track_accuracy, default_min_rates));

  // Recreate the roster in registration order. AddQuery consumes system RNG
  // draws for the samplers, but LoadState below overwrites the RNG and every
  // sampler state wholesale, so the draw count here is irrelevant.
  const uint64_t n = r.U64();
  for (uint64_t q = 0; q < n; ++q) {
    const std::string name = r.Str();
    core::QueryConfig qc;
    qc.min_sampling_rate = r.F64();
    qc.allow_custom_shedding = r.Bool();
    try {
      pipeline->AddQuery(name, qc);
    } catch (const std::invalid_argument& e) {
      throw obs::SnapshotError("PipelineBuilder::Restore: cannot recreate query '" + name +
                               "': " + e.what());
    }
  }

  pipeline->system_->LoadState(r);
  pipeline->open_bin_ = r.U64();
  pipeline->bins_processed_ = static_cast<size_t>(r.U64());
  pipeline->next_id_ = r.U64();
  r.Trailer();
  return pipeline;
}

std::unique_ptr<Pipeline> PipelineBuilder::Restore(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw obs::SnapshotError("PipelineBuilder::Restore: cannot open '" + path + "'");
  }
  return Restore(in);
}

}  // namespace shedmon::api
