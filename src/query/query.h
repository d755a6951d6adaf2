#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/batch.h"
#include "src/trace/flow_table.h"

namespace shedmon::query {

class ShardableQuery;

// Which shedding mechanism suits the query best (§4.2); each query picks the
// option that yields the best results at configuration time.
enum class SamplingMethod { kPacket, kFlow };

// What a query sees for one time bin: the (possibly sampled) packets plus the
// sampling rate that was applied so it can scale its estimates by 1/rate, the
// modification the thesis applied to the standard CoMo queries (§2.2), and
// the flows of those packets. Queries whose results only depend on per-flow
// totals (counter, application, high-watermark, flows, top-k, autofocus,
// super-sources) visit the flows, in first-touch order, instead of the
// packets; the rest, and every custom shedding method, stay per packet.
struct BatchInput {
  const trace::PacketVec& packets;
  uint64_t start_us = 0;
  uint64_t duration_us = 100'000;
  double sampling_rate = 1.0;
  // The flow table of `packets` (its rows index `packets`): the batch's own
  // table for a whole batch, per-flow totals over the kept rows for a
  // sampled one. Query::ProcessBatch / ProcessCustom build one when null.
  const trace::FlowTable* flows = nullptr;

  // *flows; throws std::logic_error when it is null.
  const trace::FlowTable& flow_table() const;
};

// Worker-local partial state for one shard of a batch. Concrete shardable
// queries derive their own partial (counters, candidate key lists, shard-span
// match sets); the base is an opaque tag so the scheduler can carry partials
// without knowing the query type.
class ShardState {
 public:
  virtual ~ShardState() = default;
};

// Optional extension of the black-box query interface: intra-query data
// parallelism with a deterministic merge. A batch is divided into
// ShardUnits(in) abstract units (the view's flows for most queries; scanned
// bytes for pattern-search, so seams may fall inside a payload); the
// scheduler forks one ShardState per shard, processes disjoint contiguous
// unit ranges on any workers in any order, then folds the partials back in
// ascending shard-index order via Query::ProcessShards.
//
// The discipline that makes sharded execution bit-identical to serial
// execution (not merely statistically equivalent) at every shard count:
//  - OnShardBatch accumulates only exactly-representable partials (packet /
//    byte / insertion counts as integer-valued doubles, candidate key lists,
//    bitmap unions), so MergeShard's fold is exact and associative;
//  - candidate keys keep first-touch order, and contiguous ascending ranges
//    make the merged order the batch's first-occurrence order — the order
//    the serial loop would have inserted them in (a key's first packet is
//    its first flow's first packet, so per-flow and per-packet visits agree);
//  - every floating-point rounding step (the 1/sampling_rate rescale, the
//    += into interval state) and every ChargeWork call happens exactly once
//    per batch, in ApplyShards, computed from the merged exact partials.
// OnBatch of a shardable query either runs the same fork/apply path with one
// shard, or — where the shard partial is heavier than a direct loop — a
// direct twin evaluating the identical arithmetic; the differential fuzz
// suite (query_shard_fuzz_test) pins serial and sharded results together.
class ShardableQuery {
 public:
  virtual ~ShardableQuery() = default;

  // Total shardable units in `in`. Defaults to the view's flow count;
  // queries whose work is byte-driven override it so shards balance by bytes.
  virtual size_t ShardUnits(const BatchInput& in) const { return in.flow_table().num_flows(); }

  // Below this many units a batch is not worth splitting (scheduler hint; a
  // smaller range is still processed correctly). The default grain is in
  // flows: a flow carries ~13 packets on every preset, so a 16-flow shard
  // stands for ~200 packets of charged work.
  virtual size_t MinShardUnits() const { return 16; }

  // Creates an empty worker-local partial. Must be cheap: one is forked per
  // shard per batch.
  virtual std::unique_ptr<ShardState> ForkShard() const = 0;

  // Processes units [begin, end) of `in` into `shard`. Const on the query:
  // shards may read the query's pre-batch state (e.g. to classify a key as
  // already-known) but only mutate their own partial, so disjoint ranges are
  // safe to run concurrently.
  virtual void OnShardBatch(ShardState& shard, const BatchInput& in, size_t begin,
                            size_t end) const = 0;

  // Exact associative fold of `from` into `into`; called with ascending
  // shard indices, on one thread.
  virtual void MergeShard(ShardState& into, ShardState&& from) const = 0;

  // Applies the fully merged partial to query state and charges the batch's
  // work — the single place where scaling/rounding and ChargeWork happen.
  virtual void ApplyShards(const BatchInput& in, ShardState&& merged) = 0;
};

// A monitoring application ("plug-in module" in CoMo terms). The load
// shedding system treats instances as black boxes: it only ever calls
// ProcessBatch / EndInterval and observes the cycles they consume.
//
// Accuracy evaluation follows §2.2.1: a second instance of the same query is
// run over the unsampled stream and IntervalError compares per-interval
// results. The base-class default implements the processed-packet-fraction
// error used for trace and pattern-search, which reads nothing of the
// reference but its processed-packet counts (see error_reads_results).
class Query {
 public:
  Query(std::string name, size_t interval_bins);
  virtual ~Query() = default;

  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  const std::string& name() const { return name_; }
  // Measurement interval expressed in 100 ms time bins (§2.4).
  size_t interval_bins() const { return interval_bins_; }

  virtual SamplingMethod preferred_sampling() const { return SamplingMethod::kPacket; }

  // Processes one (possibly sampled) batch; builds the flow table of
  // in.packets when in.flows is null.
  void ProcessBatch(const BatchInput& in);

  // Intra-query data parallelism (mergeable-state discipline): non-null when
  // this query's batches may be split into shards processed on different
  // workers and folded back losslessly. Null (the default) means the query's
  // per-batch state is order-sensitive and batches must stay whole.
  virtual ShardableQuery* shardable() { return nullptr; }

  // Sharded twin of ProcessBatch: the scheduler forked `shards` via
  // ShardableQuery::ForkShard, ran OnShardBatch over a partition of the
  // batch's shard units on workers, and hands the partials back here on one
  // thread. Folds them in ascending shard-index order and applies the result;
  // query state, results and work_units() end up bit-identical to a plain
  // ProcessBatch(in) call, for any shard count and any shard execution order.
  void ProcessShards(const BatchInput& in, std::vector<std::unique_ptr<ShardState>> shards);

  // Closes the current measurement interval; results become available for
  // interval index completed_intervals() - 1 afterwards.
  void EndInterval();
  size_t completed_intervals() const { return intervals_done_; }

  // Relative error of this instance's results for `interval` against a
  // reference instance that processed the full stream (§2.2.1). The base
  // version is one minus the fraction of the reference's packets this
  // instance processed; it reads only reference.IntervalPacketsProcessed, so
  // a packet-count reference (query::MakeReference) serves it exactly.
  virtual double IntervalError(const Query& reference, size_t interval) const;
  // Whether IntervalError reads the reference's results (true, the safe
  // default) or only its processed-packet counts (false). A property of the
  // query, not a setting: only a query that keeps the base IntervalError may
  // answer false, and query::MakeReference then builds a reference that
  // counts packets and keeps no other state.
  virtual bool error_reads_results() const { return true; }
  // Mean error across all intervals completed by both instances.
  double MeanError(const Query& reference) const;

  // ---- Custom load shedding (Ch. 6) ----
  // True if the query ships its own shedding method; the system may then
  // hand it the full batch and a target cost fraction instead of sampling.
  virtual bool supports_custom_shedding() const { return false; }
  // Processes `in` using at most ~`fraction` of the full processing cost.
  // Default falls through to full processing (a non-implementing query; the
  // enforcement policy of §6.1.1 is what keeps this safe).
  void ProcessCustom(const BatchInput& in, double fraction);

  // ---- Exact reference elision ----
  // A twin is a second instance of the same query type and parameters that
  // ran the same packets at sampling_rate exactly 1, without custom
  // shedding, since this instance's state was last equal to it. Such a twin
  // holds exactly what a replay would, so a reference instance may copy it
  // instead of replaying (api::Pipeline elides its full-rate references so).
  enum class Adopt {
    kOpen,        // the twin's open interval, at the same bin as this instance
    kLastClosed,  // the interval the twin just closed, appended to this history
  };
  // True when AdoptFrom(twin, ...) will leave this instance bit-identical to
  // a replay of the twin's packets: same dynamic type, parameters, interval
  // length and completed-interval count. No result reads a container's
  // iteration order (ranked lists break ties by key), so what earlier
  // intervals left in either instance's containers does not matter.
  bool AdoptableFrom(const Query& twin) const;
  // Copies the twin's open-interval state (kOpen), or appends its last
  // closed interval and takes its freshly reset open state (kLastClosed).
  // Closed snapshots are immutable, so a large one is shared rather than
  // copied; a reset container is only cleared. The rest of this instance's
  // history is kept. Reads `twin` only. Throws std::logic_error when the
  // twin is not of this type or its interval count does not line up with
  // `what`.
  void AdoptFrom(const Query& twin, Adopt what);

  // Raw packets examined in a completed interval (reference instances see
  // everything, so this doubles as the ground-truth packet count).
  double IntervalPacketsProcessed(size_t interval) const;

  // Monotonic counter of abstract work units the query has performed (packet
  // touches, bytes scanned, state insertions...). The deterministic cost
  // oracle charges the *delta* of this counter per batch, so a query that
  // sheds its own load (Ch. 6) is charged for what it actually did — and a
  // selfish one that ignores its budget is exposed by the same number.
  double work_units() const { return work_units_; }

 protected:
  virtual void OnBatch(const BatchInput& in) = 0;
  virtual void OnCustomBatch(const BatchInput& in, double fraction);
  virtual void OnEndInterval(size_t interval_index) = 0;
  // Per-query halves of AdoptableFrom / AdoptFrom; `twin` has this
  // instance's dynamic type. A query that does not override them is never
  // adoptable (the default CanAdopt is false; OnAdoptFrom throws).
  virtual bool CanAdopt(const Query& twin) const;
  virtual void OnAdoptFrom(const Query& twin, Adopt what);

  // Concrete custom-shedding implementations report how many packets they
  // actually examined (base accounting assumes all of them otherwise).
  void AdjustProcessedCount(double delta) { cur_packets_ += delta; }

  void ChargeWork(double units) { work_units_ += units; }

 private:
  std::string name_;
  size_t interval_bins_;
  size_t intervals_done_ = 0;
  double cur_packets_ = 0.0;
  double work_units_ = 0.0;
  std::vector<double> interval_packets_;
};

}  // namespace shedmon::query
