#include "src/features/extractor.h"

#include <algorithm>
#include <cassert>

namespace shedmon::features {

namespace {
template <size_t... I>
std::array<sketch::H3Hash, sizeof...(I)> MakeHashes(uint64_t seed, std::index_sequence<I...>) {
  return {sketch::H3Hash(AggregateHashSeed(seed, static_cast<Aggregate>(I)))...};
}

template <size_t... I>
std::array<sketch::MultiResBitmap, sizeof...(I)> MakeBitmaps(uint32_t components, uint32_t bits,
                                                             std::index_sequence<I...>) {
  return {((void)I, sketch::MultiResBitmap(components, bits))...};
}
}  // namespace

FeatureCounter::FeatureCounter(uint32_t mrb_components, uint32_t mrb_bits)
    : batch_bm_(MakeBitmaps(mrb_components, mrb_bits, std::make_index_sequence<kNumAggregates>())),
      interval_bm_(
          MakeBitmaps(mrb_components, mrb_bits, std::make_index_sequence<kNumAggregates>())) {}

void FeatureCounter::StartInterval() {
  for (auto& bm : interval_bm_) {
    bm.Clear();
  }
}

void FeatureCounter::ClearBatch() {
  for (auto& bm : batch_bm_) {
    bm.Clear();
  }
}

FeatureVector FeatureCounter::Count(const BinKeys& keys, const trace::FlowTable& subset) {
  ClearBatch();
  const std::span<const trace::FlowTable::Flow> flows = subset.flows();
  const std::span<const uint32_t> parent = subset.parent_flow();
  assert(parent.size() == flows.size());
  // An integer sum converts to exactly the double sum of the same lengths:
  // every partial sum stays far below 2^53.
  uint64_t bytes = 0;
  for (size_t f = 0; f < flows.size(); ++f) {
    bytes += flows[f].bytes;
    Insert(keys.hashes[parent[f]]);
  }
  return Finalize(static_cast<double>(subset.rows()), static_cast<double>(bytes));
}

FeatureVector FeatureCounter::CountAll(const BinKeys& keys) {
  ClearBatch();
  for (const AggregateHashes& h : keys.hashes) {
    Insert(h);
  }
  return Finalize(static_cast<double>(keys.rows()), keys.bytes);
}

FeatureVector FeatureCounter::Finalize(double pkts, double bytes) {
  FeatureVector f{};
  f[kFeatPackets] = pkts;
  f[kFeatBytes] = bytes;

  for (int a = 0; a < kNumAggregates; ++a) {
    const auto agg = static_cast<Aggregate>(a);
    const auto& batch = batch_bm_[static_cast<size_t>(a)];
    auto& interval = interval_bm_[static_cast<size_t>(a)];

    const double unique = std::min(batch.Estimate(), pkts);
    const double fresh = std::min(interval.MergeNew(batch), unique);

    f[FeatureIndex(agg, Counter::kUnique)] = unique;
    f[FeatureIndex(agg, Counter::kNew)] = fresh;
    f[FeatureIndex(agg, Counter::kRepeatedBatch)] = std::max(0.0, pkts - unique);
    f[FeatureIndex(agg, Counter::kRepeatedInterval)] = std::max(0.0, pkts - fresh);
  }
  return f;
}

FeatureExtractor::FeatureExtractor() : FeatureExtractor(Config()) {}

FeatureExtractor::FeatureExtractor(const Config& config)
    : config_(config),
      fused_(MakeAggregateHasher(config.seed)),
      counter_(config.mrb_components, config.mrb_bits) {}

FeatureVector FeatureExtractor::Extract(const trace::PacketVec& packets,
                                        const trace::FlowTable& flows) {
  keys_.flows = &flows;
  keys_.hashes.resize(flows.num_flows());
  uint64_t bytes = 0;  // exact: see FeatureCounter::Count
  size_t f = 0;
  for (const trace::FlowTable::Flow& flow : flows.flows()) {
    bytes += flow.bytes;
    const auto key = packets[flow.first_row].rec->tuple.Bytes();
    fused_.HashAllFixed<13, kNumAggregates>(key.data(), keys_.hashes[f++]);
  }
  keys_.bytes = static_cast<double>(bytes);
  return counter_.CountAll(keys_);
}

FeatureVector FeatureExtractor::Extract(const trace::PacketVec& packets) {
  own_flows_.Build(packets);
  return Extract(packets, own_flows_);
}

FeatureVector FeatureExtractor::ExtractReference(const trace::PacketVec& packets) {
  if (!ref_hashes_) {
    ref_hashes_ = std::make_unique<std::array<sketch::H3Hash, kNumAggregates>>(
        MakeHashes(config_.seed, std::make_index_sequence<kNumAggregates>()));
  }
  const auto& hashes = *ref_hashes_;
  double bytes = 0.0;
  counter_.ClearBatch();

  uint8_t key[13];
  for (const net::Packet& pkt : packets) {
    bytes += pkt.rec->wire_len;
    const net::FiveTuple& t = pkt.rec->tuple;
    AggregateHashes h;
    for (size_t a = 0; a < kNumAggregates; ++a) {
      const size_t len = AggregateKey(t, static_cast<Aggregate>(a), key);
      h[a] = hashes[a].Hash(key, len);
    }
    counter_.Insert(h);
  }
  return counter_.Finalize(static_cast<double>(packets.size()), bytes);
}

}  // namespace shedmon::features
