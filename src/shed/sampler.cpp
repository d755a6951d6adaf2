#include "src/shed/sampler.h"

#include <numeric>

namespace shedmon::shed {

namespace {
// Writes the rows of `in` for which keep(row) holds, in order, to `out` and
// `rows`; a rate at or above 1 keeps every row and one at or below 0 none,
// without calling keep. Otherwise keep(row) is called once per row, in row
// order. kBranchFree suits cheap verdicts (an RNG draw, a memo lookup):
// every packet is written to the next free slot and the slot only advances
// when it is kept, so a coin-flip selection costs no mispredicts. A hashed
// verdict takes the branch instead: there the next store's address would
// wait on each hash and stop consecutive hashes from overlapping.
template <bool kBranchFree, typename Keep>
void Select(const trace::PacketVec& in, double rate, trace::PacketVec& out,
            std::vector<uint32_t>& rows, Keep keep) {
  out.clear();
  rows.clear();
  if (rate >= 1.0) {
    out = in;
    rows.resize(in.size());
    std::iota(rows.begin(), rows.end(), 0u);
    return;
  }
  if (rate <= 0.0) {
    return;
  }
  out.resize(in.size());
  rows.resize(in.size());
  size_t kept = 0;
  for (size_t row = 0; row < in.size(); ++row) {
    if constexpr (kBranchFree) {
      out[kept] = in[row];
      rows[kept] = static_cast<uint32_t>(row);
      kept += keep(row) ? 1 : 0;
    } else if (keep(row)) {
      out[kept] = in[row];
      rows[kept] = static_cast<uint32_t>(row);
      ++kept;
    }
  }
  out.resize(kept);
  rows.resize(kept);
}

bool Keeps(const sketch::FusedTupleHasher& hash, const net::FiveTuple& tuple, double rate) {
  const auto key = tuple.Bytes();
  return hash.HashUnit1Fixed<13>(key.data()) < rate;
}
}  // namespace

void PacketSampler::SampleInto(const trace::PacketVec& in, double rate, trace::PacketVec& out,
                               std::vector<uint32_t>& rows) {
  Select<true>(in, rate, out, rows, [&](size_t) { return rng_.NextDouble() < rate; });
}

void FlowSampler::Reseed(uint64_t seed) {
  seed_ = seed;
  hash_.reset();
}

const sketch::FusedTupleHasher& FlowSampler::Hash() {
  if (!hash_) {
    hash_.emplace(13, std::vector<sketch::FusedTupleHasher::SubHash>{
                          {seed_, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}});
  }
  return *hash_;
}

void FlowSampler::SampleInto(const trace::PacketVec& in, double rate, trace::PacketVec& out,
                             std::vector<uint32_t>& rows) {
  const sketch::FusedTupleHasher& hash = Hash();
  Select<false>(in, rate, out, rows,
                [&](size_t row) { return Keeps(hash, in[row].rec->tuple, rate); });
}

void FlowSampler::SampleInto(const trace::PacketVec& in, const trace::FlowTable& flows,
                             double rate, trace::PacketVec& out, std::vector<uint32_t>& rows) {
  if (rate > 0.0 && rate < 1.0) {
    const sketch::FusedTupleHasher& hash = Hash();
    keep_.resize(flows.num_flows());
    size_t f = 0;
    for (const trace::FlowTable::Flow& flow : flows.flows()) {
      keep_[f++] = Keeps(hash, in[flow.first_row].rec->tuple, rate) ? 1 : 0;
    }
  }
  const std::span<const uint32_t> flow_of_row = flows.flow_of_row();
  Select<true>(in, rate, out, rows, [&](size_t row) { return keep_[flow_of_row[row]] != 0; });
}

}  // namespace shedmon::shed
