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
}  // namespace

void PacketSampler::SampleInto(const trace::PacketVec& in, double rate, trace::PacketVec& out,
                               std::vector<uint32_t>& rows) {
  Select<true>(in, rate, out, rows, [&](size_t) { return rng_.NextDouble() < rate; });
}

FlowSampler::FlowSampler(uint64_t seed)
    : hash_(13, {{seed, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}}), seed_(seed) {}

void FlowSampler::Reseed(uint64_t seed) {
  hash_ = sketch::FusedTupleHasher(13, {{seed, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}});
  seed_ = seed;
}

bool FlowSampler::Keeps(const net::FiveTuple& tuple, double rate) const {
  const auto key = tuple.Bytes();
  return hash_.HashUnit1Fixed<13>(key.data()) < rate;
}

void FlowSampler::SampleInto(const trace::PacketVec& in, double rate, trace::PacketVec& out,
                             std::vector<uint32_t>& rows) const {
  Select<false>(in, rate, out, rows,
                [&](size_t row) { return Keeps(in[row].rec->tuple, rate); });
}

void FlowSampler::SampleInto(const trace::PacketVec& in, std::span<const uint32_t> tuple_of_row,
                             size_t num_tuples, double rate, trace::PacketVec& out,
                             std::vector<uint32_t>& rows) {
  // Per distinct tuple: 0 not yet decided, 1 dropped, 2 kept.
  decided_.assign(num_tuples, 0);
  Select<true>(in, rate, out, rows, [&](size_t row) {
    uint8_t& d = decided_[tuple_of_row[row]];
    if (d == 0) {
      d = Keeps(in[row].rec->tuple, rate) ? 2 : 1;
    }
    return d == 2;
  });
}

}  // namespace shedmon::shed
