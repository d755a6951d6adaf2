// lint-test-path: src/query/bad_unordered_copy.cpp
//
// Fixture: iterator-range copies of unordered containers into a sequence
// (construction, assign, positional insert; through a member chain and a
// `using` alias) fire [unordered-iter]; copies of ordered containers, into
// sets, into algorithms and annotated copies stay silent. Never compiled —
// consumed by shedmon_lint.py --self-test.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

namespace shedmon::query {

using Totals = std::unordered_map<uint32_t, double>;

struct Snap {
  std::unordered_map<uint32_t, double> all;
};

class Ranker {
 public:
  void Rank(const Snap& snap) {
    std::vector<std::pair<uint32_t, double>> copy(snap.all.begin(), snap.all.end());  // expect: unordered-iter
    auto made = std::vector<std::pair<uint32_t, double>>(totals_.cbegin(), totals_.cend());  // expect: unordered-iter
    list_.assign(totals_.begin(), totals_.end());  // expect: unordered-iter
    list_.insert(list_.end(),
                 snap.all.begin(), snap.all.end());  // expect: unordered-iter
    std::vector<std::pair<uint32_t, double>> braced{totals_.begin(), totals_.end()};  // expect: unordered-iter

    // lint: order-insensitive fixture: sorted by unique key right after
    std::vector<std::pair<uint32_t, double>> sorted(totals_.begin(), totals_.end());
    std::sort(sorted.begin(), sorted.end());

    // Negatives: ordered sources, ordered or unordered targets that do not
    // keep the order, and algorithms over the range.
    std::vector<std::pair<uint32_t, double>> ordered(by_key_.begin(), by_key_.end());
    std::set<uint32_t> keys_seen(keys_.begin(), keys_.end());
    Totals clone(totals_.begin(), totals_.end());
    keys_seen.insert(keys_.begin(), keys_.end());
    std::vector<std::pair<uint32_t, double>> top(3);
    std::partial_sort_copy(totals_.begin(), totals_.end(), top.begin(), top.end());
    list_.insert(list_.end(), ordered.begin(), ordered.end());
    (void)copy;
    (void)made;
    (void)braced;
    (void)clone;
  }

 private:
  Totals totals_;
  std::unordered_map<uint32_t, int> keys_;
  std::map<uint32_t, double> by_key_;
  std::vector<std::pair<uint32_t, double>> list_;
};

}  // namespace shedmon::query
