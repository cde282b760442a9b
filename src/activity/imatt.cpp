#include "activity/imatt.h"

#include <algorithm>
#include <cassert>

namespace gcr::activity {

Imatt::Imatt(const StreamCounts& counts)
    : num_instructions_(counts.num_instructions),
      dense_(counts.pairs.size(), 0.0) {
  assert(num_instructions_ > 0);
  const int pairs = counts.length - 1;
  if (pairs <= 0) return;
  const double inv = 1.0 / static_cast<double>(pairs);
  // The probability of a pair seen c times is `inv` added to 0.0 c times in
  // a row, which is not c * inv in the last bits -- and a last-bit change
  // can flip a greedy tie. The sum depends on c alone, so one running sum,
  // walked up the cells in count order, yields every cell exactly:
  // O(max count + K^2 log K) instead of one addition per cycle.
  std::vector<std::size_t> cells;
  for (std::size_t i = 0; i < counts.pairs.size(); ++i)
    if (counts.pairs[i] != 0) cells.push_back(i);
  std::sort(cells.begin(), cells.end(), [&](std::size_t x, std::size_t y) {
    return counts.pairs[x] < counts.pairs[y];
  });
  double acc = 0.0;
  std::uint32_t added = 0;
  for (const std::size_t cell : cells) {
    for (; added < counts.pairs[cell]; ++added) acc += inv;
    dense_[cell] = acc;
  }
  for (InstrId a = 0; a < num_instructions_; ++a) {
    for (InstrId b = 0; b < num_instructions_; ++b) {
      const double p =
          dense_[static_cast<std::size_t>(a) * num_instructions_ + b];
      if (p > 0.0) rows_.push_back({a, b, p});
    }
  }
}

double Imatt::pair_prob(InstrId cur, InstrId nxt) const {
  assert(cur >= 0 && cur < num_instructions_ && nxt >= 0 &&
         nxt < num_instructions_);
  return dense_[static_cast<std::size_t>(cur) * num_instructions_ + nxt];
}

double Imatt::transition_prob(const RtlDescription& rtl,
                              const ModuleSet& s) const {
  double p = 0.0;
  for (const ImattRow& row : rows_) {
    if (rtl.activates(row.cur, s) != rtl.activates(row.nxt, s)) p += row.prob;
  }
  return p;
}

}  // namespace gcr::activity
