#include "activity/imatt.h"

#include <cassert>

namespace gcr::activity {

Imatt::Imatt(const StreamCounts& counts)
    : num_instructions_(counts.num_instructions),
      dense_(counts.pairs.begin(), counts.pairs.end()) {
  assert(num_instructions_ > 0);
  if (counts.length < 2) return;
  num_pairs_ = static_cast<std::uint64_t>(counts.length) - 1;
  for (InstrId a = 0; a < num_instructions_; ++a)
    for (InstrId b = 0; b < num_instructions_; ++b)
      if (const std::uint64_t c = pair_count(a, b)) rows_.push_back({a, b, c});
}

double Imatt::pair_prob(InstrId cur, InstrId nxt) const {
  if (num_pairs_ == 0) return 0.0;
  return static_cast<double>(pair_count(cur, nxt)) /
         static_cast<double>(num_pairs_);
}

}  // namespace gcr::activity
