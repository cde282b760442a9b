#include "activity/ift.h"

#include <cassert>

namespace gcr::activity {

Ift::Ift(const StreamCounts& counts)
    : probs_(static_cast<std::size_t>(counts.num_instructions), 0.0) {
  assert(counts.num_instructions > 0);
  if (counts.length == 0) return;
  const double inv = 1.0 / static_cast<double>(counts.length);
  for (std::size_t i = 0; i < probs_.size(); ++i)
    probs_[i] = static_cast<double>(counts.instr[i]) * inv;
}

double Ift::signal_prob(const RtlDescription& rtl, const ModuleSet& s) const {
  double p = 0.0;
  for (int i = 0; i < num_instructions(); ++i)
    if (rtl.activates(i, s)) p += probs_[static_cast<std::size_t>(i)];
  return p;
}

double Ift::average_activity(const RtlDescription& rtl) const {
  if (rtl.num_modules() == 0) return 0.0;
  double acc = 0.0;
  for (int i = 0; i < num_instructions(); ++i)
    acc += probs_[static_cast<std::size_t>(i)] * rtl.module_set(i).count();
  return acc / rtl.num_modules();
}

}  // namespace gcr::activity
