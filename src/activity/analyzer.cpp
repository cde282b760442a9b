#include "activity/analyzer.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace gcr::activity {

ActivityAnalyzer::ActivityAnalyzer(const RtlDescription& rtl,
                                   const InstructionStream& stream)
    : ActivityAnalyzer{rtl, obs::ScopedTimer("analyze"),
                       count_stream(stream, rtl.num_instructions())} {}

ActivityAnalyzer::ActivityAnalyzer(const RtlDescription& rtl,
                                   const obs::ScopedTimer& /*timer*/,
                                   const StreamCounts& counts)
    : rtl_(&rtl),
      ift_(counts),
      imatt_(counts),
      ids_(counts.ids),
      sig_queries_(
          &obs::Registry::global().counter("activity.signal_prob_queries")),
      tr_queries_(
          &obs::Registry::global().counter("activity.transition_prob_queries")) {
  const int k = rtl.num_instructions();
  module_masks_.assign(static_cast<std::size_t>(rtl.num_modules()),
                       ActivationMask(k));
  for (ModuleId m = 0; m < rtl.num_modules(); ++m) {
    for (InstrId i = 0; i < k; ++i)
      if (rtl.uses(i, m)) module_masks_[static_cast<std::size_t>(m)].set(i);
  }

  // Q(a,b) = P(a->b) + P(b->a);  touch(a) = sum_b Q(a,b).
  //
  // Derivation of the mask formula: let m_k = 1 iff instruction k activates
  // the subtree. The enable toggles on a consecutive pair (a, b) iff
  // m_a != m_b, so
  //   P_tr = sum_{a,b} P(a->b) (m_a + m_b - 2 m_a m_b)
  //        = sum_{a in mask} touch(a) - sum_{a,b in mask} Q(a,b),
  // which is what transition_prob() evaluates.
  q_.assign(static_cast<std::size_t>(k) * k, 0.0);
  touch_.assign(static_cast<std::size_t>(k), 0.0);
  for (const ImattRow& row : imatt_.rows()) {
    q_[static_cast<std::size_t>(row.cur) * k + row.nxt] += row.prob;
    q_[static_cast<std::size_t>(row.nxt) * k + row.cur] += row.prob;
    touch_[static_cast<std::size_t>(row.cur)] += row.prob;
    touch_[static_cast<std::size_t>(row.nxt)] += row.prob;
  }
}

ActivationMask ActivityAnalyzer::mask_for(const ModuleSet& s) const {
  ActivationMask mask(num_instructions());
  s.for_each([&](int m) { mask |= module_masks_[static_cast<std::size_t>(m)]; });
  return mask;
}

double ActivityAnalyzer::signal_prob(const ActivationMask& mask) const {
  assert(mask.size() == num_instructions());
  if (obs::metrics_enabled()) [[unlikely]] sig_queries_->inc();
  double p = 0.0;
  mask.for_each([&](int k) { p += ift_.prob(k); });
  return p;
}

double ActivityAnalyzer::transition_prob(const ActivationMask& mask) const {
  assert(mask.size() == num_instructions());
  if (obs::metrics_enabled()) [[unlikely]] tr_queries_->inc();
  const int k = num_instructions();
  // Collect set bits once; the typical mask is sparse relative to K.
  thread_local std::vector<int> bits;
  bits.clear();
  mask.for_each([&](int b) { bits.push_back(b); });

  double p = 0.0;
  for (const int a : bits) {
    p += touch_[static_cast<std::size_t>(a)];
    const double* qrow = &q_[static_cast<std::size_t>(a) * k];
    double inner = 0.0;
    for (const int b : bits) inner += qrow[b];
    p -= inner;
  }
  // Guard against negative floating-point dust.
  return p < 0.0 ? 0.0 : p;
}

}  // namespace gcr::activity
