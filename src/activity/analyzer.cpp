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
    : ift_(counts),
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

  // touch(a) = sum_b count(a->b) + count(b->a); q(a,b) = count(a->b) +
  // count(b->a) for a != b and q(a,a) = count(a->a), so each unordered
  // instruction pair is one cell and sum_{a <= b in mask} q(a,b) equals
  // sum_{a,b in mask} count(a->b) over half the square.
  //
  // Derivation of the mask formula: let m_k = 1 iff instruction k activates
  // the subtree. The enable toggles on a consecutive pair (a, b) iff
  // m_a != m_b, so the toggle count is
  //   sum_{a,b} count(a->b) (m_a + m_b - 2 m_a m_b)
  //     = sum_{a in mask} touch(a) - 2 sum_{a <= b in mask} q(a,b),
  // which is what transition_prob() evaluates. Both sums are exact, and
  // the first is at least twice the second, so the difference never wraps.
  q_.assign(static_cast<std::size_t>(k) * k, 0);
  touch_.assign(static_cast<std::size_t>(k), 0);
  for (const ImattRow& row : imatt_.rows()) {
    q_[static_cast<std::size_t>(row.cur) * k + row.nxt] += row.count;
    if (row.cur != row.nxt)
      q_[static_cast<std::size_t>(row.nxt) * k + row.cur] += row.count;
    touch_[static_cast<std::size_t>(row.cur)] += row.count;
    touch_[static_cast<std::size_t>(row.nxt)] += row.count;
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
  if (ift_.length() == 0) return 0.0;
  const std::span<const std::uint64_t> counts = ift_.counts();
  std::uint64_t issues = 0;
  mask.for_each([&](int k) { issues += counts[static_cast<std::size_t>(k)]; });
  return static_cast<double>(issues) / static_cast<double>(ift_.length());
}

double ActivityAnalyzer::transition_prob(const ActivationMask& mask) const {
  assert(mask.size() == num_instructions());
  if (obs::metrics_enabled()) [[unlikely]] tr_queries_->inc();
  if (imatt_.num_pairs() == 0) return 0.0;
  const int k = num_instructions();
  // Collect set bits once; the typical mask is sparse relative to K.
  thread_local std::vector<int> bits;
  bits.clear();
  mask.for_each([&](int b) { bits.push_back(b); });

  std::uint64_t touched = 0;  // sum_{a in mask} touch(a)
  std::uint64_t inside = 0;   // sum_{a <= b in mask} q(a,b)
  for (std::size_t i = 0; i < bits.size(); ++i) {
    touched += touch_[static_cast<std::size_t>(bits[i])];
    const std::uint64_t* qrow = &q_[static_cast<std::size_t>(bits[i]) * k];
    for (std::size_t j = i; j < bits.size(); ++j) inside += qrow[bits[j]];
  }
  return static_cast<double>(touched - 2 * inside) /
         static_cast<double>(imatt_.num_pairs());
}

}  // namespace gcr::activity
