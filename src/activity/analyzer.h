#pragma once

#include <vector>

#include "activity/ift.h"
#include "activity/imatt.h"
#include "obs/metrics.h"
#include "obs/timer.h"

/// \file analyzer.h
/// The table-driven activity engine (paper section 3.3). Built once per
/// workload from a single scan of the instruction stream (count_stream), it
/// answers the two queries the clock-tree constructor issues millions of
/// times:
///
///   * P(EN)    -- signal probability of a subtree enable, and
///   * P_tr(EN) -- transition probability of that enable,
///
/// for arbitrary module sets. The engine works on *activation masks*: the
/// K-bit set of instructions that activate a subtree. A subtree merge is
/// then a mask union, and
///
///   P(EN)    = sum_{k in mask} P(I_k)
///   P_tr(EN) = sum_{a in mask} touch(a) - sum_{a,b in mask} Q(a,b)
///
/// where touch(a) = sum_b (P(a->b) + P(b->a)) and Q(a,b) = P(a->b) + P(b->a)
/// -- an O(K) / O(|mask|^2) evaluation that is exactly equivalent to summing
/// the IMATT rows whose OR-ed activation tags toggle (see analyzer.cpp for
/// the derivation).

namespace gcr::activity {

class ActivityAnalyzer {
 public:
  ActivityAnalyzer(const RtlDescription& rtl, const InstructionStream& stream);

  [[nodiscard]] const RtlDescription& rtl() const { return *rtl_; }
  [[nodiscard]] const Ift& ift() const { return ift_; }
  [[nodiscard]] const Imatt& imatt() const { return imatt_; }
  [[nodiscard]] int num_instructions() const { return ift_.num_instructions(); }

  /// The stream's ids outside [0, K), found by the same scan. The tables
  /// leave them out; validation turns a nonzero count into GCR_E_STREAM_ID,
  /// so a router never rescans its stream to range-check it.
  [[nodiscard]] const StreamIdSummary& stream_ids() const { return ids_; }

  /// The activation mask of a single module: instructions that use it.
  [[nodiscard]] const ActivationMask& module_mask(ModuleId m) const {
    return module_masks_.at(m);
  }

  /// The activation mask of an arbitrary module set.
  [[nodiscard]] ActivationMask mask_for(const ModuleSet& s) const;

  /// P(EN) for an activation mask.
  [[nodiscard]] double signal_prob(const ActivationMask& mask) const;

  /// P_tr(EN) for an activation mask.
  [[nodiscard]] double transition_prob(const ActivationMask& mask) const;

  /// Convenience overloads on module sets (mask_for + the mask query).
  [[nodiscard]] double signal_prob_of_modules(const ModuleSet& s) const {
    return signal_prob(mask_for(s));
  }
  [[nodiscard]] double transition_prob_of_modules(const ModuleSet& s) const {
    return transition_prob(mask_for(s));
  }

 private:
  /// Delegation target; the public ctor passes a ScopedTimer temporary that
  /// lives for the whole delegation, and -- braced arguments evaluate left
  /// to right -- starts before the stream scan, so the "analyze" phase
  /// covers the count as well as the tables.
  ActivityAnalyzer(const RtlDescription& rtl, const obs::ScopedTimer& timer,
                   const StreamCounts& counts);

  const RtlDescription* rtl_;
  Ift ift_;
  Imatt imatt_;
  StreamIdSummary ids_;
  std::vector<ActivationMask> module_masks_;
  std::vector<double> touch_;  ///< touch(a)
  std::vector<double> q_;      ///< K*K symmetric Q(a,b)
  // Counters resolved once at construction so the per-query guard is a
  // plain bool load + pointer increment (no static-init check in the
  // millions-of-calls paths).
  obs::Counter* sig_queries_;
  obs::Counter* tr_queries_;
};

}  // namespace gcr::activity
