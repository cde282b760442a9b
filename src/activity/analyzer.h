#pragma once

#include <cstdint>
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
/// then a mask union, and over the stream's integer counts
///
///   P(EN)    = sum_{k in mask} count(I_k) / B
///   P_tr(EN) = (sum_{a in mask} touch(a)
///               - 2 sum_{a,b in mask} count(a->b)) / (B - 1)
///
/// where touch(a) counts the consecutive pairs with I_a on either side. The
/// numerator of P_tr(EN) is exactly the number of pairs on which the enable
/// toggles (see analyzer.cpp for the derivation), so each query sums
/// integers in O(K) / O(|mask|^2) and divides once, and agrees bit for bit
/// with BruteForceActivity's rescan.

namespace gcr::activity {

class ActivityAnalyzer {
 public:
  ActivityAnalyzer(const RtlDescription& rtl, const InstructionStream& stream);

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

  Ift ift_;
  Imatt imatt_;
  StreamIdSummary ids_;
  std::vector<ActivationMask> module_masks_;
  std::vector<std::uint64_t> touch_;  ///< touch(a)
  std::vector<std::uint64_t> q_;      ///< K*K symmetric q(a,b)
  // Counters resolved once at construction so the per-query guard is a
  // plain bool load + pointer increment (no static-init check in the
  // millions-of-calls paths).
  obs::Counter* sig_queries_;
  obs::Counter* tr_queries_;
};

}  // namespace gcr::activity
