#pragma once

#include <span>
#include <vector>

#include "activity/counts.h"
#include "activity/rtl.h"

/// \file ift.h
/// Instruction Frequency Table (paper section 3.3, Table 2): the empirical
/// probability that each instruction executes, built from the stream's
/// counts (activity/counts.h).

namespace gcr::activity {

class Ift {
 public:
  /// P(I_k) = count(I_k) * (1/B): bit-identical to adding 1.0 per cycle and
  /// scaling by 1/B, since the sum of ones is the exact count (O(K)).
  explicit Ift(const StreamCounts& counts);

  [[nodiscard]] double prob(InstrId i) const { return probs_.at(i); }
  [[nodiscard]] std::span<const double> probs() const { return probs_; }
  [[nodiscard]] int num_instructions() const {
    return static_cast<int>(probs_.size());
  }

  /// P(EN) for a subtree whose leaves are the modules in `s`:
  /// the sum of P(I) over instructions that use any module of `s`
  /// (paper Eq. 2 evaluated through the table, complexity O(KL)).
  [[nodiscard]] double signal_prob(const RtlDescription& rtl,
                                   const ModuleSet& s) const;

  /// Average module activity of the stream:
  /// sum_k P(I_k) * |modules(I_k)| / N  (the Ave(M(I)) column of Table 4).
  [[nodiscard]] double average_activity(const RtlDescription& rtl) const;

 private:
  std::vector<double> probs_;
};

}  // namespace gcr::activity
