#pragma once

#include <span>
#include <vector>

#include "activity/counts.h"
#include "activity/rtl.h"

/// \file imatt.h
/// Instruction Transition - Module Activation Table (paper section 3.3,
/// Table 3). For every *observed* ordered pair of consecutive instructions
/// (I_a, I_b) the table stores the empirical probability that the pair
/// occurs in consecutive cycles. The per-module two-bit activation tags
/// AT(M) = (used-by-I_a, used-by-I_b) follow directly from the RTL
/// description, so they are not stored per row.
///
/// An enable EN for module set S makes a 0->1 or 1->0 transition on the pair
/// (I_a, I_b) exactly when the OR of the activation tags over S is 01 or 10,
/// i.e. when activates(I_a, S) != activates(I_b, S). Summing the pair
/// probabilities over such rows yields P_tr(EN) (complexity O(K^2 * N) in
/// the worst case, matching the paper's bound).

namespace gcr::activity {

struct ImattRow {
  InstrId cur;
  InstrId nxt;
  double prob;  ///< empirical P(cur at cycle t, nxt at cycle t+1)
};

class Imatt {
 public:
  /// Build from the stream's pair counts; rows for unobserved pairs are
  /// omitted (prob 0). Each probability is bit-identical to adding 1/(B-1)
  /// once per occurrence (imatt.cpp says why that is not count * 1/(B-1)).
  explicit Imatt(const StreamCounts& counts);

  [[nodiscard]] std::span<const ImattRow> rows() const { return rows_; }
  [[nodiscard]] int num_instructions() const { return num_instructions_; }

  /// P(cur -> nxt) lookup; 0 when the pair never occurred.
  [[nodiscard]] double pair_prob(InstrId cur, InstrId nxt) const;

  /// P_tr(EN) for the subtree with leaf-module set `s` via the table.
  [[nodiscard]] double transition_prob(const RtlDescription& rtl,
                                       const ModuleSet& s) const;

  /// The two-bit activation tag of module `m` for a row: bit1 = used by
  /// cur, bit0 = used by nxt (so 0b10 is a 1->0 transition as in the paper).
  [[nodiscard]] static int activation_tag(const RtlDescription& rtl,
                                          const ImattRow& row, ModuleId m) {
    return (rtl.uses(row.cur, m) ? 2 : 0) | (rtl.uses(row.nxt, m) ? 1 : 0);
  }

 private:
  int num_instructions_;
  std::vector<ImattRow> rows_;
  std::vector<double> dense_;  ///< K*K matrix for O(1) pair_prob
};

}  // namespace gcr::activity
