#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "activity/counts.h"
#include "activity/rtl.h"

/// \file imatt.h
/// Instruction Transition - Module Activation Table (paper section 3.3,
/// Table 3). For every *observed* ordered pair of consecutive instructions
/// (I_a, I_b) the table stores how often the pair occurs over the stream's
/// B - 1 consecutive-cycle pairs; a probability is one division of that
/// count by B - 1. The per-module two-bit activation tags
/// AT(M) = (used-by-I_a, used-by-I_b) follow directly from the RTL
/// description, so they are not stored per row.
///
/// An enable EN for module set S makes a 0->1 or 1->0 transition on the pair
/// (I_a, I_b) exactly when the OR of the activation tags over S is 01 or 10,
/// i.e. when activates(I_a, S) != activates(I_b, S). Summing the pair
/// counts over such rows yields the enable's toggle count, the numerator of
/// P_tr(EN) (ActivityAnalyzer::transition_prob evaluates it by masks).

namespace gcr::activity {

struct ImattRow {
  InstrId cur;
  InstrId nxt;
  std::uint64_t count;  ///< cycles t with cur at t and nxt at t+1
};

class Imatt {
 public:
  /// Build from the stream's pair counts; rows for unobserved pairs are
  /// omitted (count 0).
  explicit Imatt(const StreamCounts& counts);

  [[nodiscard]] std::span<const ImattRow> rows() const { return rows_; }
  /// B - 1: consecutive-cycle pairs of the stream (0 when B < 2).
  [[nodiscard]] std::uint64_t num_pairs() const { return num_pairs_; }

  /// Occurrences of cur -> nxt; 0 when the pair never occurred.
  [[nodiscard]] std::uint64_t pair_count(InstrId cur, InstrId nxt) const {
    return dense_[static_cast<std::size_t>(cur) * num_instructions_ + nxt];
  }

  /// P(cur -> nxt) = pair_count / (B - 1); 0 when B < 2.
  [[nodiscard]] double pair_prob(InstrId cur, InstrId nxt) const;

  /// The two-bit activation tag of module `m` for a row: bit1 = used by
  /// cur, bit0 = used by nxt (so 0b10 is a 1->0 transition as in the paper).
  [[nodiscard]] static int activation_tag(const RtlDescription& rtl,
                                          const ImattRow& row, ModuleId m) {
    return (rtl.uses(row.cur, m) ? 2 : 0) | (rtl.uses(row.nxt, m) ? 1 : 0);
  }

 private:
  int num_instructions_;
  std::uint64_t num_pairs_{0};
  std::vector<ImattRow> rows_;
  std::vector<std::uint64_t> dense_;  ///< K*K counts for O(1) pair_count
};

}  // namespace gcr::activity
