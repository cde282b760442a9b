#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "activity/counts.h"
#include "activity/rtl.h"

/// \file ift.h
/// Instruction Frequency Table (paper section 3.3, Table 2): how often each
/// instruction issues over the B-cycle stream, kept as integer counts from
/// the stream's one scan (activity/counts.h). A probability is one division
/// of a count by B.

namespace gcr::activity {

class Ift {
 public:
  explicit Ift(const StreamCounts& counts);

  /// Issues of instruction `i` over the stream.
  [[nodiscard]] std::uint64_t count(InstrId i) const { return counts_.at(i); }
  [[nodiscard]] std::span<const std::uint64_t> counts() const {
    return counts_;
  }
  /// B: cycles scanned (0 for an empty stream).
  [[nodiscard]] std::uint64_t length() const { return length_; }
  [[nodiscard]] int num_instructions() const {
    return static_cast<int>(counts_.size());
  }

  /// P(I_i) = count(I_i) / B; 0 for an empty stream.
  [[nodiscard]] double prob(InstrId i) const;

  /// Average module activity of the stream:
  /// sum_k count(I_k) * |modules(I_k)| / (B * N)  (the Ave(M(I)) column of
  /// Table 4).
  [[nodiscard]] double average_activity(const RtlDescription& rtl) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t length_;
};

}  // namespace gcr::activity
