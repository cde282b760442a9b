#pragma once

#include <cstdint>
#include <vector>

#include "activity/stream.h"

/// \file counts.h
/// The one scan of the instruction stream that the IFT and the IMATT are
/// built from (paper sections 3.2-3.3): how often each instruction issues
/// and how often each ordered pair issues in consecutive cycles. The scan
/// reads four cycles at a time and spreads their pairs over four
/// interleaved K*K tables (one table above K = 128), summed at the end, so
/// a run of one id does not wait on its own counter. Issue counts are not
/// bumped per cycle: each is its pair row's sum, plus one where the id has
/// no in-range successor. 32-bit counts suffice because a stream's length
/// is an int.

namespace gcr::activity {

struct StreamCounts {
  int num_instructions{0};
  int length{0};                     ///< cycles scanned, bad ids included
  std::vector<std::uint32_t> instr;  ///< K issue counts
  std::vector<std::uint32_t> pairs;  ///< K*K, [cur * K + nxt]
  StreamIdSummary ids;               ///< entries outside [0, K)
};

/// Count `stream` against K = `num_instructions` in one pass (O(B + K^2)).
/// An out-of-range id is recorded in `ids` and never indexed with: it is
/// left out of `instr`, and so is every pair it belongs to.
[[nodiscard]] StreamCounts count_stream(const InstructionStream& stream,
                                        int num_instructions);

}  // namespace gcr::activity
