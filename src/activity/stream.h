#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "activity/rtl.h"

/// \file stream.h
/// An instruction stream: the clock-by-clock trace of executed instructions
/// obtained from instruction-level simulation (paper section 3.2). One
/// instruction issues per cycle.

namespace gcr::activity {

struct InstructionStream {
  std::vector<InstrId> seq;

  [[nodiscard]] int length() const { return static_cast<int>(seq.size()); }
};

/// The stream entries outside [0, K): how many there are, and the cycle and
/// id of the first. Header-only so the guard layer can range-check a stream
/// without linking the activity tables.
struct StreamIdSummary {
  int bad{0};
  int first_cycle{0};
  InstrId first_id{0};

  void note(int cycle, InstrId id) {
    if (bad++ == 0) {
      first_cycle = cycle;
      first_id = id;
    }
  }
};

/// The range check alone. Most streams are clean, so it first reduces the
/// ids to their unsigned maximum over eight independent lanes (a loop that
/// cannot leave early, so it vectorizes); only a stream whose maximum is
/// out of range is walked again for the count and the first bad cycle.
[[nodiscard]] inline StreamIdSummary scan_stream_ids(
    const InstructionStream& stream, int num_instructions) {
  StreamIdSummary ids;
  const auto k = static_cast<unsigned>(num_instructions);
  const std::size_t n = stream.seq.size();
  const InstrId* const seq = stream.seq.data();
  unsigned lane[8] = {};
  std::size_t t = 0;
  for (; t + 8 <= n; t += 8)
    for (std::size_t j = 0; j < 8; ++j)
      lane[j] = std::max(lane[j], static_cast<unsigned>(seq[t + j]));
  unsigned max = 0;
  for (const unsigned m : lane) max = std::max(max, m);
  for (; t < n; ++t) max = std::max(max, static_cast<unsigned>(seq[t]));
  if (max < k) return ids;
  for (int cycle = 0; cycle < stream.length(); ++cycle) {
    const InstrId id = seq[cycle];
    if (static_cast<unsigned>(id) >= k) [[unlikely]] ids.note(cycle, id);
  }
  return ids;
}

}  // namespace gcr::activity
