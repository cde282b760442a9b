#pragma once

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

/// The range check alone, as one scan of `stream`.
[[nodiscard]] inline StreamIdSummary scan_stream_ids(
    const InstructionStream& stream, int num_instructions) {
  StreamIdSummary ids;
  const auto k = static_cast<unsigned>(num_instructions);
  for (int t = 0; t < stream.length(); ++t) {
    const InstrId id = stream.seq[static_cast<std::size_t>(t)];
    if (static_cast<unsigned>(id) >= k) [[unlikely]] ids.note(t, id);
  }
  return ids;
}

}  // namespace gcr::activity
