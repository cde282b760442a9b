#include "activity/counts.h"

#include "obs/metrics.h"

namespace gcr::activity {

StreamCounts count_stream(const InstructionStream& stream,
                          int num_instructions) {
  StreamCounts c;
  c.num_instructions = num_instructions;
  c.length = stream.length();
  const auto k = static_cast<std::size_t>(num_instructions);
  c.instr.assign(k, 0);
  c.pairs.assign(k * k, 0);
  const InstrId* const seq = stream.seq.data();
  std::uint32_t* const instr = c.instr.data();
  std::uint32_t* const pairs = c.pairs.data();
  std::size_t prev = k;  // k: no in-range predecessor (first cycle, bad id)
  for (int t = 0; t < c.length; ++t) {
    const InstrId id = seq[t];
    const auto cur = static_cast<std::size_t>(static_cast<unsigned>(id));
    if (cur >= k) [[unlikely]] {
      c.ids.note(t, id);
      prev = k;
      continue;
    }
    if (prev < k) ++pairs[prev * k + cur];
    ++instr[cur];
    prev = cur;
  }
  if (obs::metrics_enabled())
    obs::Registry::global().counter("activity.ids_counted").inc(
        static_cast<std::uint64_t>(c.length));
  return c;
}

}  // namespace gcr::activity
