#include "activity/counts.h"

#include <algorithm>

#include "obs/metrics.h"

namespace gcr::activity {

namespace {

/// Up to this K the count spreads its pair increments over four K*K tables
/// (three extra, <= 192 KiB); above it the four table pointers share one
/// table, so memory at large K stays one table.
constexpr std::size_t kSplitMaxInstructions = 128;

}  // namespace

StreamCounts count_stream(const InstructionStream& stream,
                          int num_instructions) {
  StreamCounts c;
  c.num_instructions = num_instructions;
  c.length = stream.length();
  const auto k = static_cast<std::size_t>(num_instructions);
  const std::size_t kk = k * k;
  c.instr.assign(k, 0);
  c.pairs.assign(kk, 0);
  const bool split = k <= kSplitMaxInstructions;
  std::vector<std::uint32_t> extra(split ? 3 * kk : 0, 0);
  const InstrId* const seq = stream.seq.data();
  std::uint32_t* const pairs = c.pairs.data();
  std::uint32_t* const t1 = split ? extra.data() : pairs;
  std::uint32_t* const t2 = split ? extra.data() + kk : pairs;
  std::uint32_t* const t3 = split ? extra.data() + 2 * kk : pairs;
  // `instr` first holds only the issues with no in-range successor (the id
  // before a bad id, or the last cycle); every other issue is one pair of
  // its row, so the row sums added at the end complete the counts.
  std::uint32_t* const ends = c.instr.data();
  std::size_t prev = k;  // k: no in-range predecessor (first cycle, bad id)
  const auto step = [&](int t) {
    const InstrId id = seq[t];
    const auto cur = static_cast<std::size_t>(static_cast<unsigned>(id));
    if (cur >= k) [[unlikely]] {
      c.ids.note(t, id);
      if (prev < k) ++ends[prev];
      prev = k;
      return;
    }
    if (prev < k) ++pairs[prev * k + cur];
    prev = cur;
  };
  // Blocks of four cycles: consecutive pairs land in different tables, so
  // a run of one id does not chain each increment on the store before it.
  const int n = c.length;
  int t = 0;
  for (; t <= n - 4; t += 4) {
    const auto s0 = static_cast<std::size_t>(static_cast<unsigned>(seq[t]));
    const auto s1 = static_cast<std::size_t>(static_cast<unsigned>(seq[t + 1]));
    const auto s2 = static_cast<std::size_t>(static_cast<unsigned>(seq[t + 2]));
    const auto s3 = static_cast<std::size_t>(static_cast<unsigned>(seq[t + 3]));
    if (std::max(std::max(s0, s1), std::max(s2, s3)) >= k) [[unlikely]] {
      for (int j = t; j < t + 4; ++j) step(j);
      continue;
    }
    if (prev < k) ++pairs[prev * k + s0];
    ++t1[s0 * k + s1];
    ++t2[s1 * k + s2];
    ++t3[s2 * k + s3];
    prev = s3;
  }
  for (; t < n; ++t) step(t);
  if (prev < k) ++ends[prev];

  if (split)
    for (std::size_t i = 0; i < kk; ++i) pairs[i] += t1[i] + t2[i] + t3[i];
  for (std::size_t cur = 0; cur < k; ++cur) {
    std::uint32_t row = 0;
    for (std::size_t nxt = 0; nxt < k; ++nxt) row += pairs[cur * k + nxt];
    ends[cur] += row;
  }
  if (obs::metrics_enabled())
    obs::Registry::global().counter("activity.ids_counted").inc(
        static_cast<std::uint64_t>(c.length));
  return c;
}

}  // namespace gcr::activity
