#include "activity/ift.h"

#include <cassert>

namespace gcr::activity {

Ift::Ift(const StreamCounts& counts)
    : counts_(counts.instr.begin(), counts.instr.end()),
      length_(static_cast<std::uint64_t>(counts.length)) {
  assert(counts.num_instructions > 0);
}

double Ift::prob(InstrId i) const {
  if (length_ == 0) return 0.0;
  return static_cast<double>(count(i)) / static_cast<double>(length_);
}

double Ift::average_activity(const RtlDescription& rtl) const {
  if (rtl.num_modules() == 0 || length_ == 0) return 0.0;
  std::uint64_t uses = 0;
  for (int i = 0; i < num_instructions(); ++i)
    uses += counts_[static_cast<std::size_t>(i)] *
            static_cast<std::uint64_t>(rtl.module_set(i).count());
  return static_cast<double>(uses) /
         (static_cast<double>(length_) * rtl.num_modules());
}

}  // namespace gcr::activity
