#include "eco/delta.h"

#include <cassert>
#include <string>

#include "guard/validate.h"

namespace gcr::eco {

bool validate_delta(const core::Design& base, const DesignDelta& delta,
                    guard::Diag& diag) {
  const std::size_t before = diag.error_count();
  const int n = base.num_sinks();
  // A sink may be touched by at most one edit: the invalidation cone and
  // the survivor renumbering are only well-defined for disjoint edits.
  std::vector<char> touched(static_cast<std::size_t>(std::max(n, 1)), 0);
  const auto touch = [&](int sink, const char* what) {
    if (sink < 0 || sink >= n) {
      diag.error(guard::Code::Range,
                 std::string(what) + " names sink " + std::to_string(sink) +
                     " outside the base design's 0.." + std::to_string(n - 1));
      return;
    }
    if (touched[static_cast<std::size_t>(sink)]) {
      diag.error(guard::Code::Duplicate,
                 "sink " + std::to_string(sink) +
                     " touched by more than one delta edit");
      return;
    }
    touched[static_cast<std::size_t>(sink)] = 1;
  };

  for (const SinkMove& mv : delta.moves) {
    touch(mv.sink, "move");
    const std::string who = "move of sink " + std::to_string(mv.sink);
    if (std::optional<guard::Status> bad =
            guard::point_finding(mv.to, who + " target"))
      diag.report(std::move(*bad));
    else if (!base.die.contains(mv.to))
      diag.warning(guard::Code::OutOfDie,
                   who + " targets a point outside the die");
  }
  for (const int r : delta.removes) touch(r, "remove");
  for (std::size_t i = 0; i < delta.adds.size(); ++i) {
    const SinkAdd& add = delta.adds[i];
    const std::string who = "added sink #" + std::to_string(i);
    if (std::optional<guard::Status> bad = guard::sink_finding(add.sink, who)) {
      diag.report(std::move(*bad));
      continue;
    }
    if (!base.die.contains(add.sink.loc))
      diag.warning(guard::Code::OutOfDie, who + " lies outside the die");
    if (add.module < 0 || add.module >= base.rtl.num_modules())
      diag.error(guard::Code::ModuleMismatch,
                 who + " names module " + std::to_string(add.module) +
                     " outside the RTL's 0.." +
                     std::to_string(base.rtl.num_modules() - 1));
  }
  if (n - static_cast<int>(delta.removes.size()) +
          static_cast<int>(delta.adds.size()) <=
      0)
    diag.error(guard::Code::EmptyDesign,
               "delta removes every sink of the design");
  if (delta.stream.has_value()) {
    const int k = base.rtl.num_instructions();
    for (const activity::InstrId id : delta.stream->seq) {
      if (id < 0 || id >= k) {
        diag.error(guard::Code::StreamId,
                   "replacement stream instruction id " + std::to_string(id) +
                       " outside the RTL's 0.." + std::to_string(k - 1));
        break;  // one report; a bad stream is usually wrong wholesale
      }
    }
    if (delta.stream->seq.empty())
      diag.warning(guard::Code::EmptyStream,
                   "replacement stream has no cycles");
  }
  return diag.error_count() == before;
}

std::vector<int> sink_index_map(const core::Design& base,
                                const DesignDelta& delta) {
  const int n = base.num_sinks();
  std::vector<char> removed(static_cast<std::size_t>(n), 0);
  for (const int r : delta.removes) removed[static_cast<std::size_t>(r)] = 1;
  std::vector<int> map(static_cast<std::size_t>(n), -1);
  int next = 0;
  for (int i = 0; i < n; ++i)
    if (!removed[static_cast<std::size_t>(i)]) map[static_cast<std::size_t>(i)] = next++;
  return map;
}

core::Design apply_delta(const core::Design& base, const DesignDelta& delta) {
  core::Design out{base.die,
                   {},
                   base.rtl,
                   delta.stream.has_value() ? *delta.stream : base.stream,
                   {}};

  ct::SinkList sinks = base.sinks;
  for (const SinkMove& mv : delta.moves)
    sinks[static_cast<std::size_t>(mv.sink)].loc = mv.to;

  // Removals break the implicit identity sink->module map (survivor i no
  // longer sits at index i), and adds need explicit module ids -- so the
  // map is materialized whenever the sink *set* changes.
  const bool need_modules = !delta.removes.empty() || !delta.adds.empty();
  std::vector<int> modules =
      need_modules ? base.resolved_sink_modules() : base.sink_module;

  if (!delta.removes.empty()) {
    const std::vector<int> map = sink_index_map(base, delta);
    ct::SinkList kept;
    std::vector<int> kept_modules;
    kept.reserve(sinks.size() - delta.removes.size());
    kept_modules.reserve(kept.capacity());
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      if (map[i] < 0) continue;
      kept.push_back(sinks[i]);
      kept_modules.push_back(modules[i]);
    }
    sinks = std::move(kept);
    modules = std::move(kept_modules);
  }
  for (const SinkAdd& add : delta.adds) {
    sinks.push_back(add.sink);
    if (need_modules) modules.push_back(add.module);
  }
  out.sinks = std::move(sinks);
  out.sink_module = std::move(modules);
  return out;
}

}  // namespace gcr::eco
