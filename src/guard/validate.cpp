#include "guard/validate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace gcr::guard {

namespace {

bool within_max_coordinate(const geom::Point& p) {
  return std::abs(p.x) <= kMaxCoordinate && std::abs(p.y) <= kMaxCoordinate;
}

std::string idx(const char* what, std::size_t i) {
  return std::string(what) + " " + std::to_string(i);
}

/// The single GCR_E_STREAM_ID finding: one aggregate error, not one per
/// cycle.
void report_stream_ids(const activity::StreamIdSummary& ids,
                       int num_instructions, Diag& diag) {
  if (ids.bad == 0) return;
  diag.error(Code::StreamId,
             std::to_string(ids.bad) +
                 " stream entries reference instructions outside [0, " +
                 std::to_string(num_instructions) + "); first at cycle " +
                 std::to_string(ids.first_cycle) + " (id " +
                 std::to_string(ids.first_id) + ")");
}

/// For each sink with finite coordinates, the index of the first sink at
/// the same location, or npos when it is the first there (also for sinks
/// with non-finite coordinates). One sort of the indices by (x, y, index)
/// groups each location with its lowest index first; -0.0 and 0.0 compare
/// equal, so they are one location.
std::vector<std::size_t> first_at_location(const std::vector<ct::Sink>& sinks) {
  constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> order;
  order.reserve(sinks.size());
  for (std::size_t i = 0; i < sinks.size(); ++i)
    if (finite_normal(sinks[i].loc.x) && finite_normal(sinks[i].loc.y))
      order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const geom::Point& p = sinks[a].loc;
    const geom::Point& q = sinks[b].loc;
    if (p.x != q.x) return p.x < q.x;
    if (p.y != q.y) return p.y < q.y;
    return a < b;
  });
  std::vector<std::size_t> first(sinks.size(), npos);
  for (std::size_t k = 1, head = 0; k < order.size(); ++k) {
    const geom::Point& p = sinks[order[head]].loc;
    const geom::Point& q = sinks[order[k]].loc;
    if (p.x == q.x && p.y == q.y)
      first[order[k]] = order[head];
    else
      head = k;
  }
  return first;
}

}  // namespace

std::optional<Status> point_finding(const geom::Point& p,
                                    std::string_view what) {
  if (!finite_normal(p.x) || !finite_normal(p.y))
    return make_error(Code::NonFinite, std::string(what) +
                                           " coordinate is NaN, infinite or "
                                           "denormal");
  if (!within_max_coordinate(p))
    return make_error(Code::Range, std::string(what) +
                                       " coordinate exceeds 1e9 in magnitude");
  return std::nullopt;
}

std::optional<Status> sink_finding(const ct::Sink& s, std::string_view what) {
  if (std::optional<Status> bad = point_finding(s.loc, what)) return bad;
  if (!finite_normal(s.cap))
    return make_error(Code::NonFinite, std::string(what) +
                                           " capacitance is NaN, infinite or "
                                           "denormal");
  if (s.cap <= 0.0)
    return make_error(Code::BadCap,
                      std::string(what) + " capacitance must be positive");
  if (s.cap > kMaxSinkCap)
    return make_error(Code::BadCap,
                      std::string(what) + " capacitance exceeds 1e6 pF");
  return std::nullopt;
}

const char* die_problem(const geom::DieArea& die) {
  if (!finite_normal(die.xlo) || !finite_normal(die.ylo) ||
      !finite_normal(die.xhi) || !finite_normal(die.yhi))
    return "die bounds are not finite";
  if (die.width() <= 0.0 || die.height() <= 0.0)
    return "die area is empty or inverted";
  if (!within_max_coordinate({die.xlo, die.ylo}) ||
      !within_max_coordinate({die.xhi, die.yhi}))
    return "die bounds exceed 1e9 in magnitude";
  return nullptr;
}

bool validate_design(const core::Design& design, Diag& diag,
                     const ValidateOptions& opts) {
  return validate_design(
      design,
      activity::scan_stream_ids(design.stream, design.rtl.num_instructions()),
      diag, opts);
}

bool validate_design(const core::Design& design,
                     const activity::StreamIdSummary& stream_ids, Diag& diag,
                     const ValidateOptions& opts) {
  const std::size_t errors_before = diag.error_count();
  const auto demote = [&](Code c, std::string msg) {
    if (opts.strict)
      diag.error(c, std::move(msg));
    else
      diag.warning(c, std::move(msg));
  };

  // --- die ----------------------------------------------------------------
  const geom::DieArea& die = design.die;
  if (const char* why = die_problem(die)) diag.error(Code::DieArea, why);

  // --- resource caps ------------------------------------------------------
  const Limits& lim = opts.limits;
  if (lim.max_sinks > 0 && design.sinks.size() > lim.max_sinks)
    diag.error(Code::Resource,
               std::to_string(design.sinks.size()) + " sinks exceed cap of " +
                   std::to_string(lim.max_sinks));
  if (lim.max_stream_length > 0 &&
      design.stream.seq.size() > lim.max_stream_length)
    diag.error(Code::Resource, "stream length " +
                                   std::to_string(design.stream.seq.size()) +
                                   " exceeds cap of " +
                                   std::to_string(lim.max_stream_length));
  if (lim.max_instructions > 0 &&
      static_cast<std::size_t>(design.rtl.num_instructions()) >
          lim.max_instructions)
    diag.error(Code::Resource, "instruction count exceeds cap of " +
                                   std::to_string(lim.max_instructions));
  if (lim.max_modules > 0 &&
      static_cast<std::size_t>(design.rtl.num_modules()) > lim.max_modules)
    diag.error(Code::Resource, "module count exceeds cap of " +
                                   std::to_string(lim.max_modules));
  if (diag.error_count() > errors_before) return false;  // caps gate the rest

  // --- sinks --------------------------------------------------------------
  if (design.sinks.empty()) diag.error(Code::EmptyDesign, "design has no sinks");
  const std::vector<std::size_t> first = first_at_location(design.sinks);
  for (std::size_t i = 0; i < design.sinks.size(); ++i) {
    const ct::Sink& s = design.sinks[i];
    if (!finite_normal(s.loc.x) || !finite_normal(s.loc.y)) {
      diag.error(Code::NonFinite,
                 idx("sink", i) + " has a non-finite or denormal coordinate");
      continue;  // further checks on this sink would be noise
    }
    if (!within_max_coordinate(s.loc)) {
      diag.error(Code::Range,
                 idx("sink", i) + " has a coordinate above 1e9 in magnitude");
      continue;
    }
    if (!finite_normal(s.cap)) {
      diag.error(Code::NonFinite,
                 idx("sink", i) + " has a non-finite or denormal capacitance");
    } else if (s.cap < 0.0) {
      diag.error(Code::BadCap, idx("sink", i) + " has negative capacitance");
    } else if (s.cap > kMaxSinkCap) {
      diag.error(Code::BadCap, idx("sink", i) + " has capacitance above 1e6 pF");
    } else if (s.cap == 0.0) {
      demote(Code::BadCap, idx("sink", i) + " has zero capacitance");
    }
    if (!die.contains(s.loc))
      demote(Code::OutOfDie, idx("sink", i) + " lies outside the die area");
    if (first[i] != std::numeric_limits<std::size_t>::max())
      demote(Code::Duplicate, idx("sink", i) + " duplicates the location of " +
                                  idx("sink", first[i]));
  }

  // --- rtl / sink-module mapping ------------------------------------------
  const int num_modules = design.rtl.num_modules();
  if (design.sink_module.empty()) {
    if (static_cast<std::size_t>(num_modules) < design.sinks.size())
      diag.error(Code::ModuleMismatch,
                 "rtl declares " + std::to_string(num_modules) +
                     " modules but the design has " +
                     std::to_string(design.sinks.size()) +
                     " sinks (identity mapping needs one module per sink)");
    else if (static_cast<std::size_t>(num_modules) > design.sinks.size())
      diag.warning(Code::UnusedModules,
                   "rtl declares " + std::to_string(num_modules) +
                       " modules for " + std::to_string(design.sinks.size()) +
                       " sinks; the excess modules are never routed");
  } else {
    if (design.sink_module.size() != design.sinks.size())
      diag.error(Code::ModuleMismatch,
                 "sink_module maps " +
                     std::to_string(design.sink_module.size()) +
                     " sinks but the design has " +
                     std::to_string(design.sinks.size()));
    for (std::size_t i = 0; i < design.sink_module.size(); ++i) {
      const int m = design.sink_module[i];
      if (m < 0 || m >= num_modules) {
        diag.error(Code::ModuleMismatch,
                   idx("sink", i) + " maps to module " + std::to_string(m) +
                       ", outside [0, " + std::to_string(num_modules) + ")");
      }
    }
  }

  // --- stream -------------------------------------------------------------
  report_stream_ids(stream_ids, design.rtl.num_instructions(), diag);
  if (design.stream.seq.empty())
    diag.warning(Code::EmptyStream,
                 "instruction stream is empty; activity factors fall back "
                 "to uniform");

  return diag.error_count() == errors_before;
}

}  // namespace gcr::guard
