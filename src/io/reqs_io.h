#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/option_names.h"
#include "guard/status.h"

/// \file reqs_io.h
/// The `.reqs` batch request format consumed by `gcr_serve` (docs/
/// serving.md, FORMATS.md): one routing request per line, each naming a
/// design (sinks/rtl/stream files) plus per-request options. The reader
/// follows the house parser rules -- line/column-anchored GCR_E_* codes,
/// every broken line reported in one pass, strict rejection of trailing
/// garbage -- so a malformed batch costs one diagnostic pass, never a
/// daemon.
///
/// Format:
///   reqs
///   <id> sinks=<path> rtl=<path> stream=<path> [key=value ...]
///
/// Request ids are free-form tokens (no '=') and must be unique within a
/// batch. Recognized option keys:
///   style=buffered|gated|reduced     tree style         (default reduced)
///   topology=swcap|nn|activity|mmm   topology scheme    (default swcap)
///   strength=S                       reduction strength in [0,1]
///   auto_tune=0|1                    sweep reduction strength, keep best
///   deadline_ms=MS                   per-request wall-clock budget (>= 0,
///                                    finite; absent = the serve default)
///   eco=<path>                       .delta applied incrementally on top
///                                    of the (cached) base route
///
/// Option *values* are validated here (unknown keys, bad enum members,
/// NaN deadlines and out-of-range strengths are parse-time errors);
/// whether the named files exist and parse is the serving layer's
/// per-request concern -- a bad path must fail one request, not the batch.

namespace gcr::io {

/// One parsed request line. The enumerated options use the header-only
/// name table (core/option_names.h), so this header needs no router; the
/// serving layer owns the mapping onto core::RouterOptions.
struct RouteRequest {
  std::string id;
  std::string sinks, rtl, stream;    ///< design file paths (required)
  core::TreeStyle style{core::TreeStyle::GatedReduced};
  core::TopologyScheme topology{core::TopologyScheme::MinSwitchedCap};
  std::optional<double> strength;    ///< reduction strength in [0,1]
  bool auto_tune{false};
  double deadline_ms{-1.0};          ///< < 0 = use the serve default
  std::string eco;                   ///< optional .delta path ("" = none)
  int line{0};                       ///< 1-based source line (diagnostics)
};

void write_reqs(std::ostream& os, const std::vector<RouteRequest>& reqs);

/// Diag-collecting reader: nullopt when any error was found (an empty
/// batch is an error -- a serve run with nothing to do is a malformed
/// submission, GCR_E_EMPTY).
[[nodiscard]] std::optional<std::vector<RouteRequest>> read_reqs(
    std::istream& is, guard::Diag& diag,
    const std::string& filename = "<reqs>");

}  // namespace gcr::io
