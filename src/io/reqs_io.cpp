#include "io/reqs_io.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "guard/lexer.h"
#include "guard/validate.h"
#include "io/text_out.h"

namespace gcr::io {

namespace {

using guard::Code;
using guard::Lexer;
using guard::LineCursor;

bool parse_double_value(std::string_view v, double& out) {
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, out);
  return ec == std::errc() && p == end;
}

bool parse_int_value(std::string_view v, int& out) {
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, out);
  return ec == std::errc() && p == end;
}

bool one_of(std::string_view v, std::initializer_list<std::string_view> set) {
  for (const std::string_view s : set)
    if (v == s) return true;
  return false;
}

}  // namespace

void write_reqs(std::ostream& os, const std::vector<RouteRequest>& reqs) {
  TextOut out(os);
  out << "# gcr serve batch\n";
  out << "reqs\n";
  for (const RouteRequest& r : reqs) {
    out << r.id << " sinks=" << r.sinks << " rtl=" << r.rtl
        << " stream=" << r.stream;
    if (r.style != "reduced") out << " style=" << r.style;
    if (r.topology != "swcap") out << " topology=" << r.topology;
    if (r.strength) out << " strength=" << *r.strength;
    if (r.auto_tune) out << " auto_tune=1";
    if (r.deadline_ms >= 0.0) out << " deadline_ms=" << r.deadline_ms;
    if (r.threads > 0) out << " threads=" << r.threads;
    if (!r.eco.empty()) out << " eco=" << r.eco;
    out << '\n';
  }
  out.flush();
}

std::optional<std::vector<RouteRequest>> read_reqs(
    std::istream& is, guard::Diag& diag, const std::string& filename) {
  const std::size_t errors_before = diag.error_count();
  Lexer lx(is, filename);
  if (!lx.ok()) {
    diag.report(lx.load_status());
    return std::nullopt;
  }
  if (lx.num_lines() == 0) {
    diag.error(Code::Header, "expected 'reqs' header", lx.end_loc());
    return std::nullopt;
  }
  {
    LineCursor c = lx.cursor(0);
    std::string_view tag;
    if (!c.next_token(tag) || tag != "reqs") {
      diag.error(Code::Header, "expected 'reqs' header", c.loc());
      return std::nullopt;
    }
    if (!c.at_end())
      diag.error(Code::Parse, "trailing garbage after reqs header", c.loc());
  }

  std::vector<RouteRequest> out;
  std::unordered_map<std::string, int> seen;  // id -> first line
  for (std::size_t i = 1; i < lx.num_lines(); ++i) {
    LineCursor c = lx.cursor(i);
    std::string_view tok;
    if (!c.next_token(tok)) continue;
    bool bad = false;
    if (tok.find('=') != std::string_view::npos) {
      diag.error(Code::Parse,
                 "request line must start with an id token (no '=')",
                 c.loc());
      continue;
    }
    RouteRequest r;
    r.id = std::string(tok);
    r.line = lx.line_number(i);
    if (const auto [it, fresh] = seen.emplace(r.id, r.line); !fresh) {
      diag.error(Code::Duplicate,
                 "duplicate request id '" + r.id + "' (first on line " +
                     std::to_string(it->second) + ")",
                 c.loc());
      continue;
    }
    bool have_strength = false, have_auto = false, have_deadline = false,
         have_threads = false;
    while (c.next_token(tok)) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        diag.error(Code::Parse,
                   "trailing garbage: expected key=value, got '" +
                       std::string(tok) + "'",
                   c.loc());
        bad = true;
        break;
      }
      const std::string_view key = tok.substr(0, eq);
      const std::string_view val = tok.substr(eq + 1);
      if (val.empty()) {
        diag.error(Code::Parse, "empty value for '" + std::string(key) + "'",
                   c.loc());
        bad = true;
        break;
      }
      const auto set_path = [&](std::string& dst) {
        if (!dst.empty()) {
          diag.error(Code::Parse,
                     "duplicate '" + std::string(key) + "=' on one request",
                     c.loc());
          bad = true;
          return;
        }
        dst = std::string(val);
      };
      if (key == "sinks") {
        set_path(r.sinks);
      } else if (key == "rtl") {
        set_path(r.rtl);
      } else if (key == "stream") {
        set_path(r.stream);
      } else if (key == "eco") {
        set_path(r.eco);
      } else if (key == "style") {
        if (!one_of(val, {"buffered", "gated", "reduced"})) {
          diag.error(Code::Parse,
                     "bad style '" + std::string(val) +
                         "' (want buffered|gated|reduced)",
                     c.loc());
          bad = true;
        }
        r.style = std::string(val);
      } else if (key == "topology") {
        if (!one_of(val, {"swcap", "nn", "activity", "mmm"})) {
          diag.error(Code::Parse,
                     "bad topology '" + std::string(val) +
                         "' (want swcap|nn|activity|mmm)",
                     c.loc());
          bad = true;
        }
        r.topology = std::string(val);
      } else if (key == "strength") {
        double s = 0.0;
        if (have_strength || !parse_double_value(val, s)) {
          diag.error(Code::Parse, "malformed strength value", c.loc());
          bad = true;
        } else if (!guard::finite_normal(s)) {
          diag.error(Code::NonFinite,
                     "strength is NaN, infinite or denormal", c.loc());
          bad = true;
        } else if (s < 0.0 || s > 1.0) {
          diag.error(Code::Range, "strength outside [0,1]", c.loc());
          bad = true;
        } else {
          have_strength = true;
          r.strength = s;
        }
      } else if (key == "auto_tune") {
        if (have_auto || (val != "0" && val != "1")) {
          diag.error(Code::Parse, "auto_tune must be 0 or 1", c.loc());
          bad = true;
        } else {
          have_auto = true;
          r.auto_tune = val == "1";
        }
      } else if (key == "deadline_ms") {
        double d = 0.0;
        if (have_deadline || !parse_double_value(val, d)) {
          diag.error(Code::Parse, "malformed deadline_ms value", c.loc());
          bad = true;
        } else if (!guard::finite_normal(d)) {
          diag.error(Code::NonFinite,
                     "deadline_ms is NaN, infinite or denormal", c.loc());
          bad = true;
        } else if (d < 0.0) {
          diag.error(Code::Range, "deadline_ms must be >= 0", c.loc());
          bad = true;
        } else {
          have_deadline = true;
          r.deadline_ms = d;
        }
      } else if (key == "threads") {
        int t = 0;
        if (have_threads || !parse_int_value(val, t)) {
          diag.error(Code::Parse, "malformed threads value", c.loc());
          bad = true;
        } else if (t < 0) {
          diag.error(Code::Range, "threads must be >= 0", c.loc());
          bad = true;
        } else {
          have_threads = true;
          r.threads = t;
        }
      } else {
        diag.error(Code::Parse,
                   "unknown request option '" + std::string(key) + "'",
                   c.loc());
        bad = true;
      }
      if (bad) break;
    }
    if (bad) continue;
    if (r.sinks.empty() || r.rtl.empty() || r.stream.empty()) {
      diag.error(Code::Parse,
                 "request '" + r.id +
                     "' is missing a design path (need sinks= rtl= stream=)",
                 lx.line_loc(i));
      continue;
    }
    out.push_back(std::move(r));
  }
  if (out.empty() && diag.error_count() == errors_before)
    diag.error(Code::EmptyDesign, "batch declares no requests",
               guard::SourceLoc{filename, 0, 0});
  if (diag.error_count() > errors_before) return std::nullopt;
  return out;
}

}  // namespace gcr::io
