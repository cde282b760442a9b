#include "io/text_io.h"

#include <cstddef>
#include <istream>
#include <map>
#include <ostream>
#include <utility>

#include "guard/lexer.h"
#include "guard/validate.h"
#include "io/text_out.h"

namespace gcr::io {

namespace {

using guard::Code;
using guard::Diag;
using guard::Lexer;
using guard::LineCursor;

/// Shared epilogue for the throwing wrappers: surface the first collected
/// error as a GuardError (derives std::runtime_error, so pre-guard catch
/// sites keep working).
template <typename T>
T value_or_throw(std::optional<T> v, const Diag& diag) {
  if (!v) throw guard::GuardError(diag.first_error());
  return std::move(*v);
}

/// Fast path of read_stream: appends one line's ids when every token is a
/// plain decimal of at most nine digits, which always fits an int. At the
/// first token it cannot accept (a sign, any other character, ten or more
/// digits) it drops the line's partial output and returns false; the
/// caller then re-parses the line with a LineCursor, so every diagnostic
/// keeps its code and column.
///
/// Most stream ids are one or two digits, so a short-token loop runs first:
/// while three bytes of the line remain it decides the next token from
/// p[0..2] with no loop (a separator, a digit and a separator, or two
/// digits and a separator). Anything else -- three or more digits, a sign,
/// junk, the last one or two bytes of the line -- falls to the digit loop.
bool scan_clean_ids(std::string_view line, std::vector<int>& out) {
  constexpr std::ptrdiff_t kMaxDigits = 9;
  const std::size_t mark = out.size();
  const char* p = line.data();
  const char* const end = p + line.size();
  const auto digit = [](char c) { return static_cast<unsigned>(c - '0'); };
  while (end - p >= 3) {
    const unsigned d0 = digit(p[0]);
    if (d0 > 9) {
      if (!guard::is_space(p[0])) break;
      p += 1;
    } else if (guard::is_space(p[1])) {
      out.push_back(static_cast<int>(d0));
      p += 2;
    } else if (const unsigned d1 = digit(p[1]);
               d1 <= 9 && guard::is_space(p[2])) {
      out.push_back(static_cast<int>(10 * d0 + d1));
      p += 3;
    } else {
      break;
    }
  }
  for (;;) {
    while (p < end && guard::is_space(*p)) ++p;
    if (p == end) return true;
    const char* const start = p;
    int v = 0;
    for (; p < end && p - start < kMaxDigits && *p >= '0' && *p <= '9'; ++p)
      v = v * 10 + (*p - '0');
    if (p == start || (p < end && !guard::is_space(*p))) {
      out.resize(mark);
      return false;
    }
    out.push_back(v);
  }
}

}  // namespace

void write_sinks(std::ostream& os, const geom::DieArea& die,
                 const ct::SinkList& sinks) {
  TextOut out(os);
  out << "# gcr sinks file\n";
  out << "die " << die.xlo << ' ' << die.ylo << ' ' << die.xhi << ' '
      << die.yhi << '\n';
  out << "# x y cap\n";
  for (const auto& s : sinks)
    out << s.loc.x << ' ' << s.loc.y << ' ' << s.cap << '\n';
  out.flush();
}

std::optional<SinksFile> read_sinks(std::istream& is, guard::Diag& diag,
                                    const std::string& filename) {
  const std::size_t errors_before = diag.error_count();
  Lexer lx(is, filename);
  if (!lx.ok()) {
    diag.report(lx.load_status());
    return std::nullopt;
  }
  if (lx.num_lines() == 0) {
    diag.error(Code::Header, "expected 'die' header", lx.end_loc());
    return std::nullopt;
  }

  SinksFile f;
  {
    LineCursor c = lx.cursor(0);
    std::string_view tag;
    if (!c.next_token(tag) || tag != "die") {
      diag.error(Code::Header, "expected 'die' header", c.loc());
      return std::nullopt;
    }
    if (!c.next_double(f.die.xlo) || !c.next_double(f.die.ylo) ||
        !c.next_double(f.die.xhi) || !c.next_double(f.die.yhi)) {
      diag.error(Code::Header, "malformed die line (need 4 numbers)",
                 c.loc());
      return std::nullopt;
    }
    if (!c.at_end()) {
      diag.error(Code::Parse, "trailing garbage after die bounds", c.loc());
    }
  }
  const char* const die_problem = guard::die_problem(f.die);
  if (die_problem) diag.error(Code::DieArea, die_problem, lx.line_loc(0));

  std::map<std::pair<double, double>, int> seen;  // coord -> line number
  for (std::size_t i = 1; i < lx.num_lines(); ++i) {
    LineCursor c = lx.cursor(i);
    double x = 0, y = 0, cap = 0;
    if (!c.next_double(x) || !c.next_double(y) || !c.next_double(cap)) {
      diag.error(Code::Parse, "malformed sink line (need 'x y cap')",
                 c.loc());
      continue;
    }
    if (!c.at_end()) {
      diag.error(Code::Parse, "trailing garbage after sink capacitance",
                 c.loc());
      continue;
    }
    if (std::optional<guard::Status> bad =
            guard::sink_finding({{x, y}, cap}, "sink")) {
      bad->loc = lx.line_loc(i);
      diag.report(std::move(*bad));
      continue;
    }
    if (!die_problem && !f.die.contains({x, y}))
      diag.error(Code::OutOfDie, "sink lies outside the die area",
                 lx.line_loc(i));
    const auto [it, inserted] =
        seen.emplace(std::make_pair(x, y), lx.line_number(i));
    if (!inserted)
      diag.error(Code::Duplicate,
                 "duplicate sink coordinate (first at line " +
                     std::to_string(it->second) + ")",
                 lx.line_loc(i));
    f.sinks.push_back({{x, y}, cap});
  }
  if (f.sinks.empty() && diag.error_count() == errors_before)
    diag.error(Code::EmptyDesign, "sinks file declares no sinks",
               lx.end_loc());
  if (diag.error_count() != errors_before) return std::nullopt;
  return f;
}

SinksFile read_sinks(std::istream& is) {
  guard::Diag diag;
  return value_or_throw(read_sinks(is, diag, "<sinks>"), diag);
}

void write_stream(std::ostream& os, const activity::InstructionStream& s) {
  TextOut out(os);
  out << "# gcr instruction stream (" << s.length() << " cycles)\n";
  for (int t = 0; t < s.length(); ++t)
    out << s.seq[static_cast<std::size_t>(t)] << ((t + 1) % 20 ? ' ' : '\n');
  out << '\n';
  out.flush();
}

std::optional<activity::InstructionStream> read_stream(
    std::istream& is, guard::Diag& diag, const std::string& filename) {
  const std::size_t errors_before = diag.error_count();
  Lexer lx(is, filename);
  if (!lx.ok()) {
    diag.report(lx.load_status());
    return std::nullopt;
  }
  activity::InstructionStream s;
  // Every id takes at least two bytes (a digit and a separator), so this
  // never regrows; pages past the ids actually read stay untouched.
  s.seq.reserve(lx.bytes() / 2 + 1);
  for (std::size_t i = 0; i < lx.num_lines(); ++i) {
    if (scan_clean_ids(lx.line_text(i), s.seq)) continue;
    // Slow path: re-parse the line token by token for exact diagnostics.
    LineCursor c = lx.cursor(i);
    while (!c.at_end()) {
      int id = 0;
      if (!c.next_int(id)) {
        diag.error(Code::Parse,
                   "stream entry '" + std::string(c.last_token()) +
                       "' is not an instruction id",
                   c.loc());
        break;  // rest of the line is unreliable
      }
      if (id < 0) {
        diag.error(Code::Range, "negative instruction id", c.loc());
        continue;
      }
      s.seq.push_back(id);
    }
  }
  if (s.seq.empty())
    diag.warning(Code::EmptyStream, "instruction stream is empty",
                 lx.end_loc());
  if (diag.error_count() != errors_before) return std::nullopt;
  return s;
}

activity::InstructionStream read_stream(std::istream& is) {
  guard::Diag diag;
  return value_or_throw(read_stream(is, diag, "<stream>"), diag);
}

void write_rtl(std::ostream& os, const activity::RtlDescription& rtl) {
  TextOut out(os);
  out << "# gcr rtl description\n";
  out << "rtl " << rtl.num_instructions() << ' ' << rtl.num_modules() << '\n';
  for (int i = 0; i < rtl.num_instructions(); ++i) {
    out << i;
    rtl.module_set(i).for_each([&](int m) { out << ' ' << m; });
    out << '\n';
  }
  out.flush();
}

std::optional<activity::RtlDescription> read_rtl(std::istream& is,
                                                 guard::Diag& diag,
                                                 const std::string& filename) {
  const std::size_t errors_before = diag.error_count();
  Lexer lx(is, filename);
  if (!lx.ok()) {
    diag.report(lx.load_status());
    return std::nullopt;
  }
  if (lx.num_lines() == 0) {
    diag.error(Code::Header, "rtl file is empty (expected 'rtl K N' header)",
               lx.end_loc());
    return std::nullopt;
  }
  int k = 0, n = 0;
  {
    LineCursor c = lx.cursor(0);
    std::string_view tag;
    if (!c.next_token(tag) || tag != "rtl" || !c.next_int(k) ||
        !c.next_int(n) || k <= 0 || n <= 0) {
      diag.error(Code::Header,
                 "malformed rtl header (expected 'rtl K N', K,N > 0)",
                 c.loc());
      return std::nullopt;
    }
    if (!c.at_end())
      diag.error(Code::Parse, "trailing garbage after rtl header", c.loc());
  }
  activity::RtlDescription rtl(k, n);
  for (std::size_t i = 1; i < lx.num_lines(); ++i) {
    LineCursor c = lx.cursor(i);
    int instr = 0;
    if (!c.next_int(instr)) {
      diag.error(Code::Parse,
                 "rtl row must start with an instruction id, got '" +
                     std::string(c.last_token()) + "'",
                 c.loc());
      continue;
    }
    if (instr < 0 || instr >= k) {
      diag.error(Code::Range,
                 "instruction id " + std::to_string(instr) +
                     " outside [0, " + std::to_string(k) + ")",
                 c.loc());
      continue;
    }
    while (!c.at_end()) {
      int m = 0;
      if (!c.next_int(m)) {
        diag.error(Code::Parse,
                   "module id '" + std::string(c.last_token()) +
                       "' is not an integer",
                   c.loc());
        break;
      }
      if (m < 0 || m >= n) {
        diag.error(Code::Range,
                   "module id " + std::to_string(m) + " outside [0, " +
                       std::to_string(n) + ")",
                   c.loc());
        continue;
      }
      rtl.add_use(instr, m);
    }
  }
  if (diag.error_count() != errors_before) return std::nullopt;
  return rtl;
}

activity::RtlDescription read_rtl(std::istream& is) {
  guard::Diag diag;
  return value_or_throw(read_rtl(is, diag, "<rtl>"), diag);
}

}  // namespace gcr::io
