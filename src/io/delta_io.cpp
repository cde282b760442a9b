#include "io/delta_io.h"

#include <istream>
#include <ostream>
#include <string>
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

}  // namespace

void write_delta(std::ostream& os, const eco::DesignDelta& delta) {
  TextOut out(os);
  out << "# gcr design delta\n";
  out << "delta\n";
  for (const eco::SinkMove& mv : delta.moves)
    out << "move " << mv.sink << ' ' << mv.to.x << ' ' << mv.to.y << '\n';
  for (const int r : delta.removes) out << "remove " << r << '\n';
  for (const eco::SinkAdd& add : delta.adds)
    out << "add " << add.sink.loc.x << ' ' << add.sink.loc.y << ' '
        << add.sink.cap << ' ' << add.module << '\n';
  if (delta.stream.has_value()) {
    out << "stream";
    for (const activity::InstrId id : delta.stream->seq) out << ' ' << id;
    out << '\n';
  }
  out.flush();
}

std::optional<eco::DesignDelta> read_delta(std::istream& is, guard::Diag& diag,
                                           const std::string& filename) {
  const std::size_t errors_before = diag.error_count();
  Lexer lx(is, filename);
  if (!lx.ok()) {
    diag.report(lx.load_status());
    return std::nullopt;
  }
  if (lx.num_lines() == 0) {
    diag.error(Code::Header, "expected 'delta' header", lx.end_loc());
    return std::nullopt;
  }
  {
    LineCursor c = lx.cursor(0);
    std::string_view tag;
    if (!c.next_token(tag) || tag != "delta") {
      diag.error(Code::Header, "expected 'delta' header", c.loc());
      return std::nullopt;
    }
    if (!c.at_end())
      diag.error(Code::Parse, "trailing garbage after delta header", c.loc());
  }

  eco::DesignDelta d;
  for (std::size_t i = 1; i < lx.num_lines(); ++i) {
    LineCursor c = lx.cursor(i);
    std::string_view tag;
    if (!c.next_token(tag)) continue;
    if (tag == "move") {
      eco::SinkMove mv;
      if (!c.next_int(mv.sink) || !c.next_double(mv.to.x) ||
          !c.next_double(mv.to.y)) {
        diag.error(Code::Parse, "malformed move (need 'move sink x y')",
                   c.loc());
        continue;
      }
      if (!c.at_end()) {
        diag.error(Code::Parse, "trailing garbage after move target", c.loc());
        continue;
      }
      if (mv.sink < 0) {
        diag.error(Code::Range, "move names a negative sink index",
                   lx.line_loc(i));
        continue;
      }
      if (std::optional<guard::Status> bad =
              guard::point_finding(mv.to, "move target")) {
        bad->loc = lx.line_loc(i);
        diag.report(std::move(*bad));
        continue;
      }
      d.moves.push_back(mv);
    } else if (tag == "remove") {
      int sink = 0;
      if (!c.next_int(sink)) {
        diag.error(Code::Parse, "malformed remove (need 'remove sink')",
                   c.loc());
        continue;
      }
      if (!c.at_end()) {
        diag.error(Code::Parse, "trailing garbage after removed sink",
                   c.loc());
        continue;
      }
      if (sink < 0) {
        diag.error(Code::Range, "remove names a negative sink index",
                   lx.line_loc(i));
        continue;
      }
      d.removes.push_back(sink);
    } else if (tag == "add") {
      eco::SinkAdd add;
      if (!c.next_double(add.sink.loc.x) || !c.next_double(add.sink.loc.y) ||
          !c.next_double(add.sink.cap) || !c.next_int(add.module)) {
        diag.error(Code::Parse, "malformed add (need 'add x y cap module')",
                   c.loc());
        continue;
      }
      if (!c.at_end()) {
        diag.error(Code::Parse, "trailing garbage after added sink's module",
                   c.loc());
        continue;
      }
      if (std::optional<guard::Status> bad =
              guard::sink_finding(add.sink, "added sink")) {
        bad->loc = lx.line_loc(i);
        diag.report(std::move(*bad));
        continue;
      }
      if (add.module < 0) {
        diag.error(Code::Range, "added sink names a negative module id",
                   lx.line_loc(i));
        continue;
      }
      d.adds.push_back(add);
    } else if (tag == "stream") {
      if (d.stream.has_value()) {
        diag.error(Code::Duplicate,
                   "delta declares more than one replacement stream",
                   lx.line_loc(i));
        continue;
      }
      activity::InstructionStream s;
      bool bad = false;
      while (!c.at_end()) {
        int id = 0;
        if (!c.next_int(id)) {
          diag.error(Code::Parse,
                     "stream entry '" + std::string(c.last_token()) +
                         "' is not an instruction id",
                     c.loc());
          bad = true;
          break;  // rest of the line is unreliable
        }
        if (id < 0) {
          diag.error(Code::Range, "negative instruction id", c.loc());
          bad = true;
          continue;
        }
        s.seq.push_back(id);
      }
      if (!bad) d.stream = std::move(s);
    } else {
      diag.error(Code::Parse,
                 "unknown delta edit '" + std::string(tag) +
                     "' (expected move/remove/add/stream)",
                 c.loc());
    }
  }
  if (diag.error_count() != errors_before) return std::nullopt;
  return d;
}

eco::DesignDelta read_delta(std::istream& is) {
  guard::Diag diag;
  auto v = read_delta(is, diag, "<delta>");
  if (!v) throw guard::GuardError(diag.first_error());
  return std::move(*v);
}

}  // namespace gcr::io
