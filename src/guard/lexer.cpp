#include "guard/lexer.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <memory>

#include "guard/fault.h"

namespace gcr::guard {

namespace {

/// One stream's bytes in one heap block (capacity may exceed `size`).
struct Slurp {
  std::unique_ptr<char[]> data;
  std::size_t size{0};
};

/// Reads `is` until EOF, a stream failure or `max_bytes + 1` bytes,
/// whichever comes first. Each read asks for what the streambuf reports
/// available -- the whole rest of a file or string stream -- so the
/// block is sized once for those, and a read never runs past the bytes
/// the streambuf can serve: a failure loses none that it already served.
Slurp slurp(std::istream& is, std::size_t max_bytes) {
  using traits = std::istream::traits_type;
  constexpr std::streamsize kMinRead = 64 << 10;
  Slurp s;
  std::size_t capacity = 0;
  std::streambuf* const sb = is.rdbuf();
  while (s.size <= max_bytes) {
    std::streamsize avail = sb != nullptr ? sb->in_avail() : 0;
    if (avail <= 0) {
      // Nothing buffered: peek makes the streambuf refill, or report EOF
      // or a failure (which istream turns into badbit).
      if (traits::eq_int_type(is.peek(), traits::eof())) break;
      avail = sb->in_avail();
      if (avail <= 0) avail = kMinRead;  // an unbuffered streambuf
    }
    const std::size_t room = max_bytes - s.size;  // bytes left under the cap
    const auto want = static_cast<std::size_t>(avail) > room
                          ? room + 1
                          : static_cast<std::size_t>(avail);
    if (want > capacity - s.size) {
      capacity =
          std::max(s.size + want, std::min(2 * capacity, max_bytes + 1));
      auto grown = std::make_unique_for_overwrite<char[]>(capacity);
      if (s.size > 0) std::memcpy(grown.get(), s.data.get(), s.size);
      s.data = std::move(grown);
    }
    is.read(s.data.get() + s.size, static_cast<std::streamsize>(want));
    s.size += static_cast<std::size_t>(is.gcount());
    if (!is) break;
  }
  return s;
}

int count_lines(const char* p, std::size_t n) {
  return static_cast<int>(std::count(p, p + n, '\n'));
}

}  // namespace

void LineCursor::skip_ws() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
}

bool LineCursor::next_token(std::string_view& tok) {
  skip_ws();
  if (pos_ >= text_.size()) {
    tok_start_ = pos_;
    last_tok_ = {};
    return false;
  }
  tok_start_ = pos_;
  while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
  tok = text_.substr(tok_start_, pos_ - tok_start_);
  last_tok_ = tok;
  return true;
}

bool LineCursor::next_int(int& v) {
  std::string_view tok;
  if (!next_token(tok)) return false;
  long long wide = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), wide);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) return false;
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max())
    return false;
  v = static_cast<int>(wide);
  return true;
}

bool LineCursor::next_double(double& v) {
  std::string_view tok;
  if (!next_token(tok)) return false;
  double d = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(),
                                         d, std::chars_format::general);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) return false;
  v = d;
  return true;
}

bool LineCursor::at_end() {
  skip_ws();
  if (pos_ >= text_.size()) return true;
  tok_start_ = pos_;  // so loc() points at the stray character
  return false;
}

SourceLoc LineCursor::loc() const {
  return SourceLoc{*file_, line_, static_cast<int>(tok_start_) + 1};
}

Lexer::Lexer(std::istream& is, std::string filename, std::size_t max_bytes)
    : file_(std::move(filename)),
      arena_(std::min<std::size_t>(max_bytes,
                                   std::numeric_limits<int>::max())) {
  max_bytes = arena_.capacity();  // so line numbers and sizes fit a Line
  Slurp in = slurp(is, max_bytes);
  if (in.size > max_bytes) {
    // Anchored just past the line holding the first byte over the cap.
    last_raw_line_ = 1 + count_lines(in.data.get(), max_bytes);
    load_status_ = make_error(
        Code::Resource,
        "input exceeds " + std::to_string(max_bytes) + " byte cap",
        end_loc());
    return;
  }
  // A read failing *without* reaching EOF means the underlying stream
  // broke mid-file (badbit): a short read, not a short file.
  if (is.bad() || (is.fail() && !is.eof())) {
    last_raw_line_ = count_lines(in.data.get(), in.size);
    load_status_ = make_error(
        Code::Io, "stream failed before end of file (short read?)",
        end_loc());
    return;
  }
  if (in.size == 0) return;
  const char* const text = arena_.adopt(std::move(in.data), in.size);
  if (text == nullptr) {
    load_status_ = make_error(Code::Resource, "input arena allocation failed",
                              end_loc());
    return;
  }
  const char* const end = text + in.size;
  for (const char* p = text; p < end;) {
    const auto* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const eol = nl != nullptr ? nl : end;
    ++last_raw_line_;
    if (fault_point("lexer.read")) {
      load_status_ =
          make_error(Code::Io, "injected read failure", end_loc());
      return;
    }
    const auto* hash = static_cast<const char*>(
        std::memchr(p, '#', static_cast<std::size_t>(eol - p)));
    const std::string_view line(
        p, static_cast<std::size_t>((hash != nullptr ? hash : eol) - p));
    if (!std::all_of(line.begin(), line.end(), is_space))
      lines_.push_back(Line{line.data(),
                            static_cast<std::uint32_t>(line.size()),
                            last_raw_line_});
    p = nl != nullptr ? nl + 1 : end;
  }
}

}  // namespace gcr::guard
