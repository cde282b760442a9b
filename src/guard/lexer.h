#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "guard/arena.h"
#include "guard/status.h"

/// \file lexer.h
/// Line/column-tracking input front end for the text parsers. A `Lexer`
/// drains a stream up front with large `istream::read` blocks (sized from
/// the streambuf's `in_avail()`, so a file or string stream arrives in one
/// read) and stops as soon as the byte cap is passed. The bytes then move
/// into a `BoundedArena` as one block, with no second copy, before any
/// parsing: the cap and the "arena.alloc" fault point apply once per file.
/// Lines are split in place with memchr; '#' comments and blank lines are
/// dropped while the original 1-based line numbers are kept, and every raw
/// line visits the "lexer.read" fault point once, so an nth-visit fault
/// still lands mid-file. A mid-file stream failure (badbit, or failbit
/// before EOF) is told apart from true EOF (a short read).
///
/// `LineCursor` then tokenises one payload line with std::from_chars and
/// reports the exact 1-based column of the offending token, which is what
/// gives every GCR_E_PARSE diagnostic its file:line:col anchor.

namespace gcr::guard {

/// Token separator on a line: the whitespace a `LineCursor` skips
/// (' ', '\t', '\r', '\v', '\f'), tested as one bit of a mask.
[[nodiscard]] constexpr bool is_space(char c) {
  constexpr std::uint64_t kSpaces = (1ULL << ' ') | (1ULL << '\t') |
                                    (1ULL << '\r') | (1ULL << '\v') |
                                    (1ULL << '\f');
  const auto u = static_cast<unsigned char>(c);
  return u <= ' ' && ((kSpaces >> u) & 1U) != 0;
}

/// The one checked number parse of the text formats and the tools' flags:
/// the whole of `tok` must be a number that fits T (std::from_chars, so no
/// leading '+' or whitespace; doubles also take "inf"/"nan", which semantic
/// layers reject where they do not belong). `v` is written only on
/// success. Inline, so the readers' per-value calls (LineCursor::next_int,
/// next_double) compile it in place.
template <typename T>
[[nodiscard]] inline bool parse_number(std::string_view tok, T& v) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const char* const end = tok.data() + tok.size();
  T x{};
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>)
    r = std::from_chars(tok.data(), end, x, std::chars_format::general);
  else
    r = std::from_chars(tok.data(), end, x);
  if (r.ec != std::errc{} || r.ptr != end) return false;
  v = x;
  return true;
}

class LineCursor {
 public:
  LineCursor(std::string_view text, const std::string* file, int line)
      : text_(text), file_(file), line_(line) {}

  /// Next whitespace-delimited token; false at end of line.
  bool next_token(std::string_view& tok);
  /// Next token through parse_number: false at end of line or when the
  /// token is not a whole number that fits.
  bool next_int(int& v);
  bool next_double(double& v);

  /// True when only whitespace remains.
  [[nodiscard]] bool at_end();

  /// Location of the most recent token (or of the line end / next
  /// unconsumed character when no token was read yet).
  [[nodiscard]] SourceLoc loc() const;
  /// The most recent token ("" before the first next_* call).
  [[nodiscard]] std::string_view last_token() const { return last_tok_; }

 private:
  void skip_ws();

  std::string_view text_;
  const std::string* file_;
  int line_;
  std::size_t pos_{0};
  std::size_t tok_start_{0};
  std::string_view last_tok_;
};

class Lexer {
 public:
  /// Default input cap: generous for real designs, small enough that a
  /// runaway file fails fast with GCR_E_RESOURCE instead of thrashing.
  static constexpr std::size_t kDefaultMaxBytes = 64u << 20;  // 64 MiB

  /// Drains `is` completely (or until the byte cap / an I/O failure).
  /// Input of exactly `max_bytes` bytes is accepted; one more is
  /// GCR_E_RESOURCE. The cap is clamped to 2 GiB - 1, so line numbers
  /// and line sizes fit in 32 bits.
  Lexer(std::istream& is, std::string filename,
        std::size_t max_bytes = kDefaultMaxBytes);

  /// Ok, or the GCR_E_IO / GCR_E_RESOURCE status that interrupted loading.
  [[nodiscard]] const Status& load_status() const { return load_status_; }
  [[nodiscard]] bool ok() const { return load_status_.is_ok(); }

  [[nodiscard]] const std::string& file() const { return file_; }
  /// Bytes read (comments and blank lines included).
  [[nodiscard]] std::size_t bytes() const { return arena_.used(); }
  /// Number of payload (non-blank, comment-stripped) lines.
  [[nodiscard]] std::size_t num_lines() const { return lines_.size(); }
  /// Original 1-based line number of payload line `i`.
  [[nodiscard]] int line_number(std::size_t i) const {
    return lines_[i].number;
  }
  [[nodiscard]] std::string_view line_text(std::size_t i) const {
    return {lines_[i].text, lines_[i].size};
  }
  [[nodiscard]] LineCursor cursor(std::size_t i) const {
    return LineCursor(line_text(i), &file_, lines_[i].number);
  }
  /// Location pointing at payload line `i` (column 1).
  [[nodiscard]] SourceLoc line_loc(std::size_t i) const {
    return SourceLoc{file_, lines_[i].number, 1};
  }
  /// Location just past the last line read (where EOF / the failure hit).
  [[nodiscard]] SourceLoc end_loc() const {
    return SourceLoc{file_, last_raw_line_ + 1, 1};
  }

 private:
  /// 16 bytes, not a 24-byte string_view + int: a long stream has one
  /// per line, and no line is longer than the clamped byte cap.
  struct Line {
    const char* text;    ///< comment-stripped, arena-backed
    std::uint32_t size;  ///< bytes of `text`
    int number;          ///< 1-based line in the original file
  };

  std::string file_;
  Status load_status_{};
  BoundedArena arena_;
  std::vector<Line> lines_;
  int last_raw_line_{0};
};

}  // namespace gcr::guard
