#pragma once

#include <charconv>
#include <cstddef>
#include <cstring>
#include <ostream>
#include <string_view>

/// \file text_out.h
/// The block formatter behind every io::write_* text writer. Values are
/// formatted with std::to_chars into a fixed block; the stream gets one
/// write() per full block and one from the flush() every writer ends with.
/// The bytes are those of `ostream <<` at setprecision(max_digits10) in the
/// classic locale: ints in decimal, doubles as "%.17g". The stream's
/// precision, flags and locale are neither read nor changed.

namespace gcr::io {

class TextOut {
 public:
  explicit TextOut(std::ostream& os) : os_(os) {}

  TextOut& operator<<(char c) {
    if (len_ == kBlock) flush();
    buf_[len_++] = c;
    return *this;
  }
  TextOut& operator<<(std::string_view s) {
    if (s.size() > kBlock - len_) flush();
    if (s.size() > kBlock) {  // longer than a block: hand it on as it is
      os_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return *this;
    }
    std::memcpy(buf_ + len_, s.data(), s.size());
    len_ += s.size();
    return *this;
  }
  TextOut& operator<<(int v) { return number(v); }
  TextOut& operator<<(double v) {
    return number(v, std::chars_format::general, 17);
  }

  /// Hands the buffered bytes to the stream (which may keep buffering).
  void flush() {
    os_.write(buf_, static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  static constexpr std::size_t kBlock = std::size_t{32} << 10;

  template <typename... Format>
  TextOut& number(Format... f) {
    if (kBlock - len_ < 32) flush();  // "%.17g" takes at most 24 chars
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_ + len_, buf_ + kBlock, f...).ptr - buf_);
    return *this;
  }

  std::ostream& os_;
  std::size_t len_ = 0;
  char buf_[kBlock];
};

}  // namespace gcr::io
