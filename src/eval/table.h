#pragma once

#include <iosfwd>
#include <string>
#include <vector>

/// \file table.h
/// Minimal aligned-table / CSV / markdown printer shared by the benchmark
/// harnesses so every regenerated paper table prints in one consistent
/// format.

namespace gcr::eval {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  [[nodiscard]] static std::string num(double v, int precision = 3);

  void print(std::ostream& os) const;
  void print_csv(std::ostream& os) const;
  /// GitHub-flavored markdown: `| a | b |` rows under a `|---|---|` rule.
  void print_markdown(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace gcr::eval
