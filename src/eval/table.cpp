#include "eval/table.h"

#include <cassert>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace gcr::eval {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  const auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left
         << std::setw(static_cast<int>(width[c])) << cells[c];
    }
    os << '\n';
  };
  line(headers_);
  std::string sep;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) sep += "  ";
    sep += std::string(width[c], '-');
  }
  os << sep << '\n';
  for (const auto& row : rows_) line(row);
}

void Table::print_csv(std::ostream& os) const {
  const auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c)
      os << (c == 0 ? "" : ",") << cells[c];
    os << '\n';
  };
  line(headers_);
  for (const auto& row : rows_) line(row);
}

void Table::print_markdown(std::ostream& os) const {
  const auto line = [&](const std::vector<std::string>& cells) {
    for (const auto& cell : cells) os << "| " << cell << ' ';
    os << "|\n";
  };
  line(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) os << "|---";
  os << "|\n";
  for (const auto& row : rows_) line(row);
}

}  // namespace gcr::eval
