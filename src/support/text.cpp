#include "support/text.h"

#include <algorithm>
#include <cstdio>

namespace c2h {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::addRow(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::addRule() { rows_.emplace_back(); }

std::string TextTable::str() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i)
    widths[i] = header_[i].size();
  for (const auto &row : rows_)
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());

  auto emit = [&](const std::vector<std::string> &cells, std::string &out) {
    for (std::size_t i = 0; i < header_.size(); ++i) {
      std::string cell = i < cells.size() ? cells[i] : "";
      out += cell;
      if (i + 1 < header_.size())
        out.append(widths[i] - cell.size() + 2, ' ');
    }
    out += '\n';
  };

  std::string out;
  emit(header_, out);
  std::string rule;
  for (std::size_t i = 0; i < header_.size(); ++i) {
    rule.append(widths[i], '-');
    if (i + 1 < header_.size())
      rule.append(2, ' ');
  }
  out += rule + '\n';
  for (const auto &row : rows_) {
    if (row.empty())
      out += rule + '\n';
    else
      emit(row, out);
  }
  return out;
}

std::string formatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t SplitMix64::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::nextBelow(std::uint64_t bound) {
  return next() % bound;
}

} // namespace c2h
