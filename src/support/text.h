// Small text utilities: an aligned table printer used by the benchmark
// harnesses (every experiment prints the paper's rows as a table), a
// deterministic RNG for workload generation, and the FNV-1a hash behind
// every content-keyed cache.
#ifndef C2H_SUPPORT_TEXT_H
#define C2H_SUPPORT_TEXT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace c2h {

// Column-aligned plain-text table.  Usage:
//   TextTable t({"flow", "cycles", "area"});
//   t.addRow({"handelc", "120", "334.5"});
//   std::cout << t.str();
class TextTable {
public:
  explicit TextTable(std::vector<std::string> header);
  void addRow(std::vector<std::string> cells);
  // Horizontal rule row (rendered as dashes).
  void addRule();
  std::string str() const;
  std::size_t rowCount() const { return rows_.size(); }

private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_; // empty vector == rule
};

// Format a double with `digits` fraction digits.
std::string formatDouble(double value, int digits = 2);

// splitmix64: deterministic, seedable RNG for workload/test-vector
// generation.  No global state — experiments are reproducible run to run.
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, bound); bound must be nonzero.
  std::uint64_t nextBelow(std::uint64_t bound);

private:
  std::uint64_t state_;
};

// 64-bit FNV-1a of `text`, continuing from `h` (the offset basis by
// default), so a key can be hashed in pieces.
constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;
std::uint64_t fnv1a(std::string_view text, std::uint64_t h = kFnv1aBasis);

} // namespace c2h

#endif // C2H_SUPPORT_TEXT_H
