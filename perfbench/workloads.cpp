#include "workloads.h"

#include "core/c2h.h"

#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

std::string jsonString(const std::string &text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\t':
      out += "\\t";
      break;
    default:
      out += c;
    }
  }
  return out + "\"";
}

std::string num(long long v) { return std::to_string(v); }

// A streaming reduction: a few instructions of code, R passes over N
// elements, so simulation dominates the request and the range analysis
// stays cheap.  The data come from the seed through a mask (the value
// ranges do not depend on it) and no branch depends on them (neither do
// the cycle counts).
std::string dotProgram(int n, int passes, Rng &rng) {
  std::string N = num(n);
  long long stride = static_cast<long long>(2 * rng.below(64) + 1);
  long long offset = static_cast<long long>(rng.below(256));
  return "int v[" + N + "];\n"
         "int main() {\n"
         "  for (int i = 0; i < " + N + "; i = i + 1) "
         "{ v[i] = ((i * " + num(stride) + " + " + num(offset) +
         ") & 255) - 128; }\n"
         "  int acc = 0;\n"
         "  for (int r = 0; r < " + num(passes) + "; r = r + 1)\n"
         "    for (int i = 0; i < " + N + "; i = i + 1) "
         "{ acc = acc + v[i] * v[(i + r + 1) & " + num(n - 1) + "]; }\n"
         "  return acc;\n"
         "}\n";
}

Shape sourceShape(std::string name, std::string source,
                  std::vector<std::int64_t> args = {}) {
  Shape s;
  s.name = std::move(name);
  s.op = "cosim";
  s.source = std::move(source);
  s.args = std::move(args);
  return s;
}

} // namespace

std::vector<std::size_t> Workload::round(Rng &rng) const {
  std::vector<std::size_t> order(shapes.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

std::string Workload::sourceOf(std::size_t shape, std::uint64_t id) const {
  const Shape &s = shapes[shape];
  if (!salted)
    return s.source;
  // Trailing, so source locations in diagnostics are unchanged.
  return s.source + "// perfbench seed " + num(static_cast<long long>(seed)) +
         " request " + num(static_cast<long long>(id)) + "\n";
}

std::string Workload::requestLine(std::size_t shape, std::uint64_t id) const {
  const Shape &s = shapes[shape];
  std::string line = "{\"id\":\"" + num(static_cast<long long>(id)) +
                     "\",\"op\":\"" + s.op + "\"";
  if (!s.registry.empty())
    return line + ",\"workload\":\"" + s.registry + "\"}";
  line += ",\"source\":" + jsonString(sourceOf(shape, id));
  if (!s.args.empty()) {
    line += ",\"args\":[";
    for (std::size_t i = 0; i < s.args.size(); ++i) {
      if (i)
        line += ',';
      line += num(s.args[i]);
    }
    line += "]";
  }
  return line + "}";
}

Workload makeWorkload(const std::string &name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  Rng rng(seed ^ 0x5eedc2b0c2b0ull);
  const auto &registry = c2h::core::standardWorkloads();
  if (name == "registry_cold") {
    for (const auto &r : registry)
      w.shapes.push_back(sourceShape("registry/" + r.name, r.source, r.args));
  } else if (name == "long_sim") {
    const int sizes[][2] = {
        {256, 8}, {512, 4}, {512, 6}, {1024, 3}, {1024, 4}};
    for (const auto &[n, passes] : sizes)
      w.shapes.push_back(sourceShape("dot/" + num(n) + "x" + num(passes),
                                     dotProgram(n, passes, rng)));
  } else if (name == "serve_warm") {
    w.inFlight = 4;
    w.salted = false;
    for (const char *op : {"cosim", "analyze"})
      for (const auto &r : registry) {
        Shape s;
        s.name = std::string(op) + "/" + r.name;
        s.op = op;
        s.registry = r.name;
        s.source = r.source; // what the replica replays
        s.args = r.args;
        w.shapes.push_back(std::move(s));
      }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::string warmupLine() {
  return "{\"id\":\"warmup\",\"op\":\"cosim\",\"source\":" +
         jsonString("int t[8];\n"
                    "int main(int n) {\n"
                    "  for (int i = 0; i < 8; i = i + 1) "
                    "{ t[i] = (i * n + 3) & 15; }\n"
                    "  int s = 0;\n"
                    "  for (int i = 0; i < 8; i = i + 1)\n"
                    "    for (int j = 0; j < 8; j = j + 1) "
                    "{ s = s + t[i] * t[j]; }\n"
                    "  return s;\n"
                    "}\n") +
         ",\"args\":[5]}";
}

} // namespace perfbench
