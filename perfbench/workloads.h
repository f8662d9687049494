// Seeded request streams for the c2h benchmark.
//
// A workload is a fixed list of distinct programs ("shapes") and a request
// order drawn from the seed in shuffled rounds, so every shape appears once
// per round.  The seed also picks data values where they cannot change the
// synthesized hardware or its cycle count, and salts every request of a
// salted workload with a unique trailing comment so that no request hits
// the service's response or front-end cache.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64: a small, portable generator, so a seed means the same inputs
// on every platform and library version.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

private:
  std::uint64_t state_;
};

struct Shape {
  std::string name;     // "registry/fir", "dot/512x4", ...
  std::string op;       // "cosim" or "analyze"
  std::string source;   // the uC program
  std::string registry; // set for requests that name a registry workload
  std::vector<std::int64_t> args;
};

struct Workload {
  std::string name;
  std::vector<Shape> shapes;
  unsigned inFlight = 1; // requests kept outstanding (closed loops)
  bool salted = true;    // unique trailing comment per request
  std::uint64_t seed = 0;

  // One shuffled round over every shape.
  std::vector<std::size_t> round(Rng &rng) const;
  // The request line for request `id` of `shape`.
  std::string requestLine(std::size_t shape, std::uint64_t id) const;
  // The program text request `id` of `shape` carries (salt included).
  std::string sourceOf(std::size_t shape, std::uint64_t id) const;
};

// registry_cold, long_sim or serve_warm; throws
// std::invalid_argument for any other name.
Workload makeWorkload(const std::string &name, std::uint64_t seed);

// The set-up warm-up request: a cosim request on a program that no
// workload's stream contains.
std::string warmupLine();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
