// The traced replica of one cosim request.
//
// The service answers a cosim request with the front end, the analyzer,
// every flow's pipeline, golden-model verification and co-simulation.  The
// replica repeats that work by calling each layer's public functions in the
// order flows::runFlowChecked and the engine call them, and records a span
// around each call.  Its rows must equal the service's rows for the same
// program (accept/reject, cycles, area); any difference is a mismatch.
//
// After each synchronous row the replica also probes the co-simulation
// layers one by one (emit, parse, elaborate, compile, run on an
// already-compiled model).  Probe spans sit under their own root, outside
// the request's wall time.
#ifndef PERFBENCH_REPLICA_H
#define PERFBENCH_REPLICA_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace c2h::vsim {
class ModelCache;
} // namespace c2h::vsim

namespace perfbench {

// Spans kept in memory and written once, at the end of the run.
class Tracer {
public:
  struct Span {
    const char *name;
    std::uint32_t request;
    std::int32_t parent; // index into spans(), -1 for a root
    double startUs = 0, durUs = 0;
  };

  std::int32_t open(const char *name, std::uint32_t request,
                    std::int32_t parent);
  void close(std::int32_t id);
  const std::vector<Span> &spans() const { return spans_; }
  // Chrome trace-event JSON (one complete event per span).
  bool write(const std::string &path) const;

private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer &tracer, const char *name, std::uint32_t request,
             std::int32_t parent)
      : tracer_(tracer), id_(tracer.open(name, request, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  std::int32_t id() const { return id_; }

private:
  Tracer &tracer_;
  std::int32_t id_;
};

// One row of a service response, as far as the replica must reproduce it.
struct ExpectedRow {
  std::string flow;
  bool accepted = false;
  std::uint64_t cycles = 0;
  std::string area; // as the service prints it, one decimal
};

struct ReplicaCounts {
  std::uint64_t instrsLowered = 0;   // IR instructions right after lowering
  std::uint64_t instrsOptimized = 0; // ... after the optimization passes
  std::uint64_t vsimCycles = 0;      // cycles of the probed vsim runs
};

// Replays one cosim request for `source` (top "main") through every flow.
// Returns false with `mismatch` set when a row differs from `expected` or a
// check fails.
bool replayRequest(const std::string &source,
                   const std::vector<std::int64_t> &args,
                   const std::vector<ExpectedRow> &expected,
                   std::uint32_t request, Tracer &tracer,
                   c2h::vsim::ModelCache &modelCache, ReplicaCounts &counts,
                   std::string &mismatch);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_H
