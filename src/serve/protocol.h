// The cosim service's wire protocol (docs/SERVICE.md is the spec).
//
// Requests are newline-delimited JSON objects; responses are one JSON
// object per line, in *request order*.  The protocol is a thin, versioned
// projection of what the one-shot CLI already emits: compare/cosim rows
// carry the same fields as `c2hc --flow=all --cosim --diag-format=json`,
// analyze embeds the analyzer's own schema_version:2 report verbatim, and
// the CLI's documented exit codes map onto the response `status` strings
// (ok=0, failed=1, invalid_request=2, error=3, over_budget=4; `rejected`
// is admission control and has no one-shot analogue).
#ifndef C2H_SERVE_PROTOCOL_H
#define C2H_SERVE_PROTOCOL_H

#include "core/c2h.h"
#include "serve/json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace c2h::serve {

// Bumped on any response shape change, exactly like the analyzer's report
// schema; harnesses pin it (tests/fixtures/serve_warm_gcd.json).
constexpr int kProtocolSchemaVersion = 2;

struct Request {
  std::string id;     // echoed verbatim in the response; may be empty
  std::string op;     // compare | cosim | analyze | stats
  std::string client = "anonymous"; // accounting key for fair-share stats
  std::string source;       // inline uC program (exclusive with `workload`)
  std::string workloadName; // registry workload name
  std::string top = "main";
  std::vector<std::int64_t> args;
  bool argsSet = false;
  // Per-request admission budget; unset fields inherit the server default.
  guard::BudgetSpec budget;
  bool budgetSet = false;
  // vsim backend; unset = server default.
  std::optional<vsim::SimEngine> vsimEngine;
  unsigned jobs = 0;   // per-request flow parallelism; 0 = server default
  bool timing = true;  // false suppresses the timing object (golden tests)
  bool noCache = false; // bypass the response cache (bench cold mixes)
};

// Shape-check a parsed JSON object into a Request.  Unknown fields are an
// error (fail fast on typos rather than silently ignoring a misspelled
// "budjet").  Returns false with a message suitable for an
// invalid_request response.
bool parseRequest(const JsonValue &json, Request &out, std::string &error);

// One (deterministic) JSON row per flow — the serve-mode analogue of the
// CLI's --cosim JSON rows, extended with the comparison table's columns.
// `cosim` controls whether the cosim fields are included.
std::string serializeRows(const std::vector<core::FlowComparison> &rows,
                          bool cosim);

// The CLI exit-code contract applied to a finished comparison: 4 when any
// row tripped a resource limit, 1 on verification/cosim failures,
// internal-error rows or a source that does not compile, 0 otherwise.
int comparisonExitCode(const std::vector<core::FlowComparison> &rows);

// Status string for a given exit code (ok/failed/invalid_request/error/
// over_budget).
const char *statusForExitCode(int exitCode);

} // namespace c2h::serve

#endif // C2H_SERVE_PROTOCOL_H
