#include "serve/protocol.h"

#include "analysis/diagnostic.h"
#include "support/text.h"

#include <cmath>

namespace c2h::serve {

namespace {

bool parseBudget(const JsonValue &json, guard::BudgetSpec &out,
                 std::string &error) {
  if (!json.isObject()) {
    error = "'budget' must be an object";
    return false;
  }
  for (const auto &[key, value] : json.members()) {
    if (!value.isNumber() || value.numberValue() < 0 ||
        std::floor(value.numberValue()) != value.numberValue()) {
      error = "budget field '" + key + "' must be a non-negative integer";
      return false;
    }
    std::uint64_t n = static_cast<std::uint64_t>(value.numberValue());
    if (key == "steps")
      out.maxSteps = n;
    else if (key == "cycles")
      out.maxCycles = n;
    else if (key == "alloc")
      out.maxAllocBytes = n;
    else if (key == "ms")
      out.wallMs = n;
    else {
      error = "unknown budget field '" + key + "'";
      return false;
    }
  }
  return true;
}

} // namespace

bool parseRequest(const JsonValue &json, Request &out, std::string &error) {
  if (!json.isObject()) {
    error = "request must be a JSON object";
    return false;
  }
  for (const auto &[key, value] : json.members()) {
    if (key == "id") {
      if (!value.isString()) {
        error = "'id' must be a string";
        return false;
      }
      out.id = value.stringValue();
    } else if (key == "op") {
      if (!value.isString()) {
        error = "'op' must be a string";
        return false;
      }
      out.op = value.stringValue();
    } else if (key == "client") {
      if (!value.isString() || value.stringValue().empty()) {
        error = "'client' must be a non-empty string";
        return false;
      }
      out.client = value.stringValue();
    } else if (key == "source") {
      if (!value.isString()) {
        error = "'source' must be a string";
        return false;
      }
      out.source = value.stringValue();
    } else if (key == "workload") {
      if (!value.isString()) {
        error = "'workload' must be a string";
        return false;
      }
      out.workloadName = value.stringValue();
    } else if (key == "top") {
      if (!value.isString() || value.stringValue().empty()) {
        error = "'top' must be a non-empty string";
        return false;
      }
      out.top = value.stringValue();
    } else if (key == "args") {
      if (!value.isArray()) {
        error = "'args' must be an array of integers";
        return false;
      }
      out.args.clear();
      for (const auto &item : value.items()) {
        if (!item.isNumber()) {
          error = "'args' must be an array of integers";
          return false;
        }
        out.args.push_back(item.intValue());
      }
      out.argsSet = true;
    } else if (key == "budget") {
      if (!parseBudget(value, out.budget, error))
        return false;
      out.budgetSet = true;
    } else if (key == "vsim_engine") {
      out.vsimEngine = value.isString()
                           ? vsim::parseEngine(value.stringValue())
                           : std::nullopt;
      if (!out.vsimEngine) {
        error = "'vsim_engine' must be compiled, compiled-strict, or event";
        return false;
      }
    } else if (key == "jobs") {
      if (!value.isNumber() || value.numberValue() < 0) {
        error = "'jobs' must be a non-negative integer";
        return false;
      }
      out.jobs = static_cast<unsigned>(value.numberValue());
    } else if (key == "timing") {
      if (!value.isBool()) {
        error = "'timing' must be a boolean";
        return false;
      }
      out.timing = value.boolValue();
    } else if (key == "no_cache") {
      if (!value.isBool()) {
        error = "'no_cache' must be a boolean";
        return false;
      }
      out.noCache = value.boolValue();
    } else {
      error = "unknown request field '" + key + "'";
      return false;
    }
  }
  if (out.op != "compare" && out.op != "cosim" && out.op != "analyze" &&
      out.op != "stats") {
    error = out.op.empty()
                ? "missing 'op' (compare, cosim, analyze, or stats)"
                : "unknown op '" + out.op + "'";
    return false;
  }
  if (out.op != "stats") {
    if (out.source.empty() && out.workloadName.empty()) {
      error = "request needs 'source' or 'workload'";
      return false;
    }
    if (!out.source.empty() && !out.workloadName.empty()) {
      error = "'source' and 'workload' are mutually exclusive";
      return false;
    }
  }
  return true;
}

std::string serializeRows(const std::vector<core::FlowComparison> &rows,
                          bool cosim) {
  std::string out = "[";
  bool first = true;
  for (const auto &r : rows) {
    if (!first)
      out += ",";
    first = false;
    out += "{\"flow\":\"" + analysis::jsonEscape(r.flowId) + "\"";
    out += std::string(",\"accepted\":") + (r.accepted ? "true" : "false");
    out += std::string(",\"verified\":") + (r.verified ? "true" : "false");
    out += ",\"cycles\":" + std::to_string(r.cycles);
    out += ",\"area\":" + formatDouble(r.areaTotal, 1);
    out += ",\"fmax\":" + formatDouble(r.fmaxMHz, 1);
    if (r.asyncNs > 0)
      out += ",\"asyncNs\":" + formatDouble(r.asyncNs, 1);
    out += ",\"note\":\"" + analysis::jsonEscape(r.note) + "\"";
    if (cosim) {
      // Field names mirror the CLI's --cosim --diag-format=json rows so
      // harnesses gating on zero fallbacks work against either surface.
      out += std::string(",\"cosimRan\":") + (r.cosimRan ? "true" : "false");
      out += std::string(",\"cosimOk\":") + (r.cosimOk ? "true" : "false");
      out += ",\"cosimCycles\":" + std::to_string(r.cosimCycles);
      out += ",\"engine\":\"" + analysis::jsonEscape(r.cosimEngine) + "\"";
      out += ",\"fallback\":\"" + analysis::jsonEscape(r.cosimFallback) + "\"";
      out +=
          ",\"degradation\":\"" + analysis::jsonEscape(r.degradation) + "\"";
      if (!r.cosimNote.empty())
        out += ",\"cosimNote\":\"" + analysis::jsonEscape(r.cosimNote) + "\"";
    }
    if (!r.verdict.ok()) {
      out += std::string(",\"verdict\":{\"kind\":\"") +
             guard::kindName(r.verdict.kind) + "\",\"stage\":\"" +
             analysis::jsonEscape(r.verdict.stage) + "\",\"site\":\"" +
             analysis::jsonEscape(r.verdict.site) + "\"}";
    }
    out += "}";
  }
  out += "]";
  return out;
}

int comparisonExitCode(const std::vector<core::FlowComparison> &rows) {
  int exitCode = 0;
  for (const auto &r : rows) {
    if (r.verdict.isResourceLimit())
      return 4;
    if ((r.accepted && !r.verified) || (r.cosimRan && !r.cosimOk) ||
        r.note.rfind("internal error:", 0) == 0 ||
        r.note.rfind("frontend: ", 0) == 0 ||
        r.verdict.kind == guard::Kind::InjectedFault)
      exitCode = 1;
  }
  return exitCode;
}

const char *statusForExitCode(int exitCode) {
  switch (exitCode) {
  case 0:
    return "ok";
  case 1:
    return "failed";
  case 2:
    return "invalid_request";
  case 4:
    return "over_budget";
  default:
    return "error";
  }
}

} // namespace c2h::serve
