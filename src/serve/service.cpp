#include "serve/service.h"

#include "analysis/diagnostic.h"
#include "support/guard.h"
#include "support/text.h"

#include <chrono>

namespace c2h::serve {

namespace {

// Service-layer fault sites: the chaos suite arms these to prove a faulted
// request has a blast radius of exactly one — siblings keep their
// byte-identical responses and neither cache is poisoned.
guard::FaultSite siteParse("serve.parse");
guard::FaultSite siteHandle("serve.handle");
guard::FaultSite siteRespond("serve.respond");

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string verdictJson(const guard::Verdict &verdict) {
  return std::string("{\"kind\":\"") + guard::kindName(verdict.kind) +
         "\",\"stage\":\"" + analysis::jsonEscape(verdict.stage) +
         "\",\"site\":\"" + analysis::jsonEscape(verdict.site) + "\"}";
}

// Report::renderJson ends with a newline (it's a whole-document renderer);
// embedded in a one-line response that newline would split the line protocol.
std::string inlineJson(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r' ||
                           text.back() == ' '))
    text.pop_back();
  return text;
}

} // namespace

CosimService::CosimService(ServiceOptions options)
    : options_(std::move(options)), modelCache_(options_.modelCacheEntries),
      responses_(options_.responseCacheBytes) {
  engine_.cache().setCapacityBytes(options_.frontendCacheBytes);
  pool_ = std::make_unique<ThreadPool>(options_.jobs);
}

CosimService::~CosimService() {
  drain();
  pool_.reset(); // joins the request workers
}

void CosimService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return inFlight_ == 0; });
}

std::string CosimService::errorResponse(const std::string &id,
                                        const char *status,
                                        const std::string &message,
                                        const guard::Verdict *verdict) {
  std::string out = "{\"id\":\"" + analysis::jsonEscape(id) +
                    "\",\"schema_version\":" +
                    std::to_string(kProtocolSchemaVersion) + ",\"status\":\"" +
                    status + "\",\"error\":\"" + analysis::jsonEscape(message) +
                    "\"";
  if (verdict && !verdict->ok())
    out += ",\"verdict\":" + verdictJson(*verdict);
  out += "}";
  return out;
}

bool CosimService::parseLine(const std::string &line, Request &request,
                             std::string &response) {
  JsonValue json = JsonValue::makeNull();
  std::string error;
  try {
    siteParse.hit();
    if (parseJson(line, json, error) && parseRequest(json, request, error))
      return true;
  } catch (const guard::InjectedFault &e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++received_;
    ++errorCount_;
    response = errorResponse("", "error", e.what(), &e.verdict);
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++received_;
  ++invalidCount_;
  response = errorResponse(json.isObject() ? json.stringOr("id", "") : "",
                           "invalid_request",
                           error.empty() ? "malformed request" : error);
  return false;
}

void CosimService::submitAsync(std::string line,
                               std::function<void(std::string)> done) {
  auto start = std::chrono::steady_clock::now();
  Request request;
  std::string response;
  if (!parseLine(line, request, response)) {
    done(std::move(response));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++received_;
    ClientStats &client = clients_[request.client];
    if (options_.queueDepth && inFlight_ >= options_.queueDepth) {
      ++rejectedCount_;
      ++client.rejected;
      done(errorResponse(request.id, "rejected", "queue full"));
      return;
    }
    if (options_.clientShare && client.inFlight >= options_.clientShare) {
      ++rejectedCount_;
      ++client.rejected;
      done(errorResponse(request.id, "rejected",
                         "client over in-flight share"));
      return;
    }
    ++inFlight_;
    ++client.inFlight;
  }
  pool_->submit([this, request = std::move(request), done = std::move(done),
                 start] {
    std::string response = handle(request, msSince(start));
    done(std::move(response));
    std::lock_guard<std::mutex> lock(mutex_);
    --clients_[request.client].inFlight;
    if (--inFlight_ == 0)
      drained_.notify_all();
  });
}

std::string CosimService::handleLine(const std::string &line) {
  Request request;
  std::string response;
  if (!parseLine(line, request, response))
    return response;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++received_;
  }
  return handle(request, 0.0);
}

std::string CosimService::invalidRequest(const std::string &message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++received_;
    ++invalidCount_;
  }
  return errorResponse("", "invalid_request", message);
}

bool CosimService::resolveWorkload(const Request &request, core::Workload &out,
                                   std::string &error) const {
  if (!request.workloadName.empty()) {
    try {
      out = core::findWorkload(request.workloadName);
    } catch (const std::out_of_range &) {
      error = "unknown workload '" + request.workloadName + "'";
      return false;
    }
    if (request.top != "main")
      out.top = request.top;
    if (request.argsSet)
      out.args = request.args;
    return true;
  }
  out.name = "request";
  out.source = request.source;
  out.top = request.top;
  out.args = request.args;
  return true;
}

guard::BudgetSpec CosimService::effectiveBudget(const Request &request) const {
  return request.budgetSet ? request.budget : options_.defaultBudget;
}

std::string CosimService::cacheKey(const Request &request) const {
  core::Workload w;
  std::string ignored;
  // resolveWorkload cannot fail here twice — handle() validated it already.
  resolveWorkload(request, w, ignored);
  guard::BudgetSpec budget = effectiveBudget(request);
  std::string key = request.op;
  auto add = [&key](const std::string &part) {
    key += '\x1f';
    key += part;
  };
  add(w.source);
  add(w.top);
  std::string args;
  for (std::int64_t a : w.args)
    args += std::to_string(a) + ",";
  add(args);
  add(std::string(
      vsim::engineName(request.vsimEngine.value_or(options_.vsimEngine))));
  add(std::to_string(budget.maxSteps) + "/" + std::to_string(budget.maxCycles) +
      "/" + std::to_string(budget.maxAllocBytes) + "/" +
      std::to_string(budget.wallMs));
  return key;
}

std::string CosimService::handleComparison(const Request &request,
                                           bool frontendHit,
                                           std::string &body,
                                           bool &cacheable) {
  core::Workload workload;
  std::string error;
  if (!resolveWorkload(request, workload, error))
    return error; // unreachable: handle() validated already

  bool cosim = request.op == "cosim";
  core::EngineOptions callOptions;
  callOptions.cosim = cosim;
  callOptions.vsimEngine = request.vsimEngine.value_or(options_.vsimEngine);
  // A first sight of a program is most often its only one: its models
  // would only push a repeated program's out of the cache.
  callOptions.modelCache = frontendHit ? &modelCache_ : nullptr;

  flows::FlowTuning tuning;
  tuning.budget = effectiveBudget(request);
  guard::ExecBudget meter(tuning.budget);
  tuning.meter = &meter; // one meter spans the whole request
  if (request.jobs)
    tuning.jobs = request.jobs;

  auto rows = engine_.compareFlows(workload, tuning, callOptions);

  int exitCode = comparisonExitCode(rows);
  const char *status = statusForExitCode(exitCode);
  body = "\"op\":\"" + request.op + "\",\"status\":\"" + status +
         "\",\"exit_code\":" + std::to_string(exitCode) +
         ",\"rows\":" + serializeRows(rows, cosim);
  if (!rows.empty() && rows.front().analysis && !rows.front().analysis->empty())
    body += ",\"analysis\":" + inlineJson(rows.front().analysis->renderJson());
  // Rows carrying a guard verdict (fault, budget trip) are transient —
  // never cached, so one over-budget or faulted run can't poison the
  // response cache for clean repeats.
  cacheable = exitCode == 0 || exitCode == 1;
  for (const auto &r : rows)
    if (!r.verdict.ok())
      cacheable = false;

  std::lock_guard<std::mutex> lock(mutex_);
  ClientStats &client = clients_[request.client];
  client.steps += meter.stepsUsed();
  client.cycles += meter.cyclesUsed();
  client.wallMs += meter.elapsedMs();
  if (exitCode == 4)
    ++overBudgetCount_;
  return {};
}

std::string CosimService::handleAnalyze(const Request &request,
                                        std::string &body, bool &cacheable) {
  core::Workload workload;
  std::string error;
  if (!resolveWorkload(request, workload, error))
    return error;
  auto entry = engine_.cache().get(workload.source, workload.top);
  if (!entry->ok() && !entry->verdict.ok()) {
    // Guard event during the compile (injected frontend fault or budget
    // trip): structured, transient, uncached.
    const guard::Verdict &v = entry->verdict;
    const char *status = v.isResourceLimit() ? "over_budget" : "error";
    body = "\"op\":\"analyze\",\"status\":\"" + std::string(status) +
           "\",\"exit_code\":" + (v.isResourceLimit() ? "4" : "3") +
           ",\"error\":\"" + analysis::jsonEscape(entry->error) +
           "\",\"verdict\":" + verdictJson(v);
    cacheable = false;
    std::lock_guard<std::mutex> lock(mutex_);
    if (v.isResourceLimit())
      ++overBudgetCount_;
    else
      ++errorCount_;
    return {};
  }
  if (!entry->ok()) {
    body = "\"op\":\"analyze\",\"status\":\"failed\",\"exit_code\":1,"
           "\"error\":\"" +
           analysis::jsonEscape(entry->error) + "\"";
    cacheable = true;
    return {};
  }
  int exitCode = entry->analysis->hasErrors() ? 1 : 0;
  body = "\"op\":\"analyze\",\"status\":\"" +
         std::string(exitCode ? "failed" : "ok") +
         "\",\"exit_code\":" + std::to_string(exitCode) +
         ",\"report\":" + inlineJson(entry->analysis->renderJson());
  cacheable = true;
  return {};
}

std::string CosimService::statsBody() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "\"op\":\"stats\",\"status\":\"ok\",\"stats\":{";
  out += "\"received\":" + std::to_string(received_);
  out += ",\"completed\":" + std::to_string(completed_);
  out += ",\"invalid\":" + std::to_string(invalidCount_);
  out += ",\"rejected\":" + std::to_string(rejectedCount_);
  out += ",\"over_budget\":" + std::to_string(overBudgetCount_);
  out += ",\"errors\":" + std::to_string(errorCount_);
  out += ",\"in_flight\":" + std::to_string(inFlight_);
  // The byte-capped caches share one shape; the model cache counts entries.
  auto byteCache = [](const support::CacheStats &c) {
    return "{\"hits\":" + std::to_string(c.hits) +
           ",\"misses\":" + std::to_string(c.misses) +
           ",\"evictions\":" + std::to_string(c.evictions) +
           ",\"size_bytes\":" + std::to_string(c.size) +
           ",\"capacity_bytes\":" + std::to_string(c.capacity) + "}";
  };
  out += ",\"frontend_cache\":" + byteCache(engine_.cache().stats());
  const support::CacheStats mc = modelCache_.stats();
  out += ",\"model_cache\":{\"hits\":" + std::to_string(mc.hits) +
         ",\"misses\":" + std::to_string(mc.misses) +
         ",\"entries\":" + std::to_string(mc.entries) +
         ",\"capacity\":" + std::to_string(mc.capacity) + "}";
  out += ",\"response_cache\":" + byteCache(responses_.stats());
  out += ",\"clients\":[";
  bool first = true;
  for (const auto &[name, stats] : clients_) {
    if (!first)
      out += ",";
    first = false;
    out += "{\"client\":\"" + analysis::jsonEscape(name) + "\"";
    out += ",\"requests\":" + std::to_string(stats.requests);
    out += ",\"rejected\":" + std::to_string(stats.rejected);
    out += ",\"in_flight\":" + std::to_string(stats.inFlight);
    out += ",\"steps\":" + std::to_string(stats.steps);
    out += ",\"cycles\":" + std::to_string(stats.cycles);
    out += ",\"wall_ms\":" + std::to_string(stats.wallMs) + "}";
  }
  out += "]}";
  return out;
}

std::string CosimService::finishResponse(const Request &request,
                                         const std::string &body,
                                         const char *frontendCache,
                                         const char *responseCache,
                                         double queueMs, double runMs) {
  std::string out = "{\"id\":\"" + analysis::jsonEscape(request.id) +
                    "\",\"schema_version\":" +
                    std::to_string(kProtocolSchemaVersion) + "," + body;
  out += std::string(",\"cache\":{\"frontend\":\"") + frontendCache +
         "\",\"response\":\"" + responseCache + "\"}";
  if (request.timing) {
    out += ",\"timing\":{\"queue_ms\":" + formatDouble(queueMs, 3) +
           ",\"run_ms\":" + formatDouble(runMs, 3) +
           ",\"total_ms\":" + formatDouble(queueMs + runMs, 3) + "}";
  }
  out += "}";
  return out;
}

std::string CosimService::handle(const Request &request, double queueMs) {
  auto t0 = std::chrono::steady_clock::now();
  if (options_.onHandleForTesting)
    options_.onHandleForTesting();
  try {
    siteHandle.hit();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++clients_[request.client].requests;
    }
    std::string body;
    const char *frontendCache = "none";
    const char *responseCache = "none";
    if (request.op == "stats") {
      body = statsBody();
      responseCache = "bypass";
    } else {
      core::Workload workload;
      std::string error;
      if (!resolveWorkload(request, workload, error)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++invalidCount_;
        return errorResponse(request.id, "invalid_request", error);
      }
      support::LruKey key = cacheKey(request);
      bool hit = false;
      if (!request.noCache) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const std::string *cached = responses_.find(key)) {
          body = *cached;
          hit = true;
        }
      }
      if (hit) {
        responseCache = "hit";
      } else {
        const bool frontendHit =
            engine_.cache().contains(workload.source, workload.top);
        frontendCache = frontendHit ? "hit" : "miss";
        bool cacheable = false;
        std::string failure =
            request.op == "analyze"
                ? handleAnalyze(request, body, cacheable)
                : handleComparison(request, frontendHit, body, cacheable);
        if (!failure.empty()) {
          std::lock_guard<std::mutex> lock(mutex_);
          ++invalidCount_;
          return errorResponse(request.id, "invalid_request", failure);
        }
        if (request.noCache) {
          responseCache = "bypass";
        } else if (cacheable) {
          std::uint64_t cost = key.text().size() + body.size() + 128;
          std::lock_guard<std::mutex> lock(mutex_);
          responses_.insert(std::move(key), body, cost);
          responseCache = "store";
        } else {
          responseCache = "skip";
        }
      }
    }
    siteRespond.hit();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++completed_;
    }
    return finishResponse(request, body, frontendCache, responseCache,
                          queueMs, msSince(t0));
  } catch (const guard::BudgetExceeded &e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++overBudgetCount_;
    return errorResponse(request.id, "over_budget", e.what(), &e.verdict);
  } catch (const guard::InjectedFault &e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++errorCount_;
    return errorResponse(request.id, "error", e.what(), &e.verdict);
  } catch (const std::exception &e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++errorCount_;
    return errorResponse(request.id, "error",
                         std::string("internal error: ") + e.what());
  }
}

} // namespace c2h::serve
