// CosimService: the persistent, multi-tenant heart of `c2hc --serve`.
//
// One service owns one CompareEngine — and therefore ONE front-end cache
// and ONE persistent cell pool, as wide as the machine — plus one response
// cache and one vsim model cache, shared by every request for the daemon's
// lifetime.  All
// three caches are support::LruCache instances with their owner's cost
// and cap (ServiceOptions).  A warm repeat request (same
// op/source/top/args/engine/budget) is answered from the response cache:
// zero front-end parsing, zero flow synthesis, zero simulation.
//
// Scheduling: requests are admitted (or rejected, structurally) at
// submitAsync time, then run as one task each on the service's ThreadPool.
// Admission control is the PR 5 budget layer repurposed: every request gets
// one guard::ExecBudget spanning its whole pipeline, a trip becomes a
// structured `over_budget` response (the daemon analogue of exit code 4),
// and per-client meters accumulate into the `stats` op for fair-share
// accounting.  A bounded queue plus an optional per-client in-flight share
// keeps one hot tenant from starving the rest.
//
// Robustness: the guard fault sites extend into this layer (serve.parse,
// serve.handle, serve.respond); an injected fault fails exactly one request
// with a structured verdict, never the daemon, never a sibling, and never
// the caches (guard-event results are not cached — the same hygiene rule
// the FrontendCache enforces).
#ifndef C2H_SERVE_SERVICE_H
#define C2H_SERVE_SERVICE_H

#include "core/engine.h"
#include "serve/protocol.h"
#include "support/lru.h"
#include "support/threadpool.h"
#include "vsim/cosim.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace c2h::serve {

struct ServiceOptions {
  // Request worker threads (each request is one task); 0 = hardware.  A
  // request's cells run on the engine's own pool (all cores), as many at
  // once as the request's own `jobs` field allows.
  unsigned jobs = 0;
  // Max admitted-but-unfinished requests; further submissions get an
  // immediate `rejected` response.  0 = unbounded.
  std::size_t queueDepth = 64;
  // Max admitted-but-unfinished requests per client; 0 = no per-client cap
  // (the queueDepth still applies).
  std::size_t clientShare = 0;
  // LRU byte caps for the shared front-end cache and the response cache.
  // 0 = unbounded (the one-shot CLI default; the daemon sets real caps).
  std::uint64_t frontendCacheBytes = 64ull << 20;
  std::uint64_t responseCacheBytes = 64ull << 20;
  // Server-wide default request budget; a request's own `budget` object
  // replaces it wholesale.
  guard::BudgetSpec defaultBudget;
  // Default vsim backend for cosim requests.
  vsim::SimEngine vsimEngine = vsim::SimEngine::Compiled;
  // Entry cap for the cross-request vsim model cache (elaborated models,
  // compiled programs and their post-`initial` init images, keyed by
  // emitted Verilog).  Only a request whose front end was already cached
  // uses it, so a one-off program never fills it.  0 disables the cache.
  std::size_t modelCacheEntries = 16;
  // Test seam: runs at the top of every handled request (a latch here makes
  // queue-full admission deterministic under test).
  std::function<void()> onHandleForTesting;
};

class CosimService {
public:
  explicit CosimService(ServiceOptions options = {});
  // Drains: every admitted request is answered before destruction returns.
  ~CosimService();

  CosimService(const CosimService &) = delete;
  CosimService &operator=(const CosimService &) = delete;

  // Admission-controlled asynchronous submission: parses `line`, admits or
  // rejects, schedules, and eventually invokes `done` exactly once with the
  // serialized response (possibly synchronously, for rejections and parse
  // errors).  Thread-safe.
  void submitAsync(std::string line,
                   std::function<void(std::string)> done);

  // Parse and handle one request synchronously on the calling thread,
  // bypassing the queue (tests and one-shot embedding).  Shares all caches
  // with the async path.
  std::string handleLine(const std::string &line);

  // Answer a request the transport refused before parsing it (an oversize
  // line): counted as invalid, answered `invalid_request` with `message`.
  std::string invalidRequest(const std::string &message);

  // Block until every admitted request has been answered.
  void drain();

  core::CompareEngine &engine() { return engine_; }
  const ServiceOptions &options() const { return options_; }

private:
  struct ClientStats {
    std::uint64_t requests = 0; // handled (admitted and run)
    std::uint64_t rejected = 0;
    std::uint64_t steps = 0;   // cumulative meter charges
    std::uint64_t cycles = 0;
    std::uint64_t wallMs = 0;
    std::size_t inFlight = 0;
  };

  // Parse one request line.  A line that is not a request is counted as
  // received and as invalid (or, for an injected serve.parse fault, as an
  // error) and returns false with its error response in `response`; the
  // caller counts a parsed request as received itself.
  bool parseLine(const std::string &line, Request &request,
                 std::string &response);
  // Handle a parsed request; returns the serialized response.
  std::string handle(const Request &request, double queueMs);
  // `frontendHit`: the program was compiled before this request, so it
  // may come again and its vsim models are worth caching.
  std::string handleComparison(const Request &request, bool frontendHit,
                               std::string &body, bool &cacheable);
  std::string handleAnalyze(const Request &request, std::string &body,
                            bool &cacheable);
  std::string statsBody();
  bool resolveWorkload(const Request &request, core::Workload &out,
                       std::string &error) const;
  guard::BudgetSpec effectiveBudget(const Request &request) const;
  std::string cacheKey(const Request &request) const;
  std::string finishResponse(const Request &request, const std::string &body,
                             const char *frontendCache,
                             const char *responseCache, double queueMs,
                             double runMs);
  std::string errorResponse(const std::string &id, const char *status,
                            const std::string &message,
                            const guard::Verdict *verdict = nullptr);

  ServiceOptions options_;
  core::CompareEngine engine_;
  // Cross-request vsim model cache: one per daemon, shared by the cosim
  // requests for programs seen before (handleComparison passes it down
  // through EngineOptions).
  vsim::ModelCache modelCache_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mutex_; // admission counters, clients, response cache
  std::condition_variable drained_;
  std::size_t inFlight_ = 0;
  std::map<std::string, ClientStats> clients_;
  std::uint64_t received_ = 0, completed_ = 0, rejectedCount_ = 0,
                invalidCount_ = 0, overBudgetCount_ = 0, errorCount_ = 0;
  // Response cache: canonical request key -> response core (op, status,
  // exit_code, rows or report), byte-capped at responseCacheBytes; an
  // entry costs its key and body plus 128 bytes.
  support::LruCache<std::string> responses_;
};

} // namespace c2h::serve

#endif // C2H_SERVE_SERVICE_H
