// The cosim service contract, exercised in-process (no daemon):
//
//  - the wire parser (serve/json.h) is strict RFC 8259 with positioned
//    errors, and malformed lines become structured `invalid_request`
//    responses, never crashes;
//  - warm repeats are answered from the response cache byte-identically;
//  - one front-end cache is shared across ops (a cosim compile warms a
//    later analyze of the same source);
//  - over-budget and guard-event results are never cached;
//  - admission control (bounded queue, per-client share) rejects
//    structurally, and per-client meters accumulate in `stats`;
//  - concurrent mixed requests under jobs=4 return byte-identical bodies
//    to fresh one-shot services handling the same requests serially;
//  - a request's cells overlap on the engine's pool, and its rows match a
//    `"jobs":1` request's; cells sharing a counted budget run in order.
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "support/threadpool.h"
#include "testutil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <regex>
#include <vector>

namespace c2h {
namespace {

using serve::CosimService;
using serve::JsonValue;
using serve::Request;
using serve::ServiceOptions;

// Drop the per-response "cache" object (hit/miss labels legitimately differ
// between a shared warm service and a fresh one-shot service); with
// `"timing":false` everything left must be byte-identical.
std::string stripCache(std::string response) {
  std::size_t start = response.find(",\"cache\":{");
  if (start == std::string::npos)
    return response;
  std::size_t end = response.find('}', start);
  EXPECT_NE(end, std::string::npos);
  response.erase(start, end - start + 1);
  return response;
}

TEST(ServeJson, ParsesScalarsAndNesting) {
  JsonValue v = JsonValue::makeNull();
  std::string err;
  ASSERT_TRUE(serve::parseJson(
      R"({"a":[1,2.5,-3],"b":{"c":true,"d":null},"e":"x\nA"})", v, err))
      << err;
  ASSERT_TRUE(v.isObject());
  const JsonValue *a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].intValue(), 1);
  EXPECT_DOUBLE_EQ(a->items()[1].numberValue(), 2.5);
  EXPECT_EQ(a->items()[2].intValue(), -3);
  EXPECT_TRUE(v.find("b")->find("c")->boolValue());
  EXPECT_TRUE(v.find("b")->find("d")->isNull());
  EXPECT_EQ(v.find("e")->stringValue(), "x\nA");
}

TEST(ServeJson, RejectsTrailingGarbageAndBadEscapes) {
  JsonValue v = JsonValue::makeNull();
  std::string err;
  EXPECT_FALSE(serve::parseJson("{} x", v, err));
  EXPECT_NE(err.find("offset"), std::string::npos);
  EXPECT_FALSE(serve::parseJson(R"("\q")", v, err));
  EXPECT_FALSE(serve::parseJson("\"unterminated", v, err));
  EXPECT_FALSE(serve::parseJson("{\"a\":}", v, err));
  EXPECT_FALSE(serve::parseJson("", v, err));
}

TEST(ServeJson, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  JsonValue v = JsonValue::makeNull();
  std::string err;
  EXPECT_FALSE(serve::parseJson(deep, v, err));
  EXPECT_NE(err.find("nest"), std::string::npos);
}

TEST(ServeProtocol, ParseRequestValidatesShape) {
  auto parse = [](const std::string &text, Request &req, std::string &err) {
    req = Request{}; // parseRequest fills in place; each case starts clean
    JsonValue v = JsonValue::makeNull();
    EXPECT_TRUE(serve::parseJson(text, v, err)) << err;
    return serve::parseRequest(v, req, err);
  };
  Request req;
  std::string err;
  EXPECT_TRUE(parse(R"({"id":"a","op":"cosim","workload":"gcd",)"
                    R"("budget":{"steps":10,"cycles":20},"jobs":2})",
                    req, err))
      << err;
  EXPECT_EQ(req.id, "a");
  EXPECT_TRUE(req.budgetSet);
  EXPECT_EQ(req.budget.maxSteps, 10u);
  EXPECT_EQ(req.budget.maxCycles, 20u);
  EXPECT_EQ(req.jobs, 2u);

  EXPECT_FALSE(parse(R"({"op":"frobnicate","workload":"gcd"})", req, err));
  EXPECT_NE(err.find("unknown op"), std::string::npos);
  EXPECT_FALSE(parse(R"({"workload":"gcd"})", req, err));
  EXPECT_NE(err.find("missing 'op'"), std::string::npos);
  EXPECT_FALSE(parse(R"({"op":"cosim"})", req, err));
  EXPECT_NE(err.find("'source' or 'workload'"), std::string::npos);
  EXPECT_FALSE(parse(
      R"({"op":"cosim","workload":"gcd","source":"int main(){return 0;}"})",
      req, err));
  EXPECT_NE(err.find("mutually exclusive"), std::string::npos);
  EXPECT_FALSE(parse(R"({"op":"cosim","workload":"gcd","bogus":1})", req, err));
  EXPECT_NE(err.find("unknown request field"), std::string::npos);
  EXPECT_FALSE(parse(
      R"({"op":"cosim","workload":"gcd","budget":{"volts":9}})", req, err));
  EXPECT_NE(err.find("unknown budget field"), std::string::npos);
  for (const char *engine : {"native", "native-strict", "interpreted"}) {
    EXPECT_FALSE(parse(std::string(R"({"op":"cosim","workload":"gcd",)") +
                           R"("vsim_engine":")" + engine + R"("})",
                       req, err))
        << engine;
    EXPECT_NE(err.find("compiled, compiled-strict, or event"),
              std::string::npos)
        << err;
  }
}

TEST(ServeService, MalformedLineIsAStructuredResponse) {
  CosimService service;
  std::string response = service.handleLine("{nope");
  EXPECT_NE(response.find("\"status\":\"invalid_request\""),
            std::string::npos);
  EXPECT_NE(response.find("\"error\":"), std::string::npos);
  response = service.handleLine(R"({"id":"x","op":"nope"})");
  EXPECT_NE(response.find("\"id\":\"x\""), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"invalid_request\""),
            std::string::npos);
  response = service.handleLine(
      R"({"id":"n","op":"cosim","workload":"gcd","vsim_engine":"native"})");
  EXPECT_NE(response.find("\"id\":\"n\""), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"invalid_request\""),
            std::string::npos);
  EXPECT_NE(response.find("compiled, compiled-strict, or event"),
            std::string::npos)
      << response;
}

TEST(ServeService, UnknownWorkloadIsInvalidRequest) {
  CosimService service;
  std::string response = service.handleLine(
      R"({"id":"w","op":"compare","workload":"no-such-workload"})");
  EXPECT_NE(response.find("\"status\":\"invalid_request\""),
            std::string::npos);
  EXPECT_NE(response.find("no-such-workload"), std::string::npos);
}

TEST(ServeService, WarmRepeatIsServedFromTheResponseCache) {
  CosimService service;
  const std::string line =
      R"({"id":"r","op":"cosim","workload":"gcd","timing":false})";
  std::string cold = service.handleLine(line);
  std::string warm = service.handleLine(line);
  EXPECT_NE(cold.find("\"response\":\"store\""), std::string::npos) << cold;
  EXPECT_NE(warm.find("\"response\":\"hit\""), std::string::npos) << warm;
  EXPECT_NE(cold.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(stripCache(cold), stripCache(warm));
}

// One counter of one cache object (`response_cache`, `model_cache`) in the
// `stats` op's response.
std::int64_t cacheStat(CosimService &service, const char *cacheName,
                       const char *field) {
  std::string stats =
      service.handleLine(R"({"id":"s","op":"stats","timing":false})");
  JsonValue json = JsonValue::makeNull();
  std::string error;
  EXPECT_TRUE(serve::parseJson(stats, json, error)) << error;
  const JsonValue *cache = json.find("stats")->find(cacheName);
  EXPECT_NE(cache, nullptr) << stats;
  return cache ? cache->intOr(field, -1) : -1;
}

std::int64_t responseCacheStat(CosimService &service, const char *field) {
  return cacheStat(service, "response_cache", field);
}

TEST(ServeService, ResponseCacheCapHoldingOneResponseEvicts) {
  const std::string a =
      R"({"id":"a","op":"cosim","workload":"gcd","timing":false})";
  const std::string b =
      R"({"id":"b","op":"cosim","workload":"fir","timing":false})";
  // Each response's cost, read off an unbounded cache.
  std::int64_t costA, costB;
  {
    ServiceOptions unbounded;
    unbounded.responseCacheBytes = 0;
    CosimService probe(unbounded);
    probe.handleLine(a);
    costA = responseCacheStat(probe, "size_bytes");
    probe.handleLine(b);
    costB = responseCacheStat(probe, "size_bytes") - costA;
  }
  ASSERT_GT(costA, 0);
  ASSERT_GT(costB, 0);
  ServiceOptions options;
  options.responseCacheBytes = std::max(costA, costB);
  CosimService service(options);
  for (const std::string &line : {a, b, a}) {
    std::string response = service.handleLine(line);
    EXPECT_NE(response.find("\"response\":\"store\""), std::string::npos)
        << response;
  }
  EXPECT_GE(responseCacheStat(service, "evictions"), 1);
  EXPECT_EQ(responseCacheStat(service, "hits"), 0);
  EXPECT_EQ(responseCacheStat(service, "size_bytes"), costA);
}

TEST(ServeService, CosimCompileWarmsALaterAnalyze) {
  CosimService service;
  service.handleLine(
      R"({"id":"c","op":"cosim","workload":"gcd","timing":false})");
  std::string analyze = service.handleLine(
      R"({"id":"a","op":"analyze","workload":"gcd","timing":false})");
  // Different op, same (source, top): the front-end compile is shared.
  EXPECT_NE(analyze.find("\"frontend\":\"hit\""), std::string::npos)
      << analyze;
  EXPECT_NE(analyze.find("\"report\":{"), std::string::npos);
}

TEST(ServeService, NoCacheBypassesButStaysDeterministic) {
  CosimService service;
  const std::string line =
      R"({"id":"n","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  std::string first = service.handleLine(line);
  std::string second = service.handleLine(line);
  EXPECT_NE(first.find("\"response\":\"bypass\""), std::string::npos);
  EXPECT_NE(second.find("\"response\":\"bypass\""), std::string::npos);
  EXPECT_EQ(stripCache(first), stripCache(second));
}

TEST(ServeService, OverBudgetIsStructuredAndNeverCached) {
  CosimService service;
  const std::string line =
      R"({"id":"b","op":"cosim","workload":"gcd","timing":false,)"
      R"("budget":{"cycles":5}})";
  std::string first = service.handleLine(line);
  EXPECT_NE(first.find("\"status\":\"over_budget\""), std::string::npos)
      << first;
  EXPECT_NE(first.find("\"exit_code\":4"), std::string::npos);
  // The guard-event result must not have been cached: the repeat is
  // recomputed ("skip"), not served warm ("hit").  (No byte-compare here:
  // budget-trip verdicts embed consumed wallMs, which is wall-clock.)
  std::string second = service.handleLine(line);
  EXPECT_NE(second.find("\"response\":\"skip\""), std::string::npos)
      << second;
  EXPECT_NE(second.find("\"status\":\"over_budget\""), std::string::npos);
  // And the clean request with the default (unlimited) budget still works.
  std::string clean = service.handleLine(
      R"({"id":"ok","op":"cosim","workload":"gcd","timing":false})");
  EXPECT_NE(clean.find("\"status\":\"ok\""), std::string::npos) << clean;
}

// A source that does not compile fails the comparison ops, as it fails
// `analyze` and `c2hc --flow=all`: every row is a front-end failure.
TEST(ServeService, SourceThatDoesNotCompileFails) {
  CosimService service;
  for (const std::string op : {"compare", "cosim"}) {
    std::string response = service.handleLine(
        R"({"id":"bad","op":")" + op +
        R"(","source":"int main(int x) { return x + ; }","timing":false})");
    EXPECT_NE(response.find("\"status\":\"failed\""), std::string::npos)
        << response;
    EXPECT_NE(response.find("\"exit_code\":1,"), std::string::npos)
        << response;
    EXPECT_NE(response.find("expected expression"), std::string::npos)
        << response;
  }
}

TEST(ServeService, StatsTracksPerClientMeters) {
  CosimService service;
  service.handleLine(R"({"id":"1","op":"compare","workload":"gcd",)"
                     R"("client":"alice","timing":false})");
  service.handleLine(R"({"id":"2","op":"compare","workload":"gcd",)"
                     R"("client":"bob","timing":false,"no_cache":true})");
  std::string stats = service.handleLine(
      R"({"id":"s","op":"stats","client":"alice","timing":false})");
  EXPECT_NE(stats.find("\"client\":\"alice\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"client\":\"bob\""), std::string::npos);
  EXPECT_NE(stats.find("\"frontend_cache\":{"), std::string::npos);
  EXPECT_NE(stats.find("\"response_cache\":{"), std::string::npos);
  // Three requests handled in total, none rejected.
  EXPECT_NE(stats.find("\"received\":3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"rejected\":0"), std::string::npos);
}

// The cross-request vsim model cache admits only programs seen before.  A
// first request for a program (front-end miss) makes no lookups, so a
// one-off program never fills the cache; a repeat (front-end hit, response
// cache bypassed with no_cache) misses and admits every distinct design it
// simulates; a third request hits them all.  The stats op reports the
// traffic.
TEST(ServeService, ModelCacheServesRepeatCosimRequests) {
  ServiceOptions options;
  options.modelCacheEntries = 64;
  CosimService service(options);
  const std::string line =
      R"({"id":"a","op":"cosim","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  auto stat = [&](const char *field) {
    return cacheStat(service, "model_cache", field);
  };
  EXPECT_EQ(stat("capacity"), 64);

  std::string first = service.handleLine(line);
  EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"frontend\":\"miss\""), std::string::npos);
  EXPECT_EQ(stat("hits"), 0);
  EXPECT_EQ(stat("misses"), 0);
  EXPECT_EQ(stat("entries"), 0);

  std::string second = service.handleLine(line);
  EXPECT_NE(second.find("\"frontend\":\"hit\""), std::string::npos)
      << second;
  const std::int64_t designs = stat("misses");
  EXPECT_GE(designs, 1);
  EXPECT_EQ(stat("hits"), 0);
  EXPECT_EQ(stat("entries"), designs);

  std::string third = service.handleLine(line);
  EXPECT_EQ(stat("hits"), designs);
  EXPECT_EQ(stat("misses"), designs);
  EXPECT_EQ(stat("entries"), designs);
  // Cached models answer exactly like fresh ones.
  EXPECT_EQ(stripCache(first), stripCache(second));
  EXPECT_EQ(stripCache(first), stripCache(third));
}

// A request's cells run on the engine's pool at its full width unless the
// request's `jobs` field caps them; the rows never depend on which.
TEST(ServeService, DefaultRequestMatchesASerialOne) {
  CosimService service;
  for (const core::Workload &w : core::standardWorkloads())
    for (const std::string op : {"compare", "cosim"}) {
      SCOPED_TRACE(op + " " + w.name);
      const std::string head = R"({"id":"d","op":")" + op +
                               R"(","workload":")" + w.name +
                               R"(","timing":false,"no_cache":true)";
      std::string parallel = service.handleLine(head + "}");
      std::string serial = service.handleLine(head + R"(,"jobs":1})");
      EXPECT_NE(parallel.find("\"rows\":["), std::string::npos) << parallel;
      EXPECT_EQ(stripCache(parallel), stripCache(serial));
    }
}

// A request whose budget limits steps, cycles or alloc charges one meter
// from all its cells, so they run in cell order and the same rows trip with
// the same charges every time.  Only the consumed wall time may differ.
TEST(ServeService, CountedBudgetTripsAreDeterministic) {
  CosimService service;
  const std::string line =
      R"({"id":"b","op":"cosim","workload":"fir","timing":false,)"
      R"("no_cache":true,"budget":{"steps":3000}})";
  const std::regex wall("wallMs=[0-9]+");
  std::string first;
  for (int i = 0; i < 8; ++i) {
    std::string body = std::regex_replace(
        stripCache(service.handleLine(line)), wall, "wallMs=_");
    EXPECT_NE(body.find("STEP_LIMIT"), std::string::npos) << body;
    if (i == 0)
      first = body;
    EXPECT_EQ(body, first) << "request " << i;
  }
}

// Without a `jobs` field a request's cells overlap: a runner that holds
// every cell until two are in flight lets them go.
TEST(ServeService, DefaultRequestRunsCellsConcurrently) {
  if (ThreadPool::hardwareThreads() < 2)
    GTEST_SKIP() << "one core: a default request runs its cells in turn";
  CosimService service;
  testutil::CellLatch latch(flows::allFlows().size());
  latch.arm(2);
  service.engine().setRunnerForTesting(latch.runner());
  std::string response = service.handleLine(
      R"({"id":"p","op":"cosim","workload":"gcd","timing":false})");
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  EXPECT_FALSE(latch.timedOut());
  EXPECT_GE(latch.peak(), 2u);
}

// Satellite: concurrent mixed requests (cosim + analyze + compare, several
// workloads) sharing one cache under jobs=4 must answer byte-identically to
// fresh one-shot services handling the same requests serially.
TEST(ServeService, ConcurrentMixedRequestsMatchOneShotRuns) {
  const std::vector<std::string> lines = {
      R"({"id":"m0","op":"cosim","workload":"gcd","timing":false})",
      R"({"id":"m1","op":"analyze","workload":"gcd","timing":false})",
      R"({"id":"m2","op":"compare","workload":"fir","timing":false})",
      R"({"id":"m3","op":"cosim","workload":"fir","timing":false})",
      R"({"id":"m4","op":"cosim","workload":"gcd","timing":false})",
      R"({"id":"m5","op":"analyze","workload":"fir","timing":false})",
  };
  ServiceOptions options;
  options.jobs = 4;
  std::vector<std::string> shared(lines.size());
  {
    CosimService service(options);
    std::mutex mutex;
    for (std::size_t i = 0; i < lines.size(); ++i)
      service.submitAsync(lines[i], [&, i](std::string response) {
        std::lock_guard<std::mutex> lock(mutex);
        shared[i] = std::move(response);
      });
    service.drain();
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    CosimService fresh; // one-shot: cold caches, one request at a time
    EXPECT_EQ(stripCache(shared[i]), stripCache(fresh.handleLine(lines[i])));
  }
}

// Satellite: admission control.  With every worker latched inside handle(),
// a queue-full submission is rejected immediately and structurally; the
// latched requests still complete once released.
TEST(ServeService, BoundedQueueRejectsStructurally) {
  std::mutex mutex;
  std::condition_variable cv;
  bool go = false;
  ServiceOptions options;
  options.jobs = 2;
  options.queueDepth = 2;
  options.onHandleForTesting = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return go; });
  };
  CosimService service(options);
  std::mutex rmutex;
  std::vector<std::string> ok(2);
  for (int i = 0; i < 2; ++i)
    service.submitAsync(
        R"({"id":"q)" + std::to_string(i) +
            R"(","op":"compare","workload":"gcd","timing":false})",
        [&, i](std::string r) {
          std::lock_guard<std::mutex> lock(rmutex);
          ok[i] = std::move(r);
        });
  std::string rejected;
  service.submitAsync(
      R"({"id":"q2","op":"compare","workload":"gcd","timing":false})",
      [&](std::string r) { rejected = std::move(r); });
  // The rejection is synchronous: no worker ever saw the request.
  EXPECT_NE(rejected.find("\"status\":\"rejected\""), std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find("queue full"), std::string::npos);
  {
    std::lock_guard<std::mutex> lock(mutex);
    go = true;
  }
  cv.notify_all();
  service.drain();
  for (const auto &r : ok)
    EXPECT_NE(r.find("\"status\":\"ok\""), std::string::npos) << r;
  std::string stats =
      service.handleLine(R"({"id":"s","op":"stats","timing":false})");
  EXPECT_NE(stats.find("\"rejected\":1"), std::string::npos) << stats;
}

TEST(ServeService, PerClientShareKeepsOneTenantFromStarvingTheRest) {
  std::mutex mutex;
  std::condition_variable cv;
  bool go = false;
  ServiceOptions options;
  options.jobs = 2;
  options.queueDepth = 0; // unbounded queue; only the per-client cap bites
  options.clientShare = 1;
  options.onHandleForTesting = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return go; });
  };
  CosimService service(options);
  std::mutex rmutex;
  std::vector<std::string> responses(3);
  auto submit = [&](int slot, const char *client) {
    service.submitAsync(
        std::string(R"({"id":"t)") + std::to_string(slot) +
            R"(","op":"compare","workload":"gcd","client":")" + client +
            R"(","timing":false})",
        [&, slot](std::string r) {
          std::lock_guard<std::mutex> lock(rmutex);
          responses[slot] = std::move(r);
        });
  };
  submit(0, "hog");  // admitted, latched
  submit(1, "hog");  // over the hog's share: rejected immediately
  submit(2, "fair"); // a different client is still admitted
  EXPECT_NE(responses[1].find("\"status\":\"rejected\""), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("share"), std::string::npos);
  {
    std::lock_guard<std::mutex> lock(mutex);
    go = true;
  }
  cv.notify_all();
  service.drain();
  EXPECT_NE(responses[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(responses[2].find("\"status\":\"ok\""), std::string::npos);
}

} // namespace
} // namespace c2h
