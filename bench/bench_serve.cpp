// E12 — cosim-as-a-service latency: cold vs. warm request mixes against a
// persistent CosimService (the engine behind `c2hc --serve`).
//
// The daemon's reason to exist is amortization: a one-shot `c2hc
// --workload=gcd --flow=all --cosim` pays frontend compile + 11 flow
// pipelines + verification + vsim on every invocation, while a warm serve
// request is answered from the response cache with zero parsing and zero
// synthesis.  This bench quantifies that gap the way a latency SLO would:
//
//   cold  — N distinct gcd-variant sources (every request a front-end
//           compile + full flow matrix; response cache useless),
//   warm  — the same request repeated (response-cache hit),
//   mixed — warm repeats with a cold request salted in every 4th slot,
//
// reporting p50/p95/p99 latency and requests/second per mix, plus a
// concurrent section (jobs=4, 4 in-flight clients) for throughput.
//
// Exit status is the CI regression gate: nonzero when the warm-repeat
// median fails to be at least kMinWarmSpeedup x faster than the cold
// median — i.e. when the response cache stops working.
#include "serve/service.h"
#include "support/text.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

using namespace c2h;

namespace {

// CI floor for warm/cold median speedup.  Observed: the warm path is
// hundreds of times faster (a map lookup vs. eleven synthesis pipelines);
// 3x catches the cache being disabled while ignoring runner noise.
constexpr double kMinWarmSpeedup = 3.0;

// A family of distinct-but-equivalent gcd variants: the added constant K
// changes the source text (and so the content hash) without changing the
// shape of the work, so every cold request pays a real frontend compile.
std::string gcdVariant(int k) {
  return "int gcd(int a, int b) {\n"
         "  while (b != 0) { int t = b; b = a % b; a = t; }\n"
         "  return a;\n"
         "}\n"
         "int main(int a, int b) { return gcd(a, b) + " +
         std::to_string(k) + " - " + std::to_string(k) + "; }\n";
}

std::string escapeSource(const std::string &source) {
  std::string escaped;
  for (char c : source) {
    if (c == '\n')
      escaped += "\\n";
    else if (c == '"')
      escaped += "\\\"";
    else
      escaped += c;
  }
  return escaped;
}

std::string requestFor(const std::string &source, const char *id) {
  return std::string("{\"id\":\"") + id +
         "\",\"op\":\"compare\",\"source\":\"" + escapeSource(source) +
         "\",\"args\":[3528,3780],\"timing\":false}";
}

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Summary {
  double p50 = 0, p95 = 0, p99 = 0, reqPerSec = 0;
};

Summary summarize(std::vector<double> latencies) {
  Summary s;
  if (latencies.empty())
    return s;
  double total = 0;
  for (double l : latencies)
    total += l;
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double p) {
    std::size_t idx = static_cast<std::size_t>(p * (latencies.size() - 1));
    return latencies[idx];
  };
  s.p50 = pct(0.50);
  s.p95 = pct(0.95);
  s.p99 = pct(0.99);
  s.reqPerSec = total > 0 ? 1000.0 * latencies.size() / total : 0;
  return s;
}

void printRow(TextTable &table, const char *mix, const Summary &s,
              std::size_t n) {
  table.addRow({mix, std::to_string(n), formatDouble(s.p50, 3),
                formatDouble(s.p95, 3), formatDouble(s.p99, 3),
                formatDouble(s.reqPerSec, 1)});
}

} // namespace

int main() {
  constexpr int kColdRequests = 8;
  constexpr int kWarmRequests = 60;

  serve::ServiceOptions options;
  options.jobs = 1; // sequential sections measure pure per-request latency
  serve::CosimService service(options);

  // Cold mix: every request is a new source — full compile + flow matrix.
  std::vector<double> coldLat;
  for (int i = 0; i < kColdRequests; ++i) {
    std::string line = requestFor(gcdVariant(i), "cold");
    auto t0 = std::chrono::steady_clock::now();
    std::string response = service.handleLine(line);
    coldLat.push_back(msSince(t0));
    if (response.find("\"status\":\"ok\"") == std::string::npos) {
      std::cerr << "cold request failed: " << response << "\n";
      return 1;
    }
  }

  // Warm mix: one request repeated; everything after the prime is a
  // response-cache hit.
  const std::string warmLine = requestFor(gcdVariant(0), "warm");
  std::vector<double> warmLat;
  for (int i = 0; i < kWarmRequests; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    std::string response = service.handleLine(warmLine);
    warmLat.push_back(msSince(t0));
    if (response.find("\"response\":\"hit\"") == std::string::npos) {
      std::cerr << "warm request missed the response cache: " << response
                << "\n";
      return 1;
    }
  }

  // Mixed: mostly warm with a cold source salted in every 4th request —
  // the steady-state shape of an interactive session.
  std::vector<double> mixedLat;
  for (int i = 0; i < kWarmRequests; ++i) {
    std::string line = (i % 4 == 3)
                           ? requestFor(gcdVariant(100 + i), "mixcold")
                           : warmLine;
    auto t0 = std::chrono::steady_clock::now();
    service.handleLine(line);
    mixedLat.push_back(msSince(t0));
  }

  // Concurrent warm throughput: jobs=4 service, 4 clients' worth of warm
  // requests in flight at once.
  serve::ServiceOptions parallelOptions;
  parallelOptions.jobs = 4;
  serve::CosimService parallelService(parallelOptions);
  parallelService.handleLine(warmLine); // prime
  std::vector<double> concLat(kWarmRequests);
  {
    std::mutex mutex;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kWarmRequests; ++i)
      parallelService.submitAsync(warmLine, [&, i, start](std::string) {
        std::lock_guard<std::mutex> lock(mutex);
        concLat[i] = msSince(start);
      });
    parallelService.drain();
  }
  // Completion-time curve, not per-request latency; still sorted into
  // percentiles for the table.
  Summary conc = summarize(concLat);
  conc.reqPerSec = concLat.empty()
                       ? 0
                       : 1000.0 * concLat.size() /
                             *std::max_element(concLat.begin(), concLat.end());

  Summary cold = summarize(coldLat);
  Summary warm = summarize(warmLat);
  Summary mixed = summarize(mixedLat);

  TextTable table({"mix", "requests", "p50_ms", "p95_ms", "p99_ms", "req_s"});
  printRow(table, "cold", cold, coldLat.size());
  printRow(table, "warm", warm, warmLat.size());
  printRow(table, "mixed", mixed, mixedLat.size());
  printRow(table, "warm_x4", conc, concLat.size());
  std::cout << table.str();

  double speedup = warm.p50 > 0 ? cold.p50 / warm.p50 : 0;
  std::cout << "\nwarm speedup (cold p50 / warm p50): "
            << formatDouble(speedup, 1) << "x (floor "
            << formatDouble(kMinWarmSpeedup, 1) << "x)\n";
  if (speedup < kMinWarmSpeedup) {
    std::cerr << "REGRESSION: warm-repeat median is not at least "
              << formatDouble(kMinWarmSpeedup, 1)
              << "x faster than cold — the response cache is not working\n";
    return 1;
  }
  std::cout << "serve latency gate: PASS\n";
  return 0;
}
