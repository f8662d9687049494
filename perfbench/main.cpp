// c2h_perfbench: end-to-end and per-layer benchmark of the cosim service.
//
//   c2h_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <file>]
//
// Drives serve::CosimService in-process with a seeded request stream (see
// workloads.h) in closed loops: the workload's in-flight count of requests
// is kept outstanding, and each completion sends the next request.  Every
// response is checked.  The last line of stdout is one JSON object with the
// result; the lines before it restate each metric for a reader, with sample
// counts next to percentiles.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 reports per-layer
// metrics: serve-layer figures from responses and the `stats` op over the
// first half of the window, then, in the second half, a replica of the same
// requests (replica.h) timed layer by layer.  README.md defines each metric.
#include "replica.h"
#include "workloads.h"

#include "core/c2h.h"
#include "serve/json.h"
#include "serve/service.h"
#include "support/text.h"
#include "vsim/cosim.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
using c2h::serve::CosimService;
using c2h::serve::JsonValue;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Requests a percentile needs so that at least ten samples lie beyond it.
constexpr std::size_t kMinSamples = 100;
// Set-ups before the stream (the last one's service serves it) and again
// after it: the host's speed drifts over seconds, and a median over both
// ends of the run is steadier than one taken at a single moment.
constexpr int kSetupsPerEnd = 5;

// ---------------------------------------------------------------------------
// Response checking.

struct Reply {
  std::string failure; // empty when the response is as expected
  double queueMs = 0, runMs = 0;
  std::vector<ExpectedRow> rows;
  std::vector<char> syncRows; // accepted synchronous rows (the QoR rows)
};

bool sameRows(const std::vector<ExpectedRow> &a,
              const std::vector<ExpectedRow> &b) {
  if (a.size() != b.size())
    return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].flow != b[i].flow || a[i].accepted != b[i].accepted ||
        a[i].cycles != b[i].cycles || a[i].area != b[i].area)
      return false;
  return true;
}

// Full check: status ok, and every accepted row verified; synchronous rows
// also co-simulated with interpreter == FSMD == vsim (cosimOk) and equal
// cycle counts.
Reply checkReply(const std::string &response, const std::string &id,
                 const std::string &op) {
  Reply reply;
  JsonValue json = JsonValue::makeNull();
  std::string error;
  if (!c2h::serve::parseJson(response, json, error) || !json.isObject()) {
    reply.failure = "unparsable response: " + error;
    return reply;
  }
  if (json.stringOr("id", "") != id || json.stringOr("status", "") != "ok" ||
      json.intOr("exit_code", -1) != 0) {
    reply.failure = "unexpected response: " + response.substr(0, 400);
    return reply;
  }
  if (const JsonValue *timing = json.find("timing")) {
    if (const JsonValue *q = timing->find("queue_ms"))
      reply.queueMs = q->numberValue();
    if (const JsonValue *r = timing->find("run_ms"))
      reply.runMs = r->numberValue();
  }
  if (op == "analyze") {
    if (!json.find("report"))
      reply.failure = "analyze response without a report";
    return reply;
  }
  const JsonValue *rows = json.find("rows");
  if (!rows || !rows->isArray() || rows->items().empty()) {
    reply.failure = "cosim response without rows";
    return reply;
  }
  for (const JsonValue &row : rows->items()) {
    ExpectedRow r;
    r.flow = row.stringOr("flow", "");
    r.accepted = row.boolOr("accepted", false);
    r.cycles = static_cast<std::uint64_t>(row.intOr("cycles", 0));
    const JsonValue *area = row.find("area");
    r.area = c2h::formatDouble(area ? area->numberValue() : 0.0, 1);
    bool async = row.find("asyncNs") != nullptr;
    if (row.find("verdict")) {
      reply.failure = r.flow + ": row carries a verdict";
      return reply;
    }
    if (r.accepted && !row.boolOr("verified", false)) {
      reply.failure = r.flow + ": accepted but not verified";
      return reply;
    }
    if (r.accepted && !async &&
        (!row.boolOr("cosimRan", false) || !row.boolOr("cosimOk", false) ||
         static_cast<std::uint64_t>(row.intOr("cosimCycles", 0)) !=
             r.cycles)) {
      reply.failure = r.flow + ": interpreter, FSMD and vsim disagree";
      return reply;
    }
    reply.syncRows.push_back(r.accepted && !async && r.cycles > 0);
    reply.rows.push_back(std::move(r));
  }
  return reply;
}

// serve_warm answers come from the response cache; each must be the
// checked warm-up answer byte for byte up to its cache field (`prefix`),
// then report a cache hit.
constexpr const char *kHitTail =
    ",\"cache\":{\"frontend\":\"none\",\"response\":\"hit\"}";

bool checkHot(const std::string &response, const std::string &prefix,
              double &queueMs, double &runMs) {
  std::size_t n = prefix.size();
  std::size_t tail = std::char_traits<char>::length(kHitTail);
  if (response.size() < n + tail || response.compare(0, n, prefix) != 0 ||
      response.compare(n, tail, kHitTail) != 0)
    return false;
  std::size_t q = response.find("\"queue_ms\":", n + tail);
  std::size_t r = response.find("\"run_ms\":", n + tail);
  if (q == std::string::npos || r == std::string::npos)
    return false;
  queueMs = std::strtod(response.c_str() + q + 11, nullptr);
  runMs = std::strtod(response.c_str() + r + 9, nullptr);
  return true;
}

// ---------------------------------------------------------------------------
// The closed loop.

// Per-request latency samples, in bounded memory: past kCap samples every
// other one is dropped and from then on only every 2nd, 4th, ... completion
// is kept.  The samples stay evenly spaced over the run, so percentiles are
// unbiased, and the memory (part of peak_rss_mb) does not grow with the
// request rate.
class Samples {
public:
  struct Sample {
    float latencyMs, queueMs, overheadMs;
  };
  static constexpr std::size_t kCap = 1 << 18;

  Samples() { samples_.reserve(kCap); }
  void add(Sample sample) {
    if (seen_++ % stride_)
      return;
    samples_.push_back(sample);
    if (samples_.size() < kCap)
      return;
    for (std::size_t i = 0; 2 * i < samples_.size(); ++i)
      samples_[i] = samples_[2 * i];
    samples_.resize(kCap / 2);
    stride_ *= 2;
  }
  std::vector<float> get(float Sample::*field) const {
    std::vector<float> out;
    out.reserve(samples_.size());
    for (const Sample &s : samples_)
      out.push_back(s.*field);
    return out;
  }

private:
  std::vector<Sample> samples_;
  std::uint64_t seen_ = 0, stride_ = 1;
};

struct Outcome {
  Samples samples;
  // Per request, for the replica (cold workloads, --trace 1 only).
  std::vector<std::uint32_t> shape;
  std::vector<std::uint64_t> id;
  std::vector<float> runMs;
  std::vector<std::vector<ExpectedRow>> rows;
  std::uint64_t attempted = 0, failed = 0;
  std::string firstFailure;
  double wallMs = 0;
};

// The workload's in-flight count of closed loops.  Each completion checks
// its answer and sends its loop's next request, so no request waits on a
// generator thread: the load generator adds no wakeup of its own to a
// request's cycle, and throughput measures the service.  The calling thread
// blocks until every loop has ended.
class ClosedLoop {
public:
  ClosedLoop(CosimService &service, const Workload &workload, bool keepDetail)
      : service_(service), workload_(workload), keepDetail_(keepDetail) {}

  // serve_warm: each hot request's checked answer, up to its cache field.
  std::vector<std::string> hot;
  // First checked rows of each shape: later requests must match them.
  std::map<std::size_t, Reply> shapeRows;

  Outcome run(Rng &rng, double seconds, std::size_t minRequests) {
    if (!hot.empty())
      for (std::size_t s = 0; s < workload_.shapes.size(); ++s)
        hotLines_.push_back(workload_.requestLine(s, s));
    rng_ = &rng;
    minRequests_ = minRequests;
    start_ = Clock::now();
    deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    loops_ = workload_.inFlight;
    for (unsigned k = 0; k < workload_.inFlight; ++k)
      if (!submitNext()) {
        std::lock_guard<std::mutex> lock(mutex_);
        --loops_;
      }
    std::unique_lock<std::mutex> lock(mutex_);
    ended_.wait(lock, [&] { return loops_ == 0; });
    out_.wallMs = msBetween(start_, lastDone_);
    return std::move(out_);
  }

private:
  // Sends the stream's next request; false once the run is over.
  bool submitNext() {
    std::size_t shape;
    std::uint64_t id;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (Clock::now() >= deadline_ && nextId_ >= minRequests_)
        return false;
      id = nextId_++;
      if (next_ == order_.size()) {
        order_ = workload_.round(*rng_);
        next_ = 0;
      }
      shape = order_[next_++];
    }
    std::string line =
        hot.empty() ? workload_.requestLine(shape, id) : hotLines_[shape];
    auto sent = Clock::now();
    submitting = true;
    service_.submitAsync(std::move(line),
                         [this, shape, id, sent](std::string response) {
                           complete(shape, id, sent, response);
                         });
    submitting = false;
    return true;
  }

  void complete(std::size_t shape, std::uint64_t id, Clock::time_point sent,
                const std::string &response) {
    auto done = Clock::now();
    double queueMs = 0, runMs = 0;
    Reply reply;
    if (!hot.empty()) {
      if (!checkHot(response, hot[shape], queueMs, runMs))
        reply.failure = "hot answer differs: " + response.substr(0, 300);
    } else {
      reply = checkReply(response, std::to_string(id),
                         workload_.shapes[shape].op);
      queueMs = reply.queueMs;
      runMs = reply.runMs;
    }
    // An answer given inside submitAsync (a rejected or invalid request)
    // arrives under the service's lock: end this loop instead of sending.
    bool more = !submitting && submitNext();
    std::lock_guard<std::mutex> lock(mutex_);
    if (reply.failure.empty() && hot.empty()) {
      auto first = shapeRows.emplace(shape, reply);
      if (!first.second && !sameRows(first.first->second.rows, reply.rows))
        reply.failure = workload_.shapes[shape].name +
                        ": rows differ from an earlier request";
    }
    double latency = msBetween(sent, done);
    ++out_.attempted;
    if (!reply.failure.empty()) {
      ++out_.failed;
      if (out_.firstFailure.empty())
        out_.firstFailure = reply.failure;
    }
    out_.samples.add({static_cast<float>(latency),
                      static_cast<float>(queueMs),
                      static_cast<float>(latency - runMs)});
    if (keepDetail_ && hot.empty()) {
      out_.shape.push_back(static_cast<std::uint32_t>(shape));
      out_.id.push_back(id);
      out_.runMs.push_back(static_cast<float>(runMs));
      out_.rows.push_back(std::move(reply.rows));
    }
    if (done > lastDone_)
      lastDone_ = done;
    if (!more && --loops_ == 0)
      ended_.notify_one();
  }

  static thread_local bool submitting;
  CosimService &service_;
  const Workload &workload_;
  bool keepDetail_;
  std::vector<std::string> hotLines_;
  Rng *rng_ = nullptr;
  std::size_t minRequests_ = 0;
  Clock::time_point start_, deadline_;
  std::mutex mutex_; // guards everything below and shapeRows
  std::condition_variable ended_;
  unsigned loops_ = 0;
  std::uint64_t nextId_ = 0;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  Outcome out_;
  Clock::time_point lastDone_;
};

thread_local bool ClosedLoop::submitting = false;

// One request, submitted like the stream's and waited for.
std::string roundTrip(CosimService &service, const std::string &line) {
  std::mutex m;
  std::condition_variable cv;
  std::string response;
  bool done = false;
  service.submitAsync(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(m);
    response = std::move(r);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
  return response;
}

// ---------------------------------------------------------------------------
// Statistics.

// Nearest-rank percentile of `values` (copied; p in (0, 1]).
double percentile(std::vector<float> values, double p) {
  if (values.empty())
    return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double mean(const std::vector<float> &values) {
  double sum = 0;
  for (float v : values)
    sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n == 0 ? 0 : n % 2 ? values[n / 2]
                            : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct CacheCounts {
  double frontendHits = 0, frontendMisses = 0, modelHits = 0,
         modelMisses = 0, responseHits = 0, responseMisses = 0;
};

CacheCounts cacheCounts(CosimService &service) {
  CacheCounts c;
  JsonValue json = JsonValue::makeNull();
  std::string error;
  if (!c2h::serve::parseJson(service.handleLine("{\"op\":\"stats\"}"), json,
                             error))
    return c;
  const JsonValue *stats = json.find("stats");
  if (!stats)
    return c;
  auto read = [&](const char *cache, double &hits, double &misses) {
    if (const JsonValue *o = stats->find(cache)) {
      hits = static_cast<double>(o->intOr("hits", 0));
      misses = static_cast<double>(o->intOr("misses", 0));
    }
  };
  read("frontend_cache", c.frontendHits, c.frontendMisses);
  read("model_cache", c.modelHits, c.modelMisses);
  read("response_cache", c.responseHits, c.responseMisses);
  return c;
}

double ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name, unit;
  double value;
  std::string note;
};

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric> &metrics) {
  for (const Metric &m : metrics)
    std::printf("%-34s %14.6g %-8s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char *why) {
  std::fprintf(stderr,
               "c2h_perfbench: %s\nusage: c2h_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n",
               why);
  return 2;
}

// Per-layer metric names and the replica spans they sum (milliseconds per
// replayed request).  The stage spans partition the request; interp.golden
// and rtl.fsmd_sim are nested in core.verify, the vsim probes sit outside.
struct LayerSpan {
  const char *metric;
  const char *span;
  bool stage; // counts towards trace.coverage
};

const LayerSpan kLayerSpans[] = {
    {"frontend.ms", "frontend", true},
    {"analysis.analyze_ms", "analysis.analyze", true},
    {"flows.restrict_ms", "flows.restrict", true},
    {"analysis.preflight_ms", "analysis.preflight", true},
    {"opt.inline_ms", "opt.inline", true},
    {"opt.unroll_ms", "opt.unroll", true},
    {"ir.lower_ms", "ir.lower", true},
    {"analysis.ranges_check_ms", "analysis.ranges_check", true},
    {"opt.optimize_ms", "opt.optimize", true},
    {"analysis.ranges_prune_ms", "analysis.ranges_prune", true},
    {"sched.build_design_ms", "sched.build_design", true},
    {"rtl.area_timing_ms", "rtl.area_timing", true},
    {"async.build_ms", "async.build", true},
    {"core.verify_ms", "core.verify", true},
    {"interp.golden_ms", "interp.golden", false},
    {"rtl.fsmd_sim_ms", "rtl.fsmd_sim", false},
    {"core.cosim_ms", "core.cosim", true},
    {"rtl.emit_ms", "rtl.emit", false},
    {"vsim.parse_ms", "vsim.parse", false},
    {"vsim.elab_ms", "vsim.elab", false},
    {"vsim.compile_ms", "vsim.compile", false},
    {"vsim.run_ms", "vsim.run", false},
};

} // namespace

int main(int argc, char **argv) {
  std::string workloadName, spansPath;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    char *end = nullptr;
    if (flag == "--workload") {
      workloadName = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoll(argv[i + 1], &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
    } else if (flag == "--spans") {
      spansPath = argv[i + 1];
    } else {
      return usage(("unknown option " + flag).c_str());
    }
    if (end && *end)
      return usage(("invalid value for " + flag).c_str());
  }
  if (argc % 2 == 0 || workloadName.empty() || seed < 0 || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage("missing or invalid arguments");
  Workload workload;
  try {
    workload = makeWorkload(workloadName, static_cast<std::uint64_t>(seed));
  } catch (const std::exception &e) {
    return usage(e.what());
  }
  const bool cold = workload.salted;

  // Set-up: service construction plus one warm-up request on a program
  // outside the stream.  The first one also pays process-level lazy
  // initialization.
  c2h::serve::ServiceOptions options;
  // One worker per request in flight.  Extra idle workers would only
  // scatter a single client's requests over more malloc arenas, which made
  // peak RSS vary by a quarter from run to run.
  options.jobs = workload.inFlight;
  // Small caches, so that a run reaches their steady state: with the
  // daemon's 64 MiB each, a cold stream's cached entries grow for the whole
  // run, and peak RSS would grow with throughput.  serve_warm's 36 answers
  // take about a quarter of the response cache.
  options.frontendCacheBytes = 1 << 20;
  options.responseCacheBytes = 1 << 20;
  std::vector<double> setupS;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto setUp = [&] {
    auto t0 = Clock::now();
    auto service = std::make_unique<CosimService>(options);
    std::string response = roundTrip(*service, warmupLine());
    setupS.push_back(msBetween(t0, Clock::now()) / 1000.0);
    Reply warm = checkReply(response, "warmup", "cosim");
    ++attempted;
    if (!warm.failure.empty()) {
      ++failed;
      failures.push_back("warm-up: " + warm.failure);
    }
    return service;
  };
  std::unique_ptr<CosimService> service;
  for (int k = 0; k < kSetupsPerEnd; ++k) {
    service.reset();
    service = setUp();
  }

  ClosedLoop loop(*service, workload, trace == 1);

  // serve_warm: fill the response cache with every hot request (untimed),
  // checking each answer in full.
  if (!cold) {
    for (std::size_t s = 0; s < workload.shapes.size(); ++s) {
      std::string id = std::to_string(s);
      std::string response =
          roundTrip(*service, workload.requestLine(s, s));
      Reply reply = checkReply(response, id, workload.shapes[s].op);
      ++attempted;
      if (!reply.failure.empty()) {
        ++failed;
        failures.push_back(workload.shapes[s].name + ": " + reply.failure);
      }
      loop.shapeRows.emplace(s, reply);
      loop.hot.push_back(response.substr(0, response.rfind(",\"cache\":")));
    }
  }

  Rng rng(static_cast<std::uint64_t>(seed));
  CacheCounts before = cacheCounts(*service);
  double loopSeconds = trace == 1 ? seconds / 2 : seconds;
  std::size_t minRequests =
      trace == 1 ? workload.shapes.size()
                 : std::max(kMinSamples, workload.shapes.size());
  Outcome outcome = loop.run(rng, loopSeconds, minRequests);
  double peakRss = peakRssMb();
  CacheCounts after = cacheCounts(*service);
  attempted += outcome.attempted;
  failed += outcome.failed;
  if (!outcome.firstFailure.empty())
    failures.push_back(outcome.firstFailure);

  // Every shape must have been answered; its rows define the QoR.
  bool complete = loop.shapeRows.size() == workload.shapes.size();
  if (!complete)
    failures.push_back("not every program of the workload was answered");

  // registry_cold: the salted copies must synthesize exactly like the
  // registry programs themselves (requested by name, globals checked).
  if (workload.name == "registry_cold") {
    for (std::size_t s = 0; s < workload.shapes.size(); ++s) {
      const std::string &name = c2h::core::standardWorkloads()[s].name;
      Reply ref = checkReply(
          service->handleLine("{\"id\":\"ref\",\"op\":\"cosim\","
                              "\"workload\":\"" + name + "\"}"),
          "ref", "cosim");
      ++attempted;
      auto seen = loop.shapeRows.find(s);
      if (ref.failure.empty() && seen != loop.shapeRows.end() &&
          !sameRows(seen->second.rows, ref.rows))
        ref.failure = "salted copy synthesizes differently";
      if (!ref.failure.empty()) {
        ++failed;
        failures.push_back(name + " reference: " + ref.failure);
      }
    }
  }

  std::vector<Metric> metrics;
  if (trace == 0) {
    for (int k = 0; k < kSetupsPerEnd; ++k)
      setUp();
    double logCycles = 0, logArea = 0;
    std::size_t qorRows = 0;
    for (const auto &[shape, reply] : loop.shapeRows)
      for (std::size_t i = 0; i < reply.rows.size(); ++i)
        if (reply.syncRows[i]) {
          logCycles += std::log(static_cast<double>(reply.rows[i].cycles));
          logArea +=
              std::log(std::strtod(reply.rows[i].area.c_str(), nullptr));
          ++qorRows;
        }
    if (qorRows == 0)
      failures.push_back("no accepted synchronous rows for the QoR");
    std::vector<float> latency =
        outcome.samples.get(&Samples::Sample::latencyMs);
    std::size_t n = latency.size();
    std::size_t beyond90 =
        n - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
    char note50[96], note90[96], noteQor[64];
    std::snprintf(note50, sizeof note50, "(%zu samples of %llu requests)", n,
                  static_cast<unsigned long long>(outcome.attempted));
    std::snprintf(note90, sizeof note90, "(%zu samples, %zu beyond)", n,
                  beyond90);
    std::snprintf(noteQor, sizeof noteQor, "(%zu rows of %zu programs)",
                  qorRows, loop.shapeRows.size());
    if (beyond90 < 10)
      failures.push_back("too few samples for latency_p90_ms");
    double q = qorRows ? static_cast<double>(qorRows) : 1.0;
    metrics = {
        {"setup_s", "s", median(setupS),
         "(median of " + std::to_string(setupS.size()) + " set-ups)"},
        {"throughput_rps", "1/s",
         static_cast<double>(outcome.attempted) / (outcome.wallMs / 1000.0),
         ""},
        {"latency_p50_ms", "ms", percentile(latency, 0.5), note50},
        {"latency_p90_ms", "ms", percentile(latency, 0.9), note90},
        {"peak_rss_mb", "MiB", peakRss, "(set-up and stream)"},
        {"qor_cycles_geomean", "cycles", std::exp(logCycles / q), noteQor},
        {"qor_area_geomean", "area", std::exp(logArea / q), noteQor},
    };
  } else {
    // Serve layer, from the responses and the stats op.
    metrics = {
        {"serve.overhead_ms", "ms",
         percentile(outcome.samples.get(&Samples::Sample::overheadMs), 0.5),
         "(median)"},
        {"serve.queue_ms", "ms",
         mean(outcome.samples.get(&Samples::Sample::queueMs)), "(mean)"},
        {"serve.response_cache_hit_ratio", "ratio",
         ratio(after.responseHits - before.responseHits,
               after.responseMisses - before.responseMisses),
         ""},
        {"core.frontend_cache_hit_ratio", "ratio",
         ratio(after.frontendHits - before.frontendHits,
               after.frontendMisses - before.frontendMisses),
         ""},
        {"vsim.model_cache_hit_ratio", "ratio",
         ratio(after.modelHits - before.modelHits,
               after.modelMisses - before.modelMisses),
         ""},
    };

    // Replica of the same requests, layer by layer: one request of each
    // program first (the round whose counts are reported; they repeat
    // exactly), then further requests in stream order until the time is up.
    // serve_warm's stream never leaves the response cache, so its replica
    // replays the cosim requests that filled the cache.
    struct Replay {
      std::size_t shape;
      std::uint64_t id;
      const std::vector<ExpectedRow> *rows;
      double runMs;
    };
    std::vector<Replay> firstRound, rest;
    if (cold) {
      std::vector<bool> seen(workload.shapes.size());
      for (std::size_t i = 0; i < outcome.id.size(); ++i) {
        Replay r{outcome.shape[i], outcome.id[i], &outcome.rows[i],
                 outcome.runMs[i]};
        (seen[r.shape] ? rest : firstRound).push_back(r);
        seen[r.shape] = true;
      }
    } else {
      for (std::size_t s = 0; s < workload.shapes.size(); ++s)
        if (workload.shapes[s].op == "cosim")
          firstRound.push_back(
              {s, s, &loop.shapeRows[s].rows, loop.shapeRows[s].runMs});
    }
    Tracer tracer;
    ReplicaCounts roundCounts, restCounts;
    c2h::vsim::ModelCache modelCache(options.modelCacheEntries);
    std::uint64_t replayed = 0, mismatches = 0;
    double untracedMs = 0;
    auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds / 2));
    auto replay = [&](const Replay &r, ReplicaCounts &counts) {
      const Shape &shape = workload.shapes[r.shape];
      std::string mismatch;
      auto request = static_cast<std::uint32_t>(replayed++);
      untracedMs += r.runMs;
      if (!replayRequest(workload.sourceOf(r.shape, r.id), shape.args,
                         *r.rows, request, tracer, modelCache, counts,
                         mismatch)) {
        ++mismatches;
        failures.push_back(shape.name + " replica: " + mismatch);
      }
    };
    for (const Replay &r : firstRound)
      replay(r, roundCounts);
    // Cold workloads go on in stream order; serve_warm repeats its round.
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
      if (cold ? i >= rest.size() : firstRound.empty())
        break;
      replay(cold ? rest[i] : firstRound[i % firstRound.size()], restCounts);
    }
    attempted += replayed;
    failed += mismatches;
    if (!spansPath.empty() && !tracer.write(spansPath))
      failures.push_back("cannot write " + spansPath);

    std::map<std::string, double> spanUs;
    for (const Tracer::Span &s : tracer.spans())
      spanUs[s.name] += s.durUs;
    double per = replayed ? 1000.0 * static_cast<double>(replayed) : 1.0;
    double stageUs = 0;
    for (const LayerSpan &l : kLayerSpans) {
      metrics.push_back({l.metric, "ms", spanUs[l.span] / per, ""});
      if (l.stage)
        stageUs += spanUs[l.span];
    }
    double requestUs = spanUs["request"];
    double programs =
        firstRound.empty() ? 1.0 : static_cast<double>(firstRound.size());
    double runUs = spanUs["vsim.run"];
    double cycles =
        static_cast<double>(roundCounts.vsimCycles + restCounts.vsimCycles);
    metrics.push_back(
        {"ir.instrs_lowered", "count",
         static_cast<double>(roundCounts.instrsLowered) / programs,
         "(per program, all flows)"});
    metrics.push_back(
        {"ir.instrs_optimized", "count",
         static_cast<double>(roundCounts.instrsOptimized) / programs,
         "(per program, all flows)"});
    metrics.push_back({"vsim.cycles", "count",
                       static_cast<double>(roundCounts.vsimCycles) / programs,
                       "(per program, all flows)"});
    metrics.push_back({"vsim.run_mcycles_per_s", "Mcycles/s",
                       runUs > 0 ? cycles / runUs : 0.0, ""});
    metrics.push_back(
        {"trace.coverage", "ratio", requestUs > 0 ? stageUs / requestUs : 0.0,
         "(stage spans / request wall)"});
    metrics.push_back({"trace.overhead_share", "ratio",
                       untracedMs > 0 ? requestUs / 1000.0 / untracedMs - 1.0
                                      : 0.0,
                       "(replica wall / service run_ms - 1)"});
    metrics.push_back({"trace.replayed", "count",
                       static_cast<double>(replayed), ""});
    metrics.push_back({"trace.replica_mismatches", "count",
                       static_cast<double>(mismatches), ""});
  }

  for (const std::string &f : failures)
    std::fprintf(stderr, "c2h_perfbench: %s\n", f.c_str());
  bool correct = failures.empty() && failed == 0;
  printResult(correct, attempted, failed, metrics);
  return 0;
}
