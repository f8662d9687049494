// End-to-end contract for `c2hc --serve` — the real daemon, driven the way
// CI drives it:
//
//  * stdin batch mode: a scripted request mix gets one response line per
//    request, in request order, then a clean exit on EOF;
//  * the warm-cache response for the gcd cosim request byte-matches the
//    pinned golden fixture (serve_warm_gcd.json);
//  * a fault-injected request (--inject-fault=serve.handle:2) fails alone
//    with a structured verdict — the requests around it byte-match;
//  * an over-budget request returns a structured `over_budget` response
//    (the daemon analogue of exit code 4) without disturbing siblings;
//  * SIGTERM with the input stream still open drains in-flight requests
//    and exits 0;
//  * a request line past the 1 MiB cap is answered `invalid_request` and
//    the next line on the stream is still answered, in order;
//  * AF_UNIX socket mode serves a connection and cleans up the socket file;
//  * finished connections are joined while the daemon runs: 200 closed
//    connections leave its virtual size about where it was.
//
// Run as:  test_serve_cli <path-to-c2hc> <fixtures-dir>
//
// Deliberately not a gtest binary (same as test_cli): it exercises the real
// executable, via fork/exec with pipes so signals and EOF can be scripted.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#ifndef _WIN32

namespace {

int failures = 0;

void fail(const std::string &name, const std::string &why) {
  std::cerr << "FAIL " << name << ": " << why << "\n";
  ++failures;
}

void pass(const std::string &name) { std::cout << "ok   " << name << "\n"; }

struct Daemon {
  pid_t pid = -1;
  int in = -1;  // write requests here
  int out = -1; // read responses here
  std::string buffered;

  bool writeLine(const std::string &line) {
    std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      ssize_t n = write(in, data.data() + off, data.size() - off);
      if (n <= 0)
        return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Read one newline-terminated response (multi-second timeout: a cold
  // request synthesizes eleven flows).
  bool readLine(std::string &line, int timeoutMs = 120000) {
    for (;;) {
      std::size_t eol = buffered.find('\n');
      if (eol != std::string::npos) {
        line = buffered.substr(0, eol);
        buffered.erase(0, eol + 1);
        return true;
      }
      struct pollfd pfd{out, POLLIN, 0};
      int ready = poll(&pfd, 1, timeoutMs);
      if (ready <= 0)
        return false;
      char chunk[4096];
      ssize_t n = read(out, chunk, sizeof(chunk));
      if (n <= 0)
        return false;
      buffered.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void closeIn() {
    if (in >= 0)
      close(in);
    in = -1;
  }

  // Wait for exit; returns the exit status or -1.
  int wait() {
    closeIn();
    if (out >= 0)
      close(out);
    out = -1;
    int status = 0;
    if (waitpid(pid, &status, 0) < 0)
      return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

Daemon spawn(const std::string &c2hc, std::vector<std::string> extraArgs) {
  Daemon d;
  int inPipe[2], outPipe[2];
  if (pipe(inPipe) != 0 || pipe(outPipe) != 0)
    return d;
  pid_t pid = fork();
  if (pid < 0)
    return d;
  if (pid == 0) {
    dup2(inPipe[0], STDIN_FILENO);
    dup2(outPipe[1], STDOUT_FILENO);
    close(inPipe[0]);
    close(inPipe[1]);
    close(outPipe[0]);
    close(outPipe[1]);
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0)
      dup2(devnull, STDERR_FILENO);
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(c2hc.c_str()));
    for (auto &a : extraArgs)
      argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    execv(c2hc.c_str(), argv.data());
    _exit(127);
  }
  close(inPipe[0]);
  close(outPipe[1]);
  d.pid = pid;
  d.in = inPipe[1];
  d.out = outPipe[0];
  return d;
}

bool contains(const std::string &haystack, const std::string &needle) {
  return haystack.find(needle) != std::string::npos;
}

// Responses legitimately differ in their cache-label object between cold
// and warm runs; strip it before byte-comparing bodies.
std::string stripCache(std::string response) {
  std::size_t start = response.find(",\"cache\":{");
  if (start == std::string::npos)
    return response;
  std::size_t end = response.find('}', start);
  if (end == std::string::npos)
    return response;
  response.erase(start, end - start + 1);
  return response;
}

void testBatchOrderAndCleanEof(const std::string &c2hc) {
  const std::string name = "batch_order_and_clean_eof";
  Daemon d = spawn(c2hc, {"--serve", "--jobs=2"});
  const std::vector<std::string> requests = {
      R"({"id":"r0","op":"cosim","workload":"gcd","timing":false})",
      R"({"id":"r1","op":"analyze","workload":"gcd","timing":false})",
      R"({"id":"r2","op":"compare","workload":"fir","timing":false})",
      R"(this is not json)",
      R"({"id":"r4","op":"stats","timing":false})",
  };
  for (const auto &r : requests)
    if (!d.writeLine(r))
      return fail(name, "write failed");
  d.closeIn();
  std::vector<std::string> responses;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::string line;
    if (!d.readLine(line))
      return fail(name, "missing response " + std::to_string(i));
    responses.push_back(line);
  }
  int exitCode = d.wait();
  if (exitCode != 0)
    return fail(name, "exit " + std::to_string(exitCode));
  // In-order delivery: response i answers request i.
  if (!contains(responses[0], "\"id\":\"r0\"") ||
      !contains(responses[0], "\"op\":\"cosim\"") ||
      !contains(responses[0], "\"status\":\"ok\""))
    return fail(name, "bad r0: " + responses[0]);
  if (!contains(responses[1], "\"id\":\"r1\"") ||
      !contains(responses[1], "\"report\":{"))
    return fail(name, "bad r1: " + responses[1]);
  if (!contains(responses[2], "\"id\":\"r2\"") ||
      !contains(responses[2], "\"rows\":["))
    return fail(name, "bad r2: " + responses[2]);
  if (!contains(responses[3], "\"status\":\"invalid_request\""))
    return fail(name, "bad r3: " + responses[3]);
  if (!contains(responses[4], "\"op\":\"stats\"") ||
      !contains(responses[4], "\"invalid\":1"))
    return fail(name, "bad r4: " + responses[4]);
  pass(name);
}

void testWarmResponseMatchesGolden(const std::string &c2hc,
                                   const std::string &fixtures) {
  const std::string name = "warm_response_matches_golden";
  Daemon d = spawn(c2hc, {"--serve", "--jobs=1"});
  const std::string request =
      R"({"id":"warm","op":"cosim","workload":"gcd","timing":false})";
  if (!d.writeLine(request) || !d.writeLine(request))
    return fail(name, "write failed");
  d.closeIn();
  std::string cold, warm;
  if (!d.readLine(cold) || !d.readLine(warm))
    return fail(name, "missing responses");
  if (d.wait() != 0)
    return fail(name, "daemon exit nonzero");
  if (!contains(warm, "\"response\":\"hit\""))
    return fail(name, "second response was not a cache hit: " + warm);
  std::ifstream in(fixtures + "/serve_warm_gcd.json", std::ios::binary);
  if (!in)
    return fail(name, "cannot open golden serve_warm_gcd.json");
  std::stringstream golden;
  golden << in.rdbuf();
  std::string want = golden.str();
  while (!want.empty() && (want.back() == '\n' || want.back() == '\r'))
    want.pop_back();
  if (warm != want) {
    fail(name, "warm response drifted from the golden fixture");
    std::cerr << "  want: " << want << "\n  got:  " << warm << "\n";
    return;
  }
  pass(name);
}

void testInjectedFaultBlastRadiusOfOne(const std::string &c2hc) {
  const std::string name = "injected_fault_blast_radius_of_one";
  Daemon d =
      spawn(c2hc, {"--serve", "--jobs=1", "--inject-fault=serve.handle:2"});
  const std::string request =
      R"({"id":"q","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  for (int i = 0; i < 3; ++i)
    if (!d.writeLine(request))
      return fail(name, "write failed");
  d.closeIn();
  std::string first, second, third;
  if (!d.readLine(first) || !d.readLine(second) || !d.readLine(third))
    return fail(name, "missing responses");
  if (d.wait() != 0)
    return fail(name, "daemon died instead of containing the fault");
  if (!contains(second, "\"status\":\"error\"") ||
      !contains(second, "\"site\":\"serve.handle\"") ||
      !contains(second, "\"kind\":\"INJECTED_FAULT\""))
    return fail(name, "faulted response not structured: " + second);
  if (!contains(first, "\"status\":\"ok\"") ||
      !contains(third, "\"status\":\"ok\""))
    return fail(name, "sibling requests disturbed");
  if (stripCache(first) != stripCache(third))
    return fail(name, "responses around the fault are not byte-identical");
  pass(name);
}

void testOverBudgetRequestIsContained(const std::string &c2hc) {
  const std::string name = "over_budget_request_is_contained";
  Daemon d = spawn(c2hc, {"--serve", "--jobs=1"});
  const std::string clean =
      R"({"id":"c","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  const std::string starved =
      R"({"id":"b","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true,"budget":{"cycles":5}})";
  if (!d.writeLine(clean) || !d.writeLine(starved) || !d.writeLine(clean))
    return fail(name, "write failed");
  d.closeIn();
  std::string first, budget, third;
  if (!d.readLine(first) || !d.readLine(budget) || !d.readLine(third))
    return fail(name, "missing responses");
  if (d.wait() != 0)
    return fail(name, "daemon exit nonzero");
  if (!contains(budget, "\"status\":\"over_budget\"") ||
      !contains(budget, "\"exit_code\":4"))
    return fail(name, "budget trip not structured: " + budget);
  if (stripCache(first) != stripCache(third))
    return fail(name, "budget trip disturbed a sibling request");
  pass(name);
}

void testSigtermDrainsAndExitsZero(const std::string &c2hc) {
  const std::string name = "sigterm_drains_and_exits_zero";
  Daemon d = spawn(c2hc, {"--serve", "--jobs=2"});
  if (!d.writeLine(
          R"({"id":"t0","op":"compare","workload":"gcd","timing":false})"))
    return fail(name, "write failed");
  std::string response;
  if (!d.readLine(response) || !contains(response, "\"status\":\"ok\""))
    return fail(name, "no response before signal");
  // Input still open — the daemon is idle, waiting.  SIGTERM must be a
  // clean drain-and-exit, not a kill.
  if (kill(d.pid, SIGTERM) != 0)
    return fail(name, "kill failed");
  int exitCode = d.wait();
  if (exitCode != 0)
    return fail(name, "exit " + std::to_string(exitCode) + " after SIGTERM");
  pass(name);
}

// A line past the daemon's 1 MiB cap is answered `invalid_request` in its
// slot, and the next line on the same stream is still read and answered.
void testOversizeLineIsRejectedAndReadingResumes(const std::string &c2hc) {
  const std::string name = "oversize_line_rejected_and_reading_resumes";
  Daemon d = spawn(c2hc, {"--serve", "--jobs=2"});
  const std::string oversize = R"({"id":"big","op":"stats","pad":")" +
                               std::string((1u << 20) + 4096, 'x') + "\"}";
  if (!d.writeLine(R"({"id":"before","op":"stats","timing":false})") ||
      !d.writeLine(oversize) ||
      !d.writeLine(R"({"id":"after","op":"stats","timing":false})"))
    return fail(name, "write failed");
  d.closeIn();
  std::string before, big, after;
  if (!d.readLine(before) || !d.readLine(big) || !d.readLine(after))
    return fail(name, "missing responses");
  if (d.wait() != 0)
    return fail(name, "daemon exit nonzero");
  if (!contains(before, "\"id\":\"before\"") ||
      !contains(before, "\"status\":\"ok\""))
    return fail(name, "bad first response: " + before);
  if (!contains(big, "\"status\":\"invalid_request\"") ||
      !contains(big, "request line exceeds"))
    return fail(name, "oversize line not rejected: " + big.substr(0, 200));
  if (!contains(after, "\"id\":\"after\"") ||
      !contains(after, "\"status\":\"ok\"") ||
      !contains(after, "\"invalid\":1"))
    return fail(name, "line after the oversize one: " + after);
  pass(name);
}

void testSocketModeServesAndCleansUp(const std::string &c2hc) {
  const std::string name = "socket_mode_serves_and_cleans_up";
  const std::string path = "serve_cli_test.sock";
  unlink(path.c_str());
  Daemon d = spawn(c2hc, {"--serve=" + path, "--jobs=1"});
  // Connect with retry: the daemon needs a moment to bind.
  int fd = -1;
  for (int attempt = 0; attempt < 200; ++attempt) {
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0)
      break;
    close(fd);
    fd = -1;
    usleep(50000);
  }
  if (fd < 0) {
    kill(d.pid, SIGKILL);
    d.wait();
    return fail(name, "could not connect to " + path);
  }
  const std::string request =
      R"({"id":"s0","op":"analyze","workload":"gcd","timing":false})"
      "\n";
  if (write(fd, request.data(), request.size()) !=
      static_cast<ssize_t>(request.size())) {
    close(fd);
    kill(d.pid, SIGKILL);
    d.wait();
    return fail(name, "socket write failed");
  }
  std::string response;
  char ch;
  while (response.find('\n') == std::string::npos) {
    struct pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, 120000) <= 0)
      break;
    ssize_t n = read(fd, &ch, 1);
    if (n <= 0)
      break;
    response.push_back(ch);
  }
  close(fd);
  bool ok = contains(response, "\"id\":\"s0\"") &&
            contains(response, "\"status\":\"ok\"");
  if (kill(d.pid, SIGTERM) != 0)
    return fail(name, "kill failed");
  int exitCode = d.wait();
  if (!ok)
    return fail(name, "bad socket response: " + response);
  if (exitCode != 0)
    return fail(name, "exit " + std::to_string(exitCode) + " after SIGTERM");
  if (access(path.c_str(), F_OK) == 0)
    return fail(name, "socket file not cleaned up");
  pass(name);
}

int connectWithRetry(const std::string &path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0)
      return fd;
    close(fd);
    usleep(50000);
  }
  return -1;
}

bool readSocketLine(int fd, std::string &line, int timeoutMs = 120000) {
  line.clear();
  char ch;
  while (true) {
    struct pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, timeoutMs) <= 0)
      return false;
    ssize_t n = read(fd, &ch, 1);
    if (n <= 0)
      return false;
    if (ch == '\n')
      return true;
    line.push_back(ch);
  }
}

// A client that submits work and then vanishes without reading: the
// daemon's response write hits a closed peer (EPIPE).  With SIGPIPE
// ignored process-wide that is a per-stream error, not a daemon death —
// sibling connections must still get byte-identical answers, and the
// daemon must still drain to a clean exit.
void testPeerDisconnectDoesNotDisturbSiblings(const std::string &c2hc) {
  const std::string name = "peer_disconnect_does_not_disturb_siblings";
  const std::string path = "serve_cli_gone.sock";
  unlink(path.c_str());
  Daemon d = spawn(c2hc, {"--serve=" + path, "--jobs=2"});
  const std::string request =
      R"({"id":"g","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})"
      "\n";
  auto abort = [&](const std::string &why) {
    kill(d.pid, SIGKILL);
    d.wait();
    unlink(path.c_str());
    return fail(name, why);
  };
  // Baseline answer from a well-behaved connection.
  int base = connectWithRetry(path);
  if (base < 0)
    return abort("could not connect baseline");
  std::string baseline;
  if (write(base, request.data(), request.size()) !=
          static_cast<ssize_t>(request.size()) ||
      !readSocketLine(base, baseline)) {
    close(base);
    return abort("baseline request failed");
  }
  close(base);
  // The vanishing client: submit, then slam the connection shut before the
  // response can be written.
  int gone = connectWithRetry(path);
  if (gone < 0)
    return abort("could not connect vanishing client");
  if (write(gone, request.data(), request.size()) !=
      static_cast<ssize_t>(request.size())) {
    close(gone);
    return abort("vanishing client write failed");
  }
  close(gone);
  // A sibling submitted while the daemon is discovering the dead peer.
  int sibling = connectWithRetry(path);
  if (sibling < 0)
    return abort("could not connect sibling");
  std::string answer;
  if (write(sibling, request.data(), request.size()) !=
          static_cast<ssize_t>(request.size()) ||
      !readSocketLine(sibling, answer)) {
    close(sibling);
    return abort("sibling request failed — daemon disturbed");
  }
  close(sibling);
  if (stripCache(answer) != stripCache(baseline))
    return fail(name, "sibling response drifted after peer disconnect");
  if (kill(d.pid, SIGTERM) != 0)
    return abort("kill failed");
  int exitCode = d.wait();
  if (exitCode != 0)
    return fail(name, "exit " + std::to_string(exitCode) + " after SIGTERM");
  pass(name);
}

// The daemon's virtual size in KiB (the VmSize line of
// /proc/<pid>/status); -1 when it cannot be read.
long vmSizeKib(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0)
      return std::stol(line.substr(7));
  return -1;
}

// 200 connections, one at a time, each answered and closed: a finished
// connection's thread must be joined while the daemon runs, not at
// shutdown, or every connection leaves its stack mapped.
void testClosedConnectionsAreReaped(const std::string &c2hc) {
  const std::string name = "closed_connections_are_reaped";
#ifndef __linux__
  std::cout << "skip " << name << " (needs /proc/<pid>/status)\n";
  return;
#endif
  const std::string path = "serve_cli_reap.sock";
  unlink(path.c_str());
  Daemon d = spawn(c2hc, {"--serve=" + path, "--jobs=1"});
  const std::string request =
      R"({"id":"s","op":"stats","timing":false})"
      "\n";
  auto abort = [&](const std::string &why) {
    kill(d.pid, SIGKILL);
    d.wait();
    unlink(path.c_str());
    return fail(name, why);
  };
  long before = -1;
  for (int i = 0; i <= 200; ++i) {
    int fd = connectWithRetry(path);
    if (fd < 0)
      return abort("could not connect (connection " + std::to_string(i) +
                   ")");
    std::string answer;
    bool answered = write(fd, request.data(), request.size()) ==
                        static_cast<ssize_t>(request.size()) &&
                    readSocketLine(fd, answer);
    close(fd);
    if (!answered)
      return abort("no answer on connection " + std::to_string(i));
    if (i == 0)
      before = vmSizeKib(d.pid); // after the first connection's warm-up
  }
  long after = vmSizeKib(d.pid);
  if (kill(d.pid, SIGTERM) != 0)
    return abort("kill failed");
  int exitCode = d.wait();
  if (before < 0 || after < 0)
    return fail(name, "cannot read VmSize");
  if (after - before >= 256L * 1024)
    return fail(name, "VmSize grew " + std::to_string((after - before) >> 10) +
                          " MiB over 200 closed connections");
  if (exitCode != 0)
    return fail(name, "exit " + std::to_string(exitCode) + " after SIGTERM");
  pass(name);
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3) {
    std::cerr << "usage: test_serve_cli <c2hc> <fixtures-dir>\n";
    return 2;
  }
  const std::string c2hc = argv[1];
  const std::string fixtures = argv[2];
  signal(SIGPIPE, SIG_IGN);
  testBatchOrderAndCleanEof(c2hc);
  testWarmResponseMatchesGolden(c2hc, fixtures);
  testInjectedFaultBlastRadiusOfOne(c2hc);
  testOverBudgetRequestIsContained(c2hc);
  testSigtermDrainsAndExitsZero(c2hc);
  testOversizeLineIsRejectedAndReadingResumes(c2hc);
  testSocketModeServesAndCleansUp(c2hc);
  testPeerDisconnectDoesNotDisturbSiblings(c2hc);
  testClosedConnectionsAreReaped(c2hc);
  if (failures) {
    std::cerr << failures << " serve CLI scenario(s) failed\n";
    return 1;
  }
  std::cout << "all serve CLI scenarios passed\n";
  return 0;
}

#else // _WIN32

int main() {
  std::cout << "serve CLI scenarios are POSIX-only; skipped\n";
  return 0;
}

#endif
