#include "serve/server.h"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace c2h::serve {

namespace {

// Written by the SIGTERM/SIGINT handler, read by every connection thread.
// A lock-free atomic is both async-signal-safe and race-free across
// threads, which a volatile sig_atomic_t is not.
std::atomic<int> gStopRequested{0};
static_assert(std::atomic<int>::is_always_lock_free);

void onTerminate(int) { gStopRequested.store(1); }

void installSignalHandlers() {
#ifndef _WIN32
  // sigaction without SA_RESTART: SIGTERM/SIGINT must interrupt the accept
  // loop's blocking reads so shutdown drains promptly instead of waiting
  // for the next request to arrive.
  struct sigaction action{};
  action.sa_handler = onTerminate;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // Ignore SIGPIPE process-wide: a client that disconnects mid-response
  // must turn the next write into an EPIPE return (handled per-stream by
  // the sink), never a daemon-killing signal.  MSG_NOSIGNAL covers socket
  // sends, but stdout/pipe writes have no such flag.
  struct sigaction ignorePipe{};
  ignorePipe.sa_handler = SIG_IGN;
  sigemptyset(&ignorePipe.sa_mask);
  sigaction(SIGPIPE, &ignorePipe, nullptr);
#else
  std::signal(SIGTERM, onTerminate);
  std::signal(SIGINT, onTerminate);
#endif
}

// Per-stream in-order response delivery: completions arrive in any order
// (the pool runs requests concurrently), are parked by sequence number, and
// the contiguous prefix is written out.  One writer exists per stream
// (stdin mode: the process; socket mode: one per connection).
class OrderedWriter {
public:
  using Sink = std::function<bool(const std::string &)>;

  explicit OrderedWriter(Sink sink) : sink_(std::move(sink)) {}

  std::uint64_t nextSequence() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++outstanding_;
    return enqueueSeq_++;
  }

  void deliver(std::uint64_t seq, std::string response) {
    std::lock_guard<std::mutex> lock(mutex_);
    parked_[seq] = std::move(response);
    while (!parked_.empty() && parked_.begin()->first == writeSeq_) {
      sink_(parked_.begin()->second);
      parked_.erase(parked_.begin());
      ++writeSeq_;
    }
    if (--outstanding_ == 0)
      idle_.notify_all();
  }

  // Block until every sequence handed out has been delivered and written.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
  }

private:
  Sink sink_;
  std::mutex mutex_;
  std::condition_variable idle_;
  std::map<std::uint64_t, std::string> parked_;
  std::uint64_t enqueueSeq_ = 0;
  std::uint64_t writeSeq_ = 0;
  std::size_t outstanding_ = 0;
};

void submitLine(CosimService &service,
                const std::shared_ptr<OrderedWriter> &writer,
                std::string line) {
  if (line.empty())
    return;
  std::uint64_t seq = writer->nextSequence();
  service.submitAsync(std::move(line),
                      [writer, seq](std::string response) {
                        writer->deliver(seq, std::move(response));
                      });
}

// Longest request line the daemon buffers.  A longer line is answered
// `invalid_request` without being buffered, and reading resumes after its
// newline.
constexpr std::size_t kMaxRequestLineBytes = 1 << 20;

// Most connections the socket daemon serves at once, one thread each.  A
// connection past the cap is answered one `invalid_request` line naming
// the cap and closed.
constexpr std::size_t kMaxConnections = 64;

void rejectOversizeLine(CosimService &service,
                        const std::shared_ptr<OrderedWriter> &writer) {
  std::uint64_t seq = writer->nextSequence();
  writer->deliver(seq, service.invalidRequest(
                           "request line exceeds " +
                           std::to_string(kMaxRequestLineBytes) + " bytes"));
}

#ifndef _WIN32

// The one request reader behind both transports: reads `fd` until EOF or
// shutdown and submits each newline-terminated line (plus a final
// unterminated one).  Only newly read bytes are scanned for the newline,
// so a long line costs linear time.
void readRequests(CosimService &service, int fd,
                  const std::shared_ptr<OrderedWriter> &writer) {
  std::string line;
  bool oversize = false; // discarding the rest of an over-cap line
  auto endLine = [&] {
    if (oversize)
      rejectOversizeLine(service, writer);
    else
      submitLine(service, writer, std::move(line));
    line.clear();
    oversize = false;
  };
  char chunk[4096];
  while (!gStopRequested) {
    struct pollfd pfd{fd, POLLIN, 0};
    int ready = poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (ready == 0)
      continue;
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0)
      break; // EOF or read error: stop admission
    const char *p = chunk;
    const char *end = chunk + n;
    while (p < end) {
      const char *eol =
          static_cast<const char *>(std::memchr(p, '\n', end - p));
      const char *stop = eol ? eol : end;
      if (!oversize) {
        if (line.size() + (stop - p) > kMaxRequestLineBytes) {
          oversize = true;
          std::string().swap(line);
        } else {
          line.append(p, stop);
        }
      }
      if (!eol)
        break;
      endLine();
      p = eol + 1;
    }
  }
  if (!line.empty() || oversize)
    endLine();
}

#endif // !_WIN32

int runStdinServer(CosimService &service) {
  auto writer = std::make_shared<OrderedWriter>([](const std::string &line) {
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
    return true;
  });
  std::fputs("c2hc --serve: reading requests from stdin\n", stderr);
  std::fflush(stderr);
#ifndef _WIN32
  readRequests(service, STDIN_FILENO, writer);
#else
  std::string line;
  while (!gStopRequested && std::getline(std::cin, line)) {
    if (line.size() > kMaxRequestLineBytes)
      rejectOversizeLine(service, writer);
    else
      submitLine(service, writer, line);
  }
#endif
  service.drain();
  writer->drain();
  return 0;
}

#ifndef _WIN32

// One connection: read lines until EOF/shutdown, answer in order, then
// drain this connection's in-flight requests before closing.
void serveConnection(CosimService &service, int fd) {
  auto writer =
      std::make_shared<OrderedWriter>([fd](const std::string &line) {
        std::string out = line + "\n";
        std::size_t off = 0;
        while (off < out.size()) {
          ssize_t n = ::send(fd, out.data() + off, out.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
          );
          if (n <= 0)
            return false; // client went away; keep draining siblings
          off += static_cast<std::size_t>(n);
        }
        return true;
      });
  readRequests(service, fd, writer);
  writer->drain();
  ::close(fd);
}

// A connection past kMaxConnections: one `invalid_request` line, then
// close, without a thread.
void rejectConnection(CosimService &service, int fd) {
  std::string line = service.invalidRequest(
                         "too many connections (limit " +
                         std::to_string(kMaxConnections) + ")") +
                     "\n";
  ssize_t written = ::write(fd, line.data(), line.size());
  (void)written; // a peer that already left only fails the write (EPIPE)
  ::close(fd);
}

int runSocketServer(CosimService &service, const std::string &path) {
  if (path.size() >= sizeof(sockaddr_un::sun_path)) {
    std::fprintf(stderr, "c2hc --serve: socket path too long: %s\n",
                 path.c_str());
    return 3;
  }
  int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd < 0) {
    std::perror("c2hc --serve: socket");
    return 3;
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listenFd, 16) < 0) {
    std::perror("c2hc --serve: bind/listen");
    ::close(listenFd);
    return 3;
  }
  std::fprintf(stderr, "c2hc --serve: listening on %s\n", path.c_str());
  std::fflush(stderr);
  // A finished connection is joined on the loop's next pass, so its thread
  // stack is not held until shutdown.  List nodes stay put, so each thread
  // can set its own `done`.
  struct Connection {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Connection> connections;
  while (!gStopRequested) {
    connections.remove_if([](Connection &c) {
      bool done = c.done.load(); // read once: join exactly what is erased
      if (done)
        c.thread.join();
      return done;
    });
    struct pollfd pfd{listenFd, POLLIN, 0};
    int ready = poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (ready == 0)
      continue;
    int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0)
      continue;
    if (connections.size() >= kMaxConnections) {
      rejectConnection(service, fd);
      continue;
    }
    Connection &connection = connections.emplace_back();
    connection.thread = std::thread([&service, fd, &connection] {
      serveConnection(service, fd);
      connection.done = true;
    });
  }
  ::close(listenFd);
  for (auto &c : connections)
    c.thread.join(); // each connection drains its own in-flight requests
  service.drain();
  ::unlink(path.c_str());
  return 0;
}

#endif // !_WIN32

} // namespace

int runServer(const ServerOptions &options) {
  gStopRequested.store(0);
  installSignalHandlers();
  CosimService service(options.service);
  if (options.socketPath.empty())
    return runStdinServer(service);
#ifndef _WIN32
  return runSocketServer(service, options.socketPath);
#else
  std::fputs("c2hc --serve: socket mode is POSIX-only; use stdin mode\n",
             stderr);
  return 3;
#endif
}

} // namespace c2h::serve
