// The `c2hc --serve` front door: a newline-delimited JSON request loop over
// stdin/stdout (the portable default, used by CI and scripted batch mode) or
// an AF_UNIX socket (POSIX only; many concurrent clients, one connection
// thread each).
//
// Responses are delivered in request order per stream, whatever order the
// worker pool finishes them in, so a scripted client can pair request N with
// response N without matching ids.
//
// Both transports read through one line reader.  A request line longer than
// 1 MiB is never buffered: it is answered `invalid_request` in its slot and
// reading resumes after its newline.
//
// Shutdown contract: SIGTERM/SIGINT (or stdin EOF) stops *admission* only.
// Every already-admitted request is still answered and flushed before the
// process exits 0 — a drain, not an abort.
#ifndef C2H_SERVE_SERVER_H
#define C2H_SERVE_SERVER_H

#include "serve/service.h"

#include <string>

namespace c2h::serve {

struct ServerOptions {
  ServiceOptions service;
  // Empty = stdin/stdout line mode; otherwise the AF_UNIX socket path to
  // bind (existing socket files are replaced).
  std::string socketPath;
};

// Run the serve loop until EOF or a termination signal; returns the process
// exit code (0 on a clean drain, 3 on a server-level I/O failure).
int runServer(const ServerOptions &options);

} // namespace c2h::serve

#endif // C2H_SERVE_SERVER_H
