// The wave-serve daemon: a fault-tolerant evaluation service over a local
// socket.
//
// One Server owns a listening AF_UNIX socket, a reader thread per client
// connection, a bounded two-class admission queue (cheap analytic vs
// expensive DES), a worker pool draining it through a sharded memoizing
// EvalService, and a deadline watchdog. The robustness contract
// (docs/SERVING.md):
//
//   - the daemon never crashes on client input: malformed JSON, wrong
//     field types, unknown ops and oversized lines all produce structured
//     `invalid_request` errors;
//   - it never hangs a caller: a request with a deadline is answered by
//     the watchdog the moment it expires, even when every worker is
//     stalled, and the eventual (discarded) result never double-responds;
//   - it never queues unboundedly: admission beyond the per-class bounds
//     sheds with a retry-after hint, or degrades DES to the analytic
//     model when the client opted in;
//   - no client can stall it: responses are sent with non-blocking
//     writes, never under the admission or watchdog locks, and buffer
//     against their own connection only (bounded; a flooding non-reader
//     is disconnected) — a client that stops reading wedges nothing
//     shared;
//   - it restarts warm when it can and cold when it must: a valid cache
//     snapshot restores bit-identical hits, an invalid one is rejected
//     loudly and serving continues with an empty cache.
//
// Thread-safety: start/stop/wait from the owning thread; stats() from any
// thread. The Context must outlive the Server.
#pragma once

#include <memory>
#include <string>

#include "wave/serve.h"
#include "wave/status.h"

namespace wave {
class Context;
}  // namespace wave

namespace wave::serve {

class FaultPlan;

/// @brief The daemon; see the file comment for the contract.
class Server {
 public:
  /// `ctx` (and `faults`, when given) must outlive the server. A null
  /// `faults` means no injected faults.
  Server(const Context& ctx, ServeOptions options,
         const FaultPlan* faults = nullptr);
  ~Server();  ///< stops and joins if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// @brief Binds the socket, loads the snapshot (if configured and
  ///   valid), and starts the accept/worker/watchdog threads.
  Status start();

  /// @brief Stops accepting, closes every connection, joins all threads.
  ///   Queued-but-unanswered requests are dropped with their connections.
  ///   Idempotent.
  void stop();

  /// @brief Blocks until a client sends the `shutdown` op or stop() is
  ///   called from another thread.
  void wait();

  ServeStats stats() const;
  const std::string& socket_path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wave::serve
