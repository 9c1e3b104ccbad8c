#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "serve/faults.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "wave/context.h"
#include "wave/eval_service.h"

namespace wave::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// One client connection: the fd, a write lock (workers, watchdog and the
/// reader may all respond), a bounded buffer of unsent responses, and the
/// reader thread.
///
/// Sends are non-blocking: a client that floods requests without reading
/// replies fills its receive buffer, and a blocking send() there would
/// wedge whichever server thread is responding — one bad client must
/// never cost the others a worker or the watchdog. Bytes the kernel will
/// not take wait in `pending` (flushed on the next write and by the
/// accept loop's maintenance tick); past kMaxPendingBytes the client is
/// not slow but gone-rogue, and the connection is cut off.
struct Connection {
  static constexpr std::size_t kMaxPendingBytes = 1 << 20;

  int fd = -1;
  std::mutex write_mutex;
  std::thread reader;
  std::atomic<bool> done{false};

  void write_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (broken_) return;
    pending_ += line;
    pending_.push_back('\n');
    flush_locked();
    if (pending_.size() > kMaxPendingBytes) {
      // ~1 MiB of responses the client never read. shutdown() (not
      // close(): the fd must stay valid while others hold the
      // Connection) also wakes the reader thread, so the sweep reaps it.
      broken_ = true;
      pending_.clear();
      pending_.shrink_to_fit();
      ::shutdown(fd, SHUT_RDWR);
    }
  }

  /// Retries the unsent tail, if any. Called from the accept loop's tick
  /// so a buffered response still reaches a client that merely fell
  /// behind and caught up without sending another request.
  void flush() {
    const std::lock_guard<std::mutex> lock(write_mutex);
    if (!broken_) flush_locked();
  }

 private:
  void flush_locked() {
    std::size_t sent = 0;
    while (sent < pending_.size()) {
      // MSG_NOSIGNAL: a client that disconnected mid-response must not
      // SIGPIPE the daemon. MSG_DONTWAIT: a full socket buffer must not
      // block this thread — the tail stays in pending_.
      const ssize_t n =
          ::send(fd, pending_.data() + sent, pending_.size() - sent,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // Peer gone: drop everything, there is nobody left to tell.
      broken_ = true;
      sent = pending_.size();
      break;
    }
    pending_.erase(0, sent);
  }

  std::string pending_;   // guarded by write_mutex
  bool broken_ = false;   // guarded by write_mutex
};

/// One admitted eval request, shared between the admission queue, its
/// worker, and the deadline watchdog. Whoever flips `responded` first owns
/// the response; everyone else backs off.
struct PendingEval {
  std::string id;
  Query query;
  bool degraded = false;
  bool has_deadline = false;
  Clock::time_point deadline{};
  Clock::time_point admitted{};  // for the admission→response latency
  std::shared_ptr<Connection> conn;
  std::atomic<bool> responded{false};
  std::atomic<bool> cancelled{false};

  bool claim_response() {
    bool expected = false;
    return responded.compare_exchange_strong(expected, true);
  }
};

}  // namespace

struct Server::Impl {
  const Context* ctx;
  ServeOptions options;
  const FaultPlan* faults;

  std::unique_ptr<EvalService> service;

  int listen_fd = -1;
  int stop_pipe[2] = {-1, -1};

  std::thread accept_thread;
  std::vector<std::thread> workers;
  std::thread watchdog;
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};

  std::mutex conn_mutex;
  std::vector<std::shared_ptr<Connection>> connections;

  // ---- two-class bounded admission ------------------------------------
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::shared_ptr<PendingEval>> analytic_q;
  std::deque<std::shared_ptr<PendingEval>> des_q;

  // ---- deadline watchdog ----------------------------------------------
  std::mutex watch_mutex;
  std::condition_variable watch_cv;
  std::multimap<Clock::time_point, std::weak_ptr<PendingEval>> watched;

  // ---- shutdown-op signalling ------------------------------------------
  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown_requested = false;

  // ---- counters (ServeStats) -------------------------------------------
  std::atomic<std::uint64_t> connections_total{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> invalid{0};
  std::atomic<std::uint64_t> eval_errors{0};
  std::atomic<std::uint64_t> cancelled_evals{0};
  std::atomic<std::uint64_t> snapshots_written{0};
  std::atomic<std::uint64_t> snapshot_write_failures{0};
  std::atomic<std::uint64_t> restored_entries{0};
  std::atomic<bool> snapshot_load_failed{false};

  // ---- metrics registry (the `metrics` op, docs/OBSERVABILITY.md) ------
  // Histogram/gauge handles resolve once here (member-initializer order:
  // `registry` is declared first), so recording is a wait-free observe().
  obs::MetricsRegistry registry;
  obs::Histogram* eval_latency =
      &registry.histogram("serve_op_eval_latency_us");
  obs::Histogram* ping_latency =
      &registry.histogram("serve_op_ping_latency_us");
  obs::Histogram* stats_latency =
      &registry.histogram("serve_op_stats_latency_us");
  obs::Histogram* snapshot_latency =
      &registry.histogram("serve_op_snapshot_latency_us");
  obs::Histogram* metrics_latency =
      &registry.histogram("serve_op_metrics_latency_us");
  obs::Gauge* queue_depth_analytic =
      &registry.gauge("serve_queue_depth_analytic");
  obs::Gauge* queue_depth_des = &registry.gauge("serve_queue_depth_des");
  obs::Counter* watchdog_fires =
      &registry.counter("serve_watchdog_fires_total");
  obs::Counter* shed_total = &registry.counter("serve_shed_total");
  obs::Counter* degraded_total = &registry.counter("serve_degraded_total");

  /// Nanosecond steady-clock stamp of a successful start() (0 = never
  /// started); atomic so stats() may race start() harmlessly.
  std::atomic<std::int64_t> start_ns{0};

  double eval_elapsed_us(const PendingEval& req) const {
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     req.admitted)
        .count();
  }

  // ---- lifecycle -------------------------------------------------------

  Status bind_socket() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.socket_path.empty() ||
        options.socket_path.size() >= sizeof addr.sun_path)
      return Status::invalid_argument(
          "socket_path must be non-empty and shorter than " +
          std::to_string(sizeof addr.sun_path) + " bytes");
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) return Status::internal("socket() failed");
    std::copy(options.socket_path.begin(), options.socket_path.end(),
              addr.sun_path);
    ::unlink(options.socket_path.c_str());  // replace a stale socket file
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      return Status::invalid_argument("cannot bind " + options.socket_path);
    }
    if (::listen(listen_fd, 64) != 0) {
      ::close(listen_fd);
      listen_fd = -1;
      return Status::internal("listen() failed on " + options.socket_path);
    }
    return Status::ok();
  }

  void load_snapshot() {
    if (options.snapshot_path.empty()) return;
    auto entries = read_snapshot(options.snapshot_path);
    if (!entries.ok()) {
      if (entries.status().code() == StatusCode::kNotFound) return;  // cold
      // Loud, structured, non-fatal: the contract is "reject and start
      // cold", never "crash on a corrupt file".
      snapshot_load_failed.store(true, std::memory_order_relaxed);
      std::fprintf(stderr, "wave-serve: %s — starting cold\n",
                   entries.status().to_string().c_str());
      return;
    }
    const std::size_t added = service->import_cache(entries.value());
    restored_entries.store(added, std::memory_order_relaxed);
  }

  // ---- responding ------------------------------------------------------

  void respond_result(PendingEval& req, const Result& result) {
    if (!req.claim_response()) {
      cancelled_evals.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    (req.degraded ? degraded : ok).fetch_add(1, std::memory_order_relaxed);
    if (req.degraded) degraded_total->add(1);
    eval_latency->observe(eval_elapsed_us(req));
    req.conn->write_line(render_result(req.id, result, req.degraded));
  }

  void respond_error(PendingEval& req, ErrorCode code,
                     const std::string& message,
                     std::atomic<std::uint64_t>& counter) {
    if (!req.claim_response()) {
      cancelled_evals.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    counter.fetch_add(1, std::memory_order_relaxed);
    eval_latency->observe(eval_elapsed_us(req));
    req.conn->write_line(render_error(req.id, code, message));
  }

  // ---- watchdog --------------------------------------------------------

  void watch(const std::shared_ptr<PendingEval>& req) {
    {
      const std::lock_guard<std::mutex> lock(watch_mutex);
      watched.emplace(req->deadline, req);
    }
    watch_cv.notify_one();
  }

  void watchdog_loop() {
    std::unique_lock<std::mutex> lock(watch_mutex);
    std::vector<std::shared_ptr<PendingEval>> expired;
    while (!stopping.load(std::memory_order_acquire)) {
      if (watched.empty()) {
        watch_cv.wait(lock);
        continue;
      }
      const Clock::time_point next = watched.begin()->first;
      if (Clock::now() < next) {
        watch_cv.wait_until(lock, next);
        continue;
      }
      // Expire everything due, but only claim under the lock — the
      // responses are sent after releasing it. write_line can stall on a
      // client socket, and no client may ever hold watch_mutex hostage:
      // that would freeze every other deadline and every watch() caller.
      while (!watched.empty() && watched.begin()->first <= Clock::now()) {
        const std::shared_ptr<PendingEval> req = watched.begin()->second.lock();
        watched.erase(watched.begin());
        if (req == nullptr) continue;  // answered and destroyed already
        req->cancelled.store(true, std::memory_order_release);
        // Claimed inline (not via respond_error): losing the race here
        // just means the worker answered in time — nothing was discarded.
        if (req->claim_response()) expired.push_back(req);
      }
      lock.unlock();
      for (const std::shared_ptr<PendingEval>& req : expired) {
        deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        watchdog_fires->add(1);
        eval_latency->observe(eval_elapsed_us(*req));
        req->conn->write_line(render_error(
            req->id, ErrorCode::kDeadlineExceeded,
            "deadline expired before the evaluation completed"));
      }
      expired.clear();
      lock.lock();
    }
  }

  // ---- workers ---------------------------------------------------------

  /// Sleeps `ms` in slices, returning early (false) when the request was
  /// cancelled or the server is stopping — the cooperative-cancellation
  /// contract of injected slowness.
  bool interruptible_sleep(std::uint32_t ms, const PendingEval& req) {
    const Clock::time_point until = Clock::now() + std::chrono::milliseconds(ms);
    while (Clock::now() < until) {
      if (stopping.load(std::memory_order_acquire) ||
          req.cancelled.load(std::memory_order_acquire))
        return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  void worker_loop() {
    while (true) {
      std::shared_ptr<PendingEval> req;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [this] {
          return stopping.load(std::memory_order_acquire) ||
                 !analytic_q.empty() || !des_q.empty();
        });
        if (stopping.load(std::memory_order_acquire)) return;
        // Analytic first: microsecond queries must not wait behind
        // multi-second DES points.
        if (!analytic_q.empty()) {
          req = std::move(analytic_q.front());
          analytic_q.pop_front();
          queue_depth_analytic->set(static_cast<std::int64_t>(
              analytic_q.size()));
        } else {
          req = std::move(des_q.front());
          des_q.pop_front();
          queue_depth_des->set(static_cast<std::int64_t>(des_q.size()));
        }
      }
      handle_eval(*req);
    }
  }

  void handle_eval(PendingEval& req) {
    if (req.responded.load(std::memory_order_acquire)) {
      // Expired while queued; the watchdog already answered.
      cancelled_evals.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (faults != nullptr && faults->stall_worker(req.id)) {
      // A wedged worker: the watchdog must answer deadlined requests in
      // the meantime; this request itself may expire during the stall.
      interruptible_sleep(faults->stall_ms(), req);
    }
    if (faults != nullptr && faults->slow_eval(req.id)) {
      if (!interruptible_sleep(faults->slow_eval_ms(), req)) {
        // Cooperatively cancelled mid-"evaluation".
        if (req.claim_response()) {
          // Deadline passed but the watchdog has not fired yet (or the
          // server is stopping): answer here, once.
          deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
          eval_latency->observe(eval_elapsed_us(req));
          req.conn->write_line(render_error(
              req.id, ErrorCode::kDeadlineExceeded,
              "deadline expired before the evaluation completed"));
        } else {
          cancelled_evals.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
    }
    if (req.has_deadline && Clock::now() >= req.deadline) {
      respond_error(req, ErrorCode::kDeadlineExceeded,
                    "deadline expired before the evaluation started",
                    deadline_exceeded);
      return;
    }

    const Expected<Result> result = service->evaluate(req.query);
    if (result.ok()) {
      respond_result(req, result.value());
      return;
    }
    ErrorCode code = ErrorCode::kInternal;
    switch (result.status().code()) {
      case StatusCode::kNotFound: code = ErrorCode::kNotFound; break;
      case StatusCode::kInvalidArgument:
      case StatusCode::kFailedPrecondition:
        code = ErrorCode::kInvalidArgument;
        break;
      default: break;
    }
    respond_error(req, code, result.status().message(), eval_errors);
  }

  // ---- admission -------------------------------------------------------

  void admit_eval(const std::shared_ptr<Connection>& conn, Request request) {
    auto req = std::make_shared<PendingEval>();
    req->id = request.id;
    req->conn = conn;
    req->admitted = Clock::now();

    double deadline_ms = request.deadline_ms;
    if (deadline_ms <= 0) deadline_ms = options.default_deadline_ms;
    if (deadline_ms > 0) {
      // parse_request already bounds client deadlines by kMaxDeadlineMs;
      // clamp again so a wild server-side default can never push the
      // float-to-integer cast below into undefined behavior.
      deadline_ms = std::min(deadline_ms, kMaxDeadlineMs);
      req->has_deadline = true;
      req->deadline =
          Clock::now() + std::chrono::microseconds(
                             static_cast<std::int64_t>(deadline_ms * 1e3));
    }

    bool expensive = request.expensive();
    // Shed responses are rendered under queue_mutex (they quote the queue
    // depth) but sent only after releasing it: write_line can stall on a
    // client socket, and queue_mutex gates every worker dequeue and every
    // admission — a stalled client must not stall the service.
    std::string shed_response;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      if (expensive && des_q.size() >= options.des_queue_limit) {
        if (request.degrade) {
          // Graceful degradation (client opt-in): answer the DES query
          // with the analytic model instead of an error.
          request.engine = "model";
          request.validate = false;
          req->degraded = true;
          expensive = false;
        } else {
          const std::uint32_t hint = static_cast<std::uint32_t>(
              options.retry_after_ms * (1 + des_q.size()));
          shed.fetch_add(1, std::memory_order_relaxed);
          shed_response = render_error(
              request.id, ErrorCode::kShed,
              "DES queue is full (" + std::to_string(des_q.size()) +
                  " queued); retry later or set \"degrade\": true",
              hint);
        }
      }
      if (shed_response.empty() && !expensive &&
          analytic_q.size() >= options.analytic_queue_limit) {
        shed.fetch_add(1, std::memory_order_relaxed);
        shed_response = render_error(
            request.id, ErrorCode::kShed,
            "analytic queue is full (" + std::to_string(analytic_q.size()) +
                " queued); retry later",
            options.retry_after_ms);
      }
      if (shed_response.empty()) {
        req->query = query_from(*ctx, request);
        if (expensive) {
          des_q.push_back(req);
          queue_depth_des->set(static_cast<std::int64_t>(des_q.size()));
        } else {
          analytic_q.push_back(req);
          queue_depth_analytic->set(static_cast<std::int64_t>(
              analytic_q.size()));
        }
      }
    }
    if (!shed_response.empty()) {
      shed_total->add(1);
      conn->write_line(shed_response);
      return;
    }
    queue_cv.notify_one();
    if (req->has_deadline) watch(req);
  }

  // ---- per-connection protocol loop ------------------------------------

  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line) {
    requests.fetch_add(1, std::memory_order_relaxed);
    Request request;
    std::string error;
    if (!parse_request(line, request, error)) {
      invalid.fetch_add(1, std::memory_order_relaxed);
      conn->write_line(
          render_error("", ErrorCode::kInvalidRequest, error));
      return;
    }
    // Cheap ops are handled inline; each records its own handling latency
    // (evals record theirs from admission to response instead).
    const auto op_start = Clock::now();
    const auto observe_op = [&op_start](obs::Histogram* h) {
      h->observe(std::chrono::duration<double, std::micro>(Clock::now() -
                                                           op_start)
                     .count());
    };
    switch (request.op) {
      case Request::Op::Ping:
        ok.fetch_add(1, std::memory_order_relaxed);
        conn->write_line(render_pong(request.id));
        observe_op(ping_latency);
        return;
      case Request::Op::Stats:
        ok.fetch_add(1, std::memory_order_relaxed);
        conn->write_line(render_stats(request.id, snapshot_stats(),
                                      service->stats(), registry.snapshot()));
        observe_op(stats_latency);
        return;
      case Request::Op::Metrics: {
        // The daemon's registry and the EvalService's shard histograms,
        // concatenated — metric names are disjoint, so the combined text
        // is one well-formed Prometheus exposition.
        ok.fetch_add(1, std::memory_order_relaxed);
        std::string text = to_prometheus(registry.snapshot());
        text += to_prometheus(service->metrics());
        conn->write_line(render_metrics(request.id, text));
        observe_op(metrics_latency);
        return;
      }
      case Request::Op::Snapshot: {
        if (options.snapshot_path.empty()) {
          snapshot_write_failures.fetch_add(1, std::memory_order_relaxed);
          conn->write_line(render_error(
              request.id, ErrorCode::kSnapshotFailed,
              "no snapshot path configured (start with --snapshot=PATH)"));
          return;
        }
        const std::vector<EvalService::CacheEntry> entries =
            service->export_cache();
        const Status written =
            write_snapshot(options.snapshot_path, entries, faults);
        if (!written.is_ok()) {
          snapshot_write_failures.fetch_add(1, std::memory_order_relaxed);
          conn->write_line(render_error(request.id, ErrorCode::kSnapshotFailed,
                                        written.message()));
          return;
        }
        snapshots_written.fetch_add(1, std::memory_order_relaxed);
        ok.fetch_add(1, std::memory_order_relaxed);
        conn->write_line(render_ok(
            request.id, {{"entries", static_cast<double>(entries.size())}}));
        observe_op(snapshot_latency);
        return;
      }
      case Request::Op::Shutdown:
        ok.fetch_add(1, std::memory_order_relaxed);
        conn->write_line(render_ok(request.id, {}));
        {
          const std::lock_guard<std::mutex> lock(shutdown_mutex);
          shutdown_requested = true;
        }
        shutdown_cv.notify_all();
        return;
      case Request::Op::Eval:
        admit_eval(conn, std::move(request));
        return;
    }
  }

  void reader_loop(const std::shared_ptr<Connection>& conn) {
    std::string acc;
    bool discarding = false;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i) {
        const char c = buf[i];
        if (c != '\n') {
          if (!discarding) {
            acc.push_back(c);
            if (acc.size() > options.max_request_bytes) {
              // Bounded input: reject and skip to the next newline. The
              // accumulated prefix is dropped, so a hostile client cannot
              // make the daemon buffer an unbounded line.
              requests.fetch_add(1, std::memory_order_relaxed);
              invalid.fetch_add(1, std::memory_order_relaxed);
              conn->write_line(render_error(
                  "", ErrorCode::kInvalidRequest,
                  "request exceeds " +
                      std::to_string(options.max_request_bytes) +
                      " bytes; line discarded"));
              acc.clear();
              discarding = true;
            }
          }
          continue;
        }
        if (discarding) {
          discarding = false;  // the oversized line finally ended
          continue;
        }
        if (!acc.empty() && acc.back() == '\r') acc.pop_back();
        if (!acc.empty()) handle_line(conn, acc);
        acc.clear();
      }
    }
    conn->done.store(true, std::memory_order_release);
  }

  /// Reaps connections whose readers finished and retries buffered
  /// writes on the live ones. Runs on every accept-loop tick, not just on
  /// the next accept: a long-lived daemon whose clients all left must not
  /// sit on their dead fds and un-joined reader threads until shutdown.
  void sweep_connections() {
    const std::lock_guard<std::mutex> lock(conn_mutex);
    for (auto it = connections.begin(); it != connections.end();) {
      if (!(*it)->done.load(std::memory_order_acquire)) {
        (*it)->flush();
        ++it;
        continue;
      }
      if ((*it)->reader.joinable()) (*it)->reader.join();
      // A queued eval may still hold this Connection and respond into
      // it; closing now could hand the fd number to a new client and
      // misdeliver that response. Keep it until we are the last owner.
      if (it->use_count() > 1) {
        ++it;
        continue;
      }
      ::close((*it)->fd);
      it = connections.erase(it);
    }
  }

  void accept_loop() {
    while (!stopping.load(std::memory_order_acquire)) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {stop_pipe[0], POLLIN, 0}};
      // The timeout turns the loop into the connection maintenance tick.
      if (::poll(fds, 2, 250) < 0) continue;
      if (fds[1].revents != 0) return;  // stop() wrote the wake byte
      sweep_connections();
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      connections_total.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      {
        const std::lock_guard<std::mutex> lock(conn_mutex);
        connections.push_back(conn);
      }
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
    }
  }

  ServeStats snapshot_stats() const {
    ServeStats out;
    out.connections = connections_total.load(std::memory_order_relaxed);
    out.requests = requests.load(std::memory_order_relaxed);
    out.ok = ok.load(std::memory_order_relaxed);
    out.degraded = degraded.load(std::memory_order_relaxed);
    out.shed = shed.load(std::memory_order_relaxed);
    out.deadline_exceeded = deadline_exceeded.load(std::memory_order_relaxed);
    out.invalid = invalid.load(std::memory_order_relaxed);
    out.eval_errors = eval_errors.load(std::memory_order_relaxed);
    out.cancelled_evals = cancelled_evals.load(std::memory_order_relaxed);
    out.snapshots_written = snapshots_written.load(std::memory_order_relaxed);
    out.snapshot_write_failures =
        snapshot_write_failures.load(std::memory_order_relaxed);
    out.restored_entries = restored_entries.load(std::memory_order_relaxed);
    out.snapshot_load_failed =
        snapshot_load_failed.load(std::memory_order_relaxed);
    const std::int64_t started = start_ns.load(std::memory_order_relaxed);
    if (started != 0) {
      out.uptime_ms =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now().time_since_epoch())
                  .count() -
              started) /
          1e6;
    }
    return out;
  }
};

Server::Server(const Context& ctx, ServeOptions options,
               const FaultPlan* faults)
    : impl_(std::make_unique<Impl>()) {
  impl_->ctx = &ctx;
  if (options.workers <= 0)
    options.workers = static_cast<int>(std::thread::hardware_concurrency());
  if (options.workers <= 0) options.workers = 1;
  if (options.shards <= 0) options.shards = options.workers;
  impl_->options = std::move(options);
  impl_->faults = faults;
  impl_->service = std::make_unique<EvalService>(
      ctx, EvalService::Options(
               impl_->options.cache_capacity,
               static_cast<std::size_t>(impl_->options.shards)));
}

Server::~Server() { stop(); }

Status Server::start() {
  if (impl_->running.load(std::memory_order_acquire))
    return Status::failed_precondition("server is already running");
  impl_->stopping.store(false, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
    impl_->shutdown_requested = false;
  }
  const Status bound = impl_->bind_socket();
  if (!bound.is_ok()) return bound;
  if (::pipe(impl_->stop_pipe) != 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    return Status::internal("pipe() failed");
  }
  impl_->load_snapshot();
  impl_->start_ns.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  impl_->running.store(true, std::memory_order_release);
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  impl_->watchdog = std::thread([this] { impl_->watchdog_loop(); });
  impl_->workers.reserve(static_cast<std::size_t>(impl_->options.workers));
  for (int i = 0; i < impl_->options.workers; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  return Status::ok();
}

void Server::stop() {
  if (!impl_->running.exchange(false, std::memory_order_acq_rel)) return;
  impl_->stopping.store(true, std::memory_order_release);

  // 1. Stop accepting: wake the poll, join, close the listening socket.
  const char wake = 'x';
  (void)!::write(impl_->stop_pipe[1], &wake, 1);
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  ::close(impl_->stop_pipe[0]);
  ::close(impl_->stop_pipe[1]);
  impl_->stop_pipe[0] = impl_->stop_pipe[1] = -1;
  ::unlink(impl_->options.socket_path.c_str());

  // 2. Unblock and join every connection reader. The fds stay open until
  // the workers are joined: a worker mid-response may still write to one,
  // and writing to an already-recycled descriptor would be worse than a
  // harmless EPIPE on a shut-down socket.
  {
    const std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    for (const auto& conn : impl_->connections)
      ::shutdown(conn->fd, SHUT_RDWR);
    for (const auto& conn : impl_->connections)
      if (conn->reader.joinable()) conn->reader.join();
  }

  // 3. Wake and join workers and the watchdog. Taking each lock before
  // notifying closes the lost-wakeup window (a thread between its
  // predicate check and the actual wait). Queued requests are dropped:
  // their connections are gone, so there is nobody to answer.
  { const std::lock_guard<std::mutex> lock(impl_->queue_mutex); }
  impl_->queue_cv.notify_all();
  { const std::lock_guard<std::mutex> lock(impl_->watch_mutex); }
  impl_->watch_cv.notify_all();
  for (std::thread& worker : impl_->workers)
    if (worker.joinable()) worker.join();
  impl_->workers.clear();
  if (impl_->watchdog.joinable()) impl_->watchdog.join();
  {
    const std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->analytic_q.clear();
    impl_->des_q.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->watch_mutex);
    impl_->watched.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    for (const auto& conn : impl_->connections) ::close(conn->fd);
    impl_->connections.clear();
  }

  // 4. Release wait()ers.
  {
    const std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
    impl_->shutdown_requested = true;
  }
  impl_->shutdown_cv.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(impl_->shutdown_mutex);
  impl_->shutdown_cv.wait(lock, [this] { return impl_->shutdown_requested; });
}

ServeStats Server::stats() const { return impl_->snapshot_stats(); }

const std::string& Server::socket_path() const {
  return impl_->options.socket_path;
}

}  // namespace wave::serve
