// Simulated MPI on a cluster of multi-core nodes.
//
// This is the repository's stand-in for the Cray XT4 testbed: a
// mechanistic discrete-event model of blocking MPI point-to-point
// communication configured by the same Table 2 LogGP parameters the
// analytic model uses — but *not* by the analytic model's closed forms.
// Costs arise from the protocol steps:
//
//   eager, off-node  (S <= eager limit):
//     sender CPU o (serialized per node on the NIC engine) -> DMA window
//     I = odma + S*Gdma on the sender node's shared bus -> wire S*G + L ->
//     DMA window I on the receiver node's bus -> receiver CPU o.
//   rendezvous, off-node (S > eager limit):
//     sender CPU o -> REQ wire L -> (receive posted) ACK wire L -> sender
//     CPU o -> bus/wire/bus as above -> receiver CPU o.
//   eager, on-chip:
//     sender CPU ocopy -> copy S*Gcopy -> receiver CPU ocopy.
//   large, on-chip:
//     sender CPU o = ocopy + odma -> (receive posted) shared-bus DMA
//     S*Gdma -> receiver CPU ocopy.
//
// In the uncontended case these reproduce Table 1 exactly (tested); under
// load, queueing on the per-node NIC engine and shared bus produces
// contention *emergently*, which is what the model's fixed interference
// term I approximates. Blocking MPI semantics (send returns per eqs. 3/4a/
// 7/8a; rendezvous waits for the matching receive) are preserved, so
// pipelined wavefront schedules — including their stalls — are simulated
// faithfully.
//
// The fabric is allocation-free in steady state: messages, posted
// receives and isend requests are recycled through per-Mpi slab pools.
// Each rank owns one 64-byte record holding everything its protocol events
// touch: its inbox, its MPI busy total, and its open operation — the
// coroutine blocked in it, its post time and how many completions it
// still awaits. A rank awaits one operation at a time, so a protocol
// completion is just {rank record, isend request}: 16 trivially copyable
// bytes that charge the busy time and count the operation down when they
// run. Messages and posted receives store none: a receive completes its
// own rank's operation, and a send its sender's or its isend request, so
// a message is one 64-byte cache line and a posted receive 16 bytes.
// Matching works like a real MPI library's: each destination rank's
// inbox holds an unexpected-message FIFO and a posted-receive FIFO, both
// intrusive lists. A send takes the oldest posted receive for its source,
// a receive the oldest unmatched message from its source, so every
// (src, dst) pair stays FIFO. Wavefront traffic keeps both lists short;
// the longest scan is reported as max_match_scan() (docs/PERFORMANCE.md).
#pragma once

#include <bit>
#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/pool.h"
#include "loggp/params.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/observers.h"
#include "sim/process.h"
#include "sim/resource.h"

namespace wave::sim {

/// Protocol knobs beyond the Table-2 parameters, mirroring the selected
/// analytic comm backend so model and "measurement" share assumptions.
struct ProtocolOptions {
  /// Extra sender-side CPU time charged when a rendezvous ACK is
  /// processed (the LogGPS synchronization cost s). 0 = pure LogGP, the
  /// paper's protocol.
  usec rendezvous_sync = 0.0;

  bool operator==(const ProtocolOptions&) const = default;
};

/// One step of a collective schedule: the point-to-point operation a rank
/// posts, and with whom (RankCtx::step awaits it).
struct CollectiveStep {
  enum class Op : std::uint8_t { kSend, kRecv, kExchange };
  Op op = Op::kExchange;
  int peer = -1;
};

/// Recursive-doubling MPI_Allreduce as a step schedule: every rank of the
/// world runs its own schedule with the same payload. A rank program loops
/// over the steps in its own coroutine frame, so a collective costs no
/// frame of its own:
///
///   for (int s = 0; s < allreduce.steps(); ++s)
///     co_await ctx.step(allreduce[s], bytes);
///
/// The log2(p2) pairwise exchanges run among the largest power-of-two core
/// p2 <= size. Other world sizes use the standard fold: each excess rank
/// r >= p2 first sends its value to partner r - p2, waits out the
/// recursive doubling, and receives the result back.
class AllreduceSchedule {
 public:
  AllreduceSchedule(int rank, int size) : rank_(rank), size_(size) {
    WAVE_EXPECTS(rank >= 0 && rank < size);
    while (pow2_ * 2 <= size) pow2_ *= 2;
  }

  /// Number of steps this rank posts.
  int steps() const {
    if (rank_ >= pow2_) return 2;
    return std::countr_zero(static_cast<unsigned>(pow2_)) + 2 * folds();
  }

  /// Step `s` of steps(), in posting order.
  CollectiveStep operator[](int s) const {
    WAVE_EXPECTS(s >= 0 && s < steps());
    using Op = CollectiveStep::Op;
    if (rank_ >= pow2_) return {s == 0 ? Op::kSend : Op::kRecv, rank_ - pow2_};
    if (folds() == 1) {
      if (s == 0) return {Op::kRecv, rank_ + pow2_};
      if (s == steps() - 1) return {Op::kSend, rank_ + pow2_};
      --s;
    }
    return {Op::kExchange, rank_ ^ (1 << s)};
  }

 private:
  /// 1 when this rank folds in an excess partner, else 0.
  int folds() const { return rank_ + pow2_ < size_ ? 1 : 0; }

  int rank_;
  int size_;
  int pow2_ = 1;
};

/// The message-passing fabric. One instance per simulation.
class Mpi {
 public:
  /// `node_of_rank[r]` places rank r on a node; ranks on the same node
  /// communicate on-chip. Node ids must be dense in [0, max+1).
  Mpi(Engine& engine, loggp::MachineParams params,
      std::vector<int> node_of_rank,
      ProtocolOptions protocol = ProtocolOptions());
  // Out-of-line so the pooled Message type is complete where the slab
  // pool's destructor instantiates.
  ~Mpi();

  int size() const { return static_cast<int>(ranks_.size()); }
  Engine& engine() { return engine_; }
  const loggp::MachineParams& params() const { return params_; }

  /// Total queueing delay accumulated on all shared buses (µs) — the
  /// simulator's measured contention.
  usec bus_wait_total() const;
  /// Total queueing delay on the per-node NIC engines (µs).
  usec nic_wait_total() const;
  /// Messages fully delivered so far.
  std::uint64_t messages_delivered() const { return delivered_; }
  /// Longest inbox scan any send or receive has made so far, counting
  /// every entry it visited, the one it matched included. Long scans mean
  /// many senders queued at one receiver (fan-in).
  std::uint64_t max_match_scan() const { return max_match_scan_; }

  /// Installs (or, with nullptr, removes) a span sink: every awaitable
  /// operation posted through a RankCtx records a timed obs::Span into it
  /// (simulated clock, docs/OBSERVABILITY.md). The sink must outlive the
  /// simulation and be installed before any rank posts an operation.
  /// Strictly inert: detached, the cost is a null test per operation.
  void set_tracer(obs::SpanBuffer* tracer) { tracer_ = tracer; }

  /// Records the span of `rank`'s operation that just completed, from its
  /// post time (the awaitables below call this from await_resume).
  void close_span(obs::Span::Kind kind, int rank, int peer,
                  double bytes) const {
    if (tracer_ != nullptr)
      tracer_->record({kind, rank, peer, bytes, ranks_[rank].op_start,
                       engine_.now()});
  }

  /// Records `rank`'s upcoming compute interval (compute spans are known
  /// in full when posted, so they record eagerly — the awaitable needs no
  /// callback hook).
  void note_compute_span(int rank, usec duration) {
    if (tracer_ != nullptr && duration > 0.0)
      tracer_->record({obs::Span::Kind::kCompute, rank, -1, 0.0,
                       engine_.now(), engine_.now() + duration});
  }

  /// Mean over ranks of the time each spent inside MPI operations (µs):
  /// the interval from each send/receive post to its completion.
  /// The concurrent halves of a halo swap or an exchange step all count,
  /// so this is operation occupancy, not wall-clock blockage. Divided by
  /// the makespan it is the simulator's aggregate communication share
  /// (cf. Fig 11).
  usec mpi_busy_mean() const;

  // ---- Awaitable operations (built only by RankCtx below) ----
  //
  // Each one lives in the awaiting coroutine's frame, one slot per
  // co_await site, for the whole simulation; so they hold only what their
  // operation needs. await_suspend opens the operation in the rank's
  // record (begin()), which also keeps its span start and countdown.

  struct ComputeAwaitable {
    Engine* engine;
    usec duration;
    bool await_ready() const noexcept { return duration <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) const {
      engine->after(duration, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };

  struct SendAwaitable {
    Mpi* mpi;
    int src, dst, bytes;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      mpi->begin(src, h, 1);
      mpi->start_send(src, dst, bytes);
    }
    void await_resume() const noexcept {
      mpi->close_span(obs::Span::Kind::kSend, src, dst, bytes);
    }
  };

  struct RecvAwaitable {
    Mpi* mpi;
    int dst, src;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      mpi->begin(dst, h, 1);
      mpi->post_recv(dst, src);
    }
    void await_resume() const noexcept {
      mpi->close_span(obs::Span::Kind::kRecv, dst, src, 0.0);
    }
  };

  /// Completion token of a nonblocking send (MPI_Request for MPI_Isend).
  /// Acquired from the fabric's recycled pool via make_request(); pass to
  /// isend(), then to wait() exactly once — wait() returns the token to
  /// the pool when it resumes. The rank resumes from isend() after the CPU
  /// injection phase only; the protocol (rendezvous handshake, DMA, wire)
  /// completes in the background.
  struct Request {
    bool done = false;
    bool waited = false;  // a wait() suspended on it
  };
  /// Non-owning handle into the per-Mpi request pool (see Request).
  using RequestHandle = Request*;

  /// A fresh completion token from the recycled pool. Every token must be
  /// passed to wait() exactly once; unwaited tokens are reclaimed only
  /// when the Mpi is destroyed.
  RequestHandle make_request() { return requests_.acquire(); }

  struct IsendAwaitable {
    Mpi* mpi;
    int src, dst, bytes;
    RequestHandle request;  // caller-acquired completion token
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      mpi->begin(src, h, 1);
      mpi->start_isend(src, dst, bytes, request);
    }
    void await_resume() const noexcept {
      // The isend span covers the CPU injection phase only; the blocked
      // remainder shows up as the matching wait span.
      mpi->close_span(obs::Span::Kind::kSend, src, dst, bytes);
    }
  };

  struct WaitAwaitable {
    Mpi* mpi;
    RequestHandle request;
    int rank;  // the waiting rank
    bool await_ready() const noexcept { return request->done; }
    void await_suspend(std::coroutine_handle<> h) {
      request->waited = true;
      mpi->begin(rank, h, 1);
    }
    /// Recycles the token: the request must not be touched after wait().
    void await_resume() const noexcept {
      // A request that was already done never suspended (await_ready
      // short-circuits await_suspend), so it has no wait span.
      if (request->waited)
        mpi->close_span(obs::Span::Kind::kWait, rank, -1, 0.0);
      mpi->requests_.release(request);
    }
  };

  /// One step of a collective schedule (CollectiveStep), posted as the
  /// send, receive or exchange it names: a rank program loops over the
  /// schedule through this single co_await site.
  struct StepAwaitable {
    Mpi* mpi;
    int self;
    CollectiveStep step;
    int bytes;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      switch (step.op) {
        case CollectiveStep::Op::kSend:
          mpi->begin(self, h, 1);
          mpi->start_send(self, step.peer, bytes);
          break;
        case CollectiveStep::Op::kRecv:
          mpi->begin(self, h, 1);
          mpi->post_recv(self, step.peer);
          break;
        case CollectiveStep::Op::kExchange:
          mpi->begin(self, h, 2);
          mpi->start_exchange(self, step.peer, bytes);
          break;
      }
    }
    void await_resume() const noexcept {
      using Op = CollectiveStep::Op;
      using Kind = obs::Span::Kind;
      const Kind kind = step.op == Op::kSend   ? Kind::kSend
                        : step.op == Op::kRecv ? Kind::kRecv
                                               : Kind::kExchange;
      mpi->close_span(kind, self, step.peer,
                      step.op == Op::kRecv ? 0.0 : bytes);
    }
  };

  /// Concurrent sendrecv with up to `kMaxPeers` distinct peers at once
  /// (the bulk-synchronous halo swap of stencil codes, MPI_Neighbor_
  /// alltoall-style): every half of every exchange is posted before any
  /// completes, so the peers' transfers overlap instead of cascading rank
  /// by rank. Build with add(), then co_await; awaiting with no peers
  /// completes immediately. A one-peer swap is a plain MPI_Sendrecv.
  struct HaloExchangeAwaitable {
    /// 4 covers a 2-D face-neighbour halo (W, E, N, S).
    static constexpr int kMaxPeers = 4;

    Mpi* mpi;
    int self;
    int count = 0;  // peers added
    int peers[kMaxPeers] = {-1, -1, -1, -1};
    int bytes[kMaxPeers] = {};  // 0 in unused slots

    /// Adds one peer to the swap; ignored when `peer` is negative (so
    /// callers can pass "neighbour or -1" without branching).
    void add(int peer, int message_bytes) {
      if (peer < 0) return;
      WAVE_EXPECTS_MSG(count < kMaxPeers,
                       "halo exchange supports at most 4 peers");
      peers[count] = peer;
      bytes[count] = message_bytes;
      ++count;
    }

    bool await_ready() const noexcept { return count == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      // Two halves (a send and a receive) per peer count the swap down.
      mpi->begin(self, h, 2 * count);
      for (int slot = 0; slot < count; ++slot)
        mpi->start_exchange(self, peers[slot], bytes[slot]);
    }
    void await_resume() const noexcept {
      // One span for the whole swap (peer -1, bytes = total payload): the
      // per-peer halves overlap, so per-peer spans would just stack.
      if (count == 0) return;  // no peers: nothing was posted
      double total = 0.0;
      for (const int b : bytes) total += b;
      mpi->close_span(obs::Span::Kind::kExchange, self, -1, total);
    }
  };

 private:
  struct Message;
  struct PostedRecv;
  /// Intrusive singly linked FIFO over nodes with `src` and `next` fields.
  template <typename Node>
  struct Fifo {
    Node* head = nullptr;
    Node* tail = nullptr;
    void push_back(Node* node) {
      node->next = nullptr;
      (tail != nullptr ? tail->next : head) = node;
      tail = node;
    }
  };
  /// One rank's record: everything a protocol event touches for the rank,
  /// in one cache line.
  struct alignas(64) Rank {
    // The inbox. At most one of the two lists holds entries for any
    // given source.
    Fifo<Message> unmatched;  // sent here, no receive posted yet; send order
    Fifo<PostedRecv> posted;  // posted, no message yet; post order
    // The open operation (begin()): a rank awaits one at a time.
    std::coroutine_handle<> waiter;  // the coroutine blocked in it
    usec op_start = 0.0;             // its post time
    int remaining = 0;               // completions it still awaits
    int node = 0;                    // the node the rank runs on
    usec busy = 0.0;  // total MPI-operation occupancy (mpi_busy_mean)
  };
  static_assert(sizeof(Rank) == 64, "a rank's record is one cache line");

  /// A protocol completion, run by complete(). It charges the span since
  /// `rank`'s open operation was posted to the rank's busy time and counts
  /// the operation down, resuming the rank at zero. An isend's background
  /// completion also names its `request`: it marks the request done and
  /// does the above only if a wait() is blocked on it. Empty when `rank`
  /// is null.
  struct Completion {
    Rank* rank = nullptr;
    Request* request = nullptr;
    explicit operator bool() const { return rank != nullptr; }
  };
  /// A receive posted before its message arrived. Only post_recv posts
  /// one, so its completion is always op_done(dst) of the inbox it is in.
  struct PostedRecv {
    int src = -1;
    PostedRecv* next = nullptr;
  };
  static_assert(sizeof(PostedRecv) == 16);

  /// Opens `rank`'s next operation: `h` resumes once `completions`
  /// completions of it have run.
  void begin(int rank, std::coroutine_handle<> h, int completions) {
    WAVE_EXPECTS(rank >= 0 && rank < size());
    Rank& r = ranks_[rank];
    WAVE_EXPECTS_MSG(r.remaining == 0,
                     "a rank awaits one operation at a time");
    r.waiter = h;
    r.op_start = engine_.now();
    r.remaining = completions;
  }
  /// The completion of `rank`'s open operation.
  Completion op_done(int rank) { return {&ranks_[rank], nullptr}; }
  /// Runs `c` (see Completion).
  void complete(Completion c) {
    if (c.request != nullptr) {
      c.request->done = true;
      if (!c.request->waited) return;
    }
    Rank& r = *c.rank;
    r.busy += engine_.now() - r.op_start;
    if (--r.remaining == 0) r.waiter.resume();
  }
  /// Schedules complete(c) at `time`.
  void complete_at(usec time, Completion c) {
    engine_.at(time, [this, c] { complete(c); });
  }

  void start_send(int src, int dst, int bytes) {
    post_send(src, dst, bytes, nullptr);
  }
  void start_isend(int src, int dst, int bytes, RequestHandle request);
  /// Posts both halves of one sendrecv with `peer`.
  void start_exchange(int self, int peer, int bytes) {
    post_recv(self, peer);
    post_send(self, peer, bytes, nullptr);
  }
  /// Posts a send. Its protocol completion completes src's open operation
  /// or, for an isend, `request`; an isend's CPU injection phase then
  /// completes src's open operation.
  void post_send(int src, int dst, int bytes, Request* request);
  void post_recv(int dst, int src);
  void match(Message* msg, usec time);
  void maybe_ack(Message* msg);
  void schedule_offnode_data(Message* msg, usec departure_ready);
  void start_onchip_dma(Message* msg);
  void deliver(Message* msg);
  void complete_receive(Message* msg);
  /// The completion of `msg`'s rendezvous send (op_done(src), or its isend
  /// request's).
  Completion send_done(const Message& msg);
  usec recv_overhead(const Message& msg) const;
  usec interference(int bytes) const;
  /// Unlinks and returns the oldest node from `src`, or nullptr.
  template <typename Node>
  Node* take_oldest(Fifo<Node>& fifo, int src);

  Engine& engine_;
  loggp::MachineParams params_;
  ProtocolOptions protocol_;
  std::vector<Rank> ranks_;
  // Per-node DMA engines. The shared bus of a CMP node serializes the
  // cores' concurrent transfers (Table 6's contention source); transmit and
  // receive directions have independent DMA queues as on real NICs, so a
  // single core's own send and receive never collide (the ping-pong
  // equations have no such term).
  std::vector<FifoResource> tx_bus_;
  std::vector<FifoResource> rx_bus_;
  std::vector<FifoResource> nic_;  // per node: NIC/MPI engine (CPU o phases)
  // Recycled protocol objects (see pool.h): allocation-free after warm-up.
  common::SlabPool<Message> messages_;
  common::SlabPool<PostedRecv> posted_recvs_;
  common::SlabPool<Request> requests_;
  std::uint64_t delivered_ = 0;
  std::uint64_t max_match_scan_ = 0;
  // Optional span sink (see set_tracer); observation-only by contract.
  obs::SpanBuffer* tracer_ = nullptr;
};

/// A rank's view of the fabric, passed by value into rank programs.
class RankCtx {
 public:
  RankCtx(Mpi& mpi, int rank) : mpi_(&mpi), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return mpi_->size(); }
  Mpi& mpi() const { return *mpi_; }

  /// Busy-compute for `duration` µs of simulated time.
  Mpi::ComputeAwaitable compute(usec duration) const {
    // ComputeAwaitable is engine-only (no rank), so its span is recorded
    // eagerly here where the rank is known; the end time is deterministic.
    mpi_->note_compute_span(rank_, duration);
    return {&mpi_->engine(), duration};
  }
  /// Blocking MPI_Send of `bytes` to `dst`.
  Mpi::SendAwaitable send(int dst, int bytes) const {
    return {mpi_, rank_, dst, bytes};
  }
  /// Blocking MPI_Recv from `src`.
  Mpi::RecvAwaitable recv(int src) const { return {mpi_, rank_, src}; }
  /// A pooled isend completion token (see Mpi::make_request).
  Mpi::RequestHandle make_request() const { return mpi_->make_request(); }
  /// Nonblocking MPI_Isend: resumes after the CPU injection phase and
  /// completes (via `request`) in the background; pass it to wait().
  Mpi::IsendAwaitable isend(int dst, int bytes,
                            Mpi::RequestHandle request) const {
    return {mpi_, rank_, dst, bytes, request};
  }
  /// MPI_Wait on an isend request (recycles the token on resume).
  Mpi::WaitAwaitable wait(Mpi::RequestHandle request) const {
    return {mpi_, request, rank_};
  }
  /// Posts one step of a collective schedule (e.g. AllreduceSchedule).
  Mpi::StepAwaitable step(CollectiveStep step, int bytes) const {
    return {.mpi = mpi_, .self = rank_, .step = step, .bytes = bytes};
  }
  /// An empty concurrent multi-neighbour halo swap; add() peers, then
  /// co_await.
  Mpi::HaloExchangeAwaitable halo_exchange() const {
    return {.mpi = mpi_, .self = rank_};
  }

 private:
  Mpi* mpi_;
  int rank_;
};

/// Convenience owner of the engine, the fabric, and the top-level rank
/// processes; detects deadlock (unfinished processes after the event
/// calendar drains) and propagates rank exceptions.
class World {
 public:
  World(loggp::MachineParams params, std::vector<int> node_of_rank,
        ProtocolOptions protocol = ProtocolOptions(),
        Observers observers = Observers());

  Engine& engine() { return engine_; }
  Mpi& mpi() { return mpi_; }
  RankCtx ctx(int rank) { return RankCtx(mpi_, rank); }

  /// Registers a top-level process, started at time 0 in spawn order.
  void spawn(std::string name, Process process);

  /// Runs to completion. Returns the simulated makespan (µs). Throws
  /// std::runtime_error naming blocked processes on deadlock, and rethrows
  /// the first process exception if any occurred.
  usec run();

 private:
  /// Publishes post-run engine/fabric counters and health gauges into
  /// observers_.metrics.
  void publish_metrics();

  Observers observers_;
  Engine engine_;
  Mpi mpi_;
  std::vector<std::pair<std::string, Process>> processes_;
  bool started_ = false;
};

}  // namespace wave::sim
