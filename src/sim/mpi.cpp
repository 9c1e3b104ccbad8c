#include "sim/mpi.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/contracts.h"
#include "obs/metrics.h"

namespace wave::sim {

/// One in-flight point-to-point message and its protocol state. Acquired
/// from the per-Mpi slab pool at post_send and recycled at
/// complete_receive, after which no event references it.
struct Mpi::Message {
  int src = -1, dst = -1;
  int src_node = -1, dst_node = -1;  // cached placement (hot-path lookups)
  int bytes = 0;
  bool on_chip = false;
  bool large = false;

  bool delivered = false;      // payload fully at the receiver
  bool req_arrived = false;    // rendezvous request reached the receiver
  bool acked = false;          // rendezvous ACK issued
  bool matched = false;        // a receive has been matched to this message
  bool dma_started = false;    // on-chip large transfer kicked off
  usec send_ready = 0.0;       // sender-side CPU phase completion time
  usec match_time = 0.0;
  // Cross-LP rendezvous only: the sender shard's PendingSend*, opaque on
  // this shard, echoed back in the ACK envelope. Non-null marks a message
  // whose sender lives on another LP.
  void* peer = nullptr;

  Completion sender;    // blocked sender's completion (rendezvous paths)
  Completion receiver;  // matched, blocked receiver's completion
};

/// Sender-shard half of a cross-LP rendezvous send: parked between the
/// REQ envelope going out and the ACK envelope coming back. Pooled like
/// Message; released when the ACK effect event runs.
struct Mpi::PendingSend {
  int src = -1, dst = -1;
  int bytes = 0;
  Completion done;  // blocked sender's completion
};

Mpi::Mpi(Engine& engine, loggp::MachineParams params,
         std::vector<int> node_of_rank, ProtocolOptions protocol)
    : engine_(engine),
      params_(params),
      protocol_(protocol),
      node_of_rank_(std::move(node_of_rank)) {
  params_.validate();
  WAVE_EXPECTS_MSG(protocol_.rendezvous_sync >= 0,
                   "rendezvous sync must be non-negative");
  WAVE_EXPECTS_MSG(!node_of_rank_.empty(), "need at least one rank");
  int max_node = 0;
  for (int node : node_of_rank_) {
    WAVE_EXPECTS_MSG(node >= 0, "node ids must be non-negative");
    max_node = std::max(max_node, node);
  }
  tx_bus_.resize(static_cast<std::size_t>(max_node) + 1);
  rx_bus_.resize(static_cast<std::size_t>(max_node) + 1);
  nic_.resize(static_cast<std::size_t>(max_node) + 1);
  mpi_busy_.assign(node_of_rank_.size(), 0.0);
  // Near-neighbour workloads materialize O(ranks) of the ranks^2 possible
  // channels (4 neighbours in each direction plus ~2 log2 P collective
  // partners per rank); pre-size for the common wavefront footprint —
  // enough that a pure-neighbour run never rehashes, while collective-
  // heavy runs pay at most a couple of amortized rehashes — capped so
  // degenerate huge worlds don't balloon the empty table.
  channels_.reserve_keys(
      std::min<std::size_t>(node_of_rank_.size() * 24 + 64, 1u << 20));
}

Mpi::~Mpi() = default;

usec Mpi::mpi_busy(int rank) const {
  WAVE_EXPECTS(rank >= 0 && rank < size());
  return mpi_busy_[rank];
}

usec Mpi::mpi_busy_mean() const {
  usec sum = 0.0;
  for (usec t : mpi_busy_) sum += t;
  return sum / static_cast<double>(mpi_busy_.size());
}

int Mpi::node_of(int rank) const {
  WAVE_EXPECTS(rank >= 0 && rank < size());
  return node_of_rank_[rank];
}

usec Mpi::bus_wait_total() const {
  usec total = 0.0;
  for (const auto& b : tx_bus_) total += b.wait_total();
  for (const auto& b : rx_bus_) total += b.wait_total();
  return total;
}

usec Mpi::nic_wait_total() const {
  usec total = 0.0;
  for (const auto& n : nic_) total += n.wait_total();
  return total;
}

Mpi::Channel& Mpi::channel(int src, int dst) {
  const auto key =
      static_cast<std::uint64_t>(src) << 32U | static_cast<std::uint32_t>(dst);
  return channels_[key];
}

usec Mpi::interference(int bytes) const {
  return params_.on.odma() + static_cast<double>(bytes) * params_.on.Gdma;
}

usec Mpi::recv_overhead(const Message& msg) const {
  return msg.on_chip ? params_.on.ocopy : params_.off.o;
}

void Mpi::start_send(int src, int dst, int bytes, std::coroutine_handle<> h) {
  post_send(src, dst, bytes, with_busy(src, [h] { h.resume(); }));
}

void Mpi::start_isend(int src, int dst, int bytes, RequestHandle request,
                      std::coroutine_handle<> h) {
  WAVE_EXPECTS_MSG(request != nullptr, "isend needs a Request token");
  post_send(
      src, dst, bytes,
      // Protocol completion: fulfil the request and wake a waiter. Time a
      // rank spends blocked in wait() counts as MPI occupancy.
      [this, src, req = request] {
        req->done = true;
        if (req->waiter) {
          if (req->wait_started >= 0.0)
            mpi_busy_[src] += engine_.now() - req->wait_started;
          auto w = req->waiter;
          req->waiter = nullptr;
          w.resume();
        }
      },
      // CPU injection phase done: the rank resumes and may compute while
      // the protocol continues in the background.
      with_busy(src, [h] { h.resume(); }));
}

void Mpi::start_recv(int dst, int src, std::coroutine_handle<> h) {
  post_recv(dst, src, [h] { h.resume(); });
}

void Mpi::start_exchange(int self, int peer, int bytes, int* remaining,
                         std::coroutine_handle<> h) {
  // Post both halves at once; resume when the second completes. The
  // counter lives in the exchange awaitable (the awaiting coroutine's
  // frame), which outlives both completions.
  auto arm = [remaining, h] {
    if (--*remaining == 0) h.resume();
  };
  post_recv(self, peer, arm);
  post_send(self, peer, bytes, with_busy(self, arm));
}

void Mpi::post_send(int src, int dst, int bytes, Completion done,
                    Completion cpu_done) {
  WAVE_EXPECTS(src >= 0 && src < size() && dst >= 0 && dst < size());
  WAVE_EXPECTS_MSG(src != dst, "self-sends are not modelled");
  WAVE_EXPECTS(bytes >= 0);

  if (remote_send(src, dst)) {
    post_send_remote(src, dst, bytes, std::move(done), std::move(cpu_done));
    return;
  }

  // Dirty acquire + explicit init of every field: a recycled message's
  // sender/receiver tasks are always empty (complete_receive moved them
  // out before release), so no InlineTask reset machinery runs here.
  Message* msg = messages_.acquire_dirty();
  msg->src = src;
  msg->dst = dst;
  msg->src_node = node_of_rank_[src];
  msg->dst_node = node_of_rank_[dst];
  msg->bytes = bytes;
  msg->on_chip = msg->src_node == msg->dst_node;
  msg->large = bytes > params_.eager_limit_bytes;
  msg->delivered = false;
  msg->req_arrived = false;
  msg->acked = false;
  msg->matched = false;
  msg->dma_started = false;
  msg->send_ready = 0.0;
  msg->match_time = 0.0;
  msg->peer = nullptr;

  Channel& ch = channel(src, dst);
  ch.unmatched.push_back(msg);

  const usec now = engine_.now();
  if (msg->on_chip) {
    if (!msg->large) {
      // Eager on-chip: sender occupied ocopy (eq. 7), copy takes S*Gcopy.
      // The copy runs through the node's shared memory bus, so concurrent
      // copies by sibling cores serialize (the C factor of eq. 9).
      const usec ocopy = params_.on.ocopy;
      const usec inject_done =
          tx_bus_[msg->src_node].reserve(now, ocopy) + ocopy;
      if (cpu_done) engine_.at(inject_done, std::move(cpu_done));
      engine_.at(inject_done, std::move(done));
      const usec ready =
          inject_done + static_cast<double>(bytes) * params_.on.Gcopy;
      engine_.at(ready, [this, msg] { deliver(msg); });
    } else {
      // Large on-chip: sender pays o = ocopy + odma (eq. 8a), then the DMA
      // waits for the receive to be posted (shared-memory rendezvous with
      // negligible handshake cost).
      msg->sender = std::move(done);
      msg->send_ready = now + params_.on.o;
      if (cpu_done) engine_.at(msg->send_ready, std::move(cpu_done));
      // A freshly posted message cannot be matched yet; the waiting-recv
      // check at the bottom of this function starts the DMA via match().
    }
  } else {
    // Off-node sends serialize their CPU/NIC phase on the node's MPI
    // engine; uncontended this is exactly o.
    FifoResource& nic = nic_[msg->src_node];
    const usec inject_done =
        nic.reserve(now, params_.off.o) + params_.off.o;
    if (cpu_done) engine_.at(inject_done, std::move(cpu_done));
    if (!msg->large) {
      // Eager: MPI_Send returns after o (eq. 3); the payload departs then.
      engine_.at(inject_done, std::move(done));
      schedule_offnode_data(msg, inject_done);
    } else {
      // Rendezvous: request goes out after o; MPI_Send blocks for the ACK.
      msg->sender = std::move(done);
      engine_.at(inject_done + params_.off.L + params_.off.oh, [this, msg] {
        msg->req_arrived = true;
        maybe_ack(msg);
      });
    }
  }

  // A receive may already be queued waiting on this channel.
  if (!ch.waiting_recvs.empty()) {
    Completion recv = ch.waiting_recvs.pop_front();
    WAVE_ENSURES(!ch.unmatched.empty());
    Message* head = ch.unmatched.pop_front();
    match(head, std::move(recv), now);
  }
}

template <typename F>
void Mpi::post_recv(int dst, int src, F done) {
  WAVE_EXPECTS(src >= 0 && src < size() && dst >= 0 && dst < size());
  // Charge the post-to-completion span to the receiver's MPI occupancy.
  // Wrapped before type erasure so the capture fits InlineTask's budget.
  auto busy_done = [this, dst, t0 = engine_.now(),
                    inner = std::move(done)]() mutable {
    mpi_busy_[dst] += engine_.now() - t0;
    inner();
  };
  Channel& ch = channel(src, dst);
  if (!ch.unmatched.empty()) {
    Message* msg = ch.unmatched.pop_front();
    match(msg, std::move(busy_done), engine_.now());
  } else {
    ch.waiting_recvs.push_back(std::move(busy_done));
  }
}

// ---- LP sharding ------------------------------------------------------------

void Mpi::bind_shard(int lp, int n_lps, const std::vector<int>& lp_of_node) {
  WAVE_EXPECTS(lp >= 0 && lp < n_lps);
  WAVE_EXPECTS_MSG(lp_of_node.size() == nic_.size(),
                   "lp_of_node must cover every node");
  lp_ = lp;
  n_lps_ = n_lps;
  lp_of_node_ = &lp_of_node;
  outbox_.resize(static_cast<std::size_t>(n_lps));
}

void Mpi::emit(int dst_lp, Envelope e) {
  e.src_lp = lp_;
  e.seq = env_seq_++;
  outbox_[static_cast<std::size_t>(dst_lp)].push_back(e);
}

void Mpi::post_send_remote(int src, int dst, int bytes, Completion done,
                           Completion cpu_done) {
  // Mirror of post_send's off-node arm with every receiver-side step
  // re-expressed as an envelope. No Message exists on this shard — the
  // channel, and therefore matching, live with the receiver.
  const usec now = engine_.now();
  const int src_node = node_of_rank_[src];
  const bool large = bytes > params_.eager_limit_bytes;
  FifoResource& nic = nic_[src_node];
  const usec inject_done = nic.reserve(now, params_.off.o) + params_.off.o;
  if (cpu_done) engine_.at(inject_done, std::move(cpu_done));
  if (!large) {
    // Eager: MPI_Send returns after o; the payload departs then. The
    // sender-side half of schedule_offnode_data runs here; the receiver
    // half (rx-bus window + deliver) ships in the envelope.
    engine_.at(inject_done, std::move(done));
    const usec i_window = interference(bytes);
    const usec departure = tx_bus_[src_node].reserve(inject_done, i_window);
    const usec tail = departure + static_cast<double>(bytes) * params_.off.G +
                      params_.off.L;
    Envelope e{};
    e.kind = Envelope::kEagerData;
    e.src = src;
    e.dst = dst;
    e.bytes = bytes;
    e.order = now;
    e.rstart = std::max(0.0, tail - i_window);
    e.tail = tail;
    emit(lp_of_rank(dst), e);
  } else {
    // Rendezvous: the blocked sender parks here until the ACK envelope
    // comes back; the REQ's receiver-side event ships now.
    PendingSend* ps = pending_sends_.acquire_dirty();
    ps->src = src;
    ps->dst = dst;
    ps->bytes = bytes;
    ps->done = std::move(done);
    Envelope e{};
    e.kind = Envelope::kRdvReq;
    e.src = src;
    e.dst = dst;
    e.bytes = bytes;
    e.order = now;
    e.effect = inject_done + params_.off.L + params_.off.oh;
    e.token = ps;
    emit(lp_of_rank(dst), e);
  }
}

void Mpi::ingest(const Envelope& e) {
  switch (e.kind) {
    case Envelope::kEagerData:
    case Envelope::kRdvReq: {
      // Receiver-side message creation, exactly as post_send would have
      // done at time e.order on the serial engine.
      Message* msg = messages_.acquire_dirty();
      msg->src = e.src;
      msg->dst = e.dst;
      msg->src_node = node_of_rank_[e.src];
      msg->dst_node = node_of_rank_[e.dst];
      msg->bytes = e.bytes;
      msg->on_chip = false;
      msg->large = e.kind == Envelope::kRdvReq;
      msg->delivered = false;
      msg->req_arrived = false;
      msg->acked = false;
      msg->matched = false;
      msg->dma_started = false;
      msg->send_ready = 0.0;
      msg->match_time = 0.0;
      msg->peer = e.token;  // non-null only for kRdvReq
      Channel& ch = channel(e.src, e.dst);
      ch.unmatched.push_back(msg);
      if (e.kind == Envelope::kEagerData) {
        // The rx-bus window reservation happens here, at the barrier, but
        // in e.order order across all senders — the serial call order.
        const usec i_window = interference(e.bytes);
        const usec ready =
            rx_bus_[msg->dst_node].reserve(e.rstart, i_window) + i_window;
        engine_.at(std::max(ready, e.tail), [this, msg] { deliver(msg); });
      } else {
        engine_.at(e.effect, [this, msg] {
          msg->req_arrived = true;
          maybe_ack(msg);
        });
      }
      // A receive may already be queued waiting on this channel. (For a
      // rendezvous message the match alone has no effect: the REQ event
      // above fires the ACK, as in the serial fabric.)
      if (!ch.waiting_recvs.empty()) {
        Completion recv = ch.waiting_recvs.pop_front();
        WAVE_ENSURES(!ch.unmatched.empty());
        Message* head = ch.unmatched.pop_front();
        match(head, std::move(recv), e.order);
      }
      break;
    }
    case Envelope::kRdvAck: {
      // Back on the sender shard: replay the serial ACK-arrival event —
      // sender-side CPU phase, MPI_Send return, and the data departure,
      // whose receiver half ships as a kRdvData envelope.
      auto* ps = static_cast<PendingSend*>(e.token);
      engine_.at(e.effect, [this, ps, peer = e.msg] {
        Completion sender = std::move(ps->done);
        const usec hold = params_.off.o + protocol_.rendezvous_sync;
        const int src_node = node_of_rank_[ps->src];
        const usec cpu_done = nic_[src_node].reserve(engine_.now(), hold) + hold;
        engine_.at(cpu_done, std::move(sender));
        const usec i_window = interference(ps->bytes);
        const usec departure = tx_bus_[src_node].reserve(cpu_done, i_window);
        const usec tail = departure +
                          static_cast<double>(ps->bytes) * params_.off.G +
                          params_.off.L;
        Envelope d{};
        d.kind = Envelope::kRdvData;
        d.src = ps->src;
        d.dst = ps->dst;
        d.bytes = ps->bytes;
        d.order = engine_.now();
        d.rstart = std::max(0.0, tail - i_window);
        d.tail = tail;
        d.msg = peer;
        emit(lp_of_rank(ps->dst), d);
        pending_sends_.release(ps);
      });
      break;
    }
    case Envelope::kRdvData: {
      // Receiver half of schedule_offnode_data for the parked message.
      auto* msg = static_cast<Message*>(e.msg);
      const usec i_window = interference(e.bytes);
      const usec ready =
          rx_bus_[msg->dst_node].reserve(e.rstart, i_window) + i_window;
      engine_.at(std::max(ready, e.tail), [this, msg] { deliver(msg); });
      break;
    }
  }
}

void Mpi::match(Message* msg, Completion recv, usec time) {
  WAVE_ENSURES(!msg->matched);
  msg->matched = true;
  msg->match_time = time;
  msg->receiver = std::move(recv);
  if (msg->delivered) {
    // Payload already queued at the receiver: pay the receive processing.
    Completion r = std::move(msg->receiver);
    complete_receive(msg, std::move(r));
    return;
  }
  if (msg->large) {
    if (msg->on_chip) {
      if (msg->sender) start_onchip_dma(msg);
    } else {
      maybe_ack(msg);
    }
  }
  // Eager not yet delivered: deliver() will complete the receive.
}

void Mpi::maybe_ack(Message* msg) {
  if (!msg->matched || !msg->req_arrived || msg->acked) return;
  msg->acked = true;
  if (msg->peer) {
    // Cross-LP: the ACK's effect happens on the sender's shard. Ship it as
    // an envelope; the serial engine would have scheduled the identical
    // event at now + L + oh via the branch below.
    Envelope e{};
    e.kind = Envelope::kRdvAck;
    e.src = msg->src;
    e.dst = msg->dst;
    e.bytes = msg->bytes;
    e.order = engine_.now();
    e.effect = engine_.now() + params_.off.L + params_.off.oh;
    e.token = msg->peer;
    e.msg = msg;
    emit(lp_of_rank(msg->src), e);
    return;
  }
  // ACK wire time L (+oh); on arrival MPI_Send returns (occupancy o + h,
  // eq. 4a) and the sender-side NIC copy (the second o of eq. 2) starts.
  // A LogGPS-style protocol additionally charges the synchronization cost
  // s to this sender-side CPU phase (backends.h).
  engine_.after(params_.off.L + params_.off.oh, [this, msg] {
    Completion sender = std::move(msg->sender);
    const usec hold = params_.off.o + protocol_.rendezvous_sync;
    FifoResource& nic = nic_[msg->src_node];
    const usec cpu_done = nic.reserve(engine_.now(), hold) + hold;
    engine_.at(cpu_done, std::move(sender));
    schedule_offnode_data(msg, cpu_done);
  });
}

void Mpi::schedule_offnode_data(Message* msg, usec departure_ready) {
  // Sender-side DMA window: the payload departs at the bus grant (the
  // wire transfer is cut-through, so an uncontended grant adds no time).
  const usec i_window = interference(msg->bytes);
  FifoResource& sbus = tx_bus_[msg->src_node];
  const usec departure = sbus.reserve(departure_ready, i_window);
  const usec tail_arrival = departure +
                            static_cast<double>(msg->bytes) * params_.off.G +
                            params_.off.L;
  // Receiver-side DMA window ends when the tail lands: reserve the final
  // stretch [tail - I, tail] so an idle bus leaves the arrival unchanged
  // and a busy one pushes the completion back by the queueing delay.
  FifoResource& rbus = rx_bus_[msg->dst_node];
  const usec rstart = std::max(0.0, tail_arrival - i_window);
  const usec ready = rbus.reserve(rstart, i_window) + i_window;
  engine_.at(std::max(ready, tail_arrival), [this, msg] { deliver(msg); });
}

void Mpi::start_onchip_dma(Message* msg) {
  if (msg->dma_started) return;
  msg->dma_started = true;
  const usec start = std::max(msg->send_ready, msg->match_time);
  engine_.at(start, [this, msg] {
    // MPI_Send returns once the DMA is handed off (eq. 8a).
    Completion sender = std::move(msg->sender);
    if (sender) sender();
    FifoResource& dbus = tx_bus_[msg->src_node];
    const usec hold = static_cast<double>(msg->bytes) * params_.on.Gdma;
    const usec done = dbus.reserve(engine_.now(), hold) + hold;
    engine_.at(done, [this, msg] { deliver(msg); });
  });
}

void Mpi::deliver(Message* msg) {
  msg->delivered = true;
  ++delivered_;
  if (!msg->receiver) return;  // receive not yet posted
  Completion recv = std::move(msg->receiver);
  complete_receive(msg, std::move(recv));
}

void Mpi::complete_receive(Message* msg, Completion recv) {
  if (msg->on_chip) {
    if (!msg->large) {
      // The receive-side copy shares the memory bus like the send side.
      const usec ocopy = params_.on.ocopy;
      const usec done =
          tx_bus_[msg->dst_node].reserve(engine_.now(), ocopy) + ocopy;
      engine_.at(done, std::move(recv));
    } else {
      engine_.after(recv_overhead(*msg), std::move(recv));
    }
  } else {
    FifoResource& nic = nic_[msg->dst_node];
    const usec done =
        nic.reserve(engine_.now(), params_.off.o) + params_.off.o;
    engine_.at(done, std::move(recv));
  }
  // The receive completion is scheduled and every sender-side event has
  // been issued: nothing references the message any more — recycle it.
  messages_.release(msg);
}

Process allreduce(RankCtx ctx, int bytes) {
  const int p = ctx.size();
  // Largest power of two <= p.
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rank = ctx.rank();

  // Non-power-of-two rank counts use the standard fold: the excess ranks
  // first contribute their value to a partner below p2, wait out the
  // recursive doubling, and receive the final result back.
  if (rank >= p2) {
    co_await ctx.send(rank - p2, bytes);
    co_await ctx.recv(rank - p2);
    co_return;
  }
  if (rank + p2 < p) co_await ctx.recv(rank + p2);

  // Recursive doubling among the power-of-two core: log2(p2) pairwise
  // overlapped exchanges.
  for (int bit = 1; bit < p2; bit <<= 1) {
    const int partner = rank ^ bit;
    co_await ctx.mpi().exchange(rank, partner, bytes);
  }

  if (rank + p2 < p) co_await ctx.send(rank + p2, bytes);
}

World::World(loggp::MachineParams params, std::vector<int> node_of_rank,
             Mpi::ProtocolOptions protocol, ParallelOptions parallel)
    : parallel_(parallel) {
  WAVE_EXPECTS_MSG(!node_of_rank.empty(), "need at least one rank");
  int max_node = 0;
  for (int node : node_of_rank) max_node = std::max(max_node, node);
  const int nodes = max_node + 1;
  int n_lps = 1;
  if (parallel_.threads > 0) {
    // The partition depends only on the node count and lp_grouping —
    // never on the thread count — so every thread count replays the same
    // per-LP schedule. Ranks sharing a node always share an LP, keeping
    // all on-chip traffic shard-local.
    const int group = parallel_.lp_grouping > 0 ? parallel_.lp_grouping
                                                : (nodes + 15) / 16;
    n_lps = (nodes + group - 1) / group;
    lp_of_node_.resize(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) lp_of_node_[n] = n / group;
  } else {
    lp_of_node_.assign(static_cast<std::size_t>(nodes), 0);
  }
  lookahead_ = params.off.L;
  engines_.reserve(static_cast<std::size_t>(n_lps));
  mpis_.reserve(static_cast<std::size_t>(n_lps));
  for (int l = 0; l < n_lps; ++l) {
    engines_.push_back(std::make_unique<Engine>());
    mpis_.push_back(std::make_unique<Mpi>(*engines_.back(), params,
                                          node_of_rank, protocol));
  }
  if (n_lps > 1) {
    WAVE_EXPECTS_MSG(lookahead_ > 0.0,
                     "parallel worlds need off-node latency L > 0 "
                     "(the conservative lookahead bound)");
    for (int l = 0; l < n_lps; ++l)
      mpis_[static_cast<std::size_t>(l)]->bind_shard(l, n_lps, lp_of_node_);
  }
}

void World::spawn(std::string name, Process process, int rank) {
  WAVE_EXPECTS_MSG(!started_, "cannot spawn after run()");
  WAVE_EXPECTS_MSG(process.valid(), "cannot spawn an empty process");
  int lp = 0;
  if (lp_count() > 1) {
    WAVE_EXPECTS_MSG(rank >= 0 && rank < mpis_.front()->size(),
                     "parallel worlds need spawn(name, process, rank)");
    lp = lp_of_rank(rank);
  }
  processes_.emplace_back(std::move(name), std::move(process));
  process_lp_.push_back(lp);
}

void World::reserve_events(std::size_t events) {
  if (lp_count() == 1) {
    engines_.front()->reserve(events);
    return;
  }
  const std::size_t per = events / engines_.size() + 64;
  for (auto& engine : engines_) engine->reserve(per);
}

std::uint64_t World::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& engine : engines_) total += engine->events_processed();
  return total;
}

std::uint64_t World::messages_delivered() const {
  std::uint64_t total = 0;
  for (const auto& mpi : mpis_) total += mpi->messages_delivered();
  return total;
}

usec World::bus_wait_total() const {
  // Each node's buses are touched by exactly one shard (its owner), so
  // querying the owner per node — in the serial fabric's node order —
  // reproduces its floating-point sum term for term.
  usec total = 0.0;
  const int nodes = mpis_.front()->node_count();
  for (int n = 0; n < nodes; ++n)
    total += mpis_[static_cast<std::size_t>(lp_of_node_[n])]->tx_bus_wait(n);
  for (int n = 0; n < nodes; ++n)
    total += mpis_[static_cast<std::size_t>(lp_of_node_[n])]->rx_bus_wait(n);
  return total;
}

usec World::nic_wait_total() const {
  usec total = 0.0;
  const int nodes = mpis_.front()->node_count();
  for (int n = 0; n < nodes; ++n)
    total += mpis_[static_cast<std::size_t>(lp_of_node_[n])]->nic_wait(n);
  return total;
}

usec World::mpi_busy(int rank) const {
  return mpis_[static_cast<std::size_t>(lp_of_rank(rank))]->mpi_busy(rank);
}

usec World::mpi_busy_mean() const {
  // Per rank in global rank order — the serial fabric's iteration.
  usec sum = 0.0;
  const int ranks = mpis_.front()->size();
  for (int r = 0; r < ranks; ++r) sum += mpi_busy(r);
  return sum / static_cast<double>(ranks);
}

void World::capture_traces(std::vector<std::vector<Engine::TraceEvent>>* sink) {
  WAVE_EXPECTS(sink != nullptr);
  sink->resize(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i)
    engines_[i]->set_trace(&(*sink)[i]);
}

void World::publish_metrics() {
  obs::MetricsRegistry& reg = *parallel_.metrics;
  reg.counter("sim_events_total").add(events_processed());
  reg.counter("sim_messages_total").add(messages_delivered());
  std::size_t max_pending = 0;
  for (const auto& engine : engines_)
    max_pending = std::max(max_pending, engine->max_pending());
  reg.gauge("sim_max_pending_events")
      .set_max(static_cast<std::int64_t>(max_pending));
  reg.counter("sim_window_rounds_total").add(window_rounds_);
  reg.counter("sim_envelopes_total").add(envelopes_routed_);
  obs::Histogram& barrier = reg.histogram("sim_barrier_wait_us");
  for (double us : barrier_wait_us_) barrier.observe(us);
}

usec World::run() {
  WAVE_EXPECTS_MSG(!started_, "a World can only run once");
  started_ = true;
  // Claim the span capture (first World wins when one capture is shared
  // across a sweep) and fan its per-LP buffers out to the shards. This is
  // pure observation: recording never touches event order or results.
  if (parallel_.trace != nullptr && parallel_.trace->try_claim()) {
    parallel_.trace->reset(engines_.size());
    for (std::size_t i = 0; i < mpis_.size(); ++i)
      mpis_[i]->set_tracer(&parallel_.trace->lp(i));
  }
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    Process& proc = processes_[i].second;
    engines_[static_cast<std::size_t>(process_lp_[i])]->at(
        0.0, [p = &proc] { p->start(); });
  }
  const usec makespan =
      lp_count() == 1 ? engines_.front()->run()
                      : run_windows(std::min(parallel_.threads, lp_count()));
  if (parallel_.metrics != nullptr) publish_metrics();
  for (auto& [name, proc] : processes_) {
    if (proc.exception()) std::rethrow_exception(proc.exception());
  }
  std::ostringstream blocked;
  int blocked_count = 0;
  for (auto& [name, proc] : processes_) {
    if (!proc.finished()) {
      if (blocked_count < 8) blocked << (blocked_count ? ", " : "") << name;
      ++blocked_count;
    }
  }
  if (blocked_count > 0) {
    std::ostringstream os;
    os << "deadlock: " << blocked_count
       << " process(es) still blocked after the event calendar drained: "
       << blocked.str() << (blocked_count > 8 ? ", ..." : "");
    throw std::runtime_error(os.str());
  }
  return makespan;
}

}  // namespace wave::sim
