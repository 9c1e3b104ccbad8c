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
  Message* next = nullptr;           // inbox link while unmatched
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

  Completion sender;    // blocked sender's completion (rendezvous paths)
  Completion receiver;  // matched, blocked receiver's completion
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
  inbox_.resize(node_of_rank_.size());
}

Mpi::~Mpi() = default;

usec Mpi::mpi_busy_mean() const {
  usec sum = 0.0;
  for (usec t : mpi_busy_) sum += t;
  return sum / static_cast<double>(mpi_busy_.size());
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

template <typename Node>
Node* Mpi::take_oldest(Fifo<Node>& fifo, int src) {
  std::uint64_t scanned = 0;
  Node* prev = nullptr;
  Node* node = fifo.head;
  for (; node != nullptr; prev = node, node = node->next) {
    ++scanned;
    if (node->src != src) continue;
    (prev != nullptr ? prev->next : fifo.head) = node->next;
    if (fifo.tail == node) fifo.tail = prev;
    break;
  }
  max_match_scan_ = std::max(max_match_scan_, scanned);
  return node;
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
  // Post both halves at once; resume when the last outstanding half
  // completes. The counter lives in the awaitable (the awaiting
  // coroutine's frame), which outlives every completion.
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
      // If a receive is already posted, the match at the bottom of this
      // function starts the DMA.
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

  // Match the oldest receive already posted for this source, if any;
  // otherwise the message waits in the receiver's inbox.
  Inbox& inbox = inbox_[dst];
  if (PostedRecv* posted = take_oldest(inbox.posted, src)) {
    Completion recv = std::move(posted->done);
    posted_recvs_.release(posted);
    match(msg, std::move(recv), now);
  } else {
    inbox.unmatched.push_back(msg);
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
  Inbox& inbox = inbox_[dst];
  if (Message* msg = take_oldest(inbox.unmatched, src)) {
    match(msg, std::move(busy_done), engine_.now());
  } else {
    // Dirty acquire: a released node's completion was moved out.
    PostedRecv* posted = posted_recvs_.acquire_dirty();
    posted->src = src;
    posted->done = std::move(busy_done);
    inbox.posted.push_back(posted);
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

World::World(loggp::MachineParams params, std::vector<int> node_of_rank,
             ProtocolOptions protocol, Observers observers)
    : observers_(observers),
      mpi_(engine_, params, std::move(node_of_rank), protocol) {}

void World::spawn(std::string name, Process process) {
  WAVE_EXPECTS_MSG(!started_, "cannot spawn after run()");
  WAVE_EXPECTS_MSG(process.valid(), "cannot spawn an empty process");
  processes_.emplace_back(std::move(name), std::move(process));
}

void World::publish_metrics() {
  obs::MetricsRegistry& reg = *observers_.metrics;
  reg.counter("sim_events_total").add(engine_.events_processed());
  reg.counter("sim_messages_total").add(mpi_.messages_delivered());
  reg.gauge("sim_max_pending_events")
      .set_max(static_cast<std::int64_t>(engine_.max_pending()));
  reg.gauge("sim_max_match_scan")
      .set_max(static_cast<std::int64_t>(mpi_.max_match_scan()));
}

usec World::run() {
  WAVE_EXPECTS_MSG(!started_, "a World can only run once");
  started_ = true;
  // Claim the span capture (first World wins when one capture is shared
  // across a sweep). This is pure observation: recording never touches
  // event order or results.
  if (observers_.trace != nullptr && observers_.trace->try_claim()) {
    observers_.trace->reset();
    mpi_.set_tracer(&observers_.trace->buffer());
  }
  if (observers_.events != nullptr) engine_.set_trace(observers_.events);
  for (auto& [name, proc] : processes_)
    engine_.at(0.0, [p = &proc] { p->start(); });
  const usec makespan = engine_.run();
  if (observers_.metrics != nullptr) publish_metrics();
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
