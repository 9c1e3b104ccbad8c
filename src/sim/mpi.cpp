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
  // A rendezvous send completes src's open operation, or this isend
  // request (send_done); a matched receive completes dst's.
  Request* request = nullptr;
};

Mpi::Mpi(Engine& engine, loggp::MachineParams params,
         std::vector<int> node_of_rank, ProtocolOptions protocol)
    : engine_(engine),
      params_(params),
      protocol_(protocol),
      ranks_(node_of_rank.size()) {
  static_assert(sizeof(Message) == 64, "a message is one cache line");
  params_.validate();
  WAVE_EXPECTS_MSG(protocol_.rendezvous_sync >= 0,
                   "rendezvous sync must be non-negative");
  WAVE_EXPECTS_MSG(!node_of_rank.empty(), "need at least one rank");
  int max_node = 0;
  for (std::size_t r = 0; r < node_of_rank.size(); ++r) {
    const int node = node_of_rank[r];
    WAVE_EXPECTS_MSG(node >= 0, "node ids must be non-negative");
    max_node = std::max(max_node, node);
    ranks_[r].node = node;
  }
  tx_bus_.resize(static_cast<std::size_t>(max_node) + 1);
  rx_bus_.resize(static_cast<std::size_t>(max_node) + 1);
  nic_.resize(static_cast<std::size_t>(max_node) + 1);
}

Mpi::~Mpi() = default;

usec Mpi::mpi_busy_mean() const {
  usec sum = 0.0;
  for (const Rank& r : ranks_) sum += r.busy;
  return sum / static_cast<double>(ranks_.size());
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

void Mpi::start_isend(int src, int dst, int bytes, RequestHandle request) {
  WAVE_EXPECTS_MSG(request != nullptr, "isend needs a Request token");
  // The protocol completion fulfils the request and wakes a waiter: time
  // a rank spends blocked in wait() counts as MPI occupancy. The CPU
  // injection phase completes the isend itself, so the rank resumes and
  // may compute while the protocol continues in the background.
  post_send(src, dst, bytes, request);
}

Mpi::Completion Mpi::send_done(const Message& msg) {
  return {&ranks_[msg.src], msg.request};
}

void Mpi::post_send(int src, int dst, int bytes, Request* request) {
  WAVE_EXPECTS(src >= 0 && src < size() && dst >= 0 && dst < size());
  WAVE_EXPECTS_MSG(src != dst, "self-sends are not modelled");
  WAVE_EXPECTS(bytes >= 0);

  // Dirty acquire + explicit init of every field: a recycled message
  // still holds its last life's state.
  Message* msg = messages_.acquire_dirty();
  msg->src = src;
  msg->dst = dst;
  msg->src_node = ranks_[src].node;
  msg->dst_node = ranks_[dst].node;
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
  msg->request = request;
  const Completion done = send_done(*msg);
  // An isend resumes its rank when the CPU injection phase ends.
  const Completion cpu_done = request != nullptr ? op_done(src) : Completion();

  const usec now = engine_.now();
  if (msg->on_chip) {
    if (!msg->large) {
      // Eager on-chip: sender occupied ocopy (eq. 7), copy takes S*Gcopy.
      // The copy runs through the node's shared memory bus, so concurrent
      // copies by sibling cores serialize (the C factor of eq. 9).
      const usec ocopy = params_.on.ocopy;
      const usec inject_done =
          tx_bus_[msg->src_node].reserve(now, ocopy) + ocopy;
      if (cpu_done) complete_at(inject_done, cpu_done);
      complete_at(inject_done, done);
      const usec ready =
          inject_done + static_cast<double>(bytes) * params_.on.Gcopy;
      engine_.at(ready, [this, msg] { deliver(msg); });
    } else {
      // Large on-chip: sender pays o = ocopy + odma (eq. 8a), then the DMA
      // waits for the receive to be posted (shared-memory rendezvous with
      // negligible handshake cost).
      msg->send_ready = now + params_.on.o;
      if (cpu_done) complete_at(msg->send_ready, cpu_done);
      // If a receive is already posted, the match at the bottom of this
      // function starts the DMA.
    }
  } else {
    // Off-node sends serialize their CPU/NIC phase on the node's MPI
    // engine; uncontended this is exactly o.
    FifoResource& nic = nic_[msg->src_node];
    const usec inject_done =
        nic.reserve(now, params_.off.o) + params_.off.o;
    if (cpu_done) complete_at(inject_done, cpu_done);
    if (!msg->large) {
      // Eager: MPI_Send returns after o (eq. 3); the payload departs then.
      complete_at(inject_done, done);
      schedule_offnode_data(msg, inject_done);
    } else {
      // Rendezvous: request goes out after o; MPI_Send blocks for the ACK.
      engine_.at(inject_done + params_.off.L + params_.off.oh, [this, msg] {
        msg->req_arrived = true;
        maybe_ack(msg);
      });
    }
  }

  // Match the oldest receive already posted for this source, if any;
  // otherwise the message waits in the receiver's inbox.
  Rank& receiver = ranks_[dst];
  if (PostedRecv* posted = take_oldest(receiver.posted, src)) {
    posted_recvs_.release(posted);
    match(msg, now);
  } else {
    receiver.unmatched.push_back(msg);
  }
}

void Mpi::post_recv(int dst, int src) {
  WAVE_EXPECTS(src >= 0 && src < size() && dst >= 0 && dst < size());
  Rank& receiver = ranks_[dst];
  if (Message* msg = take_oldest(receiver.unmatched, src)) {
    match(msg, engine_.now());
  } else {
    PostedRecv* posted = posted_recvs_.acquire_dirty();
    posted->src = src;
    receiver.posted.push_back(posted);
  }
}

void Mpi::match(Message* msg, usec time) {
  WAVE_ENSURES(!msg->matched);
  msg->matched = true;
  msg->match_time = time;
  if (msg->delivered) {
    // Payload already queued at the receiver: pay the receive processing.
    complete_receive(msg);
    return;
  }
  if (msg->large) {
    if (msg->on_chip) {
      // The send was posted first, so its CPU phase is under way.
      start_onchip_dma(msg);
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
    const usec hold = params_.off.o + protocol_.rendezvous_sync;
    FifoResource& nic = nic_[msg->src_node];
    const usec cpu_done = nic.reserve(engine_.now(), hold) + hold;
    complete_at(cpu_done, send_done(*msg));
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
    complete(send_done(*msg));
    FifoResource& dbus = tx_bus_[msg->src_node];
    const usec hold = static_cast<double>(msg->bytes) * params_.on.Gdma;
    const usec done = dbus.reserve(engine_.now(), hold) + hold;
    engine_.at(done, [this, msg] { deliver(msg); });
  });
}

void Mpi::deliver(Message* msg) {
  msg->delivered = true;
  ++delivered_;
  if (msg->matched) complete_receive(msg);  // else no receive posted yet
}

void Mpi::complete_receive(Message* msg) {
  // The receive completes dst's open operation, which charges the
  // post-to-completion span to its MPI occupancy.
  const Completion recv = op_done(msg->dst);
  if (msg->on_chip) {
    if (!msg->large) {
      // The receive-side copy shares the memory bus like the send side.
      const usec ocopy = params_.on.ocopy;
      const usec done =
          tx_bus_[msg->dst_node].reserve(engine_.now(), ocopy) + ocopy;
      complete_at(done, recv);
    } else {
      complete_at(engine_.now() + recv_overhead(*msg), recv);
    }
  } else {
    FifoResource& nic = nic_[msg->dst_node];
    const usec done =
        nic.reserve(engine_.now(), params_.off.o) + params_.off.o;
    complete_at(done, recv);
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
