// Tests for the simulated MPI fabric: protocol costs against Table 1,
// blocking semantics, contention emergence, deadlock detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "loggp/collectives.h"
#include "loggp/backends.h"
#include "obs/metrics.h"
#include "sim/mpi.h"
#include "workloads/pingpong.h"

namespace ws = wave::sim;
namespace wl = wave::loggp;
namespace ww = wave::workloads;

namespace {
const wl::MachineParams kXt4 = wl::xt4();
const wl::LogGpModel kModel(kXt4);
}  // namespace

// Uncontended ping-pong must reproduce the Table 1 end-to-end equations
// exactly — this is the calibration contract between simulator and model.
class PingPongExact : public ::testing::TestWithParam<int> {};

TEST_P(PingPongExact, OffNodeMatchesEquations1And2) {
  const int bytes = GetParam();
  const double sim = ww::pingpong_half_rtt(kXt4, /*on_chip=*/false, bytes);
  EXPECT_NEAR(sim, kModel.total(bytes, wl::Placement::OffNode), 1e-9)
      << "S=" << bytes;
}

TEST_P(PingPongExact, OnChipMatchesEquations5And6) {
  const int bytes = GetParam();
  const double sim = ww::pingpong_half_rtt(kXt4, /*on_chip=*/true, bytes);
  EXPECT_NEAR(sim, kModel.total(bytes, wl::Placement::OnChip), 1e-9)
      << "S=" << bytes;
}

INSTANTIATE_TEST_SUITE_P(MessageSizes, PingPongExact,
                         ::testing::Values(1, 8, 64, 512, 1023, 1024, 1025,
                                           2048, 4096, 8192, 12000));

namespace {

ws::Process sender_then_done(ws::RankCtx ctx, int bytes, double* done_at) {
  co_await ctx.send(1, bytes);
  *done_at = ctx.mpi().engine().now();
}

ws::Process late_receiver(ws::RankCtx ctx, double post_at, double* recv_done) {
  co_await ctx.compute(post_at);
  co_await ctx.recv(0);
  *recv_done = ctx.mpi().engine().now();
}

}  // namespace

TEST(MpiSemantics, EagerSendReturnsWithoutReceiver) {
  // Small sends are buffered: MPI_Send returns after o even if the receive
  // is posted much later (eq. 3).
  ws::World world(kXt4, {0, 1});
  double send_done = -1.0, recv_done = -1.0;
  world.spawn(sender_then_done(world.ctx(0), 512, &send_done));
  world.spawn(late_receiver(world.ctx(1), 1000.0, &recv_done));
  world.run();
  EXPECT_NEAR(send_done, kXt4.off.o, 1e-9);
  // The receive still pays its processing overhead o after posting.
  EXPECT_NEAR(recv_done, 1000.0 + kXt4.off.o, 1e-9);
}

TEST(MpiSemantics, RendezvousSendBlocksForLateReceiver) {
  // Large sends wait for the matching receive: MPI_Send cannot return
  // before the ACK, which the receiver only triggers at post time.
  ws::World world(kXt4, {0, 1});
  double send_done = -1.0, recv_done = -1.0;
  world.spawn(sender_then_done(world.ctx(0), 8192, &send_done));
  world.spawn(late_receiver(world.ctx(1), 500.0, &recv_done));
  world.run();
  EXPECT_GT(send_done, 500.0);  // blocked on the handshake
  // Receiver occupancy from post time follows eq. (4b): the ACK round
  // trip, the sender's NIC copy, the wire transfer, and the receive
  // processing are all on the receiver's critical path.
  EXPECT_NEAR(recv_done - 500.0, kModel.recv(8192, wl::Placement::OffNode),
              1e-6);
}

TEST(MpiSemantics, MessagesMatchInOrder) {
  // Two back-to-back sends on one channel complete two receives in order.
  struct Probe {
    double first = -1.0, second = -1.0;
  };
  static Probe probe;
  probe = Probe{};
  auto sender = [](ws::RankCtx ctx) -> ws::Process {
    co_await ctx.send(1, 100);
    co_await ctx.send(1, 100);
  };
  auto receiver = [](ws::RankCtx ctx) -> ws::Process {
    co_await ctx.recv(0);
    probe.first = ctx.mpi().engine().now();
    co_await ctx.recv(0);
    probe.second = ctx.mpi().engine().now();
  };
  ws::World world(kXt4, {0, 1});
  world.spawn(sender(world.ctx(0)));
  world.spawn(receiver(world.ctx(1)));
  world.run();
  EXPECT_GT(probe.first, 0.0);
  EXPECT_GT(probe.second, probe.first);
}

TEST(MpiSemantics, DeadlockIsDetectedAndNamed) {
  // Two ranks that both receive first never progress.
  auto stuck = [](ws::RankCtx ctx, int peer) -> ws::Process {
    co_await ctx.recv(peer);
  };
  ws::World world(kXt4, {0, 1});
  world.spawn(stuck(world.ctx(0), 1));
  world.spawn(stuck(world.ctx(1), 0));
  try {
    world.run();
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("rank0"), std::string::npos);
  }
}

// ---- matching: per-receiver inboxes keep every (src, dst) pair FIFO ----

namespace {

// Isends `sizes` to rank 0 back to back, then waits for all of them.
ws::Process isend_burst(ws::RankCtx ctx, std::vector<int> sizes) {
  std::vector<ws::Mpi::RequestHandle> requests;
  for (int bytes : sizes) {
    requests.push_back(ctx.make_request());
    co_await ctx.isend(0, bytes, requests.back());
  }
  for (auto* request : requests) co_await ctx.wait(request);
}

// Computes until `post_at`, then receives from each of `sources` in turn,
// recording how long each blocking receive took.
ws::Process timed_receives(ws::RankCtx ctx, double post_at,
                           std::vector<int> sources,
                           std::vector<double>* durations) {
  co_await ctx.compute(post_at);
  for (int src : sources) {
    const double t0 = ctx.mpi().engine().now();
    co_await ctx.recv(src);
    durations->push_back(ctx.mpi().engine().now() - t0);
  }
}

// One node per rank, so every message is off-node and uncontended.
std::vector<int> one_rank_per_node(int ranks) {
  std::vector<int> nodes(ranks);
  for (int r = 0; r < ranks; ++r) nodes[r] = r;
  return nodes;
}

// A blocking receive of an already-arrived message costs its processing
// overhead o (eager) or the full rendezvous completion of eq. (4b).
double recv_after_arrival(int bytes) {
  return bytes > kXt4.eager_limit_bytes
             ? kModel.recv(bytes, wl::Placement::OffNode)
             : kXt4.off.o;
}

}  // namespace

TEST(MpiMatching, FanInMatchesEachSourceInSendOrder) {
  // 32 senders each isend an eager message, then a rendezvous message
  // whose size names the sender. Rank 0 receives only after everything
  // has arrived, and in reverse arrival order, so each receive walks past
  // the other senders' messages in its inbox.
  constexpr int kSenders = 32;
  constexpr int kEager = 512;
  auto rendezvous_bytes = [](int src) { return 2048 + 64 * src; };

  wave::obs::MetricsRegistry metrics;
  ws::World world(kXt4, one_rank_per_node(kSenders + 1), {},
                  {.metrics = &metrics});
  std::vector<int> sources;
  for (int src = kSenders; src >= 1; --src) {
    sources.push_back(src);
    sources.push_back(src);
  }
  std::vector<double> durations;
  world.spawn(timed_receives(world.ctx(0), 1000.0, sources, &durations));
  for (int src = 1; src <= kSenders; ++src)
    world.spawn(isend_burst(world.ctx(src), {kEager, rendezvous_bytes(src)}));
  world.run();

  ASSERT_EQ(durations.size(), sources.size());  // every receive completed
  for (std::size_t k = 0; k < sources.size(); k += 2) {
    const int src = sources[k];
    EXPECT_NEAR(durations[k], recv_after_arrival(kEager), 1e-9)
        << "first receive from " << src;
    EXPECT_NEAR(durations[k + 1], recv_after_arrival(rendezvous_bytes(src)),
                1e-6)
        << "second receive from " << src;
  }
  // The first receive skipped 31 other senders' messages.
  EXPECT_GE(world.mpi().max_match_scan(), 31u);
  EXPECT_EQ(metrics.gauge("sim_max_match_scan").value(),
            static_cast<std::int64_t>(world.mpi().max_match_scan()));
}

TEST(MpiMatching, InterleavedSourcesStayFifoPerPair) {
  // Ranks 1 and 2 each send three messages of distinct sizes; rank 0
  // drains rank 2 first. The receive times identify which message each
  // receive matched: always the pair's oldest.
  const std::vector<int> from1 = {512, 4096, 8192};
  const std::vector<int> from2 = {256, 3072, 12288};
  ws::World world(kXt4, one_rank_per_node(3));
  std::vector<double> durations;
  world.spawn(timed_receives(world.ctx(0), 1000.0, {2, 2, 2, 1, 1, 1},
                                      &durations));
  world.spawn(isend_burst(world.ctx(1), from1));
  world.spawn(isend_burst(world.ctx(2), from2));
  world.run();

  std::vector<int> expected = from2;
  expected.insert(expected.end(), from1.begin(), from1.end());
  ASSERT_EQ(durations.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    EXPECT_NEAR(durations[k], recv_after_arrival(expected[k]), 1e-6)
        << "receive " << k << " should match the " << expected[k]
        << "-byte message";
}

TEST(MpiMatching, PostedReceiveIgnoresOtherSources) {
  // Rank 0 posts a receive for rank 2 before rank 1's message arrives;
  // rank 2 never sends, so the receive must stay unmatched.
  auto wait_for_rank2 = [](ws::RankCtx ctx) -> ws::Process {
    co_await ctx.recv(2);
  };
  auto send_once = [](ws::RankCtx ctx) -> ws::Process {
    co_await ctx.send(0, 256);
  };
  auto idle = [](ws::RankCtx) -> ws::Process { co_return; };
  ws::World world(kXt4, one_rank_per_node(3));
  world.spawn(wait_for_rank2(world.ctx(0)));
  world.spawn(send_once(world.ctx(1)));
  world.spawn(idle(world.ctx(2)));
  try {
    world.run();
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock: 1 process(es)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("rank0"), std::string::npos) << what;
  }
  EXPECT_EQ(world.mpi().messages_delivered(), 1u);
}

TEST(MpiSemantics, ExchangeOverlapsBothDirections) {
  // A pairwise exchange (a one-peer halo swap) completes in about one
  // total-comm time, not two: the overlapped halves share the wire window.
  auto exchanger = [](ws::RankCtx ctx, int peer, double* done) -> ws::Process {
    auto halo = ctx.halo_exchange();
    halo.add(peer, 512);
    co_await halo;
    *done = ctx.mpi().engine().now();
  };
  ws::World world(kXt4, {0, 1});
  double d0 = 0, d1 = 0;
  world.spawn(exchanger(world.ctx(0), 1, &d0));
  world.spawn(exchanger(world.ctx(1), 0, &d1));
  world.run();
  const double total = kModel.total(512, wl::Placement::OffNode);
  EXPECT_LT(d0, 1.8 * total);
  EXPECT_LT(d1, 1.8 * total);
  EXPECT_GE(d0, total - 1e-9);
}

TEST(MpiSemantics, SelfSendRejected) {
  auto bad = [](ws::RankCtx ctx) -> ws::Process { co_await ctx.send(0, 8); };
  ws::World world(kXt4, {0, 1});
  world.spawn(bad(world.ctx(0)));
  EXPECT_THROW(world.run(), wave::common::contract_error);
}

TEST(MpiContention, SharedBusDelaysConcurrentLargeTransfers) {
  // Two senders on separate nodes stream to two receivers sharing one
  // node: the incoming DMA windows collide on the receivers' shared bus.
  // With the receivers on separate nodes the same traffic is uncontended.
  auto burst = [](ws::RankCtx ctx, int dst) -> ws::Process {
    for (int i = 0; i < 8; ++i) co_await ctx.send(dst, 65536);
  };
  auto sink = [](ws::RankCtx ctx, int src) -> ws::Process {
    for (int i = 0; i < 8; ++i) co_await ctx.recv(src);
  };
  auto run_with = [&](std::vector<int> placement) {
    ws::World world(kXt4, std::move(placement));
    world.spawn(burst(world.ctx(0), 2));
    world.spawn(burst(world.ctx(1), 3));
    world.spawn(sink(world.ctx(2), 0));
    world.spawn(sink(world.ctx(3), 1));
    world.run();
    return world.mpi().bus_wait_total();
  };
  const double shared = run_with({0, 1, 2, 2});
  const double separate = run_with({0, 1, 2, 3});
  EXPECT_GT(shared, 0.0);
  EXPECT_DOUBLE_EQ(separate, 0.0);
}

TEST(MpiAllreduce, MatchesEquation9Within10Percent) {
  // §3.3 reports < 2% on the real machine; our mechanistic simulator lands
  // within a few percent of eq. 9 for dual-core nodes once there are
  // several off-node stages (P = 4 has a single off-node stage, where the
  // per-stage edge effects are proportionally largest).
  for (int p : {4, 16, 64, 256}) {
    const double sim = ww::allreduce_sim_time(kXt4, p, 2);
    const double model = wl::allreduce_time(kModel, p, 2, 8);
    EXPECT_NEAR(model / sim, 1.0, p == 4 ? 0.15 : 0.10) << "P=" << p;
  }
}

TEST(MpiAllreduce, SingleCoreMatchesLogPModel) {
  for (int p : {4, 16, 64}) {
    const double sim = ww::allreduce_sim_time(kXt4, p, 1);
    const double model = wl::allreduce_time(kModel, p, 1, 8);
    EXPECT_NEAR(model / sim, 1.0, 0.10) << "P=" << p;
  }
}

TEST(MpiAllreduce, NonPowerOfTwoFoldsAndCompletes) {
  // Non-power-of-two rank counts use the fold algorithm: an extra
  // contribute/return round beyond the nearest smaller power of two.
  const double p4 = ww::allreduce_sim_time(kXt4, 4, 1);
  const double p5 = ww::allreduce_sim_time(kXt4, 5, 1);
  const double p8 = ww::allreduce_sim_time(kXt4, 8, 1);
  EXPECT_GT(p5, p4);
  // The fold costs about two extra message times over the p=4 schedule.
  EXPECT_LT(p5, p8 + 2.0 * kModel.total(8, wl::Placement::OffNode));
}

TEST(MpiAllreduce, ScheduleFoldsExcessRanksAroundTheDoubling) {
  using Op = ws::CollectiveStep::Op;
  auto steps = [](int rank, int size) {
    const ws::AllreduceSchedule schedule(rank, size);
    std::vector<std::pair<Op, int>> out;
    for (int s = 0; s < schedule.steps(); ++s)
      out.emplace_back(schedule[s].op, schedule[s].peer);
    return out;
  };
  using Steps = std::vector<std::pair<Op, int>>;
  // Six ranks: a power-of-two core of four; ranks 4 and 5 fold into 0, 1.
  EXPECT_EQ(steps(5, 6), (Steps{{Op::kSend, 1}, {Op::kRecv, 1}}));
  EXPECT_EQ(steps(1, 6), (Steps{{Op::kRecv, 5},
                                {Op::kExchange, 0},
                                {Op::kExchange, 3},
                                {Op::kSend, 5}}));
  EXPECT_EQ(steps(2, 6), (Steps{{Op::kExchange, 3}, {Op::kExchange, 0}}));
  EXPECT_EQ(steps(3, 8), (Steps{{Op::kExchange, 2},
                                {Op::kExchange, 1},
                                {Op::kExchange, 7}}));
  EXPECT_TRUE(steps(0, 1).empty());
}

TEST(MpiWorld, RunIsDeterministic) {
  auto once = [] {
    return ww::allreduce_sim_time(kXt4, 64, 2);
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

TEST(MpiProtocol, ExactForOtherMachines) {
  // The simulator is parameterized, not XT4-hard-coded: with SP/2
  // parameters the uncontended ping-pong reproduces that machine's
  // Table 1 equations exactly too.
  const wl::MachineParams sp2 = wl::sp2();
  const wl::LogGpModel sp2_model(sp2);
  for (int bytes : {8, 1024, 1025, 8192}) {
    EXPECT_NEAR(ww::pingpong_half_rtt(sp2, false, bytes),
                sp2_model.total(bytes, wl::Placement::OffNode), 1e-9)
        << "S=" << bytes;
  }
}

TEST(MpiStats, BusyCountersTrackOperations) {
  // One eager send: the sender is busy exactly o; the receiver posting
  // late is busy exactly its processing overhead o. So is their mean.
  ws::World world(kXt4, {0, 1});
  double send_done = 0, recv_done = 0;
  world.spawn(sender_then_done(world.ctx(0), 256, &send_done));
  world.spawn(late_receiver(world.ctx(1), 100.0, &recv_done));
  world.run();
  EXPECT_NEAR(world.mpi().mpi_busy_mean(), kXt4.off.o, 1e-9);
}

TEST(MpiStats, RendezvousBlockingCountsAsBusy) {
  // A large send to a receiver that posts at t=500 keeps the sender busy
  // from t=0 until the handshake completes: busy > 500, so the mean over
  // the two ranks exceeds 250.
  ws::World world(kXt4, {0, 1});
  double send_done = 0, recv_done = 0;
  world.spawn(sender_then_done(world.ctx(0), 8192, &send_done));
  world.spawn(late_receiver(world.ctx(1), 500.0, &recv_done));
  world.run();
  EXPECT_GT(world.mpi().mpi_busy_mean(), 250.0);
}

namespace {

ws::Process isend_then_compute(ws::RankCtx ctx, int bytes, double* resumed_at,
                               double* wait_done_at) {
  auto req = ctx.make_request();
  co_await ctx.isend(1, bytes, req);
  *resumed_at = ctx.mpi().engine().now();
  co_await ctx.compute(50.0);
  co_await ctx.wait(req);
  *wait_done_at = ctx.mpi().engine().now();
}

}  // namespace

TEST(MpiIsend, ResumesAfterCpuPhaseOnly) {
  // A rendezvous-size isend returns after the CPU injection overhead o,
  // not after the handshake; the wait() completes once the late receiver
  // has triggered the ACK.
  ws::World world(kXt4, {0, 1});
  double resumed = -1.0, wait_done = -1.0, recv_done = -1.0;
  world.spawn(isend_then_compute(world.ctx(0), 8192, &resumed,
                                      &wait_done));
  world.spawn(late_receiver(world.ctx(1), 200.0, &recv_done));
  world.run();
  EXPECT_NEAR(resumed, kXt4.off.o, 1e-9);   // not blocked on the ACK
  EXPECT_GT(wait_done, 200.0);              // ACK needed the receive post
}

TEST(MpiIsend, WaitIsFreeWhenAlreadyComplete) {
  // Eager isend completes during the 50 µs compute window: the wait
  // returns at once and the operation costs exactly o of busy time plus
  // zero wait; the late eager receive costs its o too.
  ws::World world(kXt4, {0, 1});
  double resumed = -1.0, wait_done = -1.0, recv_done = -1.0;
  world.spawn(isend_then_compute(world.ctx(0), 256, &resumed,
                                      &wait_done));
  world.spawn(late_receiver(world.ctx(1), 500.0, &recv_done));
  world.run();
  EXPECT_NEAR(resumed, kXt4.off.o, 1e-9);
  EXPECT_NEAR(wait_done, kXt4.off.o + 50.0, 1e-9);
  EXPECT_NEAR(world.mpi().mpi_busy_mean(), kXt4.off.o, 1e-9);
}

namespace {

// Post times of every operation in BusyMeanIsTheHandSummedTable1Spans.
struct BusyScript {
  double eager = 0, rendezvous = 0, recv = 0, halo = 0, step = 0, isend = 0,
         wait = 0;  // rank 0
  double p2_recv = 0, p4_recv = 0, p1_send = 0, p6_recv = 0;
  double p1_step = 0;
  double halo_at[8] = {};  // each peer's half of rank 0's halo swap
};

// Computes until simulated time `t`.
ws::Process idle_until(ws::RankCtx ctx, double t) {
  co_await ctx.compute(t - ctx.mpi().engine().now());
}

double now_of(ws::RankCtx ctx) { return ctx.mpi().engine().now(); }

ws::Process busy_rank0(ws::RankCtx ctx, BusyScript* s) {
  s->eager = now_of(ctx);
  co_await ctx.send(2, 512);
  co_await ctx.compute(1000.0);
  s->rendezvous = now_of(ctx);
  co_await ctx.send(4, 4096);
  co_await ctx.compute(1000.0);
  s->recv = now_of(ctx);
  co_await ctx.recv(1);
  co_await ctx.compute(1000.0);
  s->halo = now_of(ctx);
  auto halo = ctx.halo_exchange();
  for (int peer : {1, 2, 4, 6}) halo.add(peer, 512);
  co_await halo;
  co_await ctx.compute(1000.0);
  s->step = now_of(ctx);
  co_await ctx.step(ws::AllreduceSchedule(0, ctx.size())[0], 8);
  co_await ctx.compute(1000.0);
  s->isend = now_of(ctx);
  auto request = ctx.make_request();
  co_await ctx.isend(6, 4096, request);
  s->wait = now_of(ctx);
  co_await ctx.wait(request);
}

// This rank's side of rank 0's halo swap, posted at time `at`.
ws::Process halo_partner(ws::RankCtx ctx, double at, BusyScript* s) {
  co_await idle_until(ctx, at);
  s->halo_at[ctx.rank()] = now_of(ctx);
  auto halo = ctx.halo_exchange();
  halo.add(0, 512);
  co_await halo;
}

ws::Process busy_rank1(ws::RankCtx ctx, BusyScript* s) {
  co_await idle_until(ctx, 3000.0);
  s->p1_send = now_of(ctx);
  co_await ctx.send(0, 256);
  co_await halo_partner(ctx, 4500.0, s);
  co_await idle_until(ctx, 6500.0);
  s->p1_step = now_of(ctx);
  co_await ctx.step(ws::AllreduceSchedule(1, ctx.size())[0], 8);
}

ws::Process busy_rank2(ws::RankCtx ctx, BusyScript* s) {
  co_await idle_until(ctx, 500.0);
  s->p2_recv = now_of(ctx);
  co_await ctx.recv(0);
  co_await halo_partner(ctx, 4600.0, s);
}

ws::Process busy_rank4(ws::RankCtx ctx, BusyScript* s) {
  co_await idle_until(ctx, 1500.0);
  s->p4_recv = now_of(ctx);
  co_await ctx.recv(0);
  co_await halo_partner(ctx, 4700.0, s);
}

ws::Process busy_rank6(ws::RankCtx ctx, BusyScript* s) {
  co_await halo_partner(ctx, 4800.0, s);
  co_await idle_until(ctx, 8500.0);
  s->p6_recv = now_of(ctx);
  co_await ctx.recv(0);
}

}  // namespace

TEST(MpiStats, BusyMeanIsTheHandSummedTable1Spans) {
  // Two-core XT4 nodes, 2 x 2 of them. Rank 0 runs one of each operation,
  // 1000 µs apart, and every partner posts late, so no NIC or bus ever
  // queues: each span is a Table 1 term measured from its post time. The
  // sums follow the simulator's charge order per rank, so the mean must
  // match bit for bit.
  ws::World world(kXt4, {0, 0, 1, 1, 2, 2, 3, 3});
  BusyScript s;
  world.spawn(busy_rank0(world.ctx(0), &s));
  world.spawn(busy_rank1(world.ctx(1), &s));
  world.spawn(busy_rank2(world.ctx(2), &s));
  world.spawn(busy_rank4(world.ctx(4), &s));
  world.spawn(busy_rank6(world.ctx(6), &s));
  world.run();

  const double o = kXt4.off.o, L = kXt4.off.L, oh = kXt4.off.oh;
  const double ocopy = kXt4.on.ocopy;
  // Off-node: the payload departs after the sender's o (eager) or the
  // handshake (rendezvous) and lands after S*G + L, its receive-side DMA
  // window I = odma + S*Gdma ending at the tail (eq. 1).
  const auto arrival = [&](double departure, int bytes) {
    const double tail = departure + bytes * kXt4.off.G + L;
    const double dma = kXt4.on.odma() + bytes * kXt4.on.Gdma;
    return std::max(std::max(0.0, tail - dma) + dma, tail);
  };
  // Rendezvous: the receive posted at `post` sends the ACK (L + oh); the
  // sender's NIC copy o follows (eq. 4a).
  const auto ack_done = [&](double post) { return post + (L + oh) + o; };
  // On-chip eager: ocopy to inject, S*Gcopy to copy (eq. 7).
  const auto copied = [&](double inject, int bytes) {
    return inject + bytes * kXt4.on.Gcopy;
  };

  double busy[8] = {};
  // Rank 0, in completion order.
  busy[0] += (s.eager + o) - s.eager;
  busy[0] += ack_done(s.p4_recv) - s.rendezvous;
  busy[0] += (copied(s.p1_send + ocopy, 256) + ocopy) - s.recv;
  busy[0] += (s.halo + ocopy) - s.halo;  // the four send halves
  busy[0] += (s.halo + o) - s.halo;
  busy[0] += (s.halo + o + o) - s.halo;
  busy[0] += (s.halo + o + o + o) - s.halo;
  const double q1 = s.halo_at[1];
  busy[0] += (copied(q1 + ocopy + ocopy, 512) + ocopy) - s.halo;
  for (int peer : {2, 4, 6}) {
    const double q = s.halo_at[peer];
    busy[0] += (arrival(q + o + o, 512) + o) - s.halo;
  }
  busy[0] += (s.step + ocopy) - s.step;
  busy[0] += (copied(s.p1_step + ocopy + ocopy, 8) + ocopy) - s.step;
  busy[0] += (s.isend + o) - s.isend;
  busy[0] += ack_done(s.p6_recv) - s.wait;
  // Rank 1: the send, then each exchange's receive and send halves.
  busy[1] += (s.p1_send + ocopy) - s.p1_send;
  busy[1] += (q1 + ocopy) - q1;
  busy[1] += (q1 + ocopy + ocopy) - q1;
  busy[1] += (s.p1_step + ocopy) - s.p1_step;
  busy[1] += (s.p1_step + ocopy + ocopy) - s.p1_step;
  // Ranks 2, 4, 6: their late receives, and their exchange halves.
  busy[2] += (s.p2_recv + o) - s.p2_recv;
  busy[4] += (arrival(ack_done(s.p4_recv), 4096) + o) - s.p4_recv;
  for (int peer : {2, 4, 6}) {
    const double q = s.halo_at[peer];
    busy[peer] += (q + o) - q;
    busy[peer] += (q + o + o) - q;
  }
  busy[6] += (arrival(ack_done(s.p6_recv), 4096) + o) - s.p6_recv;

  double sum = 0.0;
  for (double b : busy) sum += b;
  EXPECT_EQ(world.mpi().mpi_busy_mean(), sum / 8.0);
  EXPECT_GT(s.wait, s.isend);  // the isend returned before the handshake
}

TEST(MpiIsend, RejectsNullRequest) {
  auto bad = [](ws::RankCtx ctx) -> ws::Process {
    co_await ctx.isend(1, 8, nullptr);
  };
  ws::World world(kXt4, {0, 1});
  world.spawn(bad(world.ctx(0)));
  EXPECT_THROW(world.run(), wave::common::contract_error);
}

TEST(MpiWorld, RejectsEmptyProcess) {
  ws::World world(kXt4, {0, 1});
  EXPECT_THROW(world.spawn(ws::Process{}),
               wave::common::contract_error);
}

// The concurrent halo-swap primitive: every half of every exchange is
// posted before any completes, so a chain of ranks swapping with both
// neighbours finishes in O(1) exchange times — it must not cascade rank
// by rank the way sequential pairwise exchanges do.
TEST(MpiHaloExchange, ChainSwapsOverlapInsteadOfCascading) {
  constexpr int kRanks = 8;
  constexpr int kBytes = 256;
  auto chain_placement = [] {
    std::vector<int> nodes(kRanks);
    for (int r = 0; r < kRanks; ++r) nodes[r] = r;
    return nodes;
  };

  auto halo_rank = [](ws::RankCtx ctx) -> ws::Process {
    auto halo = ctx.halo_exchange();
    if (ctx.rank() > 0) halo.add(ctx.rank() - 1, kBytes);
    if (ctx.rank() + 1 < ctx.size()) halo.add(ctx.rank() + 1, kBytes);
    co_await halo;
  };
  ws::World concurrent(kXt4, chain_placement());
  for (int r = 0; r < kRanks; ++r)
    concurrent.spawn(halo_rank(concurrent.ctx(r)));
  const double t_concurrent = concurrent.run();

  // The same swap as two sequential one-peer swaps: rank r's West
  // exchange can only match once r-1 has finished its own West exchange
  // and posted East, so completion ripples down the chain.
  auto sequential_rank = [](ws::RankCtx ctx) -> ws::Process {
    for (const int peer : {ctx.rank() - 1, ctx.rank() + 1}) {
      auto halo = ctx.halo_exchange();
      if (peer < ctx.size()) halo.add(peer, kBytes);  // add() skips -1
      co_await halo;
    }
  };
  ws::World sequential(kXt4, chain_placement());
  for (int r = 0; r < kRanks; ++r)
    sequential.spawn(sequential_rank(sequential.ctx(r)));
  const double t_sequential = sequential.run();

  // Concurrent must beat the cascade decisively, and must cost only a
  // small constant number of message times — not O(ranks) of them.
  EXPECT_LT(t_concurrent, t_sequential);
  EXPECT_LT(t_concurrent,
            4.0 * kModel.total(kBytes, wl::Placement::OffNode));
  EXPECT_GT(t_sequential,
            (kRanks / 2.0) * kModel.total(kBytes, wl::Placement::OffNode));
}

// An empty halo swap completes immediately; a single-peer swap is one
// plain exchange.
TEST(MpiHaloExchange, EmptySwapIsFree) {
  auto lonely = [](ws::RankCtx ctx) -> ws::Process {
    auto halo = ctx.halo_exchange();
    co_await halo;  // no peers added
    co_await ctx.compute(5.0);
  };
  ws::World world(kXt4, {0, 1});
  auto idle = [](ws::RankCtx) -> ws::Process { co_return; };
  world.spawn(lonely(world.ctx(0)));
  world.spawn(idle(world.ctx(1)));
  EXPECT_NEAR(world.run(), 5.0, 1e-9);
}

TEST(MpiHaloExchange, RejectsAFifthPeer) {
  ws::World world(kXt4, {0, 1, 2, 3, 4, 5});
  auto halo = world.ctx(0).halo_exchange();
  for (int peer = 1; peer <= 4; ++peer) halo.add(peer, 8);
  EXPECT_THROW(halo.add(5, 8), wave::common::contract_error);
}
