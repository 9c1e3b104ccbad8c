#include "workloads/pingpong.h"

#include <string>
#include <vector>

#include "common/contracts.h"
#include "sim/mpi.h"

namespace wave::workloads {

namespace {

sim::Process pinger(sim::RankCtx ctx, int bytes, int reps, usec* half_rtt) {
  const usec start = ctx.mpi().engine().now();
  for (int r = 0; r < reps; ++r) {
    co_await ctx.send(1, bytes);
    co_await ctx.recv(1);
  }
  *half_rtt = (ctx.mpi().engine().now() - start) / (2.0 * reps);
}

sim::Process ponger(sim::RankCtx ctx, int bytes, int reps) {
  for (int r = 0; r < reps; ++r) {
    co_await ctx.recv(0);
    co_await ctx.send(0, bytes);
  }
}

/// One all-reduce of `bytes`, as a rank program of its own.
sim::Process allreduce_rank(sim::RankCtx ctx, int bytes) {
  const sim::AllreduceSchedule allreduce(ctx.rank(), ctx.size());
  for (int s = 0; s < allreduce.steps(); ++s)
    co_await ctx.step(allreduce[s], bytes);
}

}  // namespace

usec pingpong_half_rtt(const loggp::MachineParams& params, bool on_chip,
                       int bytes, int reps) {
  return pingpong_run(params, sim::ProtocolOptions(), on_chip, bytes, reps)
      .half_rtt;
}

PingPongRun pingpong_run(const loggp::MachineParams& params,
                         const sim::ProtocolOptions& protocol, bool on_chip,
                         int bytes, int reps,
                         const sim::Observers& observers) {
  WAVE_EXPECTS(bytes >= 0);
  WAVE_EXPECTS(reps >= 1);
  const std::vector<int> placement =
      on_chip ? std::vector<int>{0, 0} : std::vector<int>{0, 1};
  sim::World world(params, placement, protocol, observers);
  PingPongRun run;
  world.spawn(pinger(world.ctx(0), bytes, reps, &run.half_rtt));
  world.spawn(ponger(world.ctx(1), bytes, reps));
  run.makespan = world.run();
  run.events = world.engine().events_processed();
  run.messages = world.mpi().messages_delivered();
  return run;
}

usec allreduce_sim_time(const loggp::MachineParams& params, int ranks,
                        int cores_per_node, int bytes,
                        const sim::Observers& observers) {
  WAVE_EXPECTS(ranks >= 2 && cores_per_node >= 1);
  std::vector<int> placement(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) placement[r] = r / cores_per_node;
  sim::World world(params, std::move(placement), sim::ProtocolOptions(),
                   observers);
  for (int r = 0; r < ranks; ++r)
    world.spawn(allreduce_rank(world.ctx(r), bytes));
  return world.run();
}

}  // namespace wave::workloads
