#include "workloads/allreduce_storm.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/statistics.h"
#include "loggp/collectives.h"
#include "workloads/builtin.h"

namespace wave::workloads {

namespace {

/// The storm parameter schema, resolved against the fallbacks.
struct StormSpec {
  int ranks = 1;           ///< largest power of two <= grid.size()
  int cores_per_node = 1;  ///< packing, from the machine
  int count = 8;           ///< all-reduces per iteration
  int bytes = 8;           ///< reduced payload
  usec gap_us = 0.0;       ///< compute between consecutive all-reduces
  int iterations = 1;
};

StormSpec make_storm_spec(int cores_per_node, const WorkloadInputs& in) {
  WAVE_EXPECTS(in.iterations >= 1);
  StormSpec spec;
  spec.ranks = common::floor_pow2(std::max(2, in.grid.size()));
  spec.cores_per_node =
      common::floor_pow2(std::min(cores_per_node, spec.ranks));
  spec.count = in.int_param_or("count", 8);
  spec.bytes = in.int_param_or("bytes", in.app.nonwavefront.allreduce_bytes);
  spec.gap_us = in.param_or("gap_us", 0.0);
  spec.iterations = in.iterations;
  WAVE_EXPECTS_MSG(spec.count >= 1, "allreduce-storm count must be >= 1");
  WAVE_EXPECTS_MSG(spec.bytes >= 1, "allreduce-storm bytes must be >= 1");
  WAVE_EXPECTS_MSG(spec.gap_us >= 0.0, "allreduce-storm gap_us must be >= 0");
  return spec;
}

sim::Process storm_rank(sim::RankCtx ctx, const StormSpec& spec) {
  const sim::AllreduceSchedule allreduce(ctx.rank(), ctx.size());
  for (int iter = 0; iter < spec.iterations; ++iter) {
    for (int r = 0; r < spec.count; ++r) {
      if (spec.gap_us > 0.0) co_await ctx.compute(spec.gap_us);
      for (int s = 0; s < allreduce.steps(); ++s)
        co_await ctx.step(allreduce[s], spec.bytes);
    }
  }
}

}  // namespace

const std::string& AllreduceStormWorkload::name() const {
  static const std::string n = "allreduce-storm";
  return n;
}

const std::string& AllreduceStormWorkload::description() const {
  static const std::string d =
      "back-to-back MPI_Allreduce storm (eq. 9 vs recursive doubling): "
      "collective-dominated, no point-to-point structure";
  return d;
}

std::vector<ParamSpec> AllreduceStormWorkload::parameters() const {
  return {{"count", 8, "all-reduces per iteration"},
          {"bytes", 8, "reduced payload (default: the app's all-reduce "
                       "payload, one double)"},
          {"gap_us", 0, "compute between consecutive all-reduces"}};
}

ModelOutput AllreduceStormWorkload::predict(const core::MachineConfig& machine,
                                            const loggp::CommModel& comm,
                                            const WorkloadInputs& in) const {
  const StormSpec spec = make_storm_spec(machine.cores_per_node(), in);
  const usec one =
      loggp::allreduce_time(comm, spec.ranks, spec.cores_per_node, spec.bytes);
  ModelOutput out;
  out.time_us = spec.count * (one + spec.gap_us);
  out.comm_us = spec.count * one;
  out.extra = {{"model_allreduce_us", one},
               {"model_ranks", static_cast<double>(spec.ranks)}};
  return out;
}

SimOutput AllreduceStormWorkload::simulate(const SimMachine& machine,
                                           const WorkloadInputs& in) const {
  const StormSpec spec = make_storm_spec(machine.cx * machine.cy, in);
  std::vector<int> node_of_rank(static_cast<std::size_t>(spec.ranks));
  for (int r = 0; r < spec.ranks; ++r) node_of_rank[r] = r / spec.cores_per_node;
  sim::World world(machine.loggp, std::move(node_of_rank), machine.protocol,
                   in.observers);
  for (int r = 0; r < spec.ranks; ++r)
    world.spawn(storm_rank(world.ctx(r), spec));
  return collect_run(world, in.iterations);
}

}  // namespace wave::workloads
