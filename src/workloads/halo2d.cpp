#include "workloads/halo2d.h"

#include <string>

#include "common/contracts.h"
#include "core/solver.h"
#include "workloads/builtin.h"

namespace wave::workloads {

namespace {

/// Everything one rank needs, derived once from the inputs.
struct HaloSpec {
  topo::Grid grid{1, 1};
  int phases = 1;       ///< compute+exchange rounds per iteration
  usec w_block = 0.0;   ///< compute per rank per phase
  int msg_bytes_ew = 0;
  int msg_bytes_ns = 0;
  int iterations = 1;
};

HaloSpec make_halo_spec(const WorkloadInputs& in) {
  in.app.validate();
  WAVE_EXPECTS(in.iterations >= 1);
  HaloSpec spec;
  spec.grid = in.grid;
  spec.phases = in.int_param_or("phases", 1);
  WAVE_EXPECTS_MSG(spec.phases >= 1, "halo2d phases must be >= 1");
  spec.w_block = in.app.wg * (in.app.nx / in.grid.n()) *
                 (in.app.ny / in.grid.m()) * in.app.nz;
  spec.msg_bytes_ew = in.app.message_bytes_ew(in.grid.n(), in.grid.m());
  spec.msg_bytes_ns = in.app.message_bytes_ns(in.grid.n(), in.grid.m());
  spec.iterations = in.iterations;
  return spec;
}

sim::Process halo_rank(sim::RankCtx ctx, const HaloSpec& spec, int rank) {
  const topo::Coord c = spec.grid.coord_of(rank);
  for (int iter = 0; iter < spec.iterations; ++iter) {
    for (int phase = 0; phase < spec.phases; ++phase) {
      co_await ctx.compute(spec.w_block);
      // Bulk-synchronous swap: all four faces in flight at once.
      auto halo = face_halo(ctx, spec.grid, c, spec.msg_bytes_ew,
                            spec.msg_bytes_ns);
      co_await halo;
    }
  }
}

}  // namespace

const std::string& Halo2dWorkload::name() const {
  static const std::string n = "halo2d";
  return n;
}

const std::string& Halo2dWorkload::description() const {
  static const std::string d =
      "Jacobi-style bulk-synchronous halo exchange: compute + one "
      "E/W + one N/S face swap per phase, no pipelining (the LU "
      "stencil-phase model as a standalone workload)";
  return d;
}

std::vector<ParamSpec> Halo2dWorkload::parameters() const {
  return {{"phases", 1, "compute+exchange rounds per iteration"}};
}

ModelOutput Halo2dWorkload::predict(const core::MachineConfig& machine,
                                    const loggp::CommModel& comm,
                                    const WorkloadInputs& in) const {
  const HaloSpec spec = make_halo_spec(in);
  const usec exchange = core::halo_time(machine, comm, in.grid,
                                       spec.msg_bytes_ew, spec.msg_bytes_ns);
  ModelOutput out;
  out.time_us = spec.phases * (spec.w_block + exchange);
  out.comm_us = spec.phases * exchange;
  out.extra = {{"model_exchange_us", exchange}};
  return out;
}

SimOutput Halo2dWorkload::simulate(const SimMachine& machine,
                                   const WorkloadInputs& in) const {
  const HaloSpec spec = make_halo_spec(in);
  sim::World world(machine.loggp, place_ranks(in.grid, machine),
                   machine.protocol, in.observers);
  for (int r = 0; r < in.grid.size(); ++r)
    world.spawn(halo_rank(world.ctx(r), spec, r));
  return collect_run(world, in.iterations);
}

}  // namespace wave::workloads
