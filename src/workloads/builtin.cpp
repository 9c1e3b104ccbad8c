#include "workloads/builtin.h"

#include "common/contracts.h"
#include "core/solver.h"
#include "topology/node_map.h"
#include "workloads/allreduce_storm.h"
#include "workloads/halo2d.h"
#include "workloads/pingpong.h"
#include "workloads/pipeline1d.h"
#include "workloads/sweep3d_hybrid.h"
#include "workloads/wavefront.h"

namespace wave::workloads {

SimOutput collect_run(sim::World& world, int iterations) {
  WAVE_EXPECTS(iterations >= 1);
  SimOutput out;
  out.makespan_us = world.run();
  out.time_us = out.makespan_us / iterations;
  out.events = world.engine().events_processed();
  out.messages = world.mpi().messages_delivered();
  out.bus_wait_us = world.mpi().bus_wait_total();
  out.nic_wait_us = world.mpi().nic_wait_total();
  out.mpi_busy_us = world.mpi().mpi_busy_mean();
  return out;
}

sim::Mpi::HaloExchangeAwaitable face_halo(sim::RankCtx ctx,
                                          const topo::Grid& grid,
                                          topo::Coord c, int bytes_ew,
                                          int bytes_ns) {
  auto halo = ctx.halo_exchange();
  halo.add(grid.rank_at({c.i - 1, c.j}), bytes_ew);
  halo.add(grid.rank_at({c.i + 1, c.j}), bytes_ew);
  halo.add(grid.rank_at({c.i, c.j - 1}), bytes_ns);
  halo.add(grid.rank_at({c.i, c.j + 1}), bytes_ns);
  return halo;
}

std::vector<int> place_ranks(const topo::Grid& grid,
                             const SimMachine& machine) {
  const topo::NodeMap node_map(grid, machine.cx, machine.cy);
  std::vector<int> node_of_rank(static_cast<std::size_t>(grid.size()));
  for (int r = 0; r < grid.size(); ++r)
    node_of_rank[r] = node_map.node_of(grid.coord_of(r));
  return node_of_rank;
}

// ---- wavefront --------------------------------------------------------

const std::string& WavefrontWorkload::name() const {
  static const std::string n = "wavefront";
  return n;
}

const std::string& WavefrontWorkload::description() const {
  static const std::string d =
      "pipelined 2-D wavefront sweeps (LU/Sweep3D/Chimaera family, "
      "Table 3 app params; fill + stack + non-wavefront terms)";
  return d;
}

ModelOutput WavefrontWorkload::predict(const core::MachineConfig& machine,
                                       const loggp::CommModel& comm,
                                       const WorkloadInputs& in) const {
  // Evaluate through the backend the caller resolved (non-owning: `comm`
  // outlives the Solver's scope here). It is the same backend
  // machine.comm_model names, so the wavefront path stays byte-identical
  // with the pre-registry drivers — but the *registry* that resolved it
  // remains the caller's choice.
  const core::Solver solver(in.app, machine, comm);
  const core::ModelResult res = solver.evaluate(in.grid);
  ModelOutput out;
  out.time_us = res.iteration.total;
  out.comm_us = res.iteration.comm;
  out.extra = {{"model_fill_us", res.fill.total},
               {"model_stack_us", res.t_stack.total}};
  return out;
}

SimOutput WavefrontWorkload::simulate(const SimMachine& machine,
                                      const WorkloadInputs& in) const {
  return simulate_wavefront(in.app, machine, in.grid, in.iterations,
                            in.observers);
}

// ---- pingpong ---------------------------------------------------------

namespace {

/// The pingpong parameter schema, resolved against the fallbacks.
struct PingPongKnobs {
  int bytes;
  int reps;
  bool on_chip;

  explicit PingPongKnobs(const WorkloadInputs& in)
      : bytes(in.int_param_or("bytes", 4096)),
        reps(in.int_param_or("reps", 10)),
        on_chip(in.param_or("on_chip", 0) != 0) {
    WAVE_EXPECTS_MSG(bytes >= 0, "pingpong bytes must be >= 0");
    WAVE_EXPECTS_MSG(reps >= 1, "pingpong reps must be >= 1");
  }

  loggp::Placement placement() const {
    return on_chip ? loggp::Placement::OnChip : loggp::Placement::OffNode;
  }
};

}  // namespace

const std::string& PingpongWorkload::name() const {
  static const std::string n = "pingpong";
  return n;
}

const std::string& PingpongWorkload::description() const {
  static const std::string d =
      "two-rank calibration ping-pong (§3.1): the Table-1 closed form "
      "against the mechanistic protocol, exact in the uncontended case";
  return d;
}

std::vector<ParamSpec> PingpongWorkload::parameters() const {
  return {{"bytes", 4096, "message payload (default crosses the XT4 eager "
                          "limit, exercising the rendezvous terms)"},
          {"reps", 10, "exchanges averaged per measurement"},
          {"on_chip", 0, "1 = both ranks on one node (on-chip params)"}};
}

ModelOutput PingpongWorkload::predict(const core::MachineConfig& machine,
                                      const loggp::CommModel& comm,
                                      const WorkloadInputs& in) const {
  (void)machine;
  const PingPongKnobs knobs(in);
  ModelOutput out;
  out.time_us = comm.total(knobs.bytes, knobs.placement());
  out.comm_us = out.time_us;
  out.extra = {{"model_send_us", comm.send(knobs.bytes, knobs.placement())},
               {"model_recv_us", comm.recv(knobs.bytes, knobs.placement())}};
  return out;
}

SimOutput PingpongWorkload::simulate(const SimMachine& machine,
                                     const WorkloadInputs& in) const {
  const PingPongKnobs knobs(in);
  const PingPongRun run =
      pingpong_run(machine.loggp, machine.protocol, knobs.on_chip,
                   knobs.bytes, knobs.reps, in.observers);
  SimOutput out;
  out.time_us = run.half_rtt;  // per-message, the quantity the model predicts
  out.makespan_us = run.makespan;
  out.events = run.events;
  out.messages = run.messages;
  return out;
}

// ---- registration -----------------------------------------------------

std::vector<std::shared_ptr<const Workload>> builtin_workloads() {
  std::vector<std::shared_ptr<const Workload>> out;
  out.push_back(std::make_shared<WavefrontWorkload>());
  out.push_back(std::make_shared<PingpongWorkload>());
  out.push_back(std::make_shared<Halo2dWorkload>());
  out.push_back(std::make_shared<Pipeline1dWorkload>());
  out.push_back(std::make_shared<Sweep3dHybridWorkload>());
  out.push_back(std::make_shared<AllreduceStormWorkload>());
  return out;
}

}  // namespace wave::workloads
