#include "workloads/sweep3d_hybrid.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "loggp/collectives.h"
#include "topology/grid3.h"
#include "workloads/builtin.h"

namespace wave::workloads {

using loggp::Placement;

namespace {

/// Everything one rank needs, derived once from the inputs.
struct HybridSpec {
  topo::Grid3 grid{topo::Grid(1, 1), 1};
  int angle_blocks = 1;
  usec w_block = 0.0;  ///< compute per rank per angle block
  int bytes_x = 0;     ///< E/W face payload per block
  int bytes_y = 0;     ///< N/S face payload per block
  int bytes_z = 0;     ///< z-face payload per block
  int allreduce_count = 0;
  int allreduce_bytes = 8;
  int iterations = 1;
};

int face_bytes(double per_cell, double cells) {
  return std::max(1, static_cast<int>(std::llround(per_cell * cells)));
}

HybridSpec make_hybrid_spec(const WorkloadInputs& in) {
  in.app.validate();
  WAVE_EXPECTS(in.iterations >= 1);
  const int pz = in.int_param_or("pz", 2);
  const int blocks = in.int_param_or("angle_blocks", 2);
  WAVE_EXPECTS_MSG(pz >= 1, "sweep3d-hybrid pz must be >= 1");
  WAVE_EXPECTS_MSG(blocks >= 1, "sweep3d-hybrid angle_blocks must be >= 1");
  HybridSpec spec;
  spec.grid = topo::Grid3(in.grid, pz);
  spec.angle_blocks = blocks;
  const double lx = in.app.nx / in.grid.n();
  const double ly = in.app.ny / in.grid.m();
  const double lz = in.app.nz / pz;
  spec.w_block = in.app.wg * lx * ly * lz / blocks;
  const double b = in.app.boundary_bytes_per_cell / blocks;
  spec.bytes_x = face_bytes(b, ly * lz);
  spec.bytes_y = face_bytes(b, lx * lz);
  spec.bytes_z = face_bytes(b, lx * ly);
  spec.allreduce_count = in.app.nonwavefront.allreduce_count;
  spec.allreduce_bytes = in.app.nonwavefront.allreduce_bytes;
  spec.iterations = in.iterations;
  return spec;
}

/// Up/downstream neighbours of one rank for one sweep direction.
struct HybridNeighbours {
  int up_x = -1, up_y = -1, up_z = -1;
  int down_x = -1, down_y = -1, down_z = -1;
};

/// `forward` sweeps origin (1,1,1) → (n,m,q); the reverse sweep mirrors
/// all three axes (opposite corners, so the sweeps fully serialize).
HybridNeighbours neighbours_for(const topo::Grid3& g, topo::Coord3 c,
                                bool forward) {
  const int s = forward ? 1 : -1;
  HybridNeighbours nb;
  nb.up_x = g.rank_at({c.i - s, c.j, c.k});
  nb.down_x = g.rank_at({c.i + s, c.j, c.k});
  nb.up_y = g.rank_at({c.i, c.j - s, c.k});
  nb.down_y = g.rank_at({c.i, c.j + s, c.k});
  nb.up_z = g.rank_at({c.i, c.j, c.k - s});
  nb.down_z = g.rank_at({c.i, c.j, c.k + s});
  return nb;
}

sim::Process hybrid_rank(sim::RankCtx ctx, const HybridSpec& spec, int rank) {
  const topo::Coord3 c = spec.grid.coord_of(rank);
  const sim::AllreduceSchedule allreduce(rank, ctx.size());
  for (int iter = 0; iter < spec.iterations; ++iter) {
    for (const bool forward : {true, false}) {
      const HybridNeighbours nb = neighbours_for(spec.grid, c, forward);
      for (int b = 0; b < spec.angle_blocks; ++b) {
        if (nb.up_x >= 0) co_await ctx.recv(nb.up_x);
        if (nb.up_y >= 0) co_await ctx.recv(nb.up_y);
        if (nb.up_z >= 0) co_await ctx.recv(nb.up_z);
        co_await ctx.compute(spec.w_block);
        if (nb.down_x >= 0) co_await ctx.send(nb.down_x, spec.bytes_x);
        if (nb.down_y >= 0) co_await ctx.send(nb.down_y, spec.bytes_y);
        if (nb.down_z >= 0) co_await ctx.send(nb.down_z, spec.bytes_z);
      }
    }
    for (int r = 0; r < spec.allreduce_count; ++r)
      for (int s = 0; s < allreduce.steps(); ++s)
        co_await ctx.step(allreduce[s], spec.allreduce_bytes);
  }
}

}  // namespace

const std::string& Sweep3dHybridWorkload::name() const {
  static const std::string n = "sweep3d-hybrid";
  return n;
}

const std::string& Sweep3dHybridWorkload::description() const {
  static const std::string d =
      "3-D-decomposed opposing sweeps with angle-block pipelining "
      "(grid.size() x pz ranks, one per node): 3-D fill recurrence + "
      "three-direction stack drain + all-reduces";
  return d;
}

std::vector<ParamSpec> Sweep3dHybridWorkload::parameters() const {
  return {{"pz", 2, "z-planes of processors (ranks = grid.size() * pz)"},
          {"angle_blocks", 2,
           "pipelined angular blocks per sweep (what keeps the z "
           "decomposition from serializing)"}};
}

ModelOutput Sweep3dHybridWorkload::predict(const core::MachineConfig& machine,
                                           const loggp::CommModel& comm,
                                           const WorkloadInputs& in) const {
  (void)machine;  // one rank per node: only the comm backend matters
  const HybridSpec spec = make_hybrid_spec(in);
  const topo::Grid3& g = spec.grid;
  const int n = g.n(), m = g.m(), q = g.q();
  const usec w = spec.w_block;

  const usec total_x = comm.total(spec.bytes_x, Placement::OffNode);
  const usec total_y = comm.total(spec.bytes_y, Placement::OffNode);
  const usec total_z = comm.total(spec.bytes_z, Placement::OffNode);
  const usec send_x = comm.send(spec.bytes_x, Placement::OffNode);
  const usec send_y = comm.send(spec.bytes_y, Placement::OffNode);
  const usec recv_x = comm.recv(spec.bytes_x, Placement::OffNode);
  const usec recv_y = comm.recv(spec.bytes_y, Placement::OffNode);
  const usec recv_z = comm.recv(spec.bytes_z, Placement::OffNode);

  // The r2 fill recurrence extended to (i,j,k): the start time of each
  // rank's first angle block is set by whichever upstream message arrives
  // last, with the same send-ordering corrections as the 2-D solver
  // (a sender emits its x face, then y, then z).
  std::vector<usec> start(static_cast<std::size_t>(g.size()), 0.0);
  auto start_at = [&](int i, int j, int k) -> usec& {
    return start[static_cast<std::size_t>(g.rank_of({i, j, k}))];
  };
  for (int k = 1; k <= q; ++k) {
    for (int j = 1; j <= m; ++j) {
      for (int i = 1; i <= n; ++i) {
        if (i == 1 && j == 1 && k == 1) continue;
        usec best = 0.0;
        if (i > 1) {
          usec cand = start_at(i - 1, j, k) + w + total_x;
          if (j > 1) cand += recv_y;
          if (k > 1) cand += recv_z;
          best = std::max(best, cand);
        }
        if (j > 1) {
          usec cand = start_at(i, j - 1, k) + w + total_y;
          if (i < n) cand += send_x;
          if (k > 1) cand += recv_z;
          best = std::max(best, cand);
        }
        if (k > 1) {
          usec cand = start_at(i, j, k - 1) + w + total_z;
          if (i < n) cand += send_x;
          if (j < m) cand += send_y;
          best = std::max(best, cand);
        }
        start_at(i, j, k) = best;
      }
    }
  }
  const usec fill = start_at(n, m, q);
  // A sweep's fill is pure pipeline: every term except the (#hops)·W
  // compute contributions is communication.
  const usec fill_compute = (n - 1 + m - 1 + q - 1) * w;

  // The r4 drain: up to three direction pairs per angle-block step.
  usec step_comm = 0.0;
  if (n > 1) step_comm += recv_x + send_x;
  if (m > 1) step_comm += recv_y + send_y;
  if (q > 1) step_comm += recv_z + comm.send(spec.bytes_z, Placement::OffNode);
  const usec stack = (step_comm + w) * spec.angle_blocks;

  // Two opposing sweeps fully serialize (opposite corners), then the
  // application's all-reduces; one rank per node means C_eff = 1.
  usec allreduce = 0.0;
  if (spec.allreduce_count > 0)
    allreduce = spec.allreduce_count *
                loggp::allreduce_time(comm, g.size(), 1, spec.allreduce_bytes);

  ModelOutput out;
  out.time_us = 2.0 * (fill + stack) + allreduce;
  out.comm_us =
      2.0 * (fill - fill_compute + stack - w * spec.angle_blocks) + allreduce;
  out.extra = {{"model_fill_us", fill},
               {"model_stack_us", stack},
               {"model_allreduce_us", allreduce}};
  return out;
}

SimOutput Sweep3dHybridWorkload::simulate(const SimMachine& machine,
                                          const WorkloadInputs& in) const {
  const HybridSpec spec = make_hybrid_spec(in);
  // One rank per node: the hybrid decomposition studies inter-node
  // pipeline shape, so the machine's cx × cy packing is deliberately not
  // applied (the model assumes all faces off-node for the same reason).
  std::vector<int> node_of_rank(static_cast<std::size_t>(spec.grid.size()));
  for (int r = 0; r < spec.grid.size(); ++r) node_of_rank[r] = r;
  sim::World world(machine.loggp, std::move(node_of_rank), machine.protocol,
                   in.observers);
  for (int r = 0; r < spec.grid.size(); ++r)
    world.spawn(hybrid_rank(world.ctx(r), spec, r));
  return collect_run(world, in.iterations);
}

}  // namespace wave::workloads
