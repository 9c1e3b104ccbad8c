#include "workloads/wavefront.h"

#include <cmath>
#include <iterator>
#include <string>

#include "common/contracts.h"
#include "core/solver.h"
#include "workloads/builtin.h"

namespace wave::workloads {

WavefrontSpec make_spec(const core::AppParams& app, const topo::Grid& grid,
                        int iterations) {
  app.validate();
  WAVE_EXPECTS(iterations >= 1);
  WavefrontSpec spec;
  spec.grid = grid;
  spec.tiles_per_stack =
      std::max(1, static_cast<int>(std::llround(app.tiles_per_stack())));
  // The model's own (r1a)/(r1b) and message sizes.
  const core::ModelResult r1 = core::evaluate_r1(app, grid);
  spec.w_tile = r1.w;
  spec.w_pre = r1.wpre;
  spec.msg_bytes_ew = r1.msg_bytes_ew;
  spec.msg_bytes_ns = r1.msg_bytes_ns;
  for (const core::Sweep& s : app.sweeps.sweeps())
    spec.sweep_origins.push_back(s.origin);
  spec.allreduce_count = app.nonwavefront.allreduce_count;
  spec.allreduce_bytes = app.nonwavefront.allreduce_bytes;
  spec.has_stencil = app.nonwavefront.has_stencil;
  spec.stencil_compute = app.nonwavefront.stencil_work_per_cell *
                         (app.nx / grid.n()) * (app.ny / grid.m()) * app.nz;
  spec.iterations = iterations;
  spec.nonblocking_sends = app.nonblocking_sends;
  return spec;
}

namespace {

/// Neighbour ranks of one processor for one sweep direction, -1 if absent.
/// Index 0 is the x (E/W) axis, index 1 the y (N/S) axis.
struct SweepNeighbours {
  int upstream[2] = {-1, -1};
  int downstream[2] = {-1, -1};
};

SweepNeighbours neighbours_for(const topo::Grid& grid, topo::Coord c,
                               core::SweepOrigin origin) {
  using core::SweepOrigin;
  // The sweep flows away from its origin corner: for a NorthWest origin the
  // x-flow is West -> East and the y-flow North -> South; the other corners
  // mirror one or both axes.
  const bool from_west = origin == SweepOrigin::NorthWest ||
                         origin == SweepOrigin::SouthWest;
  const bool from_north = origin == SweepOrigin::NorthWest ||
                          origin == SweepOrigin::NorthEast;
  const int dx = from_west ? 1 : -1;
  const int dy = from_north ? 1 : -1;
  SweepNeighbours nb;
  nb.upstream[0] = grid.rank_at({c.i - dx, c.j});
  nb.downstream[0] = grid.rank_at({c.i + dx, c.j});
  nb.upstream[1] = grid.rank_at({c.i, c.j - dy});
  nb.downstream[1] = grid.rank_at({c.i, c.j + dy});
  return nb;
}

/// Boundary payload of one face: x (E/W, axis 0) or y (N/S, axis 1).
int face_bytes(const WavefrontSpec& spec, int axis) {
  return axis == 0 ? spec.msg_bytes_ew : spec.msg_bytes_ns;
}

/// The rank program: runs `spec.iterations` iterations of all sweeps plus
/// the non-wavefront phase. `rank` indexes the grid row-major.
///
/// One of these frames lives per rank for the whole run, and every
/// co_await site holds its own awaiter slot in it. So each operation kind
/// has one site, looping over the x/y pair, and the all-reduces run as a
/// step schedule in this frame instead of a child coroutine.
sim::Process wavefront_rank(sim::RankCtx ctx, const WavefrontSpec& spec,
                            int rank) {
  const topo::Coord c = spec.grid.coord_of(rank);
  const sim::AllreduceSchedule allreduce(rank, ctx.size());
  // Outstanding isend requests of the previous tile, x then y (double
  // buffering: the new boundary values live in a second buffer, so only
  // the previous tile's sends must have drained before sending again).
  // Handles come from the fabric's recycled pool; wait() returns them.
  sim::Mpi::RequestHandle pending[2] = {nullptr, nullptr};
  for (int iter = 0; iter < spec.iterations; ++iter) {
    for (int sweep = 0; sweep < std::ssize(spec.sweep_origins); ++sweep) {
      const SweepNeighbours nb =
          neighbours_for(spec.grid, c, spec.sweep_origins[sweep]);
      // Tile `tiles_per_stack` is the sweep boundary: it computes and
      // sends nothing, and only drains the outstanding sends before the
      // next sweep turns around.
      for (int tile = 0; tile <= spec.tiles_per_stack; ++tile) {
        const bool boundary = tile == spec.tiles_per_stack;
        if (!boundary) {
          if (spec.w_pre > 0.0) co_await ctx.compute(spec.w_pre);
          for (int axis = 0; axis < 2; ++axis)
            if (nb.upstream[axis] >= 0) co_await ctx.recv(nb.upstream[axis]);
          co_await ctx.compute(spec.w_tile);
        }
        for (int axis = 0; axis < 2; ++axis) {
          if (pending[axis] == nullptr) continue;
          co_await ctx.wait(pending[axis]);
          pending[axis] = nullptr;
        }
        if (boundary) continue;
        for (int axis = 0; axis < 2; ++axis) {
          if (nb.downstream[axis] < 0) continue;
          if (spec.nonblocking_sends) {
            pending[axis] = ctx.make_request();
            co_await ctx.isend(nb.downstream[axis], face_bytes(spec, axis),
                               pending[axis]);
          } else {
            co_await ctx.send(nb.downstream[axis], face_bytes(spec, axis));
          }
        }
      }
    }
    for (int r = 0; r < spec.allreduce_count; ++r)
      for (int s = 0; s < allreduce.steps(); ++s)
        co_await ctx.step(allreduce[s], spec.allreduce_bytes);
    if (spec.has_stencil) {
      co_await ctx.compute(spec.stencil_compute);
      // Between-iteration halo swap with every existing neighbour at
      // once, as halo2d's.
      auto halo = face_halo(ctx, spec.grid, c, spec.msg_bytes_ew,
                            spec.msg_bytes_ns);
      co_await halo;
    }
  }
}

}  // namespace

SimOutput simulate_wavefront(const core::AppParams& app,
                             const SimMachine& machine,
                             const topo::Grid& grid, int iterations,
                             const sim::Observers& observers) {
  const WavefrontSpec spec = make_spec(app, grid, iterations);
  sim::World world(machine.loggp, place_ranks(grid, machine),
                   machine.protocol, observers);
  for (int r = 0; r < grid.size(); ++r)
    world.spawn(wavefront_rank(world.ctx(r), spec, r));
  return collect_run(world, iterations);
}

}  // namespace wave::workloads
