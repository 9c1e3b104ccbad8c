#include "workloads/wavefront.h"

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "topology/node_map.h"
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
  const double cells_per_tile =
      app.htile * (app.nx / grid.n()) * (app.ny / grid.m());
  spec.w_tile = app.wg * cells_per_tile;
  spec.w_pre = app.wg_pre * cells_per_tile;
  spec.msg_bytes_ew = app.message_bytes_ew(grid.n(), grid.m());
  spec.msg_bytes_ns = app.message_bytes_ns(grid.n(), grid.m());
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
struct SweepNeighbours {
  int upstream_x = -1;
  int upstream_y = -1;
  int downstream_x = -1;
  int downstream_y = -1;
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
  SweepNeighbours nb;
  auto rank_or_minus1 = [&](topo::Coord other) {
    return grid.contains(other) ? grid.rank_of(other) : -1;
  };
  if (from_west) {
    nb.upstream_x = rank_or_minus1({c.i - 1, c.j});
    nb.downstream_x = rank_or_minus1({c.i + 1, c.j});
  } else {
    nb.upstream_x = rank_or_minus1({c.i + 1, c.j});
    nb.downstream_x = rank_or_minus1({c.i - 1, c.j});
  }
  if (from_north) {
    nb.upstream_y = rank_or_minus1({c.i, c.j - 1});
    nb.downstream_y = rank_or_minus1({c.i, c.j + 1});
  } else {
    nb.upstream_y = rank_or_minus1({c.i, c.j + 1});
    nb.downstream_y = rank_or_minus1({c.i, c.j - 1});
  }
  return nb;
}

/// Between-iteration halo exchange of the LU stencil phase: overlapped
/// sendrecv with each existing neighbour, E/W pair then N/S pair.
sim::Process stencil_exchange(sim::RankCtx ctx, const WavefrontSpec& spec,
                              topo::Coord c) {
  const topo::Grid& g = spec.grid;
  if (c.i > 1)
    co_await ctx.mpi().exchange(ctx.rank(), g.rank_of({c.i - 1, c.j}),
                                spec.msg_bytes_ew);
  if (c.i < g.n())
    co_await ctx.mpi().exchange(ctx.rank(), g.rank_of({c.i + 1, c.j}),
                                spec.msg_bytes_ew);
  if (c.j > 1)
    co_await ctx.mpi().exchange(ctx.rank(), g.rank_of({c.i, c.j - 1}),
                                spec.msg_bytes_ns);
  if (c.j < g.m())
    co_await ctx.mpi().exchange(ctx.rank(), g.rank_of({c.i, c.j + 1}),
                                spec.msg_bytes_ns);
}

/// The rank program: runs `spec.iterations` iterations of all sweeps plus
/// the non-wavefront phase. `rank` indexes the grid row-major.
sim::Process wavefront_rank(sim::RankCtx ctx, const WavefrontSpec& spec,
                            int rank) {
  const topo::Coord c = spec.grid.coord_of(rank);
  // Outstanding isend requests of the previous tile (double buffering:
  // the new boundary values live in a second buffer, so only the
  // previous tile's sends must have drained before sending again).
  // Handles come from the fabric's recycled pool; wait() returns them.
  sim::Mpi::RequestHandle pending_x = nullptr, pending_y = nullptr;
  for (int iter = 0; iter < spec.iterations; ++iter) {
    for (const core::SweepOrigin origin : spec.sweep_origins) {
      const SweepNeighbours nb = neighbours_for(spec.grid, c, origin);
      for (int tile = 0; tile < spec.tiles_per_stack; ++tile) {
        if (spec.w_pre > 0.0) co_await ctx.compute(spec.w_pre);
        if (nb.upstream_x >= 0) co_await ctx.recv(nb.upstream_x);
        if (nb.upstream_y >= 0) co_await ctx.recv(nb.upstream_y);
        co_await ctx.compute(spec.w_tile);
        if (spec.nonblocking_sends) {
          if (pending_x) co_await ctx.wait(std::exchange(pending_x, nullptr));
          if (pending_y) co_await ctx.wait(std::exchange(pending_y, nullptr));
          if (nb.downstream_x >= 0) {
            pending_x = ctx.make_request();
            co_await ctx.isend(nb.downstream_x, spec.msg_bytes_ew, pending_x);
          }
          if (nb.downstream_y >= 0) {
            pending_y = ctx.make_request();
            co_await ctx.isend(nb.downstream_y, spec.msg_bytes_ns, pending_y);
          }
        } else {
          if (nb.downstream_x >= 0)
            co_await ctx.send(nb.downstream_x, spec.msg_bytes_ew);
          if (nb.downstream_y >= 0)
            co_await ctx.send(nb.downstream_y, spec.msg_bytes_ns);
        }
      }
      // Sweep boundary: drain outstanding sends before turning around.
      if (pending_x) co_await ctx.wait(std::exchange(pending_x, nullptr));
      if (pending_y) co_await ctx.wait(std::exchange(pending_y, nullptr));
    }
    for (int r = 0; r < spec.allreduce_count; ++r)
      co_await sim::allreduce(ctx, spec.allreduce_bytes);
    if (spec.has_stencil) {
      co_await ctx.compute(spec.stencil_compute);
      co_await stencil_exchange(ctx, spec, c);
    }
  }
}

}  // namespace

SimOutput simulate_wavefront(const core::AppParams& app,
                             const core::MachineConfig& machine,
                             const topo::Grid& grid, int iterations,
                             const sim::ProtocolOptions& protocol,
                             const sim::Observers& observers) {
  machine.validate();
  const WavefrontSpec spec = make_spec(app, grid, iterations);

  const topo::NodeMap node_map(grid, machine.cx, machine.cy);
  std::vector<int> node_of_rank(static_cast<std::size_t>(grid.size()));
  for (int r = 0; r < grid.size(); ++r)
    node_of_rank[r] = node_map.node_of(grid.coord_of(r));

  sim::World world(machine.loggp, std::move(node_of_rank), protocol,
                   observers);
  // Pre-size the calendars from the decomposition: each rank keeps only a
  // handful of events in flight (receives pending, one protocol step per
  // outstanding message), so a small multiple of P covers the steady
  // state and the warm-up never reallocates mid-run.
  world.engine().reserve(static_cast<std::size_t>(grid.size()) * 8 + 256);
  for (int r = 0; r < grid.size(); ++r)
    world.spawn("rank" + std::to_string(r),
                wavefront_rank(world.ctx(r), spec, r));
  return collect_run(world, iterations);
}

}  // namespace wave::workloads
