#include "core/solver.h"

#include <algorithm>
#include <vector>

#include "common/contracts.h"
#include "common/statistics.h"
#include "loggp/collectives.h"
#include "loggp/contention.h"
#include "topology/node_map.h"

namespace wave::core {

using loggp::Placement;

Solver::Solver(AppParams app, MachineConfig machine,
               std::shared_ptr<const loggp::CommModel> comm)
    : app_(std::move(app)),
      machine_(std::move(machine)),
      comm_(std::move(comm)) {
  app_.validate();
  machine_.validate();
  WAVE_EXPECTS_MSG(comm_ != nullptr, "solver needs a comm backend");
}

Solver::Solver(AppParams app, MachineConfig machine,
               const loggp::CommModel& comm)
    : Solver(std::move(app), std::move(machine),
             // Aliasing ctor with an empty owner: a non-owning
             // shared_ptr onto the caller's backend.
             std::shared_ptr<const loggp::CommModel>(
                 std::shared_ptr<const loggp::CommModel>(), &comm)) {}

Solver::Solver(AppParams app, MachineConfig machine,
               const loggp::CommModelRegistry& registry)
    : app_(std::move(app)), machine_(std::move(machine)) {
  app_.validate();
  machine_.validate();
  comm_ = machine_.make_comm_model(registry);
}

ModelResult Solver::evaluate(int processors) const {
  WAVE_EXPECTS_MSG(processors >= 1, "need at least one processor");
  return evaluate(topo::closest_to_square(processors));
}

TimeSplit ModelResult::timestep_split() const {
  const double reps = static_cast<double>(iterations_per_timestep) *
                      static_cast<double>(energy_groups);
  return reps * iteration;
}

namespace {

/// Communication cost term of the recurrence, tagged entirely as comm time.
TimeSplit comm_term(usec t) { return TimeSplit{t, t}; }

}  // namespace

ModelResult evaluate_r1(const AppParams& app, const topo::Grid& grid) {
  const int n = grid.n();
  const int m = grid.m();
  ModelResult res;
  res.grid = grid;
  res.iterations_per_timestep = app.iterations_per_timestep;
  res.energy_groups = app.energy_groups;

  // (r1a)/(r1b): per-tile work before/after the boundary receives.
  const double cells_per_tile = app.htile * (app.nx / n) * (app.ny / m);
  res.wpre = app.wg_pre * cells_per_tile;
  res.w = app.wg * cells_per_tile;

  res.msg_bytes_ew = app.message_bytes_ew(n, m);
  res.msg_bytes_ns = app.message_bytes_ns(n, m);
  return res;
}

usec send_cost(const AppParams& app, const MachineConfig& machine,
               const loggp::CommModel& comm, int bytes, Placement where) {
  if (app.nonblocking_sends && where == Placement::OffNode)
    return machine.loggp.off.o;
  if (app.nonblocking_sends && where == Placement::OnChip)
    return comm.is_large(bytes) ? machine.loggp.on.o : machine.loggp.on.ocopy;
  return comm.send(bytes, where);
}

kernels::FillCosts fill_costs(const AppParams& app,
                              const MachineConfig& machine,
                              const loggp::CommModel& comm,
                              const ModelResult& r1) {
  // Indexed [off-node = 0, on-chip = 1].
  kernels::FillCosts costs;
  costs.w = r1.w;
  costs.wpre = r1.wpre;
  for (const Placement where : {Placement::OffNode, Placement::OnChip}) {
    const int on_chip = where == Placement::OnChip;
    costs.total_ew[on_chip] = comm.total(r1.msg_bytes_ew, where);
    costs.recv_ns[on_chip] = comm.recv(r1.msg_bytes_ns, where);
    costs.send_ew[on_chip] =
        send_cost(app, machine, comm, r1.msg_bytes_ew, where);
    costs.total_ns[on_chip] = comm.total(r1.msg_bytes_ns, where);
  }
  return costs;
}

usec halo_time(const MachineConfig& machine, const loggp::CommModel& comm,
               const topo::Grid& grid, int bytes_ew, int bytes_ns) {
  usec t = 0.0;
  if (grid.n() > 1) {
    const Placement ew =
        grid.n() <= machine.cx ? Placement::OnChip : Placement::OffNode;
    t += comm.send(bytes_ew, ew) + comm.total(bytes_ew, ew);
  }
  if (grid.m() > 1) {
    const Placement ns =
        grid.m() <= machine.cy ? Placement::OnChip : Placement::OffNode;
    t += comm.send(bytes_ns, ns) + comm.total(bytes_ns, ns);
  }
  return t;
}

TimeSplit nonwavefront_time(const AppParams& app,
                            const MachineConfig& machine,
                            const loggp::CommModel& comm,
                            const ModelResult& r1) {
  const int total_cores = r1.grid.size();
  const int c_eff =
      common::floor_pow2(std::min(machine.cores_per_node(), total_cores));
  const auto& nwf = app.nonwavefront;
  TimeSplit t_nwf;
  if (nwf.allreduce_count > 0) {
    const usec one =
        loggp::allreduce_time(comm, total_cores, c_eff, nwf.allreduce_bytes);
    t_nwf += comm_term(nwf.allreduce_count * one);
  }
  if (nwf.has_stencil) {
    // LU's four-point stencil over the local sub-grid, then its halo swap.
    const double cells =
        (app.nx / r1.grid.n()) * (app.ny / r1.grid.m()) * app.nz;
    const usec halo = halo_time(machine, comm, r1.grid, r1.msg_bytes_ew,
                                r1.msg_bytes_ns);
    t_nwf += TimeSplit{cells * nwf.stencil_work_per_cell + halo, halo};
  }
  return t_nwf;
}

void evaluate_r3_r5(const AppParams& app, const MachineConfig& machine,
                    const loggp::CommModel& comm, const TimeSplit& diag_fill,
                    const TimeSplit& full_fill, ModelResult& res) {
  const int n = res.grid.n();
  const int m = res.grid.m();

  // (r3a)/(r3b): fill times to the main-diagonal corner and the far corner.
  res.t_diagfill = diag_fill;
  res.t_fullfill = full_fill;
  if (machine.synchronization_terms) {
    // Handshake back-propagation ([3] eqs. s3/s4): replies ripple back
    // along the pipeline, one L per hop to the main diagonal and along
    // both edges to the far corner.
    res.t_diagfill += comm_term((m - 1) * machine.loggp.off.L);
    res.t_fullfill +=
        comm_term(((m - 1) + std::max(0, n - 2)) * machine.loggp.off.L);
  }

  // (r4): stack-drain time. All communications are off-node ("the
  // processing of the stack of tiles occurs at the rate of the slowest
  // communication in each direction"), plus the shared-bus contention
  // additions of Table 6 — unless the comm backend already folds bus
  // interference into every message cost, in which case adding the
  // multipliers would charge contention twice. Degenerate
  // single-row/column grids have no neighbours in the collapsed
  // direction, so those terms vanish.
  const auto mult = comm.models_bus_contention()
                        ? loggp::ContentionMultipliers{}
                        : loggp::contention_multipliers(machine.cx, machine.cy,
                                                        machine.buses_per_node);
  const usec i_ew = loggp::interference_unit(machine.loggp, res.msg_bytes_ew);
  const usec i_ns = loggp::interference_unit(machine.loggp, res.msg_bytes_ns);
  usec recv_w = 0.0, send_e = 0.0, recv_n = 0.0, send_s = 0.0;
  if (n > 1) {
    recv_w = comm.recv(res.msg_bytes_ew, Placement::OffNode) +
             mult.recv_west * i_ew;
    send_e =
        send_cost(app, machine, comm, res.msg_bytes_ew, Placement::OffNode) +
        mult.send_east * i_ew;
  }
  if (m > 1) {
    recv_n = comm.recv(res.msg_bytes_ns, Placement::OffNode) +
             mult.recv_north * i_ns;
    send_s =
        send_cost(app, machine, comm, res.msg_bytes_ns, Placement::OffNode) +
        mult.send_south * i_ns;
  }
  const double tiles = app.tiles_per_stack();
  const usec per_tile_comm = recv_w + recv_n + send_e + send_s;
  res.t_stack.total = (per_tile_comm + res.w + res.wpre) * tiles - res.wpre;
  res.t_stack.comm = per_tile_comm * tiles;

  res.t_nonwavefront = nonwavefront_time(app, machine, comm, res);

  // (r5): one iteration.
  const double ndiag = app.sweeps.ndiag();
  const double nfull = app.sweeps.nfull();
  const double nsweeps = app.sweeps.nsweeps();
  res.fill = ndiag * res.t_diagfill + nfull * res.t_fullfill;
  res.iteration = res.fill + nsweeps * res.t_stack + res.t_nonwavefront;
}

ModelResult Solver::evaluate(const topo::Grid& grid) const {
  const int n = grid.n();
  const int m = grid.m();
  ModelResult res = evaluate_r1(app_, grid);

  // (r2) on single-core and 2-D nodes: the fill's two corners come from
  // its longest paths without the recurrence (kernels/fill_recurrence.h).
  const kernels::FillCosts costs = fill_costs(app_, machine_, *comm_, res);
  if (kernels::closed_form_applies(costs, machine_.cx, machine_.cy)) {
    const kernels::FillCorners fill = kernels::fill_without_recurrence(
        costs, machine_.cx, machine_.cy, n, m);
    evaluate_r3_r5(app_, machine_, *comm_,
                   TimeSplit{fill.diag.total, fill.diag.comm},
                   TimeSplit{fill.full.total, fill.full.comm}, res);
    return res;
  }

  // Per-direction communication costs for both placements. On a
  // single-core-per-node mapping everything is off-node (§4.2); on CMP
  // nodes the placement of each operation depends on the processor's
  // position inside its node's cx × cy rectangle (Table 6).
  const topo::NodeMap node_map(grid, machine_.cx, machine_.cy);
  auto placed = [&](bool on_node) {
    return on_node ? Placement::OnChip : Placement::OffNode;
  };

  // (r2a)/(r2b): pipeline-fill recurrence over the grid. StartP is the time
  // at which each processor starts computing its first tile of the sweep.
  // Row-major dynamic programming: StartP(i,j) depends on west and north
  // neighbours only.
  std::vector<TimeSplit> start(static_cast<std::size_t>(n) * m);
  auto start_at = [&](int i, int j) -> TimeSplit& {
    return start[static_cast<std::size_t>(j - 1) * n + (i - 1)];
  };
  const TimeSplit w_term{res.w, 0.0};

  for (int j = 1; j <= m; ++j) {
    for (int i = 1; i <= n; ++i) {
      if (i == 1 && j == 1) {
        start_at(1, 1) = TimeSplit{res.wpre, 0.0};
        continue;
      }
      TimeSplit best{-1.0, 0.0};
      if (i > 1) {
        // West message arrives last: its full TotalComm, then the queued
        // north message still costs its Receive processing.
        const topo::Coord me{i, j};
        TimeSplit cand = start_at(i - 1, j) + w_term;
        cand += comm_term(comm_->total(
            res.msg_bytes_ew,
            placed(node_map.is_on_node(me, topo::Direction::West))));
        if (j > 1) {
          cand += comm_term(comm_->recv(
              res.msg_bytes_ns,
              placed(node_map.is_on_node(me, topo::Direction::North))));
        }
        if (cand.total > best.total) best = cand;
      }
      if (j > 1) {
        // North message arrives last: the sender (i,j-1) first sends East
        // (if it has an east neighbour), then sends South to us.
        const topo::Coord sender{i, j - 1};
        TimeSplit cand = start_at(i, j - 1) + w_term;
        if (i < n) {
          cand += comm_term(send_cost(
              app_, machine_, *comm_, res.msg_bytes_ew,
              placed(node_map.is_on_node(sender, topo::Direction::East))));
        }
        cand += comm_term(comm_->total(
            res.msg_bytes_ns,
            placed(node_map.is_on_node(sender, topo::Direction::South))));
        if (cand.total > best.total) best = cand;
      }
      start_at(i, j) = best;
    }
  }

  evaluate_r3_r5(app_, machine_, *comm_, start_at(1, m), start_at(n, m), res);
  return res;
}

}  // namespace wave::core
