#include "core/batch_solver.h"

#include <algorithm>

#include "common/statistics.h"
#include "kernels/batch_terms.h"
#include "kernels/fill_recurrence.h"
#include "loggp/collectives.h"
#include "loggp/contention.h"
#include "loggp/stencil.h"

namespace wave::core {

using loggp::Placement;

namespace {

/// Communication cost term of the recurrence, tagged entirely as comm time
/// (same as the scalar solver's file-local helper).
TimeSplit comm_term(usec t) { return TimeSplit{t, t}; }

}  // namespace

BatchEval::BatchEval(const loggp::CommModelRegistry& registry)
    : registry_(&registry) {}

std::uint32_t BatchEval::add_app(const AppParams& app) {
  for (std::uint32_t id = 0; id < apps_.size(); ++id)
    if (apps_[id].app == app) return id;
  app.validate();
  AppEntry e;
  e.app = app;
  e.ndiag = app.sweeps.ndiag();
  e.nfull = app.sweeps.nfull();
  e.nsweeps = app.sweeps.nsweeps();
  e.tiles = app.tiles_per_stack();
  e.reps = static_cast<double>(app.iterations_per_timestep) *
           static_cast<double>(app.energy_groups);
  apps_.push_back(std::move(e));
  return static_cast<std::uint32_t>(apps_.size() - 1);
}

std::uint32_t BatchEval::add_machine(const MachineConfig& machine) {
  for (std::uint32_t id = 0; id < machines_.size(); ++id)
    if (machines_[id].machine == machine) return id;
  machine.validate();
  MachineEntry e;
  e.machine = machine;
  e.comm = machine.make_comm_model(*registry_);
  machines_.push_back(std::move(e));
  return static_cast<std::uint32_t>(machines_.size() - 1);
}

// The body below is core/solver.cpp's evaluate() with the per-cell virtual
// calls and node-map divisions replaced by table lookups and the r2 loop
// replaced by kernels::fill_recurrence. Comments mark the substitutions;
// every TimeSplit operation and its order is kept identical so results
// match the scalar path bit for bit.
void BatchEval::evaluate_terms(const BatchPoint& point, BatchScratch& scratch,
                               ModelResult& res) const {
  const AppEntry& ae = apps_[point.app];
  const MachineEntry& me = machines_[point.machine];
  const AppParams& app = ae.app;
  const MachineConfig& machine = me.machine;
  const loggp::CommModel& comm = *me.comm;
  const topo::Grid& grid = point.grid;
  const int n = grid.n();
  const int m = grid.m();

  auto send_cost = [&](int bytes, Placement where) -> usec {
    if (app.nonblocking_sends && where == Placement::OffNode)
      return machine.loggp.off.o;
    if (app.nonblocking_sends && where == Placement::OnChip)
      return comm.is_large(bytes) ? machine.loggp.on.o : machine.loggp.on.ocopy;
    return comm.send(bytes, where);
  };

  res = ModelResult{};  // res is reused across points
  res.grid = grid;
  res.iterations_per_timestep = app.iterations_per_timestep;
  res.energy_groups = app.energy_groups;

  // (r1a)/(r1b): per-tile work before/after the boundary receives.
  const double cells_per_tile = app.htile * (app.nx / n) * (app.ny / m);
  res.wpre = app.wg_pre * cells_per_tile;
  res.w = app.wg * cells_per_tile;

  res.msg_bytes_ew = app.message_bytes_ew(n, m);
  res.msg_bytes_ns = app.message_bytes_ns(n, m);

  // Placement parity — all of topology/node_map.h reduced to two bitmaps.
  // Within one row, columns i-1 and i share a node iff they fall in the
  // same cx-wide tile column; within one column, rows j-1 and j share a
  // node iff they fall in the same cy-tall tile row. Every on-chip/off-node
  // decision of the recurrence is one of these pairs. A counter that wraps
  // at cx (cy) marks the tile boundaries, so no division is needed.
  auto fill_parity = [](std::vector<std::uint8_t>& pair, int count,
                        int tile) {
    pair.resize(static_cast<std::size_t>(count) + 1);
    for (int k = 2, pos = 0; k <= count; ++k) {
      if (++pos == tile) pos = 0;
      pair[k] = pos != 0;  // == ((k - 2) / tile == (k - 1) / tile)
    }
  };
  fill_parity(scratch.col_pair_, n, machine.cx);
  fill_parity(scratch.row_pair_, m, machine.cy);

  // The Table 1/2/6 message costs the r2 recurrence can touch,
  // pre-evaluated for both placements, indexed [off-node=0, on-chip=1]:
  // exactly the doubles the scalar path's virtual calls return.
  kernels::FillCosts costs;
  costs.w = res.w;
  costs.wpre = res.wpre;
  for (const Placement where : {Placement::OffNode, Placement::OnChip}) {
    const int on_chip = where == Placement::OnChip;
    costs.total_ew[on_chip] = comm.total(res.msg_bytes_ew, where);
    costs.recv_ns[on_chip] = comm.recv(res.msg_bytes_ns, where);
    costs.send_ew[on_chip] = send_cost(res.msg_bytes_ew, where);
    costs.total_ns[on_chip] = comm.total(res.msg_bytes_ns, where);
  }

  // (r2a)/(r2b): the pipeline-fill recurrence as a wavefront of skewed row
  // blocks (kernels/fill_recurrence.h); the buffer ends holding row m.
  scratch.row_.resize(static_cast<std::size_t>(n) + 1);
  kernels::fill_recurrence(costs, scratch.col_pair_.data(),
                           scratch.row_pair_.data(), n, m,
                           scratch.row_.data());

  // (r3a)/(r3b): fill times to the main-diagonal corner and the far corner.
  res.t_diagfill = TimeSplit{scratch.row_[1].total, scratch.row_[1].comm};
  res.t_fullfill = TimeSplit{scratch.row_[n].total, scratch.row_[n].comm};
  if (machine.synchronization_terms) {
    res.t_diagfill += comm_term((m - 1) * machine.loggp.off.L);
    res.t_fullfill +=
        comm_term(((m - 1) + std::max(0, n - 2)) * machine.loggp.off.L);
  }

  // (r4): stack-drain time, off-node costs plus the Table 6 shared-bus
  // contention additions (unless the backend folds interference in).
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
    send_e = send_cost(res.msg_bytes_ew, Placement::OffNode) +
             mult.send_east * i_ew;
  }
  if (m > 1) {
    recv_n = comm.recv(res.msg_bytes_ns, Placement::OffNode) +
             mult.recv_north * i_ns;
    send_s = send_cost(res.msg_bytes_ns, Placement::OffNode) +
             mult.send_south * i_ns;
  }
  const double tiles = ae.tiles;  // == app.tiles_per_stack()
  const usec per_tile_comm = recv_w + recv_n + send_e + send_s;
  res.t_stack.total = (per_tile_comm + res.w + res.wpre) * tiles - res.wpre;
  res.t_stack.comm = per_tile_comm * tiles;

  // Tnonwavefront: the application's between-iteration phase.
  const int total_cores = grid.size();
  const int c_eff =
      common::floor_pow2(std::min(machine.cores_per_node(), total_cores));
  const auto& nwf = app.nonwavefront;
  if (nwf.allreduce_count > 0) {
    const usec one =
        loggp::allreduce_time(comm, total_cores, c_eff, nwf.allreduce_bytes);
    res.t_nonwavefront += comm_term(nwf.allreduce_count * one);
  }
  if (nwf.has_stencil) {
    loggp::StencilPhase phase;
    phase.cells_per_processor = (app.nx / n) * (app.ny / m) * app.nz;
    phase.work_per_cell = nwf.stencil_work_per_cell;
    phase.msg_bytes_ew = n > 1 ? res.msg_bytes_ew : 0;
    phase.msg_bytes_ns = m > 1 ? res.msg_bytes_ns : 0;
    const usec t = loggp::stencil_time(comm, phase);
    const usec compute = phase.cells_per_processor * phase.work_per_cell;
    res.t_nonwavefront += TimeSplit{t, t - compute};
  }
}

void BatchEval::evaluate_point(const BatchPoint& point, BatchScratch& scratch,
                               ModelResult& res) const {
  evaluate_terms(point, scratch, res);
  // (r5): one iteration — same operation order as the scalar assembly and
  // as the element-wise kernels below.
  const AppEntry& ae = apps_[point.app];
  res.fill = ae.ndiag * res.t_diagfill + ae.nfull * res.t_fullfill;
  res.iteration = res.fill + ae.nsweeps * res.t_stack + res.t_nonwavefront;
}

BatchResults BatchEval::evaluate(std::span<const BatchPoint> points) const {
  BatchResults out;
  const std::size_t count = points.size();
  out.grids.reserve(count);
  out.w.resize(count);
  out.wpre.resize(count);
  out.msg_bytes_ew.resize(count);
  out.msg_bytes_ns.resize(count);
  out.diag_total.resize(count);
  out.diag_comm.resize(count);
  out.full_total.resize(count);
  out.full_comm.resize(count);
  out.stack_total.resize(count);
  out.stack_comm.resize(count);
  out.nonwf_total.resize(count);
  out.nonwf_comm.resize(count);
  out.fill_total.resize(count);
  out.fill_comm.resize(count);
  out.iter_total.resize(count);
  out.iter_comm.resize(count);
  out.step_total.resize(count);
  out.step_comm.resize(count);
  out.iterations_per_timestep.resize(count);
  out.energy_groups.resize(count);

  // Per-point r5 coefficients, gathered once from the memoized app axis.
  std::vector<double> ndiag(count), nfull(count), nsweeps(count), reps(count);

  BatchScratch scratch;
  ModelResult res;
  for (std::size_t k = 0; k < count; ++k) {
    const BatchPoint& p = points[k];
    evaluate_terms(p, scratch, res);
    out.grids.push_back(res.grid);
    out.w[k] = res.w;
    out.wpre[k] = res.wpre;
    out.msg_bytes_ew[k] = res.msg_bytes_ew;
    out.msg_bytes_ns[k] = res.msg_bytes_ns;
    out.diag_total[k] = res.t_diagfill.total;
    out.diag_comm[k] = res.t_diagfill.comm;
    out.full_total[k] = res.t_fullfill.total;
    out.full_comm[k] = res.t_fullfill.comm;
    out.stack_total[k] = res.t_stack.total;
    out.stack_comm[k] = res.t_stack.comm;
    out.nonwf_total[k] = res.t_nonwavefront.total;
    out.nonwf_comm[k] = res.t_nonwavefront.comm;
    out.iterations_per_timestep[k] = res.iterations_per_timestep;
    out.energy_groups[k] = res.energy_groups;
    const AppEntry& ae = apps_[p.app];
    ndiag[k] = ae.ndiag;
    nfull[k] = ae.nfull;
    nsweeps[k] = ae.nsweeps;
    reps[k] = ae.reps;
  }

  // (r5) over the whole batch, one vectorizable lane at a time.
  kernels::assemble_fill(ndiag.data(), nfull.data(), out.diag_total.data(),
                         out.full_total.data(), out.fill_total.data(), count);
  kernels::assemble_fill(ndiag.data(), nfull.data(), out.diag_comm.data(),
                         out.full_comm.data(), out.fill_comm.data(), count);
  kernels::assemble_iteration(out.fill_total.data(), nsweeps.data(),
                              out.stack_total.data(), out.nonwf_total.data(),
                              out.iter_total.data(), count);
  kernels::assemble_iteration(out.fill_comm.data(), nsweeps.data(),
                              out.stack_comm.data(), out.nonwf_comm.data(),
                              out.iter_comm.data(), count);
  kernels::scale_by(reps.data(), out.iter_total.data(), out.step_total.data(),
                    count);
  kernels::scale_by(reps.data(), out.iter_comm.data(), out.step_comm.data(),
                    count);
  return out;
}

ModelResult BatchResults::at(std::size_t k) const {
  ModelResult res;
  res.grid = grids[k];
  res.w = w[k];
  res.wpre = wpre[k];
  res.msg_bytes_ew = msg_bytes_ew[k];
  res.msg_bytes_ns = msg_bytes_ns[k];
  res.t_diagfill = TimeSplit{diag_total[k], diag_comm[k]};
  res.t_fullfill = TimeSplit{full_total[k], full_comm[k]};
  res.t_stack = TimeSplit{stack_total[k], stack_comm[k]};
  res.t_nonwavefront = TimeSplit{nonwf_total[k], nonwf_comm[k]};
  res.fill = TimeSplit{fill_total[k], fill_comm[k]};
  res.iteration = TimeSplit{iter_total[k], iter_comm[k]};
  res.iterations_per_timestep = iterations_per_timestep[k];
  res.energy_groups = energy_groups[k];
  return res;
}

}  // namespace wave::core
