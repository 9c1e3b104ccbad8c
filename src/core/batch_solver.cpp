#include "core/batch_solver.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/contracts.h"
#include "common/statistics.h"
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

/// Send(bytes, where) as the scalar solver's send_cost: a non-blocking
/// send posts its buffer and pays only the overhead.
usec send_cost(const AppParams& app, const MachineConfig& machine,
               const loggp::CommModel& comm, int bytes, Placement where) {
  if (app.nonblocking_sends && where == Placement::OffNode)
    return machine.loggp.off.o;
  if (app.nonblocking_sends && where == Placement::OnChip)
    return comm.is_large(bytes) ? machine.loggp.on.o : machine.loggp.on.ocopy;
  return comm.send(bytes, where);
}

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

// The bodies below are core/solver.cpp's evaluate() with the per-cell
// virtual calls and node-map divisions replaced by table lookups and the r2
// loop replaced by kernels::fill_recurrence. Comments mark the
// substitutions; every TimeSplit operation and its order is kept identical
// so results match the scalar path bit for bit.

BatchScratch::FillKey BatchEval::fill_input(const BatchPoint& point,
                                            ModelResult& res) const {
  const AppEntry& ae = apps_[point.app];
  const MachineEntry& me = machines_[point.machine];
  const AppParams& app = ae.app;
  const topo::Grid& grid = point.grid;
  const int n = grid.n();
  const int m = grid.m();

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

  // The Table 1/2/6 message costs the r2 recurrence can touch,
  // pre-evaluated for both placements, indexed [off-node=0, on-chip=1]:
  // exactly the doubles the scalar path's virtual calls return.
  BatchScratch::FillKey key{};
  key.costs.w = res.w;
  key.costs.wpre = res.wpre;
  for (const Placement where : {Placement::OffNode, Placement::OnChip}) {
    const int on_chip = where == Placement::OnChip;
    key.costs.total_ew[on_chip] = me.comm->total(res.msg_bytes_ew, where);
    key.costs.recv_ns[on_chip] = me.comm->recv(res.msg_bytes_ns, where);
    key.costs.send_ew[on_chip] =
        send_cost(app, me.machine, *me.comm, res.msg_bytes_ew, where);
    key.costs.total_ns[on_chip] = me.comm->total(res.msg_bytes_ns, where);
  }
  key.cx = me.machine.cx;
  key.cy = me.machine.cy;
  key.n = n;
  key.m = m;
  return key;
}

BatchScratch::FillCorners BatchEval::run_fill(const BatchScratch::FillKey& key,
                                              BatchScratch& scratch) {
  // Placement parity — all of topology/node_map.h reduced to two bitmaps.
  // Within one row, columns i-1 and i share a node iff they fall in the
  // same cx-wide tile column; within one column, rows j-1 and j share a
  // node iff they fall in the same cy-tall tile row. Every on-chip/off-node
  // decision of the recurrence is one of these pairs. A counter that wraps
  // at cx (cy) marks the tile boundaries, so no division is needed. A
  // bitmap is rebuilt only when its (count, tile) changes: every fill of a
  // group shares n, m, cx and cy.
  auto fill_parity = [](std::vector<std::uint8_t>& pair,
                        std::pair<int, int>& built, int count, int tile) {
    if (built == std::pair{count, tile}) return;
    built = {count, tile};
    pair.resize(static_cast<std::size_t>(count) + 1);
    for (int k = 2, pos = 0; k <= count; ++k) {
      if (++pos == tile) pos = 0;
      pair[k] = pos != 0;  // == ((k - 2) / tile == (k - 1) / tile)
    }
  };
  fill_parity(scratch.col_pair_, scratch.col_shape_, key.n, key.cx);
  fill_parity(scratch.row_pair_, scratch.row_shape_, key.m, key.cy);

  // (r2a)/(r2b): the pipeline-fill recurrence as a wavefront of skewed row
  // blocks (kernels/fill_recurrence.h); the buffer ends holding row m.
  scratch.row_.resize(static_cast<std::size_t>(key.n) + 1);
  kernels::fill_recurrence(key.costs, scratch.col_pair_.data(),
                           scratch.row_pair_.data(), key.n, key.m,
                           scratch.row_.data());
  return {scratch.row_[1], scratch.row_[key.n]};
}

void BatchEval::finish(const BatchPoint& point,
                       const BatchScratch::FillCorners& fill,
                       ModelResult& res) const {
  const AppEntry& ae = apps_[point.app];
  const MachineEntry& me = machines_[point.machine];
  const AppParams& app = ae.app;
  const MachineConfig& machine = me.machine;
  const loggp::CommModel& comm = *me.comm;
  const topo::Grid& grid = point.grid;
  const int n = grid.n();
  const int m = grid.m();

  // (r3a)/(r3b): fill times to the main-diagonal corner and the far corner.
  res.t_diagfill = TimeSplit{fill.diag.total, fill.diag.comm};
  res.t_fullfill = TimeSplit{fill.full.total, fill.full.comm};
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

  // (r5): one iteration — same operation order as the scalar assembly.
  res.fill = ae.ndiag * res.t_diagfill + ae.nfull * res.t_fullfill;
  res.iteration = res.fill + ae.nsweeps * res.t_stack + res.t_nonwavefront;
}

void BatchEval::evaluate_point(const BatchPoint& point, BatchScratch& scratch,
                               ModelResult& res) const {
  finish(point, run_fill(fill_input(point, res), scratch), res);
}

std::size_t BatchEval::evaluate_group(std::span<const BatchPoint> points,
                                      BatchScratch& scratch,
                                      std::span<ModelResult> results) const {
  WAVE_EXPECTS(results.size() == points.size());
  // The kernel is a pure function of the key's bits, so points whose keys
  // memcmp-equal share one run. A key that differs only in the sign of a
  // zero or a NaN payload runs again, which costs time but never bits.
  // memcmp on a key with padding would compare indeterminate bytes.
  static_assert(sizeof(BatchScratch::FillKey) ==
                sizeof(kernels::FillCosts) + 4 * sizeof(int));
  static_assert(sizeof(kernels::FillCosts) == 10 * sizeof(double));
  scratch.keys_.clear();
  scratch.corners_.clear();
  for (std::size_t k = 0; k < points.size(); ++k) {
    const BatchScratch::FillKey key = fill_input(points[k], results[k]);
    std::size_t j = 0;
    while (j < scratch.keys_.size() &&
           std::memcmp(&scratch.keys_[j], &key, sizeof key) != 0)
      ++j;
    if (j == scratch.keys_.size()) {
      scratch.keys_.push_back(key);
      scratch.corners_.push_back(run_fill(key, scratch));
    }
    finish(points[k], scratch.corners_[j], results[k]);
  }
  return scratch.keys_.size();
}

}  // namespace wave::core
