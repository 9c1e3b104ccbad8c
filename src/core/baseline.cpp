#include "core/baseline.h"

#include <algorithm>

#include "loggp/collectives.h"
#include "loggp/comm_model.h"
#include "loggp/stencil.h"

namespace wave::core {

BaselineResult hoisie_baseline(const AppParams& app,
                               const MachineConfig& machine,
                               const loggp::CommModelRegistry& registry,
                               const topo::Grid& grid) {
  app.validate();
  machine.validate();
  // The baseline honours the machine's comm-backend selection like the
  // plug-and-play solver does.
  const auto comm_ptr = machine.make_comm_model(registry);
  const loggp::CommModel& comm = *comm_ptr;
  const int n = grid.n();
  const int m = grid.m();

  BaselineResult res;
  const double cells_per_tile = app.htile * (app.nx / n) * (app.ny / m);
  const int ew = app.message_bytes_ew(n, m);
  const int ns = app.message_bytes_ns(n, m);

  // Per-step cost: all the work for one tile plus one send and one receive
  // in each grid direction, everything off-node.
  using loggp::Placement;
  usec comm_cost = 0.0;
  if (n > 1)
    comm_cost += comm.recv(ew, Placement::OffNode) +
                 comm.send(ew, Placement::OffNode);
  if (m > 1)
    comm_cost += comm.recv(ns, Placement::OffNode) +
                 comm.send(ns, Placement::OffNode);
  res.step_cost = (app.wg_pre + app.wg) * cells_per_tile + comm_cost;

  const double fill_steps = (n - 1) + (m - 1);
  const double tiles = app.tiles_per_stack();
  res.fill_time = fill_steps * res.step_cost;
  res.sweep_time = (fill_steps + tiles) * res.step_cost;

  // Between-iteration phase, same sub-models as the plug-and-play solver.
  const int total = grid.size();
  int c_eff = 1;
  while (c_eff * 2 <= std::min(machine.cores_per_node(), total)) c_eff *= 2;
  const auto& nwf = app.nonwavefront;
  if (nwf.allreduce_count > 0)
    res.nonwavefront += nwf.allreduce_count *
                        loggp::allreduce_time(comm, total, c_eff,
                                              nwf.allreduce_bytes);
  if (nwf.has_stencil) {
    loggp::StencilPhase phase;
    phase.cells_per_processor = (app.nx / n) * (app.ny / m) * app.nz;
    phase.work_per_cell = nwf.stencil_work_per_cell;
    phase.msg_bytes_ew = n > 1 ? ew : 0;
    phase.msg_bytes_ns = m > 1 ? ns : 0;
    res.nonwavefront += loggp::stencil_time(comm, phase);
  }

  // The naive reuse: every sweep pays its own full fill and drain.
  res.iteration =
      app.sweeps.nsweeps() * res.sweep_time + res.nonwavefront;
  return res;
}

}  // namespace wave::core
