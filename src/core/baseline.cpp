#include "core/baseline.h"

#include "core/solver.h"
#include "loggp/comm_model.h"

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
  const ModelResult r1 = evaluate_r1(app, grid);
  const int ew = r1.msg_bytes_ew;
  const int ns = r1.msg_bytes_ns;

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

  // Between-iteration phase, the plug-and-play solver's own term.
  res.nonwavefront = nonwavefront_time(app, machine, comm, r1).total;

  // The naive reuse: every sweep pays its own full fill and drain.
  res.iteration =
      app.sweeps.nsweeps() * res.sweep_time + res.nonwavefront;
  return res;
}

}  // namespace wave::core
