#include "workloads/pipeline1d.h"

#include "workloads/builtin.h"

namespace wave::workloads {

core::AppParams Pipeline1dWorkload::chain_app(const WorkloadInputs& in) {
  core::AppParams app = in.app;
  // One pure sweep, nothing between iterations: the degenerate wavefront.
  app.sweeps = core::SweepStructure(
      {{core::SweepOrigin::NorthWest, core::SweepPrecedence::FullComplete}});
  app.nonwavefront = core::NonWavefrontPhase{};
  return app;
}

topo::Grid Pipeline1dWorkload::chain_grid(const WorkloadInputs& in) {
  // Collapse whatever decomposition the sweep chose onto the 1×P chain.
  return topo::Grid(1, in.grid.size());
}

const std::string& Pipeline1dWorkload::name() const {
  static const std::string n = "pipeline1d";
  return n;
}

const std::string& Pipeline1dWorkload::description() const {
  static const std::string d =
      "pure 1-D pipeline (the degenerate wavefront on a 1xP chain): "
      "one sweep, iteration = Tfill + Tstack with no diagonal terms";
  return d;
}

ModelOutput Pipeline1dWorkload::predict(const core::MachineConfig& machine,
                                        const loggp::CommModel& comm,
                                        const WorkloadInputs& in) const {
  WorkloadInputs chain = in;
  chain.app = chain_app(in);
  chain.grid = chain_grid(in);
  return WavefrontWorkload{}.predict(machine, comm, chain);
}

SimOutput Pipeline1dWorkload::simulate(const SimMachine& machine,
                                       const WorkloadInputs& in) const {
  return simulate_wavefront(chain_app(in), machine, chain_grid(in),
                            in.iterations, in.observers);
}

}  // namespace wave::workloads
