#include "workloads/workload.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/contracts.h"
#include "common/units.h"
#include "core/benchmarks.h"
#include "loggp/registry.h"

namespace wave::workloads {

SimMachine sim_machine(const core::MachineConfig& machine,
                       const loggp::CommModelRegistry& registry) {
  machine.validate();
  const auto comm = machine.make_comm_model(registry);
  return {.loggp = machine.loggp,
          .cx = machine.cx,
          .cy = machine.cy,
          .protocol = {.rendezvous_sync = comm->rendezvous_sync()}};
}

core::AppParams WorkloadInputs::default_app() {
  core::benchmarks::Sweep3dConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 64;
  return core::benchmarks::sweep3d(cfg);
}

int WorkloadInputs::int_param_or(const std::string& name,
                                 int fallback) const {
  const double v = param_or(name, fallback);
  const bool is_int = std::isfinite(v) && v == std::trunc(v) &&
                      v >= std::numeric_limits<int>::min() &&
                      v <= std::numeric_limits<int>::max();
  if (!is_int) {
    char shown[32];
    const auto end = std::to_chars(shown, shown + sizeof shown, v).ptr;
    WAVE_EXPECTS_MSG(is_int, "workload parameter '" + name +
                                 "' must be an integer in the int range, "
                                 "got " + std::string(shown, end));
  }
  return static_cast<int>(v);
}

ModelOutput Workload::predict(const core::MachineConfig& machine,
                              const loggp::CommModelRegistry& registry,
                              const WorkloadInputs& in) const {
  return predict(machine, *machine.make_comm_model(registry), in);
}

SimOutput Workload::simulate(const core::MachineConfig& machine,
                             const loggp::CommModelRegistry& registry,
                             const WorkloadInputs& in) const {
  return simulate(sim_machine(machine, registry), in);
}

ValidationReport Workload::validate(const core::MachineConfig& machine,
                                    const loggp::CommModelRegistry& registry,
                                    const WorkloadInputs& in) const {
  ValidationReport report;
  report.model = predict(machine, registry, in);
  report.sim = simulate(machine, registry, in);
  report.rel_error =
      common::relative_error(report.model.time_us, report.sim.time_us);
  report.tolerance = tolerance();
  report.ok = report.rel_error <= report.tolerance;
  return report;
}

}  // namespace wave::workloads
