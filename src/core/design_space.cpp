#include "core/design_space.h"

#include <algorithm>
#include <limits>

#include "common/contracts.h"
#include "common/units.h"

namespace wave::core {

HtileScan scan_htile(AppParams app, const MachineConfig& machine,
                     const loggp::CommModelRegistry& registry, int processors,
                     std::span<const double> candidates) {
  WAVE_EXPECTS(processors >= 1);
  WAVE_EXPECTS_MSG(!candidates.empty(), "need at least one Htile candidate");

  std::vector<double> heights(candidates.begin(), candidates.end());
  if (std::find(heights.begin(), heights.end(), 1.0) == heights.end())
    heights.push_back(1.0);
  std::sort(heights.begin(), heights.end());

  // One backend resolution serves every candidate (the scan only varies
  // Htile, never the machine).
  machine.validate();
  const auto comm = machine.make_comm_model(registry);

  HtileScan scan;
  usec at_unit = 0.0;
  scan.best_iteration = std::numeric_limits<double>::infinity();
  for (double h : heights) {
    if (h <= 0.0 || h > app.nz) continue;
    app.htile = h;
    const Solver solver(app, machine, comm);
    const usec t = solver.evaluate(processors).iteration.total;
    scan.points.push_back({h, t});
    if (h == 1.0) at_unit = t;
    if (t < scan.best_iteration) {
      scan.best_iteration = t;
      scan.best_htile = h;
    }
  }
  WAVE_EXPECTS_MSG(!scan.points.empty(),
                   "no Htile candidate fits the stack height");
  if (at_unit > 0.0)
    scan.improvement_vs_unit = 1.0 - scan.best_iteration / at_unit;
  return scan;
}

HtileScan scan_htile(AppParams app, const MachineConfig& machine,
                     const loggp::CommModelRegistry& registry, int processors) {
  const double candidates[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  return scan_htile(std::move(app), machine, registry, processors, candidates);
}

int processors_for_deadline(const AppParams& app, const MachineConfig& machine,
                            const loggp::CommModelRegistry& registry,
                            double timestep_seconds, int max_processors) {
  WAVE_EXPECTS(timestep_seconds > 0.0);
  WAVE_EXPECTS(max_processors >= 1);
  const Solver solver(app, machine, registry);
  for (int p = 1; p <= max_processors; p *= 2) {
    const double t =
        common::usec_to_sec(solver.evaluate(p).timestep());
    if (t <= timestep_seconds) return p;
  }
  return max_processors;
}

}  // namespace wave::core
