#include "wave/study.h"

#include <sstream>
#include <utility>

#include "api/api_internal.h"
#include "core/machine.h"
#include "runner/record.h"
#include "runner/sinks.h"
#include "topology/grid.h"
#include "wave/context.h"

namespace wave {

std::string StudyResult::csv() const {
  // Reuse the runner's byte-stable serialization so a Study's CSV is
  // bit-identical with the equivalent hand-built sweep's record CSV.
  std::vector<runner::RunRecord> records;
  records.reserve(rows.size());
  for (const StudyRow& row : rows) {
    runner::RunRecord r;
    r.index = row.index;
    r.labels = row.labels;
    r.metrics = row.metrics;
    records.push_back(std::move(r));
  }
  return runner::to_csv(records);
}

Study& Study::app(std::string preset) {
  base_.app(std::move(preset));
  return *this;
}

Study& Study::wg(double us_per_cell) {
  base_.wg(us_per_cell);
  return *this;
}

Study& Study::problem(double nx, double ny, double nz) {
  base_.problem(nx, ny, nz);
  return *this;
}

Study& Study::machine(std::string name_or_path) {
  base_.machine(std::move(name_or_path));
  return *this;
}

Study& Study::workload(std::string name) {
  base_.workload(std::move(name));
  return *this;
}

Study& Study::comm_model(std::string name) {
  base_.comm_model(std::move(name));
  return *this;
}

Study& Study::engine(Engine engine) {
  base_.engine(engine);
  return *this;
}

Study& Study::iterations(int count) {
  base_.iterations(count);
  return *this;
}

Study& Study::param(std::string name, double value) {
  base_.param(std::move(name), value);
  return *this;
}

Study& Study::machines(std::vector<std::string> names_or_paths) {
  AxisSpec axis;
  axis.kind = AxisSpec::Kind::kMachines;
  axis.names = std::move(names_or_paths);
  axes_.push_back(std::move(axis));
  return *this;
}

Study& Study::workloads(std::vector<std::string> names) {
  AxisSpec axis;
  axis.kind = AxisSpec::Kind::kWorkloads;
  axis.names = std::move(names);
  axes_.push_back(std::move(axis));
  return *this;
}

Study& Study::comm_models(std::vector<std::string> names) {
  AxisSpec axis;
  axis.kind = AxisSpec::Kind::kCommModels;
  axis.names = std::move(names);
  axes_.push_back(std::move(axis));
  return *this;
}

Study& Study::processors(std::vector<int> counts) {
  AxisSpec axis;
  axis.kind = AxisSpec::Kind::kProcessors;
  axis.ints = std::move(counts);
  axes_.push_back(std::move(axis));
  return *this;
}

Study& Study::engines(std::vector<Engine> engines) {
  AxisSpec axis;
  axis.kind = AxisSpec::Kind::kEngines;
  axis.engines = std::move(engines);
  axes_.push_back(std::move(axis));
  return *this;
}

Study& Study::values(std::string axis_name, std::vector<double> values) {
  AxisSpec axis;
  axis.kind = AxisSpec::Kind::kValues;
  axis.name = std::move(axis_name);
  axis.doubles = std::move(values);
  axes_.push_back(std::move(axis));
  return *this;
}

Study& Study::threads(int count) {
  threads_ = count;
  return *this;
}

Study& Study::seed(std::uint64_t base_seed) {
  seed_ = base_seed;
  return *this;
}

Study& Study::validate(bool on) {
  validate_ = on;
  return *this;
}

runner::SweepGrid Study::sweep_grid(const Context& ctx) const {
  runner::SweepGrid grid(api::scenario_from(ctx, base_));
  grid.seed(seed_);
  for (const AxisSpec& axis : axes_) {
    switch (axis.kind) {
      case AxisSpec::Kind::kMachines: {
        std::vector<std::pair<std::string, core::MachineConfig>> machines;
        machines.reserve(axis.names.size());
        for (const std::string& spec : axis.names) {
          core::MachineConfig m = ctx.resolve_machine(spec);
          machines.emplace_back(m.name, std::move(m));
        }
        grid.machines(std::move(machines));
        break;
      }
      case AxisSpec::Kind::kWorkloads:
        grid.workloads(ctx, axis.names);
        break;
      case AxisSpec::Kind::kCommModels:
        grid.comm_models(ctx, axis.names);
        break;
      case AxisSpec::Kind::kProcessors: {
        // Query::processors sets the decomposition only; SweepGrid's
        // processors() would also store params["P"], which the equivalent
        // Query (and so its cache key) does not carry.
        // The grid is computed once per level, not once per point.
        runner::Axis processors{"P", {}};
        for (const int p : axis.ints)
          processors.levels.push_back(
              {runner::format_value(p),
               [grid = topo::closest_to_square(p)](runner::Scenario& s) {
                 s.grid = grid;
               }});
        grid.axis(std::move(processors));
        break;
      }
      case AxisSpec::Kind::kEngines: {
        std::vector<runner::Engine> engines;
        engines.reserve(axis.engines.size());
        for (Engine e : axis.engines)
          engines.push_back(api::to_runner_engine(e));
        grid.engines(std::move(engines));
        break;
      }
      case AxisSpec::Kind::kValues:
        grid.values(axis.name, axis.doubles);
        break;
    }
  }
  return grid;
}

Expected<StudyResult> Study::run() const {
  if (ctx_ == nullptr)
    return Status::failed_precondition(
        "study is not bound to a Context (obtain it via Context::study())");
  try {
    std::vector<runner::RunRecord> records = api::run_points(
        *ctx_, sweep_grid(*ctx_).points(), validate_, threads_);

    StudyResult out;
    out.rows.reserve(records.size());
    for (runner::RunRecord& r : records) {
      StudyRow row;
      row.index = r.index;
      row.labels = std::move(r.labels);
      row.metrics = std::move(r.metrics);
      out.rows.push_back(std::move(row));
    }
    return out;
  } catch (const std::exception& e) {
    return api::to_status(e);
  }
}

}  // namespace wave
