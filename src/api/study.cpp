#include "wave/study.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "api/api_internal.h"
#include "core/machine.h"
#include "runner/batch_runner.h"
#include "runner/record.h"
#include "runner/sinks.h"
#include "topology/grid.h"
#include "wave/context.h"

namespace wave {

StudyRow StudyRows::operator[](std::size_t row) const {
  StudyRow out;
  out.index = row;
  const std::size_t axes = axes_.size();
  out.labels.reserve(axes);
  for (std::size_t a = 0; a < axes; ++a)
    out.labels.emplace_back(axes_[a], levels_[a][level_ids_[row * axes + a]]);
  const std::vector<std::string>& names = schemas_[schema_[row]];
  out.metrics.reserve(names.size());
  for (std::size_t k = 0; k < names.size(); ++k)
    out.metrics.emplace_back(names[k], values_[row * width_ + k]);
  return out;
}

std::string StudyResult::csv() const {
  // Reuse the runner's byte-stable serialization so a Study's CSV is
  // bit-identical with the equivalent hand-built sweep's record CSV.
  std::vector<runner::RunRecord> records;
  records.reserve(rows.size());
  for (StudyRow row : rows) {
    runner::RunRecord r;
    r.index = row.index;
    r.labels = std::move(row.labels);
    r.metrics = std::move(row.metrics);
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

/// Each axis's levels, resolved once. The last axis of each kind decides
/// that field of a point, as it does in SweepGrid, where each level sets
/// one field; -1 leaves the base scenario's value.
struct Study::Plan {
  /// Scalar points are built from it by index; its axes hold the names
  /// and level labels.
  runner::SweepGrid grid;

  int machine_axis = -1;
  std::vector<core::MachineConfig> machines;
  int comm_axis = -1;
  std::vector<std::string> comms;
  int processor_axis = -1;
  std::vector<topo::Grid> grids;
  int engine_axis = -1;
  std::vector<runner::Engine> engines;
  int workload_axis = -1;
  std::vector<std::string> workloads;

  /// What decides how the point at `level` (a level id per axis)
  /// evaluates.
  struct Point {
    runner::Engine engine;
    const std::string* workload;
    std::size_t pair;  ///< its (machine level, comm level) pair
    const topo::Grid* grid;
  };

  std::size_t comm_levels() const {
    return comm_axis < 0 ? 1 : comms.size();
  }
  std::size_t pairs() const {
    return (machine_axis < 0 ? 1 : machines.size()) * comm_levels();
  }

  Point point(const std::vector<std::uint32_t>& level) const {
    const runner::Scenario& base = grid.base();
    const std::string& workload =
        workload_axis < 0 ? base.workload : workloads[level[workload_axis]];
    return {engine_axis < 0 ? base.engine : engines[level[engine_axis]],
            &workload,
            (machine_axis < 0 ? 0 : level[machine_axis]) * comm_levels() +
                (comm_axis < 0 ? 0 : level[comm_axis]),
            processor_axis < 0 ? &base.grid : &grids[level[processor_axis]]};
  }

  /// The machine a pair's points evaluate: Scenario::effective_machine.
  core::MachineConfig machine(std::size_t pair) const {
    const runner::Scenario& base = grid.base();
    core::MachineConfig m =
        machine_axis < 0 ? base.machine : machines[pair / comm_levels()];
    const std::string& comm =
        comm_axis < 0 ? base.comm_model : comms[pair % comm_levels()];
    if (!comm.empty()) m.comm_model = comm;
    return m;
  }
};

Study::Plan Study::plan(const Context& ctx) const {
  Plan plan;
  runner::SweepGrid& grid = plan.grid;
  grid = runner::SweepGrid(api::scenario_from(ctx, base_));
  grid.seed(seed_);
  for (const AxisSpec& axis : axes_) {
    const int index = static_cast<int>(grid.axes().size());
    switch (axis.kind) {
      case AxisSpec::Kind::kMachines: {
        std::vector<std::pair<std::string, core::MachineConfig>> machines;
        machines.reserve(axis.names.size());
        plan.machines.clear();
        for (const std::string& spec : axis.names) {
          core::MachineConfig m = ctx.resolve_machine(spec);
          plan.machines.push_back(m);
          machines.emplace_back(m.name, std::move(m));
        }
        grid.machines(std::move(machines));
        plan.machine_axis = index;
        break;
      }
      case AxisSpec::Kind::kWorkloads:
        grid.workloads(ctx, axis.names);
        plan.workloads = axis.names;
        plan.workload_axis = index;
        break;
      case AxisSpec::Kind::kCommModels:
        grid.comm_models(ctx, axis.names);
        plan.comms = axis.names;
        plan.comm_axis = index;
        break;
      case AxisSpec::Kind::kProcessors: {
        // Query::processors sets the decomposition only; SweepGrid's
        // processors() would also store params["P"], which the equivalent
        // Query (and so its cache key) does not carry.
        // The grid is computed once per level, not once per point.
        runner::Axis processors{"P", {}};
        plan.grids.clear();
        for (const int p : axis.ints) {
          const topo::Grid g = topo::closest_to_square(p);
          plan.grids.push_back(g);
          processors.levels.push_back(
              {runner::format_value(p),
               [g](runner::Scenario& s) { s.grid = g; }});
        }
        grid.axis(std::move(processors));
        plan.processor_axis = index;
        break;
      }
      case AxisSpec::Kind::kEngines:
        plan.engines.clear();
        for (Engine e : axis.engines)
          plan.engines.push_back(api::to_runner_engine(e));
        grid.engines(plan.engines);
        plan.engine_axis = index;
        break;
      case AxisSpec::Kind::kValues:
        grid.values(axis.name, axis.doubles);
        break;
    }
  }
  return plan;
}

runner::SweepGrid Study::sweep_grid(const Context& ctx) const {
  return std::move(plan(ctx).grid);
}

namespace {

/// Writes a Study's points into its columns: a batched point's six model
/// metrics in place at row * kModelMetricNames.size(), a scalar point's
/// metrics into `scalar` (laid out after the run).
class ColumnSink final : public runner::BatchSink {
 public:
  ColumnSink(const Context& ctx, const runner::SweepGrid& grid, bool validate,
             std::vector<double>& values,
             std::vector<runner::Metrics>& scalar)
      : ctx_(ctx), grid_(grid), validate_(validate), values_(values),
        scalar_(scalar) {}

  void model(std::size_t point, const core::ModelResult& res) override {
    runner::model_metric_values(
        res, values_.data() + point * runner::kModelMetricNames.size());
  }

  void scalar(std::size_t point) override {
    // Each worker builds its scalar points into one reused scenario.
    thread_local runner::Scenario s;
    grid_.build_point(point, s);
    scalar_[point] = validate_
                         ? runner::workload_model_vs_sim_metrics(ctx_, s)
                         : runner::evaluate_scenario(ctx_, s);
  }

  void share(std::size_t point, std::size_t run) override {
    scalar_[point] = scalar_[run];
  }

  obs::MetricsRegistry* observer(std::size_t) const override {
    return nullptr;
  }

 private:
  const Context& ctx_;
  const runner::SweepGrid& grid_;
  bool validate_;
  std::vector<double>& values_;
  std::vector<runner::Metrics>& scalar_;
};

/// A row whose schema is not known yet.
constexpr std::uint32_t kScalarRow = ~std::uint32_t{0};

/// Lays the scalar rows' metrics (scalar[i] for each row i of schema
/// kScalarRow) into the columns: widens the rows to the longest schema,
/// then interns each scalar row's metric names and copies its values in.
void lay_out_scalar_rows(const std::vector<runner::Metrics>& scalar,
                         std::vector<std::vector<std::string>>& schemas,
                         std::vector<std::uint32_t>& schema_of,
                         std::vector<double>& values, std::size_t& width) {
  const std::size_t rows = schema_of.size();
  std::size_t wide = width;
  for (const runner::Metrics& m : scalar) wide = std::max(wide, m.size());
  if (wide != width) {
    std::vector<double> widened(rows * wide);
    for (std::size_t i = 0; i < rows; ++i)
      if (schema_of[i] != kScalarRow)
        std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(i * width),
                    width,
                    widened.begin() + static_cast<std::ptrdiff_t>(i * wide));
    values = std::move(widened);
    width = wide;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    if (schema_of[i] != kScalarRow) continue;
    const runner::Metrics& metrics = scalar[i];
    const auto same = [&](const std::vector<std::string>& names) {
      return std::equal(
          names.begin(), names.end(), metrics.begin(), metrics.end(),
          [](const std::string& name, const auto& m) {
            return name == m.first;
          });
    };
    auto it = std::find_if(schemas.begin(), schemas.end(), same);
    if (it == schemas.end()) {
      std::vector<std::string> names;
      for (const auto& [name, value] : metrics) names.push_back(name);
      schemas.push_back(std::move(names));
      it = schemas.end() - 1;
    }
    schema_of[i] = static_cast<std::uint32_t>(it - schemas.begin());
    for (std::size_t k = 0; k < metrics.size(); ++k)
      values[i * width + k] = metrics[k].second;
  }
}

}  // namespace

Expected<StudyResult> Study::run() const {
  if (ctx_ == nullptr)
    return Status::failed_precondition(
        "study is not bound to a Context (obtain it via Context::study())");
  try {
    const Context& ctx = *ctx_;
    const Plan plan = this->plan(ctx);
    const runner::Scenario& base = plan.grid.base();
    const std::vector<runner::Axis>& grid_axes = plan.grid.axes();
    const std::size_t axes = grid_axes.size();
    const std::size_t total = plan.grid.cartesian_size();

    StudyResult out;
    StudyRows& rows = out.rows;
    for (const runner::Axis& axis : grid_axes) {
      rows.axes_.push_back(axis.name);
      std::vector<std::string>& labels = rows.levels_.emplace_back();
      for (const runner::Axis::Level& level : axis.levels)
        labels.push_back(level.label);
    }
    rows.level_ids_.resize(total * axes);
    // Batched rows take schema 0, the model metrics; scalar rows are
    // interned once their metrics are known.
    rows.schema_.assign(total, kScalarRow);

    // Compile the plan per level, walking the points as an odometer over
    // the level ids (the last axis varies fastest). The app, and each
    // machine and comm-model level pair, enter the plan at their first
    // batched point, in point order, so a bad value throws here as the
    // per-point compile of BatchRunner::run(points) would.
    runner::BatchPlan batch(ctx);
    constexpr std::uint32_t kUnset = ~std::uint32_t{0};
    std::uint32_t app = kUnset;
    std::vector<std::uint32_t> machine_ids(plan.pairs(), kUnset);
    std::vector<std::optional<workloads::SimMachine>> sim_machines(
        plan.pairs());
    std::vector<std::uint32_t> level(axes, 0);
    bool batched_rows = false;
    bool scalar_rows = false;
    for (std::size_t i = 0; i < total; ++i) {
      std::copy(level.begin(), level.end(),
                rows.level_ids_.begin() +
                    static_cast<std::ptrdiff_t>(i * axes));
      const Plan::Point p = plan.point(level);
      // validate() replaces the default evaluation, so every point is
      // scalar; a Study attaches no observer.
      switch (validate_ ? runner::Route::kScalar
                        : runner::route(p.engine, *p.workload, false)) {
        case runner::Route::kBatched: {
          if (app == kUnset) app = batch.eval().add_app(base.app);
          std::uint32_t& machine = machine_ids[p.pair];
          if (machine == kUnset)
            machine = batch.eval().add_machine(plan.machine(p.pair));
          batch.add_batched(i, {app, machine, *p.grid});
          rows.schema_[i] = 0;
          batched_rows = true;
          break;
        }
        case runner::Route::kSharedSim: {
          std::optional<workloads::SimMachine>& machine = sim_machines[p.pair];
          if (!machine)
            machine = workloads::sim_machine(plan.machine(p.pair),
                                             ctx.comm_model_registry());
          batch.add_shared_sim(i, {base.app, p.grid->n(), p.grid->m(),
                                   base.iterations, *machine});
          scalar_rows = true;
          break;
        }
        case runner::Route::kScalar:
          batch.add_scalar(i, p.engine == runner::Engine::Simulation);
          scalar_rows = true;
          break;
      }
      for (std::size_t a = axes; a-- > 0;) {
        if (++level[a] < grid_axes[a].levels.size()) break;
        level[a] = 0;
      }
    }

    // Batched rows write into a model-width block; scalar rows wait in
    // `scalar` until their schemas are known.
    constexpr std::size_t kModelWidth = runner::kModelMetricNames.size();
    if (batched_rows) {
      rows.schemas_.emplace_back(runner::kModelMetricNames.begin(),
                                 runner::kModelMetricNames.end());
      rows.width_ = kModelWidth;
      rows.values_.resize(total * kModelWidth);
    }
    std::vector<runner::Metrics> scalar(scalar_rows ? total : 0);
    ColumnSink sink(ctx, plan.grid, validate_, rows.values_, scalar);
    runner::BatchRunner(ctx, runner::BatchRunner::Options(threads_))
        .run(batch, sink);
    if (scalar_rows)
      lay_out_scalar_rows(scalar, rows.schemas_, rows.schema_, rows.values_,
                          rows.width_);
    return out;
  } catch (const std::exception& e) {
    return api::to_status(e);
  }
}

}  // namespace wave
