#include "runner/scenario.h"

#include <cmath>
#include <cstdio>

#include "common/contracts.h"
#include "loggp/registry.h"
#include "wave/context.h"
#include "workloads/registry.h"

namespace wave::runner {

core::MachineConfig Scenario::effective_machine() const {
  core::MachineConfig m = machine;
  if (!comm_model.empty()) m.comm_model = comm_model;
  return m;
}

double Scenario::param(const std::string& name) const {
  const auto it = params.find(name);
  WAVE_EXPECTS_MSG(it != params.end(),
                   "scenario has no parameter named '" + name + "'");
  return it->second;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string format_value(double value) {
  if (value == std::floor(value) && std::fabs(value) < 1.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", value);
  return buf;
}

SweepGrid& SweepGrid::axis(Axis axis) {
  WAVE_EXPECTS_MSG(!axis.levels.empty(), "axis '" + axis.name + "' is empty");
  axes_.push_back(std::move(axis));
  return *this;
}

SweepGrid& SweepGrid::axis(std::string name, std::vector<Axis::Level> levels) {
  return axis(Axis{std::move(name), std::move(levels)});
}

SweepGrid& SweepGrid::processors(std::vector<int> counts, std::string name) {
  Axis axis{std::move(name), {}};
  // The grid is computed once per level, not once per point.
  for (int p : counts)
    axis.levels.push_back(
        {format_value(p), [p, grid = topo::closest_to_square(p)](Scenario& s) {
           s.params["P"] = p;
           s.grid = grid;
         }});
  return this->axis(std::move(axis));
}

SweepGrid& SweepGrid::apps(
    std::vector<std::pair<std::string, core::AppParams>> apps,
    std::string name) {
  Axis axis{std::move(name), {}};
  for (auto& [label, app] : apps)
    axis.levels.push_back(
        {label, [app = std::move(app)](Scenario& s) { s.app = app; }});
  return this->axis(std::move(axis));
}

SweepGrid& SweepGrid::machines(
    std::vector<std::pair<std::string, core::MachineConfig>> machines,
    std::string name) {
  Axis axis{std::move(name), {}};
  for (auto& [label, machine] : machines)
    axis.levels.push_back(
        {label, [machine](Scenario& s) { s.machine = machine; }});
  return this->axis(std::move(axis));
}

SweepGrid& SweepGrid::machine_files(const wave::Context& ctx,
                                    const std::vector<std::string>& paths,
                                    std::string name) {
  std::vector<std::pair<std::string, core::MachineConfig>> loaded;
  loaded.reserve(paths.size());
  for (const std::string& path : paths) {
    core::MachineConfig m =
        core::load_machine_config(path, ctx.comm_model_registry());
    loaded.emplace_back(m.name, std::move(m));
  }
  return machines(std::move(loaded), std::move(name));
}

SweepGrid& SweepGrid::comm_models(const wave::Context& ctx,
                                  const std::vector<std::string>& names,
                                  std::string name) {
  Axis axis{std::move(name), {}};
  for (const std::string& model : names) {
    ctx.comm_model_registry().require(model);
    axis.levels.push_back(
        {model, [model](Scenario& s) { s.comm_model = model; }});
  }
  return this->axis(std::move(axis));
}

SweepGrid& SweepGrid::workloads(const wave::Context& ctx,
                                const std::vector<std::string>& names,
                                std::string name) {
  Axis axis{std::move(name), {}};
  for (const std::string& workload : names) {
    ctx.workload_registry().require(workload);
    axis.levels.push_back(
        {workload, [workload](Scenario& s) { s.workload = workload; }});
  }
  return this->axis(std::move(axis));
}

SweepGrid& SweepGrid::engines(std::vector<Engine> engines, std::string name) {
  Axis axis{std::move(name), {}};
  for (Engine e : engines)
    axis.levels.push_back({e == Engine::Model ? "model" : "sim",
                           [e](Scenario& s) { s.engine = e; }});
  return this->axis(std::move(axis));
}

SweepGrid& SweepGrid::values(std::string name, std::vector<double> values) {
  return this->values(std::move(name), std::move(values), nullptr);
}

SweepGrid& SweepGrid::values(std::string name, std::vector<double> values,
                             std::function<void(Scenario&, double)> apply) {
  Axis axis{name, {}};
  for (double v : values)
    axis.levels.push_back({format_value(v), [name, v, apply](Scenario& s) {
                             s.params[name] = v;
                             if (apply) apply(s, v);
                           }});
  return this->axis(std::move(axis));
}

SweepGrid& SweepGrid::filter(std::function<bool(const Scenario&)> predicate) {
  filters_.push_back(std::move(predicate));
  return *this;
}

SweepGrid& SweepGrid::seed(std::uint64_t base_seed) {
  base_seed_ = base_seed;
  return *this;
}

std::size_t SweepGrid::cartesian_size() const {
  std::size_t total = 1;
  for (const Axis& axis : axes_) total *= axis.levels.size();
  return total;
}

bool SweepGrid::build_point(std::size_t index, Scenario& out) const {
  out = base_;
  out.index = index;
  out.seed = derive_seed(base_seed_, index);

  // Decompose row-major: the first axis varies slowest.
  out.labels.reserve(base_.labels.size() + axes_.size());
  std::size_t rest = index;
  std::size_t stride = cartesian_size();
  for (const Axis& axis : axes_) {
    stride /= axis.levels.size();
    const Axis::Level& level = axis.levels[rest / stride];
    rest %= stride;
    out.labels.emplace_back(axis.name, level.label);
    if (level.apply) level.apply(out);
  }

  for (const auto& pred : filters_)
    if (!pred(out)) return false;
  return true;
}

std::vector<Scenario> SweepGrid::points() const {
  const std::size_t total = cartesian_size();
  std::vector<Scenario> out;
  out.reserve(total);
  Scenario s;
  for (std::size_t index = 0; index < total; ++index)
    if (build_point(index, s)) out.push_back(std::move(s));
  return out;
}

}  // namespace wave::runner
