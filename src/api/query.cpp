#include "wave/query.h"

#include <fstream>
#include <utility>

#include "api/api_internal.h"
#include "obs/trace.h"
#include "wave/context.h"

namespace wave {

std::string to_string(Engine engine) {
  return engine == Engine::Model ? "model" : "sim";
}

Query& Query::machine(std::string name_or_path) {
  machine_ = std::move(name_or_path);
  return *this;
}

Query& Query::workload(std::string name) {
  workload_ = std::move(name);
  return *this;
}

Query& Query::comm_model(std::string name) {
  comm_model_ = std::move(name);
  return *this;
}

Query& Query::app(std::string preset) {
  app_ = std::move(preset);
  return *this;
}

Query& Query::wg(double us_per_cell) {
  wg_ = us_per_cell;
  return *this;
}

Query& Query::problem(double nx, double ny, double nz) {
  nx_ = nx;
  ny_ = ny;
  nz_ = nz;
  return *this;
}

Query& Query::processors(int count) {
  processors_ = count;
  grid_n_ = grid_m_ = 0;
  has_grid_ = false;
  return *this;
}

Query& Query::grid(int columns, int rows) {
  grid_n_ = columns;
  grid_m_ = rows;
  has_grid_ = true;
  return *this;
}

Query& Query::iterations(int count) {
  iterations_ = count;
  return *this;
}

Query& Query::sim_threads(int count) {
  sim_threads_ = count;
  return *this;
}

Query& Query::engine(Engine engine) {
  engine_ = engine;
  return *this;
}

Query& Query::param(std::string name, double value) {
  params_[std::move(name)] = value;
  return *this;
}

Query& Query::validate(bool on) {
  validate_ = on;
  return *this;
}

Query& Query::trace(std::string path) {
  trace_path_ = std::move(path);
  return *this;
}

Expected<Result> Query::run() const {
  if (ctx_ == nullptr)
    return Status::failed_precondition(
        "query is not bound to a Context (obtain it via Context::query())");
  try {
    runner::Scenario scenario = api::scenario_from(*ctx_, *this);
    if (trace_path_.empty()) return api::result_from(*ctx_, *this, scenario);

    // Capture the DES timeline alongside the evaluation. The capture is
    // observation-only (spans are recorded, never consulted), so the
    // Result is bit-identical with and without it; a Model-engine point
    // simply produces an empty — still valid — trace file.
    obs::SpanCapture capture;
    scenario.trace = &capture;
    Result result = api::result_from(*ctx_, *this, scenario);
    std::ofstream out(trace_path_, std::ios::binary);
    if (!out) {
      return Status::invalid_argument("cannot open trace output file: " +
                                      trace_path_);
    }
    obs::write_chrome_trace(out, capture);
    out.flush();
    if (!out) {
      return Status::internal("failed writing trace output file: " +
                              trace_path_);
    }
    return result;
  } catch (const std::exception& e) {
    return api::to_status(e);
  }
}

}  // namespace wave
