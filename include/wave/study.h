// Fluent multi-point studies on the stable `wave::` facade.
//
// A Study is the batch counterpart of a Query: the same string-typed
// vocabulary, but each dimension takes a *list* and the study evaluates
// the cartesian product on a thread pool (wrapping the internal
// SweepGrid + BatchRunner machinery):
//
//   auto sr = ctx.study()
//                 .app("sweep3d-20m")
//                 .machines({"xt4-dual", "xt4-single"})
//                 .comm_models({"loggp", "loggps"})
//                 .processors({256, 1024, 4096})
//                 .run();
//   const wave::StudyRows& rows = sr.value().rows;
//   for (const auto& row : rows)  // a StudyRow, built on access
//     std::cout << row.label_or("machine", "?") << " P="
//               << row.label_or("P", "?") << " -> "
//               << row.metric_or("model_iter_us", 0) << " us\n";
//   std::cout << rows.size() << " rows; row 0 has "
//             << rows[0].metrics.size() << " metrics\n";
//
// A StudyResult stores its rows as columns: the axis and metric names
// once, a level id per axis and a double per metric per row. `rows`
// yields each row as a StudyRow by value (API version 2; version 1 held a
// std::vector<StudyRow>).
//
// Axes enumerate in declaration order (the first declared varies
// slowest), exactly like the internal SweepGrid, so a Study's CSV is
// byte-identical with the equivalent hand-built sweep — the regression
// suite pins this equivalence.
//
// This header is self-contained: it depends only on the C++ standard
// library, wave/status.h, wave/query.h and a forward declaration of one
// internal type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "wave/query.h"
#include "wave/status.h"

namespace wave::runner {
class SweepGrid;
}  // namespace wave::runner

namespace wave {

/// @brief One evaluated point of a study: the axis labels identifying it
///   plus the named metrics its engine produced.
struct StudyRow {
  /// Cartesian index of the point in the sweep (stable under filters).
  std::size_t index = 0;
  /// Axis name -> level label, in axis-declaration order.
  std::vector<std::pair<std::string, std::string>> labels;
  /// Metric name -> value, in evaluation order.
  std::vector<std::pair<std::string, double>> metrics;

  /// By value (like metric_or): a reference could dangle on the common
  /// `label_or("P", "?")` call where the fallback is a temporary.
  std::string label_or(const std::string& axis,
                       const std::string& fallback) const {
    for (const auto& [name, value] : labels)
      if (name == axis) return value;
    return fallback;
  }
  double metric_or(const std::string& name, double fallback) const {
    for (const auto& [key, value] : metrics)
      if (key == name) return value;
    return fallback;
  }
};

/// @brief The rows of a study, stored as columns. Each access builds the
///   row's StudyRow by value; rows come in point order (deterministic at
///   any thread count — randomness comes only from per-point derived
///   seeds).
class StudyRows {
 public:
  /// Yields StudyRow values (an input iterator).
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = StudyRow;
    using difference_type = std::ptrdiff_t;
    using reference = StudyRow;
    using pointer = void;

    iterator() = default;
    StudyRow operator*() const { return (*rows_)[row_]; }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++row_;
      return before;
    }
    bool operator==(const iterator&) const = default;

   private:
    friend class StudyRows;
    iterator(const StudyRows* rows, std::size_t row) : rows_(rows), row_(row) {}
    const StudyRows* rows_ = nullptr;
    std::size_t row_ = 0;
  };

  std::size_t size() const { return schema_.size(); }
  bool empty() const { return schema_.empty(); }
  /// Row `row` (< size()); its index is `row`.
  StudyRow operator[](std::size_t row) const;
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

 private:
  friend class Study;
  friend struct StudyResult;

  std::vector<std::string> axes_;                 ///< axis names, in order
  std::vector<std::vector<std::string>> levels_;  ///< [axis] level labels
  std::vector<std::vector<std::string>> schemas_;  ///< metric name lists
  std::vector<std::uint32_t> level_ids_;  ///< [row * axes + axis]
  std::vector<std::uint32_t> schema_;     ///< [row] -> schemas_
  std::vector<double> values_;            ///< [row * width_ + metric]
  std::size_t width_ = 0;                 ///< the longest schema
};

/// @brief All rows of a study, in point order.
struct StudyResult {
  StudyRows rows;

  /// The byte-stable CSV serialization of the row set (identical to the
  /// internal runner's record CSV for an equivalent sweep).
  std::string csv() const;
};

/// @brief Fluent builder for a cartesian study. Obtain via
///   Context::study(); the study stays bound to that Context (which must
///   outlive it). Axis methods append an axis per call, in call order.
class Study {
 public:
  /// An unbound study; run() returns kFailedPrecondition until it is
  /// obtained from a Context.
  Study() = default;

  // ---- base scenario (single values, like Query) -----------------------
  Study& app(std::string preset);
  Study& wg(double us_per_cell);
  Study& problem(double nx, double ny, double nz);
  Study& machine(std::string name_or_path);   ///< base machine (no axis)
  Study& workload(std::string name);          ///< base workload (no axis)
  Study& comm_model(std::string name);        ///< base override (no axis)
  Study& engine(Engine engine);               ///< base engine (no axis)
  Study& iterations(int count);
  Study& param(std::string name, double value);

  // ---- axes (lists; each call appends one axis) ------------------------
  Study& machines(std::vector<std::string> names_or_paths);
  Study& workloads(std::vector<std::string> names);
  Study& comm_models(std::vector<std::string> names);
  Study& processors(std::vector<int> counts);
  Study& engines(std::vector<Engine> engines);
  /// Numeric axis: stores each value under params[axis_name].
  Study& values(std::string axis_name, std::vector<double> values);

  // ---- execution knobs -------------------------------------------------
  /// Worker threads for the batch; <= 0 selects hardware concurrency.
  Study& threads(int count);
  /// Base seed from which per-point seeds derive (default 2008).
  Study& seed(std::uint64_t base_seed);
  /// Evaluate both paths per point and add err_pct / within_tol metrics
  /// instead of dispatching on the engine choice.
  Study& validate(bool on = true);

  /// @brief Enumerates and evaluates the product. Lookups resolve against
  ///   the bound Context; failures surface as a Status, never an
  ///   exception.
  ///
  ///   Analytic wavefront points take the batched fast path: the study
  ///   compiles one shared batch-solver plan per axis level (the app
  ///   once, a machine backend once per machine and comm-model level
  ///   pair, a grid once per processor level), builds no scenario for
  ///   them and writes their metrics straight into the result's columns.
  ///   Only DES, registry-workload and validate() points build a
  ///   scenario, one at a time. The rows are byte-identical either way —
  ///   batching is a scheduling choice, never a semantic one.
  Expected<StudyResult> run() const;

 private:
  friend class Context;
  /// EvalService::warm(Study) evaluates sweep_grid()'s points and keys
  /// them from base_ and validate_.
  friend class EvalService;
  explicit Study(const Context* ctx) : ctx_(ctx) {}

  /// The study resolved against `ctx`: its SweepGrid and the values of
  /// each axis level (defined in study.cpp). Throws on an unknown name or
  /// a bad value.
  struct Plan;
  Plan plan(const Context& ctx) const;

  /// plan(ctx)'s points: base_ resolved against `ctx`, then each axis in
  /// declaration order. Every point is the scenario the equivalent Query
  /// resolves to, up to its labels, seed and index.
  runner::SweepGrid sweep_grid(const Context& ctx) const;

  /// One recorded axis, replayed onto the internal SweepGrid in order.
  struct AxisSpec {
    enum class Kind { kMachines, kWorkloads, kCommModels, kProcessors,
                      kEngines, kValues };
    Kind kind = Kind::kValues;
    std::string name;                 // kValues axis name
    std::vector<std::string> names;   // kMachines/kWorkloads/kCommModels
    std::vector<int> ints;            // kProcessors
    std::vector<Engine> engines;      // kEngines
    std::vector<double> doubles;      // kValues
  };

  const Context* ctx_ = nullptr;
  Query base_;  // reuses the Query vocabulary for the base scenario
  std::vector<AxisSpec> axes_;
  int threads_ = 0;
  std::uint64_t seed_ = 2008;
  bool validate_ = false;
};

}  // namespace wave
