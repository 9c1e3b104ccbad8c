// Result sinks: RunRecord sets -> aligned tables, CSV, or JSON.
//
// Every bench/example driver renders its records through these helpers, so
// the output conventions (header block, aligned columns, --csv / --json
// switches) live in one place instead of N copies of a driver loop.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "runner/record.h"

namespace wave::runner {

/// One column of a rendered table: a header and a cell renderer.
struct Column {
  std::string header;
  std::function<std::string(const RunRecord&)> cell;

  /// Renders the label of the named axis (header defaults to the name).
  static Column label(const std::string& axis);
  static Column label(std::string header, const std::string& axis);

  /// Renders `scale * metric` with the given precision; "-" when the
  /// record lacks the metric (e.g. measured points beyond the sim cap).
  static Column metric(std::string header, const std::string& name,
                       int precision = 3, double scale = 1.0);

  /// Renders the metric as an integer.
  static Column integer(std::string header, const std::string& name,
                        double scale = 1.0);

  /// Arbitrary derived cell.
  static Column computed(std::string header,
                         std::function<std::string(const RunRecord&)> fn);
};

/// One row per record, one column per spec.
common::Table make_table(const std::vector<RunRecord>& records,
                         const std::vector<Column>& columns);

/// Pivot: one row per distinct `row_axis` label, one column per distinct
/// `col_axis` label (both in first-appearance order); cells are the named
/// metric ("-" where no record exists). This is the shape of the paper's
/// multi-series figures (Figs 5, 10, ...).
common::Table pivot_table(const std::vector<RunRecord>& records,
                          const std::string& row_axis,
                          const std::string& col_axis,
                          const std::string& metric, int precision = 3,
                          double scale = 1.0,
                          const std::string& corner_header = "");

/// Machine-readable dumps of the raw record set: every label and every
/// metric, one record per row/object, in record order. `write_csv` is the
/// byte-stable serialization the determinism tests compare. `write_json`
/// writes through the wave-serve JSON writers, so it is valid JSON: a
/// non-finite metric is null.
void write_csv(std::ostream& os, const std::vector<RunRecord>& records);
void write_json(std::ostream& os, const std::vector<RunRecord>& records);
std::string to_csv(const std::vector<RunRecord>& records);

/// Prints the standard experiment header the bench/ binaries share.
void print_header(const std::string& id, const std::string& title,
                  const std::string& paper_expectation);

/// Renders to stdout honoring --csv (table as CSV) and --json (raw
/// records as JSON).
void emit(const common::Cli& cli, const std::vector<RunRecord>& records,
          const common::Table& table);
void emit(const common::Cli& cli, const std::vector<RunRecord>& records,
          const std::vector<Column>& columns);

}  // namespace wave::runner
