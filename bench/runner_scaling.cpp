// Scenario-level scaling of the batch runner: the same mixed analytic+DES
// sweep executed with 1 worker thread and with N, wall-clock compared and
// the record sets verified byte-identical.
//
// The paper's workflow evaluates hundreds of design points per study;
// every point is independent (the analytic solver is const/thread-safe,
// each DES run owns its world), so the sweep should scale with cores
// while remaining exactly reproducible.
#include <chrono>
#include <iostream>

#include "runner/reference_grids.h"
#include "runner/runner.h"

using namespace wave;

namespace {

double run_timed(const wave::Context& ctx,
                 const std::vector<runner::Scenario>& points, int threads,
                 std::string* csv) {
  const runner::BatchRunner batch{ctx, runner::BatchRunner::Options(threads)};
  const auto start = std::chrono::steady_clock::now();
  const auto records = batch.run(points);
  const auto stop = std::chrono::steady_clock::now();
  *csv = runner::to_csv(records);
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const wave::Context ctx = runner::default_context();
  if (runner::handle_list_flags(cli, ctx)) return 0;
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  runner::print_header(
      "Runner scaling", "parallel batch execution of a mixed sweep",
      "a >= 64-point sweep mixing analytic model evaluations with "
      "independent DES runs speeds up with scenario-level threads while "
      "producing byte-identical records at any thread count");

  // 2 apps x 2 machines x 4 processor counts x 2 engines x 2 Htile values
  // = 64 points; --full doubles the processor axis. The grid is pinned
  // (tests/data/runner_scaling_records.csv), so it lives in
  // runner/reference_grids.cpp where the fixture test can reuse it.
  runner::SweepGrid grid = runner::runner_scaling_grid(cli.has("full"));
  runner::apply_comm_model_cli(cli, ctx, grid);
  // --workload reroutes every point through the registry contract (the
  // default, "wavefront", keeps the sweep on its pinned evaluators).
  runner::apply_workload_cli(cli, ctx, grid);

  const auto points = grid.points();
  std::cout << "sweep points: " << points.size() << "\n";

  std::string csv_serial, csv_parallel;
  const double t1 = run_timed(ctx, points, 1, &csv_serial);
  const double tn = run_timed(ctx, points, threads, &csv_parallel);

  common::Table table({"threads", "wall_s", "speedup"});
  table.add_row({"1", common::Table::num(t1, 3), common::Table::num(1.0, 2)});
  table.add_row({common::Table::integer(threads), common::Table::num(tn, 3),
                 common::Table::num(t1 / tn, 2)});
  table.print(std::cout);
  std::cout << "\nrecords byte-identical across thread counts: "
            << (csv_serial == csv_parallel ? "yes" : "NO — DETERMINISM BUG")
            << "\n(hardware concurrency here: "
            << runner::ThreadPool(0).threads() << ")\n";
  if (!runner::write_trace_out(cli, ctx, grid)) return 1;
  return csv_serial == csv_parallel ? 0 : 1;
}
