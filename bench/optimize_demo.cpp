// The auto-configurator driver (ROADMAP item 3): searches the machine /
// decomposition / comm-backend / application-knob space for the best
// configuration under a chosen objective, scoring candidates with the
// analytic model (batch plan) and re-ranking the top-K front-runners
// with the discrete-event engine.
//
//   optimize_demo --workload=wavefront --processors=256,512,1024 \
//                 --objective=node-hours --search=beam --budget=200
//
// Flags beyond the shared runner set (--threads, --list-*):
//   --objective=time|node-hours|efficiency   what "best" means
//   --search=auto|exhaustive|beam            search strategy
//   --machines=a,b,c       machine axis (catalog names or *.cfg paths;
//                          default: the whole catalog — a config emitted
//                          by `table2_calibration --emit-machine` plugs
//                          in here)
//   --comm-models=a,b      comm-backend override axis
//   --processors=64,128    processor counts (all divisor decompositions)
//   --htiles=1,2,5         tile-height axis (0 = the app's own)
//   --pz=2,4 --angle-blocks=2,6   sweep3d-hybrid rank/blocking axes
//   --budget=N             max model evaluations (0 = unlimited)
//   --beam-width=N --top-k=N --iterations=N --seed=N
//   --app=sweep3d-64|...   application preset
//   --quick                small smoke-test space (CI)
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "runner/runner.h"
#include "wave/wave.h"

using namespace wave;

namespace {

/// "a,b,c" -> {"a","b","c"} (empty string -> empty list).
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// A numeric list flag that is not wholly numbers is fatal, naming the
/// flag and its value (the Cli::get_int convention).
[[noreturn]] void fatal_list(const std::string& name, const std::string& text,
                             const char* expected) {
  std::cerr << "error: --" << name << " expects a comma-separated list of "
            << expected << ", got '" << text << "'\n";
  std::exit(1);
}

std::vector<int> split_ints(const common::Cli& cli, const std::string& name) {
  const std::string text = cli.get(name, "");
  std::vector<int> out;
  for (const std::string& item : split_list(text)) {
    const auto value = common::parse_int(item);
    if (!value || *value < std::numeric_limits<int>::min() ||
        *value > std::numeric_limits<int>::max())
      fatal_list(name, text, "integers");
    out.push_back(static_cast<int>(*value));
  }
  return out;
}

std::vector<double> split_doubles(const common::Cli& cli,
                                  const std::string& name) {
  const std::string text = cli.get(name, "");
  std::vector<double> out;
  for (const std::string& item : split_list(text)) {
    const auto value = common::parse_double(item);
    if (!value) fatal_list(name, text, "numbers");
    out.push_back(*value);
  }
  return out;
}

std::string fmt_grid(const Recommendation& r) {
  return std::to_string(r.grid_columns) + "x" + std::to_string(r.grid_rows);
}

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const wave::Context ctx = runner::default_context();
  if (runner::handle_list_flags(cli, ctx)) return 0;

  // The shared --workload convention: unknown names are fatal with the
  // registry printed. apply_workload_cli does exactly that.
  runner::Scenario flags;
  runner::apply_workload_cli(cli, ctx, flags);

  // Unknown --objective / --search values are fatal with the valid set
  // printed, matching the handle_list_flags convention (never an
  // exception out of main).
  Objective objective = Objective::MinTime;
  if (const std::string name = cli.get("objective", "time");
      !parse_objective(name, &objective)) {
    std::cerr << "error: unknown objective '" << name << "'\n"
              << "valid objectives: " << objective_names_joined() << "\n";
    return 1;
  }
  SearchStrategy strategy = SearchStrategy::Auto;
  if (const std::string name = cli.get("search", "auto");
      !parse_search_strategy(name, &strategy)) {
    std::cerr << "error: unknown search strategy '" << name << "'\n"
              << "valid strategies: " << search_strategy_names_joined()
              << "\n";
    return 1;
  }

  const bool quick = cli.has("quick");
  runner::print_header(
      "Auto-configurator",
      "best configuration under objective '" + to_string(objective) + "'",
      "model-scored search (batch plan) + DES re-rank of the front-runners; "
      "same seed => byte-identical recommendations at any thread count");

  Optimize search = ctx.optimize();
  search.workload(flags.workload)
      .objective(objective)
      .strategy(strategy)
      .budget(static_cast<std::size_t>(cli.get_int("budget", 0)))
      .beam_width(static_cast<int>(cli.get_int("beam-width", 8)))
      .top_k(static_cast<int>(cli.get_int("top-k", quick ? 2 : 3)))
      .iterations(static_cast<int>(cli.get_int("iterations", 1)))
      // Driver convention: negative thread counts fall back to "all
      // cores" (0), like the shared runner flags. The facade itself
      // stays strict — Optimize::run() rejects negatives with a Status.
      .threads(std::max(0, static_cast<int>(cli.get_int("threads", 0))))
      .seed(static_cast<std::uint64_t>(cli.get_int("seed", 2008)));
  if (cli.has("app")) search.app(cli.get("app", ""));
  if (cli.has("machines")) search.machines(split_list(cli.get("machines", "")));
  if (cli.has("comm-models"))
    search.comm_models(split_list(cli.get("comm-models", "")));
  search.processors(cli.has("processors")
                        ? split_ints(cli, "processors")
                        : (quick ? std::vector<int>{64, 128}
                                 : std::vector<int>{256, 512, 1024}));
  if (cli.has("htiles")) search.htiles(split_doubles(cli, "htiles"));
  if (cli.has("pz")) search.pz(split_doubles(cli, "pz"));
  if (cli.has("angle-blocks"))
    search.angle_blocks(split_doubles(cli, "angle-blocks"));

  const auto result = search.run();
  if (!result.ok()) {
    std::cerr << "error: " << result.status().to_string() << "\n";
    return 1;
  }
  const OptimizeResult& r = result.value();

  std::cout << "workload " << r.workload << ", strategy "
            << to_string(r.strategy) << ": scored " << r.evaluated << " of "
            << r.space_size << " candidates (seed " << r.seed << ")\n\n";

  common::Table ranking({"rank", "machine", "comm", "grid", "ranks", "htile",
                         "model_us", "objective"});
  int rank = 1;
  for (const Recommendation& rec : r.ranking) {
    ranking.add_row({common::Table::integer(rank++), rec.machine,
                     rec.comm_model, fmt_grid(rec),
                     common::Table::integer(rec.ranks),
                     common::Table::num(rec.htile, 2),
                     common::Table::num(rec.model_us, 2),
                     common::Table::num(rec.objective_value, 4)});
  }
  if (cli.has("csv")) ranking.print_csv(std::cout);
  else ranking.print(std::cout);

  if (!r.finalists.empty()) {
    std::cout << "\nDES re-rank of the top " << r.finalists.size()
              << " (model-vs-sim divergence per finalist):\n";
    common::Table finals({"rank", "machine", "comm", "grid", "model_us",
                          "sim_us", "divergence%", "within_tol"});
    rank = 1;
    for (const Recommendation& rec : r.finalists) {
      finals.add_row({common::Table::integer(rank++), rec.machine,
                      rec.comm_model, fmt_grid(rec),
                      common::Table::num(rec.model_us, 2),
                      common::Table::num(rec.sim_us, 2),
                      common::Table::num(rec.divergence_pct, 2),
                      rec.within_tolerance ? "yes" : "NO"});
    }
    if (cli.has("csv")) finals.print_csv(std::cout);
    else finals.print(std::cout);
  }

  const Recommendation& best = r.best();
  std::cout << "\nrecommended: " << best.machine << " " << fmt_grid(best)
            << " (" << best.ranks << " ranks, comm " << best.comm_model
            << ") — " << common::Table::num(best.model_us, 2)
            << " us/iteration predicted\n";
  return 0;
}
