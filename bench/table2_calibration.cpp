// Table 2: XT4 communication parameters re-derived by the §3 fitting
// procedure — from simulated noisy ping-pong measurements by default, or
// from externally measured CSV curves (--offnode-csv / --onchip-csv), so
// a real machine's pingpong data drives the same fit. --emit-machine
// writes the fitted parameters as a machines/*.cfg for the optimizer and
// every --machine flag to consume (the calibrate -> optimize loop,
// docs/OPTIMIZE.md).
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "calibrate/fitting.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "core/machine.h"
#include "runner/runner.h"

using namespace wave;

namespace {

/// Eagerly loads a measured-curve CSV and fits it alone. Malformed files
/// (file:line diagnostics) and curves the fit cannot use are user errors,
/// fatal before the sweep starts.
calibrate::Curve load_csv_or_die(const std::string& path, bool on_chip,
                                 const loggp::MachineParams& truth) {
  try {
    const calibrate::Curve curve = calibrate::load_curve_csv(path);
    // This side's fit with the other side's ground truth: the two sides'
    // domain checks are independent, so the sweep's fit_machine fails on
    // this curve exactly when this does.
    loggp::MachineParams fitted = truth;
    if (on_chip)
      fitted.on = calibrate::fit_onchip(curve, truth.eager_limit_bytes);
    else
      fitted.off = calibrate::fit_offnode(curve, truth.eager_limit_bytes);
    fitted.validate();
    return curve;
  } catch (const core::ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
  } catch (const common::contract_error& e) {
    std::cerr << "error: " << path << ": " << e.what() << "\n";
  }
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const wave::Context ctx = runner::default_context();
  // --list-workloads / --list-comm-models / --list-machines
  // print the context's catalogs and exit.
  if (runner::handle_list_flags(cli, ctx)) return 0;
  runner::reject_workload_cli(cli, ctx);
  const double noise = cli.get_double("noise", 0.005);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2008));
  runner::print_header(
      "Table 2", "LogGP parameters fitted from ping-pong measurements",
      "G = 0.0004 us/B (2.5 GB/s), L = 0.305 us, o = 3.92 us off-node; "
      "Gcopy = 0.000789, Gdma = 0.000072 us/B, o = 3.80, ocopy = 1.98 us "
      "on-chip — the fit recovers the machine's ground truth");

  // The calibration target: the XT4 by default, any machines/*.cfg ground
  // truth with --machine. The full config is kept so --emit-machine can
  // write the fitted parameters back into the same node architecture.
  const core::MachineConfig base =
      runner::machine_from_cli(cli, ctx, core::MachineConfig::xt4_dual_core());
  const loggp::MachineParams& truth = base.loggp;

  // Externally measured curves replace the simulated ones side-by-side:
  // a CSV off-node curve still composes with a simulated on-chip one.
  // Loaded and fitted eagerly so a bad file fails before the sweep.
  const std::string offnode_csv = cli.get("offnode-csv", "");
  const std::string onchip_csv = cli.get("onchip-csv", "");
  calibrate::Curve measured_off, measured_on;
  if (!offnode_csv.empty())
    measured_off = load_csv_or_die(offnode_csv, /*on_chip=*/false, truth);
  if (!onchip_csv.empty())
    measured_on = load_csv_or_die(onchip_csv, /*on_chip=*/true, truth);

  // A one-point sweep: the calibration is a single (machine, noise, seed)
  // scenario whose deterministic RNG seed comes from the sweep.
  runner::SweepGrid grid;
  grid.seed(seed);
  grid.values("noise", {noise});

  loggp::MachineParams fitted_params;
  const auto records =
      runner::BatchRunner(ctx, runner::options_from_cli(cli))
          .run(grid, [&](const runner::Scenario& s) {
            common::Rng rng(s.seed);
            const std::vector<int> sizes = calibrate::default_sizes();
            // Simulated curves draw from the RNG in the fixed off-then-on
            // order, so a seed always yields the same pair of curves.
            const calibrate::Curve off =
                offnode_csv.empty()
                    ? calibrate::measure_curve(truth, /*on_chip=*/false,
                                               sizes, &rng, s.param("noise"))
                    : measured_off;
            const calibrate::Curve on =
                onchip_csv.empty()
                    ? calibrate::measure_curve(truth, /*on_chip=*/true, sizes,
                                               &rng, s.param("noise"))
                    : measured_on;
            const loggp::MachineParams fitted =
                calibrate::fit_machine(off, on, truth.eager_limit_bytes);
            fitted_params = fitted;
            return runner::Metrics{{"G_off", fitted.off.G},
                                   {"L", fitted.off.L},
                                   {"o_off", fitted.off.o},
                                   {"Gcopy", fitted.on.Gcopy},
                                   {"Gdma", fitted.on.Gdma},
                                   {"o_on", fitted.on.o},
                                   {"ocopy", fitted.on.ocopy}};
          });
  const runner::RunRecord& fit = records.front();

  common::Table table({"parameter", "unit", "ground_truth", "fitted",
                       "err%"});
  auto row = [&](const char* name, const char* unit, double t,
                 const char* key) {
    const double f = fit.metric(key);
    table.add_row({name, unit, common::Table::num(t, 6),
                   common::Table::num(f, 6),
                   common::Table::num(100.0 * common::relative_error(f, t),
                                      2)});
  };
  row("G (off-node)", "us/byte", truth.off.G, "G_off");
  row("L", "us", truth.off.L, "L");
  row("o (off-node)", "us", truth.off.o, "o_off");
  row("Gcopy", "us/byte", truth.on.Gcopy, "Gcopy");
  row("Gdma", "us/byte", truth.on.Gdma, "Gdma");
  row("o (on-chip)", "us", truth.on.o, "o_on");
  row("ocopy", "us", truth.on.ocopy, "ocopy");
  runner::emit(cli, records, table);

  // --emit-machine=FILE: the fitted parameters in the base machine's node
  // architecture, written through write_machine_config so the emitted
  // file reloads byte-stably (the round-trip guarantee) and plugs into
  // --machine= / Optimize::machines() anywhere.
  if (const std::string emit = cli.get("emit-machine", ""); !emit.empty()) {
    core::MachineConfig fitted_machine = base;
    fitted_machine.name = base.name + "-fitted";
    fitted_machine.loggp = fitted_params;
    std::ofstream out(emit, std::ios::binary);
    out << core::write_machine_config(fitted_machine);
    out.flush();
    if (!out) {
      std::cerr << "error: cannot write fitted machine config: " << emit
                << "\n";
      return 1;
    }
    std::cout << "fitted machine '" << fitted_machine.name << "' written to "
              << emit << "\n";
  }

  std::cout << "measurement noise: " << 100.0 * noise
            << "% relative stddev, seed " << seed << "\n"
            << "derived inter-node bandwidth 1/G = "
            << common::Table::num(1.0 / fit.metric("G_off") / 1000.0, 3)
            << " GB/s (paper: 2.5 GB/s)\n";
  return 0;
}
