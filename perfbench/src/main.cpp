// The benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// One run. The last line of standard output is the result object
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\n");
  return 2;
}

int run_main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      config.trace = value == "1";
    } else if (flag == "--scratch") {
      config.scratch = value;
    } else {
      return usage();
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0'))
      return usage();
  }
  if (!have_workload || !(config.seconds > 0.0)) return usage();
  bool known = false;
  for (const std::string& name : perfbench::workload_names())
    known = known || name == config.workload;
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }

  const perfbench::Outcome outcome = config.trace
                                         ? perfbench::run_layers(config)
                                         : perfbench::run_workload(config);
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!perfbench::valid_metric_name(m.name) ||
        !perfbench::valid_unit(m.unit)) {
      std::fprintf(stderr, "invalid metric name or unit: %s [%s]\n",
                   m.name.c_str(), m.unit.c_str());
      return 1;
    }
  }
  std::cout << perfbench::render_outcome(outcome) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
