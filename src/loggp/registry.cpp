#include "loggp/registry.h"

#include "loggp/backends.h"

namespace wave::loggp {

CommModelRegistry::CommModelRegistry() : Registry("comm model") {
  add("loggp", "the paper's LogGP closed forms (Table 1)",
      [](const MachineParams& p, const CommModelOptions&) {
        return std::make_unique<LogGpModel>(p);
      });
  add("loggps",
      "LogGP plus per-rendezvous synchronization overhead off.sync",
      [](const MachineParams& p, const CommModelOptions&) {
        return std::make_unique<LogGpsModel>(p);
      });
  add("contention",
      "LogGP with every shared-bus DMA window derated by the node's "
      "bus sharers",
      [](const MachineParams& p, const CommModelOptions& o) {
        return std::make_unique<BusContentionModel>(p, o.bus_sharers);
      });
}

}  // namespace wave::loggp
