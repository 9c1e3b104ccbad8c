#include "workloads/registry.h"

#include "common/contracts.h"
#include "workloads/builtin.h"

namespace wave::workloads {

WorkloadRegistry::WorkloadRegistry() : Registry("workload") {
  for (auto& workload : builtin_workloads()) add(std::move(workload));
}

void WorkloadRegistry::add(std::shared_ptr<const Workload> workload) {
  WAVE_EXPECTS_MSG(workload != nullptr, "workload must be non-null");
  const Workload& w = *workload;  // outlives the move: only the pointer moves
  Registry::add(w.name(), w.description(), std::move(workload));
}

std::shared_ptr<const Workload> get_workload(const WorkloadRegistry& registry,
                                             const std::string& name) {
  return registry.get(name);
}

}  // namespace wave::workloads
