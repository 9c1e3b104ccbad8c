// Collective-dominated workload: back-to-back all-reduces.
//
// Where the wavefront family buries its one or two all-reduces under
// seconds of sweeping, this workload is nothing *but* the §3.3 collective
// model: every iteration performs `count` MPI_Allreduce operations of
// `bytes` each (with an optional compute gap between them), on ranks
// packed cores_per_node per node. It stresses loggp/collectives.h — the
// eq. 9 log2(P)-stage exchange with its per-node ×C serialization — and,
// through it, every Send/Receive/TotalComm term of the selected backend
// at both placements, with zero wavefront machinery in the way.
#pragma once

#include "workloads/workload.h"

namespace wave::workloads {

/// @brief Registered as "allreduce-storm". Ranks = the largest power of
///   two <= grid.size() (eq. 9's validated regime, and what keeps the
///   recursive-doubling fabric schedule and the model's stage count in
///   lockstep); the reduced payload defaults to the AppParams' all-reduce
///   payload.
class AllreduceStormWorkload : public Workload {
 public:
  const std::string& name() const override;
  const std::string& description() const override;
  std::vector<ParamSpec> parameters() const override;
  double tolerance() const override { return 0.10; }
  ModelOutput predict(const core::MachineConfig& machine,
                      const loggp::CommModel& comm,
                      const WorkloadInputs& in) const override;
  using Workload::simulate;
  SimOutput simulate(const SimMachine& machine,
                     const WorkloadInputs& in) const override;
};

}  // namespace wave::workloads
