// The pure 1-D pipeline — the degenerate wavefront.
//
// P ranks form a single chain (a 1×P decomposition); one sweep per
// iteration flows origin → end, tile by tile: receive from upstream,
// compute, send downstream. With one spatial direction there is no
// diagonal structure at all, so the model collapses to its two primitive
// terms with nothing else in the way:
//   Tfill  = (P-1) · (W + TotalComm)          (the r2 recurrence on 1×P)
//   Tstack = (Receive + Send + W) · tiles     (the r4 closed form)
// and an iteration is exactly Tfill + Tstack. This is the workload that
// pins the subsystem's degenerate-case contract: its predicted stack term
// must equal the wavefront solver's Tstack closed form bit-for-bit
// (tests/test_workload_subsystem.cpp).
#pragma once

#include "workloads/workload.h"

namespace wave::workloads {

/// @brief Registered as "pipeline1d". Reads the AppParams work/size/htile
///   fields; the sweep structure and non-wavefront phase are replaced by
///   the single pure sweep (that is what makes it the degenerate case).
class Pipeline1dWorkload : public Workload {
 public:
  const std::string& name() const override;
  const std::string& description() const override;
  double tolerance() const override { return 0.05; }
  ModelOutput predict(const core::MachineConfig& machine,
                      const loggp::CommModel& comm,
                      const WorkloadInputs& in) const override;
  using Workload::simulate;
  SimOutput simulate(const SimMachine& machine,
                     const WorkloadInputs& in) const override;

  /// @brief The 1×P chain and single-sweep AppParams this workload
  ///   actually evaluates for `in` (exposed so tests can derive the
  ///   closed form from the same spec).
  static core::AppParams chain_app(const WorkloadInputs& in);
  static topo::Grid chain_grid(const WorkloadInputs& in);
};

}  // namespace wave::workloads
