// Hybrid 3-D-decomposed sweeps with angle-block pipelining (§2.1).
//
// The paper's Sweep3D keeps z inside each rank (the KBA decomposition);
// this workload also partitions z over `pz` planes of processors, which
// would serialize the sweep along z — each plane needs its upstream
// plane's z-face before it can start — were the angular work not split
// into `angle_blocks` pipelined blocks: plane k works on block b while
// plane k+1 works on block b-1. One iteration runs two opposing sweeps
// (down-z from the NW-top corner, then up-z from the SE-bottom corner;
// opposite corners force full completion between them, as in LU), then
// the application's all-reduces.
//
// The analytic path generalizes the solver's recurrences to 3-D:
//   fill   — the r2 dynamic program extended to (i,j,k) with the same
//            "last-arriving message" candidates, now three of them,
//   drain  — the r4 closed form with up to three direction pairs:
//            Tstack = Σ_present (Receive_d + Send_d) + W_block, × blocks,
//   iteration = nsweeps · (Tfill + Tstack) + Tallreduce terms.
// Ranks map one per node (the decomposition studies inter-node pipeline
// shape, not intra-node packing), so model and fabric agree on placement
// by construction.
#pragma once

#include "workloads/workload.h"

namespace wave::workloads {

/// @brief Registered as "sweep3d-hybrid". The xy decomposition comes from
///   the inputs' grid; `pz` and `angle_blocks` come from the parameter
///   schema, so the total rank count is grid.size() × pz.
class Sweep3dHybridWorkload : public Workload {
 public:
  const std::string& name() const override;
  const std::string& description() const override;
  std::vector<ParamSpec> parameters() const override;
  double tolerance() const override { return 0.15; }
  ModelOutput predict(const core::MachineConfig& machine,
                      const loggp::CommModel& comm,
                      const WorkloadInputs& in) const override;
  using Workload::simulate;
  SimOutput simulate(const SimMachine& machine,
                     const WorkloadInputs& in) const override;
};

}  // namespace wave::workloads
