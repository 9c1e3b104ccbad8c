// Micro-benchmarks run on the simulator: the ping-pong experiment behind
// Fig 3 / Table 2 and the all-reduce measurement behind eq. 9's validation.
//
// These play the role of the MPI benchmark codes the paper ran on the XT4:
// the calibration module fits LogGP parameters from the ping-pong output
// exactly as §3 derives Table 2 from measurements.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "loggp/params.h"
#include "sim/mpi.h"

namespace wave::workloads {

using common::usec;

/// Half the round-trip time of a ping-pong of `bytes` between two ranks,
/// averaged over `reps` exchanges (each node posts its receive immediately
/// after completing a send, as in §3.1). `on_chip` selects whether the two
/// ranks share a node.
usec pingpong_half_rtt(const loggp::MachineParams& params, bool on_chip,
                       int bytes, int reps = 10);

/// Everything a ping-pong run measures, for callers that need more than
/// the headline half-RTT (the registered "pingpong" workload).
struct PingPongRun {
  usec half_rtt = 0.0;
  usec makespan = 0.0;         ///< simulated time for all reps
  std::uint64_t events = 0;    ///< DES events executed
  std::uint64_t messages = 0;  ///< MPI messages delivered
};

/// As pingpong_half_rtt, with explicit protocol options (so the run can
/// mirror a comm backend's rendezvous assumptions) and full run statistics.
/// `observers` are inert instrumentation hooks (sim/observers.h).
PingPongRun pingpong_run(const loggp::MachineParams& params,
                         const sim::ProtocolOptions& protocol, bool on_chip,
                         int bytes, int reps = 10,
                         const sim::Observers& observers = {});

/// Simulated MPI_Allreduce completion time for `ranks` ranks packed
/// `cores_per_node` per node (sim::AllreduceSchedule: recursive doubling,
/// with the fold for non-power-of-two `ranks`). `observers` are inert
/// instrumentation hooks (sim/observers.h).
usec allreduce_sim_time(const loggp::MachineParams& params, int ranks,
                        int cores_per_node, int bytes = 8,
                        const sim::Observers& observers = {});

}  // namespace wave::workloads
