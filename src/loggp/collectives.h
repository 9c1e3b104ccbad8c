// Abstract models of MPI group communication (paper §3.3).
//
// The all-reduce model (eq. 9) is a log2(P)-stage exchange where the first
// log2(C) stages pair cores of the same node (on-chip) and the remaining
// stages cross nodes; each stage at a node costs C serialized message times
// because the C cores of a node share the memory bus / NIC.
#pragma once

#include "loggp/comm_model.h"

namespace wave::loggp {

/// Execution time of MPI_Allreduce on P total cores with C cores per node
/// (eq. 9).  `message_bytes` is the reduced payload (8 for one double).
/// Preconditions: P >= 1, C >= 1, C <= P, C a power of two. Non-power-of-two
/// P uses ceil(log2 P) exchange stages (the extra round the recursive
/// doubling schedule pays for stragglers); the paper validates powers of two.
usec allreduce_time(const CommModel& model, int total_cores, int cores_per_node,
                    int message_bytes = 8);

}  // namespace wave::loggp
