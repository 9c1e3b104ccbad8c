#include "loggp/collectives.h"

#include "common/contracts.h"
#include "common/statistics.h"

namespace wave::loggp {

namespace {
void check_pair(int total_cores, int cores_per_node) {
  WAVE_EXPECTS_MSG(total_cores >= 1 && cores_per_node >= 1,
                   "core counts must be positive");
  WAVE_EXPECTS_MSG(cores_per_node <= total_cores,
                   "cores per node cannot exceed total cores");
  WAVE_EXPECTS_MSG(
      common::is_power_of_two(static_cast<std::size_t>(cores_per_node)),
      "all-reduce model requires power-of-two cores per node");
}

// ceil(log2(x)) — the number of recursive-doubling rounds for x ranks.
double ceil_log2(int x) {
  unsigned r = 0;
  std::size_t v = 1;
  while (v < static_cast<std::size_t>(x)) {
    v <<= 1U;
    ++r;
  }
  return static_cast<double>(r);
}
}  // namespace

usec allreduce_time(const CommModel& model, int total_cores, int cores_per_node,
                    int message_bytes) {
  check_pair(total_cores, cores_per_node);
  WAVE_EXPECTS(message_bytes >= 0);
  const double log_p = ceil_log2(total_cores);
  const double log_c =
      common::exact_log2(static_cast<std::size_t>(cores_per_node));
  const double c = cores_per_node;
  // (9): [log2 P - log2 C] * C * TotalComm_off + log2 C * C * TotalComm_on.
  // With C = 1 this reduces to log2(P) * TotalComm, as the paper notes.
  return (log_p - log_c) * c * model.total(message_bytes, Placement::OffNode) +
         log_c * c * model.total(message_bytes, Placement::OnChip);
}

}  // namespace wave::loggp
