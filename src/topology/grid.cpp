#include "topology/grid.h"

#include <cmath>

#include "common/contracts.h"

namespace wave::topo {

Grid::Grid(int n_columns, int m_rows) : n_(n_columns), m_(m_rows) {
  WAVE_EXPECTS_MSG(n_columns >= 1 && m_rows >= 1,
                   "grid dimensions must be positive");
}

int Grid::rank_of(Coord c) const {
  WAVE_EXPECTS(contains(c));
  return (c.j - 1) * n_ + (c.i - 1);
}

Coord Grid::coord_of(int rank) const {
  WAVE_EXPECTS(rank >= 0 && rank < size());
  return {rank % n_ + 1, rank / n_ + 1};
}

Grid closest_to_square(int processors) {
  WAVE_EXPECTS_MSG(processors >= 1, "need at least one processor");
  int best_m = 1;
  const int root = static_cast<int>(std::sqrt(static_cast<double>(processors)));
  for (int m = root; m >= 1; --m) {
    if (processors % m == 0) {
      best_m = m;
      break;
    }
  }
  return Grid(processors / best_m, best_m);
}

}  // namespace wave::topo
