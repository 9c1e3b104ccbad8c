// A 3-D logical processor grid for hybrid-decomposed sweeps.
//
// The paper's wavefront codes decompose the Nx×Ny×Nz data grid over a 2-D
// processor array (grid.h) and keep z inside each rank. A *hybrid* 3-D
// decomposition additionally partitions z over q planes of processors
// (paper §2.1's Sweep3D discussion: angle-block pipelining is what keeps
// such a decomposition from serializing). Ranks are assigned plane-major:
// plane k holds ranks [k·n·m, (k+1)·n·m) in the 2-D row-major order.
#pragma once

#include "topology/grid.h"

namespace wave::topo {

/// Position in the n×m×q grid: (i,j) as in Coord, k the z-plane in 1..q.
struct Coord3 {
  int i = 1;  ///< column, 1..n
  int j = 1;  ///< row, 1..m
  int k = 1;  ///< plane, 1..q

  friend bool operator==(const Coord3&, const Coord3&) = default;
};

/// An n×m×q processor grid: q z-planes stacked on a 2-D Grid.
class Grid3 {
 public:
  Grid3(const Grid& plane, int q_planes) : plane_(plane), q_(q_planes) {}

  const Grid& plane() const { return plane_; }
  int n() const { return plane_.n(); }
  int m() const { return plane_.m(); }
  int q() const { return q_; }
  int size() const { return plane_.size() * q_; }

  int rank_of(Coord3 c) const {
    return (c.k - 1) * plane_.size() + plane_.rank_of({c.i, c.j});
  }
  Coord3 coord_of(int rank) const {
    const Coord c = plane_.coord_of(rank % plane_.size());
    return {c.i, c.j, rank / plane_.size() + 1};
  }

  bool contains(Coord3 c) const {
    return plane_.contains({c.i, c.j}) && c.k >= 1 && c.k <= q_;
  }
  /// rank_of(c) inside the grid, -1 outside it (an absent neighbour).
  int rank_at(Coord3 c) const { return contains(c) ? rank_of(c) : -1; }

 private:
  Grid plane_;
  int q_;
};

}  // namespace wave::topo
