// Mapping of the logical m×n processor grid onto multi-core nodes.
//
// Paper §4.3: "Let the wavefront application be mapped to the multi-core
// nodes such that the cores at each node form a Cx × Cy rectangle in the
// m × n processor grid." Communication crossing the rectangle edge is
// off-node; communication inside it is on-chip. Table 6 expresses the edge
// test with mod arithmetic on the 1-based processor indices; this class
// implements exactly those rules and generalizes them to queries about any
// pair of neighbours.
#pragma once

#include "topology/grid.h"

namespace wave::topo {

/// Direction of a message leaving / entering a processor, oriented the way
/// the paper orients sweeps from (1,1): East = +i, South = +j.
enum class Direction { East, West, North, South };

/// Returns the neighbouring coordinate in the given direction (may fall
/// outside the grid; callers check Grid::contains).
Coord neighbour(Coord c, Direction d);

/// Core-to-node placement with Cx×Cy rectangular tiles of cores per node.
class NodeMap {
 public:
  /// The grid dimensions need not be multiples of Cx/Cy; partial rectangles
  /// at the grid edge simply hold fewer cores.
  NodeMap(Grid grid, int cx, int cy);

  const Grid& grid() const { return grid_; }
  int cx() const { return cx_; }
  int cy() const { return cy_; }
  int cores_per_node() const { return cx_ * cy_; }

  /// Identifier of the node hosting processor c (dense, row-major over the
  /// rectangle tiling).
  int node_of(Coord c) const;

  /// True when the message sent by `c` in direction `d` stays on-node.
  /// The four Table 6 rules are special cases of this query:
  ///   SendE on-chip    iff  i mod Cx != 0   (and Cx != 1)
  ///   TotalCommE (recv from W) on-chip iff i mod Cx != 1 (and Cx != 1)
  ///   ReceiveN on-chip iff  j mod Cy != 1   (and Cy != 1)
  ///   TotalCommS on-chip iff j mod Cy != 0  (and Cy != 1)
  bool is_on_node(Coord c, Direction d) const;

 private:
  Grid grid_;
  int cx_;
  int cy_;
};

}  // namespace wave::topo
