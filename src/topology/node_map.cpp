#include "topology/node_map.h"

#include "common/contracts.h"

namespace wave::topo {

Coord neighbour(Coord c, Direction d) {
  switch (d) {
    case Direction::East:
      return {c.i + 1, c.j};
    case Direction::West:
      return {c.i - 1, c.j};
    case Direction::North:
      return {c.i, c.j - 1};
    case Direction::South:
      return {c.i, c.j + 1};
  }
  WAVE_ENSURES(false);
  return c;
}

NodeMap::NodeMap(Grid grid, int cx, int cy) : grid_(grid), cx_(cx), cy_(cy) {
  WAVE_EXPECTS_MSG(cx >= 1 && cy >= 1, "cores-per-node factors must be >= 1");
}

int NodeMap::node_of(Coord c) const {
  WAVE_EXPECTS(grid_.contains(c));
  const int tile_col = (c.i - 1) / cx_;
  const int tile_row = (c.j - 1) / cy_;
  const int tiles_per_row = (grid_.n() + cx_ - 1) / cx_;
  return tile_row * tiles_per_row + tile_col;
}

bool NodeMap::is_on_node(Coord c, Direction d) const {
  WAVE_EXPECTS(grid_.contains(c));
  const Coord other = neighbour(c, d);
  if (!grid_.contains(other)) return false;
  return node_of(c) == node_of(other);
}

}  // namespace wave::topo
