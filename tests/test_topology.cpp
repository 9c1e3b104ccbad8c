// Unit tests for wave::topo — grids and node maps (Table 6 rules).
#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.h"
#include "topology/grid.h"
#include "topology/node_map.h"

namespace wt = wave::topo;

namespace {
// Cores hosted by each node id the map assigns, indexed by node id.
std::vector<int> cores_per_node_id(const wt::NodeMap& map) {
  std::vector<int> cores;
  for (int r = 0; r < map.grid().size(); ++r) {
    const int node = map.node_of(map.grid().coord_of(r));
    if (node >= static_cast<int>(cores.size())) cores.resize(node + 1, 0);
    ++cores[node];
  }
  return cores;
}
}  // namespace

TEST(Grid, RankCoordRoundTrip) {
  const wt::Grid g(4, 3);
  EXPECT_EQ(g.size(), 12);
  for (int r = 0; r < g.size(); ++r)
    EXPECT_EQ(g.rank_of(g.coord_of(r)), r);
  EXPECT_EQ(g.rank_of({1, 1}), 0);
  EXPECT_EQ(g.rank_of({4, 3}), 11);
}

TEST(Grid, Corners) {
  const wt::Grid g(5, 2);
  EXPECT_EQ(g.corner_nw(), (wt::Coord{1, 1}));
  EXPECT_EQ(g.corner_se(), (wt::Coord{5, 2}));
  EXPECT_EQ(g.corner_ne(), (wt::Coord{5, 1}));
  EXPECT_EQ(g.corner_sw(), (wt::Coord{1, 2}));
  EXPECT_EQ(g.wavefront_count(), 6);
}

TEST(Grid, RejectsBadInput) {
  EXPECT_THROW(wt::Grid(0, 1), wave::common::contract_error);
  const wt::Grid g(2, 2);
  EXPECT_THROW(g.rank_of({3, 1}), wave::common::contract_error);
  EXPECT_THROW(g.coord_of(4), wave::common::contract_error);
}

TEST(Grid, ClosestToSquare) {
  EXPECT_EQ(wt::closest_to_square(16).n(), 4);
  EXPECT_EQ(wt::closest_to_square(16).m(), 4);
  EXPECT_EQ(wt::closest_to_square(8).n(), 4);
  EXPECT_EQ(wt::closest_to_square(8).m(), 2);
  EXPECT_EQ(wt::closest_to_square(1).size(), 1);
  // Primes degrade to 1 x P.
  EXPECT_EQ(wt::closest_to_square(13).m(), 1);
}

TEST(Grid, ClosestToSquarePreservesSize) {
  for (int p = 1; p <= 300; ++p)
    EXPECT_EQ(wt::closest_to_square(p).size(), p) << "P=" << p;
}

TEST(NodeMap, SingleCoreEverythingOffNode) {
  const wt::Grid g(4, 4);
  const wt::NodeMap map(g, 1, 1);
  EXPECT_EQ(cores_per_node_id(map), std::vector<int>(16, 1));
  for (int r = 0; r < g.size(); ++r) {
    const wt::Coord c = g.coord_of(r);
    for (auto d : {wt::Direction::East, wt::Direction::West,
                   wt::Direction::North, wt::Direction::South})
      EXPECT_FALSE(map.is_on_node(c, d));
  }
}

// Table 6: for a 1 x 2 (Cx=1, Cy=2) node, communication is on-chip exactly
// when the mod conditions hold.
TEST(NodeMap, Table6RulesDualCore) {
  const wt::Grid g(4, 4);
  const wt::NodeMap map(g, /*cx=*/1, /*cy=*/2);
  for (int j = 1; j <= 4; ++j) {
    for (int i = 1; i <= 4; ++i) {
      const wt::Coord c{i, j};
      // SendE on-chip iff i mod Cx != 0 and Cx != 1 -> never for Cx = 1.
      EXPECT_FALSE(map.is_on_node(c, wt::Direction::East));
      // ReceiveN on-chip iff j mod Cy != 1 (j even for Cy = 2).
      if (j > 1) {
        EXPECT_EQ(map.is_on_node(c, wt::Direction::North), j % 2 == 0)
            << "i=" << i << " j=" << j;
      }
      // Send south on-chip iff j mod Cy != 0 (sender's own row test).
      if (j < 4) {
        EXPECT_EQ(map.is_on_node(c, wt::Direction::South), j % 2 != 0);
      }
    }
  }
}

TEST(NodeMap, Table6RulesQuadCore) {
  const wt::Grid g(8, 8);
  const wt::NodeMap map(g, /*cx=*/2, /*cy=*/2);
  EXPECT_EQ(cores_per_node_id(map), std::vector<int>(16, 4));
  for (int j = 1; j <= 8; ++j) {
    for (int i = 1; i <= 8; ++i) {
      const wt::Coord c{i, j};
      if (i < 8) {
        EXPECT_EQ(map.is_on_node(c, wt::Direction::East), i % 2 != 0);
      }
      if (i > 1) {
        EXPECT_EQ(map.is_on_node(c, wt::Direction::West), i % 2 != 1);
      }
      if (j > 1) {
        EXPECT_EQ(map.is_on_node(c, wt::Direction::North), j % 2 != 1);
      }
      if (j < 8) {
        EXPECT_EQ(map.is_on_node(c, wt::Direction::South), j % 2 != 0);
      }
    }
  }
}

TEST(NodeMap, NodeIdsAreDenseAndFull) {
  // Node ids cover [0, nodes) with no gaps, and every node of a grid the
  // rectangles tile exactly holds cores_per_node cores.
  const wt::NodeMap map(wt::Grid(8, 8), 2, 4);
  EXPECT_EQ(map.cores_per_node(), 8);
  EXPECT_EQ(cores_per_node_id(map), std::vector<int>(8, 8));
}

TEST(NodeMap, GridEdgeNeverOnNode) {
  const wt::Grid g(6, 6);
  const wt::NodeMap map(g, 2, 2);
  EXPECT_FALSE(map.is_on_node({1, 1}, wt::Direction::West));
  EXPECT_FALSE(map.is_on_node({6, 6}, wt::Direction::South));
}
