// The 2-D logical processor grid of a pipelined wavefront computation.
//
// Paper §2.1: the Nx×Ny×Nz data grid is partitioned over an m×n array of
// processors; processor (i,j) has column i in 1..n and row j in 1..m
// (1-based, exactly as the paper writes StartP_{i,j}).
#pragma once

#include <cstddef>
#include <utility>

namespace wave::topo {

/// Position of a processor in the m×n grid, 1-based as in the paper.
struct Coord {
  int i = 1;  ///< column, 1..n
  int j = 1;  ///< row, 1..m

  friend bool operator==(const Coord&, const Coord&) = default;
};

/// An n-columns × m-rows logical processor grid with rank <-> (i,j) mapping.
///
/// Ranks are assigned row-major: rank 0 is (1,1), rank 1 is (2,1), ...,
/// rank n*m-1 is (n,m). This matches the "processor (1,1) starts the sweep,
/// (n,m) finishes it" convention used throughout the paper.
class Grid {
 public:
  /// Creates a grid with n columns and m rows. Both must be >= 1.
  Grid(int n_columns, int m_rows);

  int n() const { return n_; }  ///< number of columns
  int m() const { return m_; }  ///< number of rows
  int size() const { return n_ * m_; }

  /// rank in [0, size) for 1-based coordinates.
  int rank_of(Coord c) const;
  Coord coord_of(int rank) const;

  bool contains(Coord c) const {
    return c.i >= 1 && c.i <= n_ && c.j >= 1 && c.j <= m_;
  }
  /// rank_of(c) inside the grid, -1 outside it (an absent neighbour).
  int rank_at(Coord c) const { return contains(c) ? rank_of(c) : -1; }

  /// The four corners of the grid, the possible sweep origins (Fig 2).
  Coord corner_nw() const { return {1, 1}; }
  Coord corner_ne() const { return {n_, 1}; }
  Coord corner_sw() const { return {1, m_}; }
  Coord corner_se() const { return {n_, m_}; }

  /// Number of anti-diagonal wavefronts needed for a sweep to cross the
  /// grid: n + m - 1.
  int wavefront_count() const { return n_ + m_ - 1; }

 private:
  int n_;
  int m_;
};

/// Factorizes P into the n×m grid closest to square with n >= m, as the
/// benchmarks do when choosing a processor decomposition. Precondition:
/// P >= 1.
Grid closest_to_square(int processors);

}  // namespace wave::topo
