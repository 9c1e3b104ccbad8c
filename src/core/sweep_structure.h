// Sweep precedence structures (paper §2.2, Fig 2 and §4.1).
//
// An iteration of a wavefront code performs `nsweeps` pipelined sweeps, one
// per octant/direction. How soon sweep k+1 may start after sweep k is the
// *precedence* of sweep k:
//   FullComplete     — the sweep must finish on every processor (reach the
//                      opposite corner) before the next may start; also used
//                      for the last sweep of the iteration.
//   DiagonalComplete — the sweep must finish at the second corner processor
//                      on the main diagonal of the wavefronts.
//   OriginFree       — the next sweep starts as soon as the originating
//                      processor of this sweep has drained its stack of
//                      tiles (the common, fully pipelined case).
// The model inputs nfull and ndiag of Table 3 are simply the counts of the
// first two kinds; every remaining sweep contributes one Tstack term.
#pragma once

#include <initializer_list>
#include <vector>

namespace wave::core {

enum class SweepPrecedence { OriginFree, DiagonalComplete, FullComplete };

/// Corner of the 2-D processor grid a sweep originates from (Fig 2).
enum class SweepOrigin { NorthWest, NorthEast, SouthWest, SouthEast };

/// One sweep of an iteration: where it starts and what must complete before
/// the *next* sweep may begin.
struct Sweep {
  SweepOrigin origin = SweepOrigin::NorthWest;
  SweepPrecedence precedence = SweepPrecedence::OriginFree;

  bool operator==(const Sweep&) const = default;
};

/// Ordered list of the sweeps in one iteration, with the Table 3 parameter
/// derivation nfull / ndiag / nsweeps.
class SweepStructure {
 public:
  SweepStructure() = default;
  explicit SweepStructure(std::vector<Sweep> sweeps);

  const std::vector<Sweep>& sweeps() const { return sweeps_; }
  int nsweeps() const { return static_cast<int>(sweeps_.size()); }
  int nfull() const;
  int ndiag() const;

  /// LU (Fig 2a): two opposing sweeps, each must fully complete
  /// (nsweeps = 2, nfull = 2, ndiag = 0).
  static SweepStructure lu();

  /// Sweep3D (Fig 2b): eight octant sweeps; sweeps 4 and 8 fully complete,
  /// sweeps 2 and 3 complete at the main-diagonal corner
  /// (nsweeps = 8, nfull = 2, ndiag = 2).
  static SweepStructure sweep3d();

  /// Chimaera (Fig 2c): eight sweeps; unlike Sweep3D the fourth sweep waits
  /// for the third to reach the *opposite* corner
  /// (nsweeps = 8, nfull = 4, ndiag = 2).
  static SweepStructure chimaera();

  /// Energy-group pipelined redesign of Sweep3D (paper §5.5): `groups`
  /// energy groups are pipelined through the same iteration, so an
  /// iteration performs 8*groups sweeps while still paying only the
  /// original nfull = 2 and ndiag = 2 fill penalties.
  static SweepStructure sweep3d_pipelined_groups(int groups);

  bool operator==(const SweepStructure&) const = default;

 private:
  std::vector<Sweep> sweeps_;
};

}  // namespace wave::core
