#include "core/sweep_structure.h"

#include "common/contracts.h"

namespace wave::core {

SweepStructure::SweepStructure(std::vector<Sweep> sweeps)
    : sweeps_(std::move(sweeps)) {
  WAVE_EXPECTS_MSG(!sweeps_.empty(), "an iteration needs at least one sweep");
  // The final sweep must complete everywhere before the iteration ends; the
  // codes the paper studies all encode that as a FullComplete last sweep.
  WAVE_EXPECTS_MSG(sweeps_.back().precedence == SweepPrecedence::FullComplete,
                   "the last sweep of an iteration must be FullComplete");
}

int SweepStructure::nfull() const {
  int count = 0;
  for (const Sweep& s : sweeps_)
    if (s.precedence == SweepPrecedence::FullComplete) ++count;
  return count;
}

int SweepStructure::ndiag() const {
  int count = 0;
  for (const Sweep& s : sweeps_)
    if (s.precedence == SweepPrecedence::DiagonalComplete) ++count;
  return count;
}

SweepStructure SweepStructure::lu() {
  using enum SweepPrecedence;
  using enum SweepOrigin;
  // Forward sweep then backward sweep, each running to full completion.
  return SweepStructure({{NorthWest, FullComplete}, {SouthEast, FullComplete}});
}

SweepStructure SweepStructure::sweep3d() {
  using enum SweepPrecedence;
  using enum SweepOrigin;
  // Octant pairs 1,2 / 3,4 / 5,6 / 7,8 (Fig 2b). Sweep 2 starts once the
  // first corner finishes its stack; sweep 3 once the main-diagonal corner
  // finishes sweep 2; sweep 4 runs to completion before 5 begins; the
  // pattern repeats for 5-8.
  return SweepStructure({{NorthWest, OriginFree},
                         {SouthEast, DiagonalComplete},
                         {NorthEast, OriginFree},
                         {SouthWest, FullComplete},
                         {SouthWest, OriginFree},
                         {NorthEast, DiagonalComplete},
                         {SouthEast, OriginFree},
                         {NorthWest, FullComplete}});
}

SweepStructure SweepStructure::chimaera() {
  using enum SweepPrecedence;
  using enum SweepOrigin;
  // Fig 2c: same octant pairing as Sweep3D, but the fourth sweep does not
  // begin until the third finishes at the opposite corner — sweeps 3 and 7
  // are FullComplete where Sweep3D pipelines them, giving nfull = 4.
  return SweepStructure({{NorthWest, OriginFree},
                         {SouthEast, DiagonalComplete},
                         {NorthEast, FullComplete},
                         {SouthWest, FullComplete},
                         {SouthWest, OriginFree},
                         {NorthEast, DiagonalComplete},
                         {SouthEast, FullComplete},
                         {NorthWest, FullComplete}});
}

SweepStructure SweepStructure::sweep3d_pipelined_groups(int groups) {
  WAVE_EXPECTS_MSG(groups >= 1, "need at least one energy group");
  using enum SweepPrecedence;
  using enum SweepOrigin;
  // §5.5: sweeps 1 and 2 for all groups, then sweeps 3 and 4 for all
  // groups, and so forth: 8*groups sweeps total, but only the original two
  // DiagonalComplete and two FullComplete precedences remain; every other
  // sweep is fully pipelined behind its predecessor.
  std::vector<Sweep> sweeps;
  auto push_block = [&](SweepOrigin a, SweepOrigin b, SweepPrecedence tail) {
    for (int g = 0; g < groups; ++g) sweeps.push_back({a, OriginFree});
    for (int g = 0; g < groups; ++g)
      sweeps.push_back({b, g + 1 == groups ? tail : OriginFree});
  };
  push_block(NorthWest, SouthEast, DiagonalComplete);
  push_block(NorthEast, SouthWest, FullComplete);
  push_block(SouthWest, NorthEast, DiagonalComplete);
  push_block(SouthEast, NorthWest, FullComplete);
  return SweepStructure(std::move(sweeps));
}

}  // namespace wave::core
