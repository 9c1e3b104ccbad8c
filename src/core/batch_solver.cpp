#include "core/batch_solver.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/contracts.h"
#include "kernels/fill_recurrence.h"

namespace wave::core {

using loggp::Placement;

BatchEval::BatchEval(const loggp::CommModelRegistry& registry)
    : registry_(&registry) {}

std::uint32_t BatchEval::add_app(const AppParams& app) {
  for (std::uint32_t id = 0; id < apps_.size(); ++id)
    if (apps_[id] == app) return id;
  app.validate();
  apps_.push_back(app);
  return static_cast<std::uint32_t>(apps_.size() - 1);
}

std::uint32_t BatchEval::add_machine(const MachineConfig& machine) {
  for (std::uint32_t id = 0; id < machines_.size(); ++id)
    if (machines_[id].machine == machine) return id;
  machine.validate();
  MachineEntry e;
  e.machine = machine;
  e.comm = machine.make_comm_model(*registry_);
  machines_.push_back(std::move(e));
  return static_cast<std::uint32_t>(machines_.size() - 1);
}

// Every term but r2 is core/solver.h's shared code; only the fill runs
// here, on a table of the message costs the scalar loop would ask the
// backend for cell by cell.

BatchScratch::FillKey BatchEval::fill_input(const BatchPoint& point,
                                            ModelResult& res) const {
  const AppParams& app = apps_[point.app];
  const MachineEntry& me = machines_[point.machine];
  res = evaluate_r1(app, point.grid);  // res is reused across points

  // The Table 1/2/6 message costs the r2 recurrence can touch,
  // pre-evaluated for both placements: exactly the doubles the scalar
  // path's virtual calls return.
  BatchScratch::FillKey key{};
  key.fill.costs = fill_costs(app, me.machine, *me.comm, res);
  key.fill.cx = me.machine.cx;
  key.fill.cy = me.machine.cy;
  key.n = point.grid.n();
  key.m = point.grid.m();
  return key;
}

kernels::FillCorners BatchEval::run_fill(const BatchScratch::FillKey& key,
                                         BatchScratch& scratch) {
  // Single-core and 2-D nodes skip the recurrence, as Solver::evaluate does.
  if (kernels::closed_form_applies(key.fill.costs, key.fill.cx, key.fill.cy))
    return kernels::fill_without_recurrence(key.fill.costs, key.fill.cx,
                                            key.fill.cy, key.n, key.m);

  // Placement parity — all of topology/node_map.h reduced to two bitmaps.
  // Within one row, columns i-1 and i share a node iff they fall in the
  // same cx-wide tile column; within one column, rows j-1 and j share a
  // node iff they fall in the same cy-tall tile row. Every on-chip/off-node
  // decision of the recurrence is one of these pairs. A counter that wraps
  // at cx (cy) marks the tile boundaries, so no division is needed. A
  // bitmap is rebuilt only when its (count, tile) changes: every fill of a
  // group shares n, m, cx and cy.
  auto fill_parity = [](std::vector<std::uint8_t>& pair,
                        std::pair<int, int>& built, int count, int tile) {
    if (built == std::pair{count, tile}) return;
    built = {count, tile};
    pair.resize(static_cast<std::size_t>(count) + 1);
    for (int k = 2, pos = 0; k <= count; ++k) {
      if (++pos == tile) pos = 0;
      pair[k] = pos != 0;  // == ((k - 2) / tile == (k - 1) / tile)
    }
  };
  fill_parity(scratch.col_pair_, scratch.col_shape_, key.n, key.fill.cx);
  fill_parity(scratch.row_pair_, scratch.row_shape_, key.m, key.fill.cy);

  // (r2a)/(r2b): the pipeline-fill recurrence as a wavefront of skewed row
  // blocks (kernels/fill_recurrence.h); the buffer ends holding row m.
  scratch.row_.resize(static_cast<std::size_t>(key.n) + 1);
  kernels::fill_recurrence(key.fill.costs, scratch.col_pair_.data(),
                           scratch.row_pair_.data(), key.n, key.m,
                           scratch.row_lanes_, scratch.row_.data());
  return {scratch.row_[1], scratch.row_[key.n]};
}

void BatchEval::run_fills(BatchScratch& scratch) {
  const std::vector<BatchScratch::FillKey>& keys = scratch.keys_;
  scratch.corners_.resize(keys.size());
  // A thin grid's fill is one long chain of dependent adds, and the fills
  // of a group are independent: with AVX-512 they run side by side, one
  // per vector lane (kernels/fill_recurrence.h). Fills that
  // closed_form_applies admits never join them: run_fill gives their
  // corners without the recurrence. Every other fill runs its recurrence
  // there, one at a time.
  const bool lanes = kernels::has_row_lanes();
  scratch.thin_.clear();
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    const kernels::FillPoint& fill = keys[k].fill;
    if (lanes && !kernels::closed_form_applies(fill.costs, fill.cx, fill.cy) &&
        std::min(keys[k].n, keys[k].m) < kernels::kRowLanesMinRows)
      scratch.thin_.push_back(k);
    else
      scratch.corners_[k] = run_fill(keys[k], scratch);
  }
  // A point-lane batch is up to kPointLanesMaxFills thin keys on one
  // grid; the first waiting key picks the grid.
  std::vector<std::uint32_t>& thin = scratch.thin_;
  while (!thin.empty()) {
    const BatchScratch::FillKey& first = keys[thin.front()];
    const kernels::FillPoint* fills[kernels::kPointLanesMaxFills];
    std::uint32_t batch[kernels::kPointLanesMaxFills];
    int count = 0;
    auto left = thin.begin();
    for (const std::uint32_t k : thin) {
      if (count < kernels::kPointLanesMaxFills && keys[k].n == first.n &&
          keys[k].m == first.m) {
        fills[count] = &keys[k].fill;
        batch[count++] = k;
      } else {
        *left++ = k;
      }
    }
    thin.erase(left, thin.end());
    kernels::FillCorners out[kernels::kPointLanesMaxFills];
    kernels::fill_point_lanes(fills, count, first.n, first.m,
                              scratch.point_lanes_, out);
    for (int c = 0; c < count; ++c) scratch.corners_[batch[c]] = out[c];
  }
}

void BatchEval::finish(const BatchPoint& point,
                       const kernels::FillCorners& fill,
                       ModelResult& res) const {
  const MachineEntry& me = machines_[point.machine];
  evaluate_r3_r5(apps_[point.app], me.machine, *me.comm,
                 TimeSplit{fill.diag.total, fill.diag.comm},
                 TimeSplit{fill.full.total, fill.full.comm}, res);
}

void BatchEval::evaluate_point(const BatchPoint& point, BatchScratch& scratch,
                               ModelResult& res) const {
  finish(point, run_fill(fill_input(point, res), scratch), res);
}

std::size_t BatchEval::evaluate_group(std::span<const BatchPoint> points,
                                      BatchScratch& scratch,
                                      std::span<ModelResult> results) const {
  WAVE_EXPECTS(results.size() == points.size());
  // The kernel is a pure function of the key's bits, so points whose keys
  // memcmp-equal share one run. A key that differs only in the sign of a
  // zero or a NaN payload runs again, which costs time but never bits.
  // memcmp on a key with padding would compare indeterminate bytes.
  static_assert(sizeof(BatchScratch::FillKey) ==
                sizeof(kernels::FillCosts) + 4 * sizeof(int));
  static_assert(sizeof(kernels::FillCosts) == 10 * sizeof(double));
  scratch.keys_.clear();
  scratch.key_of_.resize(points.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    const BatchScratch::FillKey key = fill_input(points[k], results[k]);
    std::uint32_t j = 0;
    while (j < scratch.keys_.size() &&
           std::memcmp(&scratch.keys_[j], &key, sizeof key) != 0)
      ++j;
    if (j == scratch.keys_.size()) scratch.keys_.push_back(key);
    scratch.key_of_[k] = j;
  }
  run_fills(scratch);
  for (std::size_t k = 0; k < points.size(); ++k)
    finish(points[k], scratch.corners_[scratch.key_of_[k]], results[k]);
  return scratch.keys_.size();
}

}  // namespace wave::core
