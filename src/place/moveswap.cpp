#include "place/moveswap.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "place/netweight.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/log.h"

namespace p3d::place {

namespace {

// Trace names must be string literals (the sink stores pointers).
constexpr const char* kColorTrace[WindowTiling::kNumColors] = {
    "moveswap.color0", "moveswap.color1", "moveswap.color2",
    "moveswap.color3"};

// RAII scope of one color round: traces its span and, once the color's
// commits have all landed, pins the bin occupancy back to its canonical
// bytes so later capacity checks cannot drift with commit-order float noise.
struct ColorScope {
  obs::TraceScope trace;
  BinGrid& grid;
  const netlist::Netlist& nl;

  ColorScope(const char* name, BinGrid& g, const netlist::Netlist& n)
      : trace(name), grid(g), nl(n) {}
  ColorScope(const ColorScope&) = delete;
  ColorScope& operator=(const ColorScope&) = delete;
  ~ColorScope() { grid.ResyncAreas(nl); }
};

}  // namespace

MoveSwapOptimizer::MoveSwapOptimizer(ObjectiveEvaluator& eval,
                                     std::uint64_t seed)
    : eval_(eval), rng_(seed) {}

MoveSwapStats MoveSwapOptimizer::RunPass(bool global, int target_region_bins,
                                         const char* trace_name) {
  obs::TraceScope trace_pass(trace_name);
  const netlist::Netlist& nl = eval_.netlist();
  const PlacerParams& params = eval_.params();
  BinGrid grid(eval_.chip(), nl.AvgCellWidth(), nl.AvgCellHeight());
  grid.Rebuild(nl, eval_.placement());

  std::vector<std::int32_t> order;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (!nl.CellFixed(c)) order.push_back(c);
  }
  rng_.Shuffle(order);

  const int window_bins = std::max(2, params.legalize_window_bins);
  const WindowTiling tiling(grid.nx(), grid.ny(), window_bins);

  // Cells are scheduled by the window holding their bin at pass start; the
  // shuffled visit order is preserved within each window.
  std::vector<std::vector<std::int32_t>> window_cells(
      static_cast<std::size_t>(tiling.NumWindows()));
  for (const std::int32_t cell : order) {
    const std::size_t ci = static_cast<std::size_t>(cell);
    const Placement& p = eval_.placement();
    const int w = tiling.WindowOf(grid.XIndex(p.x[ci]), grid.YIndex(p.y[ci]));
    window_cells[static_cast<std::size_t>(w)].push_back(cell);
  }

  runtime::ThreadPool* pool = runtime::SharedPool(params.threads);
  const std::size_t num_slots =
      static_cast<std::size_t>(pool != nullptr ? pool->NumThreads() : 1);

  // Per-slot propose scratch: a DeltaView over the shared evaluator, an
  // occupancy overlay tracking this window's own pending proposals, and the
  // candidate-bin list.
  std::vector<DeltaView> views(num_slots);
  for (DeltaView& v : views) v.Attach(&eval_);
  std::vector<std::vector<double>> overlays(
      num_slots, std::vector<double>(static_cast<std::size_t>(grid.NumBins()),
                                     0.0));
  std::vector<std::vector<int>> touched(num_slots);
  std::vector<std::vector<int>> cand_scratch(num_slots);
  std::vector<std::vector<Proposal>> window_props(
      static_cast<std::size_t>(tiling.NumWindows()));

  // Global pass: lateral radius so that (2r+1)^2 * layer window ~=
  // target_region_bins.
  const int layer_window = std::min(3, grid.nz());
  const int radius = std::max(
      1,
      static_cast<int>(std::floor(
          (std::sqrt(static_cast<double>(std::max(1, target_region_bins)) /
                     layer_window) -
           1.0) /
          2.0)));

  auto propose_window = [&](std::int64_t w, int slot) {
    const std::size_t si = static_cast<std::size_t>(slot);
    std::vector<Proposal>& props = window_props[static_cast<std::size_t>(w)];
    props.clear();
    std::vector<double>& overlay = overlays[si];
    std::vector<int>& touched_bins = touched[si];
    for (const int b : touched_bins) overlay[static_cast<std::size_t>(b)] = 0.0;
    touched_bins.clear();
    std::vector<int>& candidates = cand_scratch[si];
    DeltaView& view = views[si];
    const Placement& p = eval_.placement();

    // Capacity check against committed occupancy plus this window's own
    // pending proposals (same tolerance form as BinGrid::FitsWithSlack).
    auto overlay_fits = [&](int flat, double add_area) {
      return grid.Area(flat) + overlay[static_cast<std::size_t>(flat)] +
                 add_area <=
             grid.BinCapacity() * kDensitySlack +
                 grid.BinCapacity() * kBinAreaRelTol;
    };
    auto overlay_add = [&](int flat, double a) {
      if (overlay[static_cast<std::size_t>(flat)] == 0.0) {
        touched_bins.push_back(flat);
      }
      overlay[static_cast<std::size_t>(flat)] += a;
    };

    for (const std::int32_t cell : window_cells[static_cast<std::size_t>(w)]) {
      const std::size_t ci = static_cast<std::size_t>(cell);
      const double cell_area = nl.CellArea(cell);
      const int cur_bin = grid.BinOf(p.x[ci], p.y[ci], p.layer[ci]);

      // Candidate target bins: the 3x3x3 neighbourhood (local) or the region
      // around the cell's optimal position (global).
      int bx, by;
      if (global) {
        double ox = 0.0, oy = 0.0;
        OptimalLateralPosition(eval_, cell, &ox, &oy);
        bx = grid.XIndex(ox);
        by = grid.YIndex(oy);
      } else {
        bx = grid.XIndex(p.x[ci]);
        by = grid.YIndex(p.y[ci]);
      }
      const int bz = std::clamp(p.layer[ci], 0, grid.nz() - 1);
      const int r = global ? radius : 1;
      const int zr = global ? layer_window / 2 : 1;
      candidates.clear();
      for (int dz = -zr; dz <= zr; ++dz) {
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            const int x = bx + dx, y = by + dy, z = bz + dz;
            if (x < 0 || x >= grid.nx() || y < 0 || y >= grid.ny() || z < 0 ||
                z >= grid.nz()) {
              continue;
            }
            candidates.push_back(grid.Flat(x, y, z));
          }
        }
      }

      // Best strictly-improving action among the candidates. Candidates are
      // evaluated in a fixed order; a challenger must beat the incumbent by
      // more than kTieBreakEps, so the earlier candidate wins ties.
      Proposal prop;
      prop.cell = cell;
      double best_delta = 0.0;
      bool have_best = false;
      bool best_is_move = false;
      for (const int flat : candidates) {
        int cx, cy, cz;
        grid.Decompose(flat, &cx, &cy, &cz);
        const double tx = grid.BinCenterX(cx);
        const double ty = grid.BinCenterY(cy);

        // Move into the bin if it has room (with slack; later shifting
        // absorbs small overfills — the "shift aside" cost of the paper).
        if (flat != cur_bin && overlay_fits(flat, cell_area)) {
          const double delta = view.MoveDelta(cell, tx, ty, cz);
          if (StrictlyImproves(delta) &&
              (!have_best || BeatsIncumbent(delta, best_delta))) {
            have_best = true;
            best_is_move = true;
            best_delta = delta;
            prop.partner = -1;
            prop.x = tx;
            prop.y = ty;
            prop.layer = cz;
          }
        }

        // Swap with a few occupants of the target bin.
        const auto& occupants = grid.Cells(flat);
        int tried = 0;
        for (const std::int32_t other : occupants) {
          if (other == cell) continue;
          if (tried >= kSwapCandidates) break;
          ++tried;
          const double delta = view.SwapDelta(cell, other);
          if (StrictlyImproves(delta) &&
              (!have_best || BeatsIncumbent(delta, best_delta))) {
            have_best = true;
            best_is_move = false;
            best_delta = delta;
            prop.partner = other;
          }
        }
      }
      if (!have_best) continue;
      if (best_is_move) {
        overlay_add(grid.BinOf(prop.x, prop.y, prop.layer), cell_area);
        overlay_add(cur_bin, -cell_area);
      } else {
        const std::size_t oi = static_cast<std::size_t>(prop.partner);
        const int other_bin = grid.BinOf(p.x[oi], p.y[oi], p.layer[oi]);
        const double other_area = nl.CellArea(prop.partner);
        overlay_add(cur_bin, other_area - cell_area);
        overlay_add(other_bin, cell_area - other_area);
      }
      props.push_back(prop);
    }
  };

  MoveSwapStats stats;
  auto commit_window = [&](std::int64_t w) {
    const Placement& p = eval_.placement();
    for (const Proposal& prop : window_props[static_cast<std::size_t>(w)]) {
      ++stats.proposals;
      const std::int32_t cell = prop.cell;
      const std::size_t ci = static_cast<std::size_t>(cell);
      const double cell_area = nl.CellArea(cell);
      const int cur_bin = grid.BinOf(p.x[ci], p.y[ci], p.layer[ci]);
      if (prop.partner < 0) {
        // Revalidate against the live state: earlier commits (this color's
        // earlier windows, or earlier colors) may have filled the bin or
        // soaked up the gain.
        const int to = grid.BinOf(prop.x, prop.y, prop.layer);
        if (to != cur_bin && !grid.FitsWithSlack(to, cell_area, kDensitySlack)) {
          ++stats.rejected;
          continue;
        }
        const double delta = eval_.MoveDelta(cell, prop.x, prop.y, prop.layer);
        if (!StrictlyImproves(delta)) {
          ++stats.rejected;
          continue;
        }
        eval_.CommitMove(cell, prop.x, prop.y, prop.layer);
        grid.MoveCell(cell, cell_area, cur_bin, to);
        ++stats.moves;
        stats.gain += -delta;
      } else {
        const std::size_t oi = static_cast<std::size_t>(prop.partner);
        const int other_bin = grid.BinOf(p.x[oi], p.y[oi], p.layer[oi]);
        const double delta = eval_.SwapDelta(cell, prop.partner);
        if (!StrictlyImproves(delta)) {
          ++stats.rejected;
          continue;
        }
        eval_.CommitSwap(cell, prop.partner);
        grid.MoveCell(cell, cell_area, cur_bin, other_bin);
        grid.MoveCell(prop.partner, nl.CellArea(prop.partner), other_bin,
                      cur_bin);
        ++stats.swaps;
        stats.gain += -delta;
      }
    }
  };

  runtime::ParallelForWindows(
      pool, tiling.NumWindows(), tiling.colors(), WindowTiling::kNumColors,
      propose_window, commit_window,
      [&](int color) { return ColorScope(kColorTrace[color], grid, nl); });

  // Fold the views' kernel counters back in slot order; the totals are sums
  // of per-window counts, so they are identical for any thread count.
  for (DeltaView& v : views) {
    eval_.MergeEvalStats(v.stats());
    v.ClearStats();
  }

  obs::MetricAdd(global ? "moveswap/global_passes" : "moveswap/local_passes",
                 1);
  obs::MetricAdd("legalize/windows",
                 static_cast<std::int64_t>(tiling.NumWindows()));
  obs::MetricAdd("moveswap/attempts", static_cast<std::int64_t>(order.size()));
  obs::MetricAdd("moveswap/proposals", stats.proposals);
  obs::MetricAdd("moveswap/commit_rejects", stats.rejected);
  obs::MetricAdd("moveswap/moves", stats.moves);
  obs::MetricAdd("moveswap/swaps", stats.swaps);
  obs::MetricAccumulate("moveswap/gain", stats.gain);
  util::LogDebug("moveswap %s: %lld moves, %lld swaps (%lld proposals, "
                 "%lld rejected), gain %.4g",
                 global ? "global" : "local", stats.moves, stats.swaps,
                 stats.proposals, stats.rejected, stats.gain);
  return stats;
}

MoveSwapStats MoveSwapOptimizer::RunLocal() {
  return RunPass(/*global=*/false, /*target_region_bins=*/0, "moveswap.local");
}

MoveSwapStats MoveSwapOptimizer::RunGlobal(int target_region_bins) {
  return RunPass(/*global=*/true, target_region_bins, "moveswap.global");
}

}  // namespace p3d::place
