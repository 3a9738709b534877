#include "place/shift.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/log.h"

namespace p3d::place {

namespace {

constexpr const char* kColorTrace[WindowTiling::kNumColors] = {
    "shift.color0", "shift.color1", "shift.color2", "shift.color3"};

// Stall stop: Run gives up after kStallWindow consecutive iterations that
// each fail to bring the overflow ratio below (1 - kMinProgress) times the
// best ratio seen so far (the entry value included).
constexpr int kStallWindow = 5;
constexpr double kMinProgress = 0.01;

// Eq. 16 curve parameters.
constexpr double kShiftALower = 0.8;
constexpr double kShiftAUpper = 0.5;
constexpr double kShiftB = 1.0;

/// Eq. 16 width curve.
double WidthFactor(double density) {
  if (density <= 1.0) return kShiftALower * (density - 1.0) + kShiftB;
  return kShiftAUpper * (1.0 - 1.0 / density) + kShiftB;
}

// Indexed by ShiftStop.
constexpr const char* kStopName[] = {"converged", "stalled", "cap"};
constexpr const char* kStopCounter[] = {
    "shift/stop_converged", "shift/stop_stalled", "shift/stop_cap"};

}  // namespace

CellShifter::CellShifter(ObjectiveEvaluator& eval)
    : eval_(eval), chip_layers_(eval.chip().num_layers()) {}

bool CellShifter::PlanCellShift(DeltaView& view, std::int32_t cell, int axis,
                                double new_coord, bool allow_retention,
                                double* out_x, double* out_y,
                                int* out_layer) const {
  const Placement& p = eval_.placement();
  const std::size_t i = static_cast<std::size_t>(cell);
  const Chip& chip = eval_.chip();
  const double old_coord =
      axis == 0 ? p.x[i] : (axis == 1 ? p.y[i] : p.layer[i] + 0.5);

  double best_delta = 0.0;
  bool have_best = false;
  double best_x = p.x[i], best_y = p.y[i];
  int best_layer = p.layer[i];
  // Movement retention (Eq. 17): beta slows the move; pick the candidate
  // with the least objective degradation (full move preferred on ties —
  // BeatsIncumbent demands a challenger improve by more than kTieBreakEps).
  const double betas[3] = {1.0, 0.5, 0.25};
  const int n_betas = allow_retention ? 3 : 1;
  for (int bi = 0; bi < n_betas; ++bi) {
    const double beta = betas[bi];
    const double coord = beta * new_coord + (1.0 - beta) * old_coord;
    double cx = p.x[i], cy = p.y[i];
    int cl = p.layer[i];
    switch (axis) {
      case 0:
        cx = std::clamp(coord, 0.0, chip.width());
        break;
      case 1:
        cy = std::clamp(coord, 0.0, chip.height());
        break;
      default:
        cl = std::clamp(static_cast<int>(std::floor(coord)), 0,
                        chip.num_layers() - 1);
        break;
    }
    const double delta = view.MoveDelta(cell, cx, cy, cl);
    if (!have_best || BeatsIncumbent(delta, best_delta)) {
      have_best = true;
      best_delta = delta;
      best_x = cx;
      best_y = cy;
      best_layer = cl;
    }
  }
  if (!have_best ||
      (best_x == p.x[i] && best_y == p.y[i] && best_layer == p.layer[i])) {
    return false;
  }
  *out_x = best_x;
  *out_y = best_y;
  *out_layer = best_layer;
  return true;
}

void CellShifter::SweepAxis(BinGrid& grid, int axis) {
  grid.Rebuild(eval_.netlist(), eval_.placement());
  const int n_along = axis == 0 ? grid.nx() : (axis == 1 ? grid.ny() : grid.nz());
  if (n_along < 2) return;

  // Whole-layer utilization: z moves are forced only when a layer as a
  // whole exceeds capacity. Local z-column spikes are cheaper to resolve
  // laterally within the layer (an interlayer via costs alpha_ILV; a short
  // lateral shift costs almost nothing), so the objective-driven retention
  // keeps z moves rare otherwise.
  std::vector<double> layer_util;
  if (axis == 2) {
    layer_util.assign(static_cast<std::size_t>(grid.nz()), 0.0);
    for (int z = 0; z < grid.nz(); ++z) {
      double a = 0.0;
      for (int y = 0; y < grid.ny(); ++y) {
        for (int x = 0; x < grid.nx(); ++x) {
          a += grid.Area(grid.Flat(x, y, z));
        }
      }
      layer_util[static_cast<std::size_t>(z)] =
          a / (grid.BinCapacity() * grid.nx() * grid.ny());
    }
  }
  const double bin_size =
      axis == 0 ? grid.bin_w() : (axis == 1 ? grid.bin_h() : 1.0);

  const int n_u = axis == 0 ? grid.ny() : grid.nx();
  const int n_v = axis == 2 ? grid.ny() : grid.nz();

  const PlacerParams& params = eval_.params();
  runtime::ThreadPool* pool = runtime::SharedPool(params.threads);
  const std::size_t num_slots =
      static_cast<std::size_t>(pool != nullptr ? pool->NumThreads() : 1);

  // Windows tile the (u, v) cross grid; every row of bins along the sweep
  // axis belongs to exactly one window, and every cell to exactly one row
  // (the occupant lists are frozen at the Rebuild above), so proposals never
  // conflict and commits are plain ordered replay.
  const int window_bins = std::max(2, params.legalize_window_bins);
  const WindowTiling tiling(n_u, n_v, window_bins);

  struct PlannedMove {
    std::int32_t cell = -1;
    double x = 0.0, y = 0.0;
    int layer = 0;
  };
  std::vector<std::vector<PlannedMove>> window_moves(
      static_cast<std::size_t>(tiling.NumWindows()));

  struct Scratch {
    DeltaView view;
    std::vector<double> density;
    std::vector<double> width;
    std::vector<double> new_bound;
    std::vector<std::int32_t> occupants;
    std::vector<std::pair<double, std::int32_t>> scored;
  };
  std::vector<Scratch> scratch(num_slots);
  for (Scratch& s : scratch) {
    s.view.Attach(&eval_);
    s.density.resize(static_cast<std::size_t>(n_along));
    s.width.resize(static_cast<std::size_t>(n_along));
    s.new_bound.resize(static_cast<std::size_t>(n_along) + 1);
  }

  // Plans one row of bins along `axis` at cross position (u, v), appending
  // the chosen cell targets to `out`. Reads only frozen state (grid + the
  // color-start placement) through the slot's scratch.
  auto propose_row = [&](int u, int v, Scratch& s,
                         std::vector<PlannedMove>& out) {
    auto flat_at = [&](int i) {
      switch (axis) {
        case 0:
          return grid.Flat(i, u, v);
        case 1:
          return grid.Flat(u, i, v);
        default:
          return grid.Flat(u, v, i);
      }
    };
    double max_d = 0.0;
    for (int i = 0; i < n_along; ++i) {
      s.density[static_cast<std::size_t>(i)] = grid.Density(flat_at(i));
      max_d = std::max(max_d, s.density[static_cast<std::size_t>(i)]);
    }
    // Sparse rows are never disturbed (fixes FastPlace's over-spreading).
    if (max_d <= 1.0) return;

    // Eq. 16 widths, renormalized so the row keeps its total extent —
    // this balances expansion against contraction and makes boundary
    // cross-over impossible (all widths stay positive).
    double sum = 0.0;
    for (int i = 0; i < n_along; ++i) {
      s.width[static_cast<std::size_t>(i)] =
          std::max(WidthFactor(s.density[static_cast<std::size_t>(i)]), 0.05);
      sum += s.width[static_cast<std::size_t>(i)];
    }
    const double scale = static_cast<double>(n_along) * bin_size / sum;
    s.new_bound[0] = 0.0;
    for (int i = 0; i < n_along; ++i) {
      s.new_bound[static_cast<std::size_t>(i) + 1] =
          s.new_bound[static_cast<std::size_t>(i)] +
          s.width[static_cast<std::size_t>(i)] * scale;
    }

    // Map cells (Eq. 17).
    //
    // Over-dense bins use *rank-based* intra-bin coordinates: recursive
    // bisection drops whole mini-regions of cells onto (near-)identical
    // points, and a pure coordinate remap can never separate coincident
    // cells (nor move a cell sitting at the fixed point of a symmetric
    // expansion). Ranking cells along the axis and spacing them evenly
    // across the bin preserves relative order — the property Eq. 17's
    // mapping is there to protect — while guaranteeing progress.
    const Placement& p = eval_.placement();
    for (int i = 0; i < n_along; ++i) {
      const double old_lo = i * bin_size;
      const double w_ratio = (s.new_bound[static_cast<std::size_t>(i) + 1] -
                              s.new_bound[static_cast<std::size_t>(i)]) /
                             bin_size;
      s.occupants.assign(grid.Cells(flat_at(i)).begin(),
                         grid.Cells(flat_at(i)).end());
      const bool over_dense = s.density[static_cast<std::size_t>(i)] > 1.0;
      // Retention stalls spreading once bins are meaningfully over-full.
      // Laterally, damping beyond density 1.5 just delays convergence.
      // Along z, the floor() back to a discrete layer cancels damped
      // moves entirely — but forcing z moves to fix *local* spikes tears
      // nets apart needlessly, so z is forced only when the source layer
      // as a whole is over capacity.
      const bool congested =
          axis == 2
              ? (over_dense && layer_util[static_cast<std::size_t>(i)] > 1.0)
              : s.density[static_cast<std::size_t>(i)] > 1.5;
      if (over_dense && s.occupants.size() > 1) {
        if (axis != 2) {
          // Lateral: rank by coordinate to preserve relative cell order.
          std::sort(s.occupants.begin(), s.occupants.end(),
                    [&](std::int32_t a, std::int32_t b) {
                      const std::size_t ai = static_cast<std::size_t>(a);
                      const std::size_t bi = static_cast<std::size_t>(b);
                      const double ca = axis == 0 ? p.x[ai] : p.y[ai];
                      const double cb = axis == 0 ? p.x[bi] : p.y[bi];
                      if (ca != cb) return ca < cb;
                      return a < b;
                    });
        } else {
          // Vertical: there is no cell order to preserve within one layer,
          // but every boundary crossing costs interlayer vias. Rank by the
          // objective cost of moving down vs up, so the cells whose nets
          // already span in the right direction absorb the rebalancing
          // (low rank = prefers down, high rank = prefers up).
          s.scored.clear();
          s.scored.reserve(s.occupants.size());
          for (const std::int32_t c : s.occupants) {
            const std::size_t ci = static_cast<std::size_t>(c);
            const int l = p.layer[ci];
            const double big = 1e30;
            const double d_down =
                l > 0 ? s.view.MoveDelta(c, p.x[ci], p.y[ci], l - 1) : big;
            const double d_up =
                l + 1 < chip_layers_
                    ? s.view.MoveDelta(c, p.x[ci], p.y[ci], l + 1)
                    : big;
            s.scored.emplace_back(d_down - d_up, c);
          }
          std::sort(s.scored.begin(), s.scored.end());
          for (std::size_t k = 0; k < s.scored.size(); ++k) {
            s.occupants[k] = s.scored[k].second;
          }
        }
      }
      for (std::size_t k = 0; k < s.occupants.size(); ++k) {
        const std::int32_t c = s.occupants[k];
        const std::size_t ci = static_cast<std::size_t>(c);
        double coord = axis == 0   ? p.x[ci]
                       : axis == 1 ? p.y[ci]
                                   : p.layer[ci] + 0.5;
        if (over_dense && s.occupants.size() > 1) {
          coord = old_lo +
                  (static_cast<double>(k) + 0.5) /
                      static_cast<double>(s.occupants.size()) * bin_size;
        }
        const double mapped =
            s.new_bound[static_cast<std::size_t>(i)] + (coord - old_lo) * w_ratio;
        // Movement retention would stall badly congested bins; force the
        // full move there.
        PlannedMove m;
        m.cell = c;
        if (PlanCellShift(s.view, c, axis, mapped,
                          /*allow_retention=*/!congested, &m.x, &m.y,
                          &m.layer)) {
          out.push_back(m);
        }
      }
    }
  };

  auto propose_window = [&](std::int64_t w, int slot) {
    std::vector<PlannedMove>& moves = window_moves[static_cast<std::size_t>(w)];
    moves.clear();
    Scratch& s = scratch[static_cast<std::size_t>(slot)];
    const BinWindow& win = tiling.window(static_cast<int>(w));
    for (int v = win.y0; v < win.y1; ++v) {
      for (int u = win.x0; u < win.x1; ++u) {
        propose_row(u, v, s, moves);
      }
    }
  };

  auto commit_window = [&](std::int64_t w) {
    for (const PlannedMove& m : window_moves[static_cast<std::size_t>(w)]) {
      eval_.CommitMove(m.cell, m.x, m.y, m.layer);
    }
  };

  runtime::ParallelForWindows(
      pool, tiling.NumWindows(), tiling.colors(), WindowTiling::kNumColors,
      propose_window, commit_window,
      [&](int color) { return obs::TraceScope(kColorTrace[color]); });

  // Fold the views' kernel counters back in slot order (deterministic sums).
  for (Scratch& s : scratch) {
    eval_.MergeEvalStats(s.view.stats());
    s.view.ClearStats();
  }
  obs::MetricAdd("legalize/windows",
                 static_cast<std::int64_t>(tiling.NumWindows()));
}

ShiftStats CellShifter::Run(int max_iters, double target_density) {
  // A zero budget disables shifting: that is configuration, not a loop that
  // hit its cap, so no shift/stop_* counter is recorded.
  if (max_iters <= 0) return ShiftStats{};
  obs::TraceScope trace_shift("shift.run");
  const netlist::Netlist& nl = eval_.netlist();
  const Chip& chip = eval_.chip();
  BinGrid grid(chip, nl.AvgCellWidth(), nl.AvgCellHeight());
  const double movable_area = nl.MovableArea();
  auto overflow_ratio = [&] {
    return movable_area > 0.0 ? grid.OverflowArea() / movable_area : 0.0;
  };

  ShiftStats stats;
  grid.Rebuild(nl, eval_.placement());
  double overflow = overflow_ratio();
  double best_overflow = overflow;
  int stalled_iters = 0;
  obs::MetricAppend("shift/overflow", overflow);
  for (;;) {
    if (grid.MaxDensity() <= target_density) {
      stats.stop = ShiftStop::kConverged;
      break;
    }
    if (stalled_iters >= kStallWindow) {
      stats.stop = ShiftStop::kStalled;
      break;
    }
    if (stats.iterations >= max_iters) {
      stats.stop = ShiftStop::kCap;
      break;
    }
    ++stats.iterations;
    SweepAxis(grid, 2);  // balance layers first: z capacity is the scarcest
    SweepAxis(grid, 0);
    SweepAxis(grid, 1);
    grid.Rebuild(nl, eval_.placement());
    overflow = overflow_ratio();
    obs::MetricAppend("shift/overflow", overflow);
    stalled_iters =
        overflow < (1.0 - kMinProgress) * best_overflow ? 0 : stalled_iters + 1;
    best_overflow = std::min(best_overflow, overflow);
  }
  stats.final_max_density = grid.MaxDensity();
  stats.final_overflow = overflow;
  obs::MetricAdd("shift/runs", 1);
  obs::MetricAdd("shift/iterations", stats.iterations);
  const int stop = static_cast<int>(stats.stop);
  obs::MetricAdd(kStopCounter[stop], 1);
  obs::MetricSet("shift/final_max_density", stats.final_max_density);
  obs::MetricSet("shift/final_overflow", stats.final_overflow);
  util::LogDebug("shift: %d iters (%s), max density %.3f, overflow %.4f",
                 stats.iterations, kStopName[stop],
                 stats.final_max_density, stats.final_overflow);
  return stats;
}

}  // namespace p3d::place
