#include "place/rowopt.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "place/bins.h"
#include "place/netweight.h"
#include "place/rows.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/log.h"

namespace p3d::place {

namespace {

// Trace names must be string literals (the sink stores pointers). A 1-D row
// tiling only produces colors 0 and 1, but the tiling API reserves 4.
constexpr const char* kColorTrace[WindowTiling::kNumColors] = {
    "rowopt.color0", "rowopt.color1", "rowopt.color2", "rowopt.color3"};

// Screened proposals. Each names its cells by id; the commit relocates them
// in the live rows and deterministically skips any proposal whose
// preconditions no longer hold (an earlier rejected proposal can shift what
// the window's simulation assumed).
struct SlideProp {
  int layer;
  int r;
  std::int32_t index;  // item index (stable: slides never reorder a row)
  std::int32_t cell;
};
struct PairProp {
  int layer;  // a reorder's row, or a layer swap's lower layer
  int r;
  std::int32_t cell_a;  // reorder: left cell; swap: the cell on `layer`
  std::int32_t cell_b;  // reorder: its right neighbour; swap: on layer + 1
};

struct Move {
  std::int32_t cell;
  double x;
  double y;
  int layer;
};

struct PairMove {
  Move a;
  Move b;
};

// ---- action geometry -------------------------------------------------------
// Each action derives its targets in one function, called by propose on the
// window's simulated rows (pricing through the slot's view) and by commit on
// the live rows (pricing through the commit view).

// Slide: the movable item i's nets' weighted-median optimum, clamped into its
// free span; nullopt for a wall or an item whose span is too narrow.
std::optional<double> SlideTarget(DeltaView& view, const Row& row,
                                  std::size_t i, double die_width) {
  const RowItem& e = row[i];
  if (e.wall()) return std::nullopt;
  const double w = e.hi - e.lo;
  const Span span = FreeSpan(row, i, die_width);
  if (span.hi - span.lo < w - kGeomEps) return std::nullopt;
  double ox = 0.0, oy = 0.0;
  OptimalLateralPosition(view, e.cell, &ox, &oy);
  return ClampToSpan(ox, span.lo + w / 2.0, span.hi - w / 2.0);
}

// Reorder: the adjacent movable items a = i and b = i + 1 exchange order,
// repacked inside [a.lo, b.hi]: b first, then the gap, then a. The extent is
// preserved, so legality is guaranteed; both cells keep their row and layer.
// nullopt when either is a wall.
std::optional<PairMove> ReorderTargets(const Row& row, std::size_t i,
                                       const Placement& p) {
  const RowItem& a = row[i];
  const RowItem& b = row[i + 1];
  if (a.wall() || b.wall()) return std::nullopt;
  const double wa = a.hi - a.lo;
  const double wb = b.hi - b.lo;
  const double gap = b.lo - a.hi;
  const std::size_t ai = static_cast<std::size_t>(a.cell);
  const std::size_t bi = static_cast<std::size_t>(b.cell);
  return PairMove{{a.cell, a.lo + wb + gap + wa / 2.0, p.y[ai], p.layer[ai]},
                  {b.cell, a.lo + wb / 2.0, p.y[bi], p.layer[bi]}};
}

// Layer swap: a = row_a[ia] on `layer` moves up into b = row_b[ib]'s slot
// and b down into a's, both on the center line `row_y`. Each must fit the
// other's free span (clipped to the die, so an out-of-die pad neighbour never
// licenses an out-of-die target) and lands as near the other's center as that
// span allows. nullopt for a wall or a misfit.
std::optional<PairMove> SwapTargets(const Row& row_a, std::size_t ia,
                                    const Row& row_b, std::size_t ib,
                                    int layer, double row_y,
                                    double die_width) {
  const RowItem& a = row_a[ia];
  const RowItem& b = row_b[ib];
  if (a.wall() || b.wall()) return std::nullopt;
  const double wa = a.hi - a.lo;
  const double wb = b.hi - b.lo;
  const Span a_span = FreeSpan(row_a, ia, die_width);
  const Span b_span = FreeSpan(row_b, ib, die_width);
  if (a_span.hi - a_span.lo < wb || b_span.hi - b_span.lo < wa) {
    return std::nullopt;
  }
  return PairMove{
      {a.cell,
       ClampToSpan(b.center(), b_span.lo + wa / 2.0, b_span.hi - wa / 2.0),
       row_y, layer + 1},
      {b.cell,
       ClampToSpan(a.center(), a_span.lo + wb / 2.0, a_span.hi - wb / 2.0),
       row_y, layer}};
}

// ---- row updates, shared by the simulations and the live commits -----------

void Recenter(RowItem& e, double x) {
  const double w = e.hi - e.lo;
  e.lo = x - w / 2.0;
  e.hi = x + w / 2.0;
}

void ApplyReorder(Row& row, std::size_t i, const PairMove& m) {
  Recenter(row[i], m.a.x);
  Recenter(row[i + 1], m.b.x);
  std::swap(row[i], row[i + 1]);  // keep x-sorted
}

void ApplySwap(Row& row_a, std::size_t ia, Row& row_b, std::size_t ib,
               const PairMove& m) {
  RowItem a = row_a[ia];
  RowItem b = row_b[ib];
  Recenter(a, m.a.x);
  Recenter(b, m.b.x);
  row_b[ib] = a;
  row_a[ia] = b;
  SortRow(row_a);
  SortRow(row_b);
}

// Commits a pair exactly: commits a, prices b against the moved a, and keeps
// both only if the pair strictly improves; otherwise rolls a back. Returns
// the pair's delta when kept.
std::optional<double> CommitPair(ObjectiveEvaluator& eval, DeltaView& view,
                                 const PairMove& m) {
  const Move& a = m.a;
  const Placement& p = eval.placement();
  const std::size_t ai = static_cast<std::size_t>(a.cell);
  const double old_x = p.x[ai];
  const double old_y = p.y[ai];
  const int old_layer = p.layer[ai];
  const double d1 = view.MoveDelta(a.cell, a.x, a.y, a.layer);
  eval.CommitMove(a.cell, a.x, a.y, a.layer);
  const double d2 = view.MoveDelta(m.b.cell, m.b.x, m.b.y, m.b.layer);
  if (!StrictlyImproves(d1 + d2)) {
    eval.CommitMove(a.cell, old_x, old_y, old_layer);  // rollback
    return std::nullopt;
  }
  eval.CommitMove(m.b.cell, m.b.x, m.b.y, m.b.layer);
  return d1 + d2;
}

// Screens a pair against the frozen placement with two independent deltas
// (the exact pair delta needs the intermediate commit, which propose cannot
// do); the commit re-prices exactly.
bool ScreenPair(DeltaView& view, const PairMove& m) {
  const double d1 = view.MoveDelta(m.a.cell, m.a.x, m.a.y, m.a.layer);
  const double d2 = view.MoveDelta(m.b.cell, m.b.x, m.b.y, m.b.layer);
  return StrictlyImproves(d1 + d2);
}

// The nearest-center item of a nonempty row to x.
std::size_t NearestItem(const Row& row, double x) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), x,
      [](const RowItem& e, double v) { return e.center() < v; });
  std::size_t i = static_cast<std::size_t>(it - row.begin());
  if (i == row.size()) --i;
  if (i > 0 &&
      std::abs(row[i - 1].center() - x) < std::abs(row[i].center() - x)) {
    --i;
  }
  return i;
}

}  // namespace

RowRefiner::RowRefiner(ObjectiveEvaluator& eval, std::uint64_t /*seed*/)
    : eval_(eval), chip_(eval.chip()) {}

RowOptStats RowRefiner::Run(int passes) {
  obs::TraceScope trace_refine("rowopt.run");
  RowOptStats stats;
  RowBlock rows = BuildRows(eval_.netlist(), chip_, eval_.placement(),
                            /*with_movable=*/true);

  const PlacerParams& params = eval_.params();
  const int num_layers = chip_.num_layers();
  const double die_width = chip_.width();

  // 1-D row-block tiling: window w owns row indices [x0, x1) across ALL
  // layers. Every rowopt action stays within one row index, so same-color
  // windows operate on disjoint rows.
  const int window_rows = std::max(1, params.legalize_window_rows);
  const WindowTiling tiling(chip_.num_rows(), 1, window_rows);

  runtime::ThreadPool* pool = runtime::SharedPool(params.threads);
  const std::size_t num_slots =
      static_cast<std::size_t>(pool != nullptr ? pool->NumThreads() : 1);
  const std::size_t num_windows = static_cast<std::size_t>(tiling.NumWindows());

  std::vector<DeltaView> views(num_slots, DeltaView(&eval_));
  DeltaView commit_view(&eval_);  // revalidates proposals at commit time

  // ---- slide schedule ------------------------------------------------------
  std::vector<std::vector<SlideProp>> slide_props(num_windows);
  auto propose_slides = [&](std::int64_t w, int slot) {
    const BinWindow& win = tiling.window(static_cast<int>(w));
    DeltaView& view = views[static_cast<std::size_t>(slot)];
    std::vector<SlideProp>& props = slide_props[static_cast<std::size_t>(w)];
    props.clear();
    const Placement& p = eval_.placement();
    RowBlock sim = rows.Copy(win.x0, win.x1);
    for (int layer = 0; layer < num_layers; ++layer) {
      for (int r = win.x0; r < win.x1; ++r) {
        Row& row = sim.at(layer, r);
        for (std::size_t i = 0; i < row.size(); ++i) {
          const std::optional<double> target =
              SlideTarget(view, row, i, die_width);
          if (!target.has_value()) continue;
          if (std::abs(*target - row[i].center()) < kGeomEps) continue;
          const std::size_t ci = static_cast<std::size_t>(row[i].cell);
          const double delta =
              view.MoveDelta(row[i].cell, *target, p.y[ci], p.layer[ci]);
          if (!StrictlyImproves(delta)) continue;
          props.push_back(
              {layer, r, static_cast<std::int32_t>(i), row[i].cell});
          Recenter(row[i], *target);  // later spans see this slide
        }
      }
    }
  };
  auto commit_slides = [&](std::int64_t w) {
    for (const SlideProp& prop : slide_props[static_cast<std::size_t>(w)]) {
      Row& row = rows.at(prop.layer, prop.r);
      const std::size_t i = static_cast<std::size_t>(prop.index);
      // Slides never change item order or count, so the index is stable;
      // the guard only protects against future protocol changes.
      if (i >= row.size() || row[i].cell != prop.cell) continue;
      const std::optional<double> target =
          SlideTarget(commit_view, row, i, die_width);
      if (!target.has_value()) continue;
      const Placement& p = eval_.placement();
      const std::size_t ci = static_cast<std::size_t>(prop.cell);
      if (std::abs(*target - p.x[ci]) < kGeomEps) continue;
      const double delta =
          commit_view.MoveDelta(prop.cell, *target, p.y[ci], p.layer[ci]);
      if (!StrictlyImproves(delta)) continue;
      eval_.CommitMove(prop.cell, *target, p.y[ci], p.layer[ci]);
      Recenter(row[i], *target);
      stats.slides += 1;
      stats.gain += -delta;
    }
  };

  // ---- reorder schedule ----------------------------------------------------
  std::vector<std::vector<PairProp>> pair_props(num_windows);
  auto propose_reorders = [&](std::int64_t w, int slot) {
    const BinWindow& win = tiling.window(static_cast<int>(w));
    DeltaView& view = views[static_cast<std::size_t>(slot)];
    std::vector<PairProp>& props = pair_props[static_cast<std::size_t>(w)];
    props.clear();
    const Placement& p = eval_.placement();
    RowBlock sim = rows.Copy(win.x0, win.x1);
    for (int layer = 0; layer < num_layers; ++layer) {
      for (int r = win.x0; r < win.x1; ++r) {
        Row& row = sim.at(layer, r);
        for (std::size_t i = 0; i + 1 < row.size(); ++i) {
          const std::optional<PairMove> m = ReorderTargets(row, i, p);
          if (!m.has_value() || !ScreenPair(view, *m)) continue;
          props.push_back({layer, r, m->a.cell, m->b.cell});
          ApplyReorder(row, i, *m);
        }
      }
    }
  };
  auto commit_reorders = [&](std::int64_t w) {
    for (const PairProp& prop : pair_props[static_cast<std::size_t>(w)]) {
      Row& row = rows.at(prop.layer, prop.r);
      const std::ptrdiff_t ia = FindCell(row, prop.cell_a);
      if (ia < 0 || static_cast<std::size_t>(ia) + 1 >= row.size()) continue;
      const std::size_t i = static_cast<std::size_t>(ia);
      if (row[i + 1].cell != prop.cell_b) continue;  // no longer adjacent
      const std::optional<PairMove> m =
          ReorderTargets(row, i, eval_.placement());
      if (!m.has_value()) continue;
      const std::optional<double> delta = CommitPair(eval_, commit_view, *m);
      if (!delta.has_value()) continue;
      ApplyReorder(row, i, *m);
      stats.reorders += 1;
      stats.gain += -*delta;
    }
  };

  // ---- layer-swap schedule -------------------------------------------------
  std::vector<std::vector<PairProp>> swap_props(num_windows);
  auto propose_layer_swaps = [&](std::int64_t w, int slot) {
    const BinWindow& win = tiling.window(static_cast<int>(w));
    DeltaView& view = views[static_cast<std::size_t>(slot)];
    std::vector<PairProp>& props = swap_props[static_cast<std::size_t>(w)];
    props.clear();
    // Swaps chain across layer pairs of the same row index, so the window's
    // whole row block is simulated at once.
    RowBlock sim = rows.Copy(win.x0, win.x1);
    for (int layer = 0; layer + 1 < num_layers; ++layer) {
      for (int r = win.x0; r < win.x1; ++r) {
        Row& row_a = sim.at(layer, r);
        Row& row_b = sim.at(layer + 1, r);
        if (row_b.empty()) continue;
        for (std::size_t ia = 0; ia < row_a.size(); ++ia) {
          if (row_a[ia].wall()) continue;
          // Partner: the nearest item in the row one layer up.
          const std::size_t ib = NearestItem(row_b, row_a[ia].center());
          const std::optional<PairMove> m = SwapTargets(
              row_a, ia, row_b, ib, layer, chip_.RowCenterY(r), die_width);
          if (!m.has_value() || !ScreenPair(view, *m)) continue;
          props.push_back({layer, r, m->a.cell, m->b.cell});
          ApplySwap(row_a, ia, row_b, ib, *m);
        }
      }
    }
  };
  auto commit_layer_swaps = [&](std::int64_t w) {
    for (const PairProp& prop : swap_props[static_cast<std::size_t>(w)]) {
      Row& row_a = rows.at(prop.layer, prop.r);
      Row& row_b = rows.at(prop.layer + 1, prop.r);
      const std::ptrdiff_t ia = FindCell(row_a, prop.cell_a);
      const std::ptrdiff_t ib = FindCell(row_b, prop.cell_b);
      if (ia < 0 || ib < 0) continue;  // a prior rejection diverged state
      const std::optional<PairMove> m = SwapTargets(
          row_a, static_cast<std::size_t>(ia), row_b,
          static_cast<std::size_t>(ib), prop.layer, chip_.RowCenterY(prop.r),
          die_width);
      if (!m.has_value()) continue;
      const std::optional<double> delta = CommitPair(eval_, commit_view, *m);
      if (!delta.has_value()) continue;
      ApplySwap(row_a, static_cast<std::size_t>(ia), row_b,
                static_cast<std::size_t>(ib), *m);
      stats.layer_swaps += 1;
      stats.gain += -*delta;
    }
  };

  auto run_schedule = [&](auto& propose, auto& commit) {
    runtime::ParallelForWindows(
        pool, tiling.NumWindows(), tiling.colors(), WindowTiling::kNumColors,
        propose, commit,
        [&](int color) { return obs::TraceScope(kColorTrace[color]); });
  };

  for (int pass = 0; pass < std::max(passes, 1); ++pass) {
    const double gain_before = stats.gain;
    run_schedule(propose_slides, commit_slides);
    run_schedule(propose_reorders, commit_reorders);
    run_schedule(propose_layer_swaps, commit_layer_swaps);
    if (stats.gain - gain_before < kStrictImprovementEps) break;  // converged
  }

  // Fold the views' kernel counters back in slot order; the totals are sums
  // of per-window counts, so they are identical for any thread count.
  for (const DeltaView& v : views) eval_.MergeEvalStats(v.stats());
  eval_.MergeEvalStats(commit_view.stats());

  obs::MetricAdd("rowopt/runs", 1);
  obs::MetricAdd("rowopt/windows",
                 static_cast<std::int64_t>(tiling.NumWindows()));
  obs::MetricAdd("rowopt/slides", stats.slides);
  obs::MetricAdd("rowopt/reorders", stats.reorders);
  obs::MetricAdd("rowopt/layer_swaps", stats.layer_swaps);
  obs::MetricAccumulate("rowopt/gain", stats.gain);
  util::LogDebug("rowopt: %lld slides, %lld reorders, %lld layer swaps, "
                 "gain %.4g",
                 stats.slides, stats.reorders, stats.layer_swaps, stats.gain);
  return stats;
}

}  // namespace p3d::place
