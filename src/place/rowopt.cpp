#include "place/rowopt.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "place/bins.h"
#include "place/netweight.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/log.h"

namespace p3d::place {

namespace {

// Trace names must be string literals (the sink stores pointers). A 1-D row
// tiling only produces colors 0 and 1, but the tiling API reserves 4.
constexpr const char* kColorTrace[WindowTiling::kNumColors] = {
    "rowopt.color0", "rowopt.color1", "rowopt.color2", "rowopt.color3"};

}  // namespace

RowRefiner::RowRefiner(ObjectiveEvaluator& eval, std::uint64_t seed)
    : eval_(eval), chip_(eval.chip()), rng_(seed) {}

void RowRefiner::BuildRows() {
  rows_.assign(static_cast<std::size_t>(chip_.num_layers() * chip_.num_rows()),
               {});
  const netlist::Netlist& nl = eval_.netlist();
  const Placement& p = eval_.placement();
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    const int layer = std::clamp(p.layer[i], 0, chip_.num_layers() - 1);
    const double w = nl.CellWidth(c);
    const double xlo = p.x[i] - w / 2.0;
    const double xhi = p.x[i] + w / 2.0;
    if (nl.CellFixed(c)) {
      // Fixed cells participate as immovable entries (cell id < 0 marker is
      // unnecessary: passes check the fixed flag) — but only where they
      // physically block a row. Pads ring the die outside its outline;
      // snapping them to the nearest row would plant phantom blockers that
      // overlap real cells and break the model's sorted-disjoint invariant.
      const double h = nl.CellHeight(c);
      const double ylo = p.y[i] - h / 2.0;
      const double yhi = p.y[i] + h / 2.0;
      if (xhi <= 0.0 || xlo >= chip_.width() || yhi <= 0.0 ||
          ylo >= chip_.height()) {
        continue;  // entirely outside the die
      }
      for (int r = 0; r < chip_.num_rows(); ++r) {
        const double band_lo = chip_.RowBottomY(r);
        if (ylo < band_lo + chip_.row_height() && yhi > band_lo) {
          RowAt(layer, r).push_back({c, xlo, xhi});
        }
      }
      continue;
    }
    RowAt(layer, chip_.NearestRow(p.y[i])).push_back({c, xlo, xhi});
  }
  for (auto& row : rows_) {
    std::sort(row.begin(), row.end(),
              [](const Entry& a, const Entry& b) { return a.lo < b.lo; });
  }
}

RowOptStats RowRefiner::Run(int passes) {
  obs::TraceScope trace_refine("rowopt.run");
  RowOptStats stats;
  BuildRows();

  const netlist::Netlist& nl = eval_.netlist();
  const PlacerParams& params = eval_.params();
  const int num_rows = chip_.num_rows();
  const int num_layers = chip_.num_layers();

  // 1-D row-block tiling: window w owns row indices [x0, x1) across ALL
  // layers. Every rowopt action stays within one row index, so same-color
  // windows operate on disjoint rows.
  const int window_rows = std::max(1, params.legalize_window_rows);
  const WindowTiling tiling(num_rows, 1, window_rows);

  runtime::ThreadPool* pool = runtime::SharedPool(params.threads);
  const std::size_t num_slots =
      static_cast<std::size_t>(pool != nullptr ? pool->NumThreads() : 1);
  const std::size_t num_windows = static_cast<std::size_t>(tiling.NumWindows());

  std::vector<DeltaView> views(num_slots, DeltaView(&eval_));
  DeltaView commit_view(&eval_);  // revalidates proposals at commit time

  const auto sort_row = [](std::vector<Entry>& row) {
    std::sort(row.begin(), row.end(),
              [](const Entry& a, const Entry& b) { return a.lo < b.lo; });
  };
  // Entry of `cell` in `row`, or -1 when absent (an earlier rejected
  // proposal diverged the live row from the window's simulation).
  const auto find_cell = [](const std::vector<Entry>& row, std::int32_t cell) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].cell == cell) return static_cast<std::int32_t>(i);
    }
    return static_cast<std::int32_t>(-1);
  };

  // ---- slide schedule ------------------------------------------------------
  std::vector<std::vector<SlideProp>> slide_props(num_windows);
  auto propose_slides = [&](std::int64_t w, int slot) {
    const BinWindow& win = tiling.window(static_cast<int>(w));
    DeltaView& view = views[static_cast<std::size_t>(slot)];
    std::vector<SlideProp>& props = slide_props[static_cast<std::size_t>(w)];
    props.clear();
    const Placement& p = eval_.placement();
    std::vector<Entry> sim;
    for (int layer = 0; layer < num_layers; ++layer) {
      for (int r = win.x0; r < win.x1; ++r) {
        sim = RowAt(layer, r);
        for (std::size_t i = 0; i < sim.size(); ++i) {
          Entry& e = sim[i];
          if (nl.CellFixed(e.cell)) continue;
          const double cw = e.hi - e.lo;
          // Neighbours can be fixed pads ringing the die outside [0, W];
          // the free span is the gap intersected with the die extent.
          const double span_lo = std::max(0.0, i == 0 ? 0.0 : sim[i - 1].hi);
          const double span_hi = std::min(
              chip_.width(), i + 1 < sim.size() ? sim[i + 1].lo : chip_.width());
          if (span_hi - span_lo < cw - kGeomEps) continue;
          double ox = 0.0, oy = 0.0;
          OptimalLateralPosition(view, e.cell, &ox, &oy);
          const double target =
              ClampToSpan(ox, span_lo + cw / 2.0, span_hi - cw / 2.0);
          const double cur = (e.lo + e.hi) / 2.0;
          if (std::abs(target - cur) < kGeomEps) continue;
          const std::size_t ci = static_cast<std::size_t>(e.cell);
          const double delta =
              view.MoveDelta(e.cell, target, p.y[ci], p.layer[ci]);
          if (!StrictlyImproves(delta)) continue;
          props.push_back({layer, r, static_cast<std::int32_t>(i), e.cell});
          e.lo = target - cw / 2.0;  // later spans see this slide
          e.hi = target + cw / 2.0;
        }
      }
    }
  };
  auto commit_slides = [&](std::int64_t w) {
    for (const SlideProp& prop : slide_props[static_cast<std::size_t>(w)]) {
      std::vector<Entry>& row = RowAt(prop.layer, prop.r);
      const std::size_t i = static_cast<std::size_t>(prop.index);
      // Slides never change entry order or count, so the index is stable;
      // the guard only protects against future protocol changes.
      if (i >= row.size() || row[i].cell != prop.cell) continue;
      Entry& e = row[i];
      const double cw = e.hi - e.lo;
      const double span_lo = std::max(0.0, i == 0 ? 0.0 : row[i - 1].hi);
      const double span_hi = std::min(
          chip_.width(), i + 1 < row.size() ? row[i + 1].lo : chip_.width());
      if (span_hi - span_lo < cw - kGeomEps) continue;
      double ox = 0.0, oy = 0.0;
      OptimalLateralPosition(commit_view, e.cell, &ox, &oy);
      const double target =
          ClampToSpan(ox, span_lo + cw / 2.0, span_hi - cw / 2.0);
      const Placement& p = eval_.placement();
      const std::size_t ci = static_cast<std::size_t>(e.cell);
      if (std::abs(target - p.x[ci]) < kGeomEps) continue;
      const double delta =
          commit_view.MoveDelta(e.cell, target, p.y[ci], p.layer[ci]);
      if (!StrictlyImproves(delta)) continue;
      eval_.CommitMove(e.cell, target, p.y[ci], p.layer[ci]);
      e.lo = target - cw / 2.0;
      e.hi = target + cw / 2.0;
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
    std::vector<Entry> sim;
    for (int layer = 0; layer < num_layers; ++layer) {
      for (int r = win.x0; r < win.x1; ++r) {
        sim = RowAt(layer, r);
        for (std::size_t i = 0; i + 1 < sim.size(); ++i) {
          Entry& a = sim[i];
          Entry& b = sim[i + 1];
          if (nl.CellFixed(a.cell) || nl.CellFixed(b.cell)) continue;
          const double wa = a.hi - a.lo;
          const double wb = b.hi - b.lo;
          const double gap = b.lo - a.hi;
          const double b_new_c = a.lo + wb / 2.0;
          const double a_new_c = a.lo + wb + gap + wa / 2.0;
          const std::size_t ai = static_cast<std::size_t>(a.cell);
          const std::size_t bi = static_cast<std::size_t>(b.cell);
          // Screen with two independent deltas against the frozen placement
          // (the serial-exact pair delta needs an intermediate commit, which
          // propose cannot do); the commit re-evaluates exactly.
          const double d1 =
              view.MoveDelta(a.cell, a_new_c, p.y[ai], p.layer[ai]);
          const double d2 =
              view.MoveDelta(b.cell, b_new_c, p.y[bi], p.layer[bi]);
          if (!StrictlyImproves(d1 + d2)) continue;
          props.push_back({layer, r, a.cell, b.cell});
          a.lo = a_new_c - wa / 2.0;
          a.hi = a_new_c + wa / 2.0;
          b.lo = b_new_c - wb / 2.0;
          b.hi = b_new_c + wb / 2.0;
          std::swap(sim[i], sim[i + 1]);  // keep x-sorted
        }
      }
    }
  };
  auto commit_reorders = [&](std::int64_t w) {
    for (const PairProp& prop : pair_props[static_cast<std::size_t>(w)]) {
      std::vector<Entry>& row = RowAt(prop.layer, prop.r);
      const std::int32_t ia = find_cell(row, prop.cell_a);
      if (ia < 0 || static_cast<std::size_t>(ia) + 1 >= row.size()) continue;
      const std::size_t i = static_cast<std::size_t>(ia);
      if (row[i + 1].cell != prop.cell_b) continue;  // no longer adjacent
      Entry& a = row[i];
      Entry& b = row[i + 1];
      const double wa = a.hi - a.lo;
      const double wb = b.hi - b.lo;
      const double gap = b.lo - a.hi;
      // Exchange order, repacked inside [a.lo, b.hi]: b first, then the gap,
      // then a. Total extent is preserved, so legality is guaranteed.
      const double b_new_c = a.lo + wb / 2.0;
      const double a_new_c = a.lo + wb + gap + wa / 2.0;
      const Placement& p = eval_.placement();
      const std::size_t ai = static_cast<std::size_t>(a.cell);
      const std::size_t bi = static_cast<std::size_t>(b.cell);
      const double a_old_x = p.x[ai];

      const double d1 =
          commit_view.MoveDelta(a.cell, a_new_c, p.y[ai], p.layer[ai]);
      eval_.CommitMove(a.cell, a_new_c, p.y[ai], p.layer[ai]);
      const double d2 =
          commit_view.MoveDelta(b.cell, b_new_c, p.y[bi], p.layer[bi]);
      if (StrictlyImproves(d1 + d2)) {
        eval_.CommitMove(b.cell, b_new_c, p.y[bi], p.layer[bi]);
        a.lo = a_new_c - wa / 2.0;
        a.hi = a_new_c + wa / 2.0;
        b.lo = b_new_c - wb / 2.0;
        b.hi = b_new_c + wb / 2.0;
        std::swap(row[i], row[i + 1]);  // keep x-sorted
        stats.reorders += 1;
        stats.gain += -(d1 + d2);
      } else {
        eval_.CommitMove(a.cell, a_old_x, p.y[ai], p.layer[ai]);  // rollback
      }
    }
  };

  // ---- layer-swap schedule -------------------------------------------------
  std::vector<std::vector<SwapProp>> swap_props(num_windows);
  auto propose_layer_swaps = [&](std::int64_t w, int slot) {
    const BinWindow& win = tiling.window(static_cast<int>(w));
    DeltaView& view = views[static_cast<std::size_t>(slot)];
    std::vector<SwapProp>& props = swap_props[static_cast<std::size_t>(w)];
    props.clear();
    // Swaps chain across layer pairs of the same row index, so the window's
    // whole row block is simulated at once.
    const int span = win.x1 - win.x0;
    std::vector<std::vector<Entry>> sim(
        static_cast<std::size_t>(num_layers * span));
    auto sim_row = [&](int layer, int r) -> std::vector<Entry>& {
      return sim[static_cast<std::size_t>(layer * span + (r - win.x0))];
    };
    for (int layer = 0; layer < num_layers; ++layer) {
      for (int r = win.x0; r < win.x1; ++r) sim_row(layer, r) = RowAt(layer, r);
    }
    for (int layer = 0; layer + 1 < num_layers; ++layer) {
      for (int r = win.x0; r < win.x1; ++r) {
        std::vector<Entry>& row_a = sim_row(layer, r);
        std::vector<Entry>& row_b = sim_row(layer + 1, r);
        if (row_b.empty()) continue;
        for (std::size_t ia = 0; ia < row_a.size(); ++ia) {
          Entry& a = row_a[ia];
          if (nl.CellFixed(a.cell)) continue;
          // Nearest entry in the row one layer up.
          const double ax = (a.lo + a.hi) / 2.0;
          const auto it = std::lower_bound(
              row_b.begin(), row_b.end(), ax,
              [](const Entry& e, double x) { return (e.lo + e.hi) / 2.0 < x; });
          std::size_t ib = static_cast<std::size_t>(it - row_b.begin());
          if (ib == row_b.size()) --ib;
          if (ib > 0) {
            const double c_prev = (row_b[ib - 1].lo + row_b[ib - 1].hi) / 2.0;
            const double c_here = (row_b[ib].lo + row_b[ib].hi) / 2.0;
            if (std::abs(c_prev - ax) < std::abs(c_here - ax)) --ib;
          }
          Entry& b = row_b[ib];
          if (nl.CellFixed(b.cell)) continue;
          const double wa = a.hi - a.lo;
          const double wb = b.hi - b.lo;
          const double a_span_lo =
              std::max(0.0, ia == 0 ? 0.0 : row_a[ia - 1].hi);
          const double a_span_hi = std::min(
              chip_.width(),
              ia + 1 < row_a.size() ? row_a[ia + 1].lo : chip_.width());
          const double b_span_lo =
              std::max(0.0, ib == 0 ? 0.0 : row_b[ib - 1].hi);
          const double b_span_hi = std::min(
              chip_.width(),
              ib + 1 < row_b.size() ? row_b[ib + 1].lo : chip_.width());
          if (a_span_hi - a_span_lo < wb || b_span_hi - b_span_lo < wa) {
            continue;
          }
          const double bx = (b.lo + b.hi) / 2.0;
          const double b_new_c =
              ClampToSpan(ax, a_span_lo + wb / 2.0, a_span_hi - wb / 2.0);
          const double a_new_c =
              ClampToSpan(bx, b_span_lo + wa / 2.0, b_span_hi - wa / 2.0);
          const double row_y = chip_.RowCenterY(r);
          const double d1 = view.MoveDelta(a.cell, a_new_c, row_y, layer + 1);
          const double d2 = view.MoveDelta(b.cell, b_new_c, row_y, layer);
          if (!StrictlyImproves(d1 + d2)) continue;
          props.push_back({layer, r, a.cell, b.cell});
          const Entry a_entry{a.cell, a_new_c - wa / 2.0, a_new_c + wa / 2.0};
          const Entry b_entry{b.cell, b_new_c - wb / 2.0, b_new_c + wb / 2.0};
          row_b[ib] = a_entry;
          row_a[ia] = b_entry;
          sort_row(row_a);
          sort_row(row_b);
        }
      }
    }
  };
  auto commit_layer_swaps = [&](std::int64_t w) {
    for (const SwapProp& prop : swap_props[static_cast<std::size_t>(w)]) {
      std::vector<Entry>& row_a = RowAt(prop.layer, prop.r);
      std::vector<Entry>& row_b = RowAt(prop.layer + 1, prop.r);
      const std::int32_t ia32 = find_cell(row_a, prop.cell_a);
      const std::int32_t ib32 = find_cell(row_b, prop.cell_b);
      if (ia32 < 0 || ib32 < 0) continue;  // a prior rejection diverged state
      const std::size_t ia = static_cast<std::size_t>(ia32);
      const std::size_t ib = static_cast<std::size_t>(ib32);
      Entry& a = row_a[ia];
      Entry& b = row_b[ib];
      const double wa = a.hi - a.lo;
      const double wb = b.hi - b.lo;
      // b must fit in a's free span and vice versa, spans intersected with
      // the die: out-of-die pad neighbours must not license out-of-die
      // targets.
      const double a_span_lo = std::max(0.0, ia == 0 ? 0.0 : row_a[ia - 1].hi);
      const double a_span_hi = std::min(
          chip_.width(), ia + 1 < row_a.size() ? row_a[ia + 1].lo : chip_.width());
      const double b_span_lo = std::max(0.0, ib == 0 ? 0.0 : row_b[ib - 1].hi);
      const double b_span_hi = std::min(
          chip_.width(), ib + 1 < row_b.size() ? row_b[ib + 1].lo : chip_.width());
      if (a_span_hi - a_span_lo < wb || b_span_hi - b_span_lo < wa) continue;
      const double ax = (a.lo + a.hi) / 2.0;
      const double bx = (b.lo + b.hi) / 2.0;
      const double b_new_c =
          ClampToSpan(ax, a_span_lo + wb / 2.0, a_span_hi - wb / 2.0);
      const double a_new_c =
          ClampToSpan(bx, b_span_lo + wa / 2.0, b_span_hi - wa / 2.0);

      const Placement& p = eval_.placement();
      const std::size_t aidx = static_cast<std::size_t>(a.cell);
      const double a_old_x = p.x[aidx];
      const double a_old_y = p.y[aidx];
      const int a_old_layer = p.layer[aidx];
      const double row_y = chip_.RowCenterY(prop.r);

      const double d1 =
          commit_view.MoveDelta(a.cell, a_new_c, row_y, prop.layer + 1);
      eval_.CommitMove(a.cell, a_new_c, row_y, prop.layer + 1);
      const double d2 =
          commit_view.MoveDelta(b.cell, b_new_c, row_y, prop.layer);
      if (StrictlyImproves(d1 + d2)) {
        eval_.CommitMove(b.cell, b_new_c, row_y, prop.layer);
        const Entry a_entry{a.cell, a_new_c - wa / 2.0, a_new_c + wa / 2.0};
        const Entry b_entry{b.cell, b_new_c - wb / 2.0, b_new_c + wb / 2.0};
        // a moves into row_b's slot and b into row_a's.
        row_b[ib] = a_entry;
        row_a[ia] = b_entry;
        sort_row(row_a);
        sort_row(row_b);
        stats.layer_swaps += 1;
        stats.gain += -(d1 + d2);
      } else {
        eval_.CommitMove(a.cell, a_old_x, a_old_y, a_old_layer);  // rollback
      }
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
