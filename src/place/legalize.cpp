#include "place/legalize.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <tuple>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "place/bins.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/log.h"

namespace p3d::place {

namespace {

// Trace names must be string literals (the sink stores pointers). A 1-D row
// tiling only produces colors 0 and 1, but the tiling API reserves 4.
constexpr const char* kColorTrace[WindowTiling::kNumColors] = {
    "legalize.color0", "legalize.color1", "legalize.color2",
    "legalize.color3"};

// Cap of the expanding row search radius, in rows.
constexpr int kMaxRadiusRows = 64;

// Overlap below this (metres) counts as touching.
constexpr double kOverlapEps = 1e-12;

}  // namespace

DetailedLegalizer::DetailedLegalizer(ObjectiveEvaluator& eval)
    : eval_(eval), nl_(eval.netlist()), chip_(eval.chip()) {}

void DetailedLegalizer::CandidatesInRow(DeltaView& view, const Row& row,
                                        std::int32_t cell, double width,
                                        double desired_x, int layer, int r,
                                        std::vector<Candidate>* out) const {
  const double row_y = chip_.RowCenterY(r);
  const double w_half = width / 2.0;

  // --- gap candidates: free intervals, no shifting needed ----------------
  struct Gap {
    double center;
    double dist;
  };
  Gap best[2] = {{0.0, 1e300}, {0.0, 1e300}};
  auto consider = [&](double g_lo, double g_hi) {
    if (g_hi - g_lo < width) return;
    const double c = ClampToSpan(desired_x, g_lo + w_half, g_hi - w_half);
    const double d = std::abs(c - desired_x);
    if (d < best[0].dist) {
      best[1] = best[0];
      best[0] = {c, d};
    } else if (d < best[1].dist) {
      best[1] = {c, d};
    }
  };
  double cursor = 0.0;
  for (const RowItem& it : row) {
    consider(cursor, it.lo);
    cursor = std::max(cursor, it.hi);
  }
  consider(cursor, chip_.width());

  bool any_gap = false;
  for (const Gap& g : best) {
    if (g.dist >= 1e300) continue;
    any_gap = true;
    Candidate cand;
    cand.x = g.center;
    cand.layer = layer;
    cand.row = r;
    cand.delta = view.MoveDelta(cell, g.center, row_y, layer);
    out->push_back(std::move(cand));
  }

  // --- squeeze candidate: shift neighbours aside (cost included) ----------
  if (!any_gap) {
    auto sq = PlanSqueeze(view, row, cell, width, desired_x, layer, r);
    if (sq.has_value()) out->push_back(std::move(*sq));
  }
}

std::optional<DetailedLegalizer::Candidate> DetailedLegalizer::PlanSqueeze(
    DeltaView& view, const Row& row, std::int32_t cell, double width,
    double desired_x, int layer, int r) const {
  const double row_y = chip_.RowCenterY(r);

  // Split the row into segments between fixed walls; pick the best feasible
  // segment (enough slack for `width`), nearest to desired_x.
  struct Segment {
    double lo, hi;
    std::size_t first, last;  // movable item index range [first, last)
  };
  std::vector<Segment> segments;
  double seg_lo = 0.0;
  std::size_t seg_first = 0;
  for (std::size_t i = 0; i <= row.size(); ++i) {
    const bool wall = i == row.size() || row[i].wall();
    if (!wall) continue;
    const double seg_hi = i == row.size() ? chip_.width() : row[i].lo;
    // Degenerate segments (seg_hi <= seg_lo) arise from walls that overlap
    // the row start, abut each other, or nest inside a wider wall (sorted by
    // lo, a nested wall's hi can REGRESS below the enclosing wall's hi);
    // admitting one would squeeze cells into an interval that sits inside a
    // fixed obstruction. Skip them, and keep seg_lo monotone so a nested
    // wall can never pull the next segment's start back inside its encloser.
    if (seg_hi > seg_lo) segments.push_back({seg_lo, seg_hi, seg_first, i});
    if (i < row.size()) {
      seg_lo = std::max(seg_lo, row[i].hi);
      seg_first = i + 1;
    }
  }

  const Segment* best_seg = nullptr;
  double best_dist = 1e300;
  for (const Segment& s : segments) {
    double used = 0.0;
    for (std::size_t i = s.first; i < s.last; ++i) {
      used += row[i].hi - row[i].lo;
    }
    if (s.hi - s.lo - used < width) continue;  // no slack
    const double c =
        ClampToSpan(desired_x, s.lo + width / 2.0, s.hi - width / 2.0);
    const double d = std::abs(c - desired_x);
    if (d < best_dist) {
      best_dist = d;
      best_seg = &s;
    }
  }
  if (best_seg == nullptr) return std::nullopt;
  const Segment& s = *best_seg;

  // Build the movable sequence with the new cell inserted at its desired
  // slot, then resolve overlaps with a forward pass (push right) and, on
  // right-wall overflow, a backward pass (push left). Total width fits, so
  // this always succeeds.
  struct Entry {
    double ideal_lo;
    double w;
    std::int32_t cell;
  };
  std::vector<Entry> seq;
  const double desired_lo =
      ClampToSpan(desired_x - width / 2.0, s.lo, s.hi - width);
  bool inserted = false;
  for (std::size_t i = s.first; i < s.last; ++i) {
    const RowItem& it = row[i];
    if (!inserted && it.lo + (it.hi - it.lo) / 2.0 > desired_x) {
      seq.push_back({desired_lo, width, cell});
      inserted = true;
    }
    seq.push_back({it.lo, it.hi - it.lo, it.cell});
  }
  if (!inserted) seq.push_back({desired_lo, width, cell});

  std::vector<double> lo(seq.size());
  double prev_end = s.lo;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    lo[i] = std::max(seq[i].ideal_lo, prev_end);
    prev_end = lo[i] + seq[i].w;
  }
  if (prev_end > s.hi) {
    double next_lo = s.hi;
    for (std::size_t i = seq.size(); i-- > 0;) {
      lo[i] = std::min(lo[i], next_lo - seq[i].w);
      next_lo = lo[i];
    }
  }

  Candidate cand;
  cand.layer = layer;
  cand.row = r;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i].cell == cell) {
      cand.x = lo[i] + seq[i].w / 2.0;
      cand.delta += view.MoveDelta(cell, cand.x, row_y, layer);
    } else if (std::abs(lo[i] - seq[i].ideal_lo) > kGeomEps) {
      const std::size_t ci = static_cast<std::size_t>(seq[i].cell);
      const Placement& p = eval_.placement();
      cand.delta += view.MoveDelta(seq[i].cell, lo[i] + seq[i].w / 2.0,
                                   p.y[ci], p.layer[ci]);
      cand.shifts.emplace_back(seq[i].cell, lo[i]);
    }
  }
  return cand;
}

std::optional<DetailedLegalizer::Candidate> DetailedLegalizer::BestCandidate(
    RowBlock& rows, DeltaView& view, std::int32_t cell, int* radius,
    std::vector<Candidate>* cands) const {
  const Placement& p = eval_.placement();
  const std::size_t i = static_cast<std::size_t>(cell);
  const double width = nl_.CellWidth(cell);
  const double desired_x = p.x[i];
  const int home_row = chip_.NearestRow(p.y[i]);
  const int home_layer = std::clamp(p.layer[i], 0, chip_.num_layers() - 1);
  const int radius_cap = std::min(kMaxRadiusRows, chip_.num_rows());
  cands->clear();
  *radius = -1;
  std::vector<int> layer_order;
  layer_order.push_back(home_layer);
  for (int d = 1; d < chip_.num_layers(); ++d) {
    if (home_layer - d >= 0) layer_order.push_back(home_layer - d);
    if (home_layer + d < chip_.num_layers()) layer_order.push_back(home_layer + d);
  }
  for (const int layer : layer_order) {
    bool found_in_layer = false;
    int found_radius = radius_cap;
    for (int dr = 0; dr <= radius_cap; ++dr) {
      if (found_in_layer && dr > found_radius + 2) break;
      bool any_row = false;
      const int row_candidates[2] = {home_row - dr, home_row + dr};
      const int n_row_candidates = dr == 0 ? 1 : 2;
      for (int rc = 0; rc < n_row_candidates; ++rc) {
        const int r = row_candidates[rc];
        if (r < rows.row_lo() || r >= rows.row_hi()) continue;
        any_row = true;
        const std::size_t before = cands->size();
        CandidatesInRow(view, rows.at(layer, r), cell, width, desired_x,
                        layer, r, cands);
        if (cands->size() > before && !found_in_layer) {
          found_in_layer = true;
          found_radius = dr;
          *radius = std::max(*radius, dr);
        }
      }
      if (!any_row) break;  // ran off both ends of the row range
    }
    // The home layer is always searched; adjacent layers are explored
    // until a reasonable candidate pool exists.
    if (!cands->empty() && std::abs(layer - home_layer) >= 1 &&
        static_cast<int>(cands->size()) >= 4) {
      break;
    }
  }
  if (cands->empty()) return std::nullopt;
  return std::move(*std::min_element(
      cands->begin(), cands->end(), [](const Candidate& a, const Candidate& b) {
        return a.delta < b.delta;
      }));
}

void DetailedLegalizer::ApplyCandidateToRow(Row& row, std::int32_t cell,
                                            const Candidate& cand) const {
  for (const auto& [other, new_lo] : cand.shifts) {
    const std::ptrdiff_t k = FindCell(row, other);
    assert(k >= 0);
    RowItem& it = row[static_cast<std::size_t>(k)];
    it.lo = new_lo;
    it.hi = new_lo + nl_.CellWidth(other);
  }
  if (!cand.shifts.empty()) SortRow(row);
  const double width = nl_.CellWidth(cell);
  const RowItem item{cand.x - width / 2.0, cand.x + width / 2.0, cell};
  const auto it = std::lower_bound(
      row.begin(), row.end(), item,
      [](const RowItem& a, const RowItem& b) { return a.lo < b.lo; });
  row.insert(it, item);
}

void DetailedLegalizer::CommitCandidate(RowBlock& rows, std::int32_t cell,
                                        const Candidate& cand,
                                        LegalizeStats* stats) {
  const double row_y = chip_.RowCenterY(cand.row);

  // Apply neighbour shifts first (x-only moves within the same row). The
  // shifted neighbours were already committed into this row, so their live
  // y/layer are the row's.
  for (const auto& [other, new_lo] : cand.shifts) {
    const std::size_t oi = static_cast<std::size_t>(other);
    const double w = nl_.CellWidth(other);
    const Placement& p = eval_.placement();
    eval_.CommitMove(other, new_lo + w / 2.0, p.y[oi], p.layer[oi]);
  }
  if (!cand.shifts.empty()) stats->squeezes += 1;

  const Placement& p = eval_.placement();
  const std::size_t ci = static_cast<std::size_t>(cell);
  stats->total_displacement +=
      std::abs(cand.x - p.x[ci]) + std::abs(row_y - p.y[ci]);
  eval_.CommitMove(cell, cand.x, row_y, cand.layer);

  ApplyCandidateToRow(rows.at(cand.layer, cand.row), cell, cand);
  stats->placed += 1;
}

LegalizeStats DetailedLegalizer::Run() {
  obs::TraceScope trace_legalize("legalize.run");
  LegalizeStats stats;
  const int num_rows = chip_.num_rows();
  RowBlock rows =
      BuildRows(nl_, chip_, eval_.placement(), /*with_movable=*/false);

  // --- processing order: BFS layering of the supply/demand DAG -----------
  // Over-full fine bins are sources; cells farther from congestion are
  // placed later. Ties broken by objective sensitivity.
  BinGrid grid(chip_, nl_.AvgCellWidth(), nl_.AvgCellHeight(), 1.0, 1.0);
  grid.Rebuild(nl_, eval_.placement());
  const int nb = grid.NumBins();
  std::vector<int> bfs_level(static_cast<std::size_t>(nb), -1);
  std::deque<int> queue;
  for (int b = 0; b < nb; ++b) {
    if (grid.Area(b) > grid.BinCapacity()) {
      bfs_level[static_cast<std::size_t>(b)] = 0;
      queue.push_back(b);
    }
  }
  while (!queue.empty()) {
    const int b = queue.front();
    queue.pop_front();
    int bx, by, bz;
    grid.Decompose(b, &bx, &by, &bz);
    const int neighbors[6][3] = {{bx - 1, by, bz}, {bx + 1, by, bz},
                                 {bx, by - 1, bz}, {bx, by + 1, bz},
                                 {bx, by, bz - 1}, {bx, by, bz + 1}};
    for (const auto& nb3 : neighbors) {
      if (nb3[0] < 0 || nb3[0] >= grid.nx() || nb3[1] < 0 ||
          nb3[1] >= grid.ny() || nb3[2] < 0 || nb3[2] >= grid.nz()) {
        continue;
      }
      const int f = grid.Flat(nb3[0], nb3[1], nb3[2]);
      if (bfs_level[static_cast<std::size_t>(f)] >= 0) continue;
      bfs_level[static_cast<std::size_t>(f)] =
          bfs_level[static_cast<std::size_t>(b)] + 1;
      queue.push_back(f);
    }
  }

  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(nl_.NumMovableCells()));
  std::vector<double> sensitivity(static_cast<std::size_t>(nl_.NumCells()), 0.0);
  for (std::int32_t c = 0; c < nl_.NumCells(); ++c) {
    if (nl_.CellFixed(c)) continue;
    order.push_back(c);
    double s = 0.0;
    for (const std::int32_t pid : nl_.CellPinIds(c)) {
      const std::int32_t n = nl_.PinNet(pid);
      const auto deg = static_cast<double>(nl_.NetNumPins(n));
      if (deg > 0) s += eval_.NetCost(n) / deg;
    }
    sensitivity[static_cast<std::size_t>(c)] = s;
  }
  const Placement& p0 = eval_.placement();
  auto level_of = [&](std::int32_t c) {
    const std::size_t i = static_cast<std::size_t>(c);
    const int b = grid.BinOf(p0.x[i], p0.y[i], p0.layer[i]);
    const int lvl = bfs_level[static_cast<std::size_t>(b)];
    return lvl < 0 ? nb : lvl;  // bins unreachable from congestion go last
  };
  // Wide cells are placed before narrow ones (within the same congestion
  // level): they need contiguous free space, which fragments as rows fill.
  // Width is bucketed in average-cell-width units so that the DAG order and
  // the sensitivity tie-break still dominate among similar cells.
  const double avg_w = std::max(nl_.AvgCellWidth(), 1e-12);
  auto width_bucket = [&](std::int32_t c) {
    return static_cast<int>(nl_.CellWidth(c) / avg_w);
  };
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const int wa = width_bucket(a), wb = width_bucket(b);
    if (wa != wb) return wa > wb;
    const int la = level_of(a), lb = level_of(b);
    if (la != lb) return la < lb;
    return sensitivity[static_cast<std::size_t>(a)] >
           sensitivity[static_cast<std::size_t>(b)];
  });

  // --- windowed slot assignment --------------------------------------------
  const PlacerParams& params = eval_.params();
  const int window_rows = std::max(1, params.legalize_window_rows);
  const WindowTiling tiling(num_rows, 1, window_rows);
  const std::size_t num_windows = static_cast<std::size_t>(tiling.NumWindows());

  runtime::ThreadPool* pool = runtime::SharedPool(params.threads);
  const std::size_t num_slots =
      static_cast<std::size_t>(pool != nullptr ? pool->NumThreads() : 1);

  std::vector<DeltaView> views(num_slots, DeltaView(&eval_));

  // Cells are assigned to the window holding their home row; the global
  // priority order is preserved within each window.
  std::vector<std::vector<std::int32_t>> window_cells(num_windows);
  for (const std::int32_t cell : order) {
    const std::size_t i = static_cast<std::size_t>(cell);
    const int w = tiling.WindowOf(chip_.NearestRow(p0.y[i]), 0);
    window_cells[static_cast<std::size_t>(w)].push_back(cell);
  }

  struct Plan {
    std::int32_t cell;
    Candidate cand;
  };
  std::vector<std::vector<Plan>> window_plans(num_windows);
  std::vector<int> window_max_radius(num_windows, 0);
  // Per-cell deferral flags; windows partition the cells, so concurrent
  // proposals write disjoint entries.
  std::vector<std::uint8_t> deferred(static_cast<std::size_t>(nl_.NumCells()),
                                     0);

  auto propose_window = [&](std::int64_t w, int slot) {
    const BinWindow& win = tiling.window(static_cast<int>(w));
    DeltaView& view = views[static_cast<std::size_t>(slot)];
    std::vector<Plan>& plans = window_plans[static_cast<std::size_t>(w)];
    plans.clear();
    // Private simulation of the block's rows: proposals apply here so later
    // cells in the window see earlier ones. Only this window commits to
    // these rows, so the live replay reproduces the same bytes.
    RowBlock sim = rows.Copy(win.x0, win.x1);
    std::vector<Candidate> cands;
    int max_radius = 0;
    for (const std::int32_t cell : window_cells[static_cast<std::size_t>(w)]) {
      int radius = -1;
      std::optional<Candidate> best =
          BestCandidate(sim, view, cell, &radius, &cands);
      if (!best.has_value()) {
        // No slot in this block; the serial pass handles it.
        deferred[static_cast<std::size_t>(cell)] = 1;
        continue;
      }
      max_radius = std::max(max_radius, radius);
      ApplyCandidateToRow(sim.at(best->layer, best->row), cell, *best);
      plans.push_back({cell, std::move(*best)});
    }
    window_max_radius[static_cast<std::size_t>(w)] = max_radius;
  };
  auto commit_window = [&](std::int64_t w) {
    stats.max_radius_rows = std::max(
        stats.max_radius_rows, window_max_radius[static_cast<std::size_t>(w)]);
    for (const Plan& plan : window_plans[static_cast<std::size_t>(w)]) {
      CommitCandidate(rows, plan.cell, plan.cand, &stats);
    }
  };

  runtime::ParallelForWindows(
      pool, tiling.NumWindows(), tiling.colors(), WindowTiling::kNumColors,
      propose_window, commit_window,
      [&](int color) { return obs::TraceScope(kColorTrace[color]); });

  // --- serial overflow pass -------------------------------------------------
  // Cells whose home block had no feasible slot search the full row range
  // against the live rows, in the original global priority order.
  std::vector<Candidate> cands;
  for (const std::int32_t cell : order) {
    if (!deferred[static_cast<std::size_t>(cell)]) continue;
    stats.deferred += 1;
    int radius = -1;
    const std::optional<Candidate> best =
        BestCandidate(rows, views[0], cell, &radius, &cands);
    if (!best.has_value()) {
      util::LogError("legalize: no slot for cell %d (width %.3g)", cell,
                     nl_.CellWidth(cell));
      stats.success = false;
      continue;
    }
    stats.max_radius_rows = std::max(stats.max_radius_rows, radius);
    CommitCandidate(rows, cell, *best, &stats);
  }

  // Fold the views' kernel counters back in slot order; the totals are sums
  // of per-window counts, so they are identical for any thread count.
  for (const DeltaView& v : views) eval_.MergeEvalStats(v.stats());

  obs::MetricAdd("legalize/runs", 1);
  obs::MetricAdd("legalize/windows",
                 static_cast<std::int64_t>(tiling.NumWindows()));
  obs::MetricAdd("legalize/placed", stats.placed);
  obs::MetricAdd("legalize/squeezes", stats.squeezes);
  obs::MetricAdd("legalize/deferred", stats.deferred);
  obs::MetricObserve("legalize/max_radius_rows", stats.max_radius_rows);
  obs::MetricAccumulate("legalize/displacement_m", stats.total_displacement);
  if (!stats.success) obs::MetricAdd("legalize/failures", 1);
  util::LogDebug(
      "legalize: %lld cells (%lld squeezes, %lld deferred), avg displacement "
      "%.3g m, max radius %d",
      stats.placed, stats.squeezes, stats.deferred,
      stats.placed ? stats.total_displacement / stats.placed : 0.0,
      stats.max_radius_rows);
  return stats;
}

long long DetailedLegalizer::CountOverlaps(const netlist::Netlist& nl,
                                           const Placement& p) {
  return CountOverlaps(nl, p, nullptr);
}

long long DetailedLegalizer::CountOverlaps(
    const netlist::Netlist& nl, const Placement& p,
    std::pair<std::int32_t, std::int32_t>* first) {
  struct Box {
    int layer;
    double x_lo, x_hi, y_lo, y_hi;
    std::int32_t cell;
  };
  // Bucket by layer, sort by x_lo, sweep with an active set pruned on x_hi.
  std::vector<Box> boxes;
  boxes.reserve(static_cast<std::size_t>(nl.NumMovableCells()));
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (nl.CellFixed(c)) continue;
    const std::size_t i = static_cast<std::size_t>(c);
    const double half_w = nl.CellWidth(c) / 2.0;
    const double half_h = nl.CellHeight(c) / 2.0;
    boxes.push_back({p.layer[i], p.x[i] - half_w, p.x[i] + half_w,
                     p.y[i] - half_h, p.y[i] + half_h, c});
  }
  std::sort(boxes.begin(), boxes.end(), [](const Box& a, const Box& b) {
    return std::tie(a.layer, a.x_lo, a.cell) <
           std::tie(b.layer, b.x_lo, b.cell);
  });

  long long overlaps = 0;
  std::vector<const Box*> active;
  for (std::size_t k = 0; k < boxes.size(); ++k) {
    const Box& b = boxes[k];
    if (k > 0 && boxes[k - 1].layer != b.layer) active.clear();
    // Retire boxes that end before this one starts (touching is legal).
    std::erase_if(active, [&](const Box* a) {
      return a->x_hi <= b.x_lo + kOverlapEps;
    });
    for (const Box* a : active) {
      if (a->y_lo < b.y_hi - kOverlapEps && b.y_lo < a->y_hi - kOverlapEps) {
        if (overlaps == 0 && first != nullptr) *first = {a->cell, b.cell};
        ++overlaps;
      }
    }
    active.push_back(&b);
  }
  return overlaps;
}

}  // namespace p3d::place
