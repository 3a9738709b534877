#include "place/global.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <string>

#include "geom/geometry.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "partition/partitioner.h"
#include "place/netweight.h"
#include "runtime/parallel.h"
#include "runtime/stream.h"
#include "util/log.h"

namespace p3d::place {
namespace {

// Recursion stops at regions of this many cells or fewer.
constexpr int kRegionStopCells = 4;
// Lower bound of a lateral cut's balance tolerance.
constexpr double kMinPartitionTolerance = 0.03;

}  // namespace

GlobalPlacer::GlobalPlacer(const ObjectiveEvaluator& eval)
    : eval_(eval),
      nl_(eval.netlist()),
      chip_(eval.chip()),
      params_(eval.params()) {
  const std::size_t nn = static_cast<std::size_t>(nl_.NumNets());
  net_hpwl_.assign(nn, 0.0);
  net_span_.assign(nn, 0);
  nw_lateral_.assign(nn, 1.0);
  nw_vertical_.assign(nn, 1.0);
  cell_power_.assign(static_cast<std::size_t>(nl_.NumCells()), 0.0);
  floors_ = ComputePekoFloors(nl_, params_.alpha_ilv);
  const double avg_area = nl_.AvgCellWidth() * nl_.AvgCellHeight();
  r_slope_z_ =
      eval.resistance_model().FitVertical(avg_area > 0 ? avg_area : 1e-12).slope;
}

int GlobalPlacer::SideOf(const geom::Region& region, int axis, int z_split,
                         double x, double y, int layer) {
  switch (axis) {
    case 0: {
      const double mid = region.rect.CenterX();
      return x < mid ? 0 : 1;
    }
    case 1: {
      const double mid = region.rect.CenterY();
      return y < mid ? 0 : 1;
    }
    default:
      return layer < z_split ? 0 : 1;
  }
}

void GlobalPlacer::RefreshLevelData() {
  // Net metrics from the provisional positions (per-net writes only, so the
  // batch parallelizes without synchronization).
  runtime::ParallelFor(pool_, 0, nl_.NumNets(), /*grain=*/512,
                       [&](std::int64_t n) {
    geom::BBox3 box;
    for (const netlist::Pin& pin : nl_.NetPins(static_cast<std::int32_t>(n))) {
      const std::size_t c = static_cast<std::size_t>(pin.cell);
      box.Add(geom::Point3{pos_.x[c] + pin.dx, pos_.y[c] + pin.dy,
                           pos_.layer[c]});
    }
    net_hpwl_[static_cast<std::size_t>(n)] = box.Hpwl();
    net_span_[static_cast<std::size_t>(n)] = box.LayerSpan();
  });

  // Cell powers with PEKO-3D floors (Eq. 10 + 13-15), and Eq. 8 weights.
  // Leakage (if enabled) joins P_j^cell, as Section 3.2 suggests.
  std::fill(cell_power_.begin(), cell_power_.end(),
            params_.electrical.leakage_per_cell_w);
  const bool thermal = params_.alpha_temp > 0.0;
  for (std::int32_t n = 0; n < nl_.NumNets(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    nw_lateral_[i] = 1.0;
    nw_vertical_[i] = 1.0;
    const std::int32_t driver = nl_.DriverCell(n);
    if (driver < 0) continue;
    const double wl =
        std::max(net_hpwl_[i], floors_.wl_x[i] + floors_.wl_y[i]);
    const double ilv =
        std::max(static_cast<double>(net_span_[i]), floors_.ilv[i]);
    cell_power_[static_cast<std::size_t>(driver)] +=
        eval_.SWl(n) * wl + eval_.SIlv(n) * ilv + eval_.SPinTerm(n);
    if (thermal) {
      const std::size_t d = static_cast<std::size_t>(driver);
      const double area = nl_.cell(driver).Area();
      const double r = eval_.resistance_model().CellToAmbient(
          pos_.x[d], pos_.y[d], pos_.layer[d], area > 0 ? area : 1e-12);
      nw_lateral_[i] = 1.0 + params_.alpha_temp * r * eval_.SWl(n);
      if (params_.alpha_ilv > 0.0) {
        nw_vertical_[i] =
            1.0 + params_.alpha_temp * r * eval_.SIlv(n) / params_.alpha_ilv;
      }
    }
  }
}

void GlobalPlacer::FinalizeRegion(const Task& task) {
  const geom::Region& rg = task.region;
  const int k = static_cast<int>(task.cells.size());
  if (k == 0) return;
  const int ncols = std::max(1, static_cast<int>(std::ceil(std::sqrt(k))));
  const int nrows = (k + ncols - 1) / ncols;
  const int layers = rg.NumLayers();
  for (int i = 0; i < k; ++i) {
    const std::size_t c = static_cast<std::size_t>(task.cells[static_cast<std::size_t>(i)]);
    const int col = i % ncols;
    const int row = i / ncols;
    pos_.x[c] = rg.rect.x_lo + (col + 0.5) * rg.rect.Width() / ncols;
    pos_.y[c] = rg.rect.y_lo + (row + 0.5) * rg.rect.Height() / nrows;
    // Multi-layer leftover regions (alpha_ILV ~ 0 never picks z cuts):
    // round-robin the layers, treating them as free extra area.
    pos_.layer[c] = rg.layer_lo + (i % layers);
  }
}

void GlobalPlacer::SplitTask(const Task& task, std::uint64_t seed,
                             Scratch* scratch, Task out[2]) {
  const geom::Region& rg = task.region;
  const double w = rg.rect.Width();
  const double h = rg.rect.Height();
  const int layers = rg.NumLayers();
  // Weighted depth = depth * alpha_ILV / d_layer = #layers * alpha_ILV.
  const double weighted_depth =
      layers > 1 ? layers * params_.alpha_ilv : -1.0;

  int axis = 0;
  double best = w;
  if (h > best) {
    best = h;
    axis = 1;
  }
  if (weighted_depth > best) {
    axis = 2;
  }

  const int m_lo = layers / 2;                  // layers in the lower part
  const int z_split = rg.layer_lo + m_lo;       // first layer of the upper part

  // ----- build the region hypergraph ------------------------------------
  partition::Hypergraph hg;
  auto& local_of = scratch->local_of;  // sized once per worker; reset per use
  for (const std::int32_t c : task.cells) {
    local_of[static_cast<std::size_t>(c)] =
        hg.AddVertex(nl_.cell(c).Area(), partition::FixedSide::kFree);
  }
  const std::int32_t t0 =
      hg.AddVertex(0.0, partition::FixedSide::kPart0);  // side-0 terminal
  const std::int32_t t1 =
      hg.AddVertex(0.0, partition::FixedSide::kPart1);  // side-1 terminal

  ++scratch->stamp;
  std::vector<std::int32_t> verts;
  for (const std::int32_t cell : task.cells) {
    for (const std::int32_t p : nl_.CellPinIds(cell)) {
      const std::int32_t n = nl_.pin(p).net;
      const std::size_t ni = static_cast<std::size_t>(n);
      if (scratch->net_stamp[ni] == scratch->stamp) continue;
      scratch->net_stamp[ni] = scratch->stamp;
      verts.clear();
      bool ext0 = false, ext1 = false;
      for (const netlist::Pin& pin : nl_.NetPins(n)) {
        const std::int32_t lid = local_of[static_cast<std::size_t>(pin.cell)];
        if (lid >= 0) {
          verts.push_back(lid);
        } else {
          // External pins project from the start-of-level snapshot: sibling
          // tasks update pos_ concurrently, and reading their provisional
          // writes would make the cut depend on task ordering.
          const std::size_t c = static_cast<std::size_t>(pin.cell);
          const int side = SideOf(rg, axis, z_split, pos_level_.x[c] + pin.dx,
                                  pos_level_.y[c] + pin.dy, pos_level_.layer[c]);
          (side == 0 ? ext0 : ext1) = true;
        }
      }
      if (ext0) verts.push_back(t0);
      if (ext1) verts.push_back(t1);
      if (verts.size() < 2) continue;
      const double weight = axis == 2 ? nw_vertical_[ni] : nw_lateral_[ni];
      hg.AddNet(weight, verts);
    }
  }

  // Thermal resistance reduction nets (Section 3.2) pull cells toward the
  // heat sink during z cuts. Weight expressed in the same units as
  // nw_vertical (objective cost per cut divided by alpha_ILV).
  if (axis == 2 && params_.alpha_temp > 0.0 && params_.alpha_ilv > 0.0 &&
      r_slope_z_ > 0.0) {
    const double dz = m_lo * params_.stack.LayerPitch();
    for (const std::int32_t c : task.cells) {
      const double wj = params_.alpha_temp *
                        cell_power_[static_cast<std::size_t>(c)] * r_slope_z_ *
                        dz / params_.alpha_ilv;
      if (wj <= 0.0) continue;
      const std::int32_t pins[2] = {local_of[static_cast<std::size_t>(c)], t0};
      hg.AddNet(wj, pins);
    }
  }
  hg.Finalize();

  // ----- partition ----------------------------------------------------------
  double used = 0.0;
  for (const std::int32_t c : task.cells) used += nl_.cell(c).Area();
  const double capacity = w * h * chip_.RowFraction() * layers;
  const double slack = capacity > 0.0 ? std::max(0.0, 1.0 - used / capacity) : 0.0;
  partition::PartitionOptions popt;
  // z-cuts get a tighter tolerance than lateral cuts: a lateral cut line is
  // repositioned afterwards to match the actual area split, but layer counts
  // are discrete, so z imbalance compounds into whole-layer overflow that
  // coarse legalization can only fix by paying interlayer vias. The cap
  // stays small even on dies with generous slack — the thermal-resistance-
  // reduction pull fills the lower part to whatever the bound allows.
  popt.tolerance =
      axis == 2
          ? std::clamp(0.25 * slack, 0.01, 0.03)
          : std::clamp(0.5 * slack, kMinPartitionTolerance, 0.45);
  popt.target_fraction =
      axis == 2 ? static_cast<double>(m_lo) / layers : 0.5;
  popt.num_starts = params_.partition_starts;
  popt.seed = seed;
  popt.threads = params_.threads;
  const partition::PartitionResult pr = partition::Bipartition(hg, popt);
  ++scratch->stats.partitions;
  if (!pr.feasible) ++scratch->stats.infeasible_partitions;
  scratch->stats.partitioned_cells += static_cast<long long>(task.cells.size());

  // ----- split geometry and cells ------------------------------------------
  Task& lo_task = out[0];
  Task& hi_task = out[1];
  lo_task.cells.clear();
  hi_task.cells.clear();
  double area0 = 0.0, area1 = 0.0;
  for (const std::int32_t c : task.cells) {
    const std::int32_t lid = local_of[static_cast<std::size_t>(c)];
    if (pr.side[static_cast<std::size_t>(lid)] == 0) {
      lo_task.cells.push_back(c);
      area0 += nl_.cell(c).Area();
    } else {
      hi_task.cells.push_back(c);
      area1 += nl_.cell(c).Area();
    }
  }
  // Degenerate partitions (everything on one side) fall back to a halved
  // region to guarantee progress.
  if (lo_task.cells.empty() || hi_task.cells.empty()) {
    const std::size_t half = task.cells.size() / 2;
    lo_task.cells.assign(task.cells.begin(),
                         task.cells.begin() + static_cast<std::ptrdiff_t>(half));
    hi_task.cells.assign(task.cells.begin() + static_cast<std::ptrdiff_t>(half),
                         task.cells.end());
    area0 = area1 = std::max(used / 2.0, 1e-30);
  }

  lo_task.region = rg;
  hi_task.region = rg;
  if (axis == 2) {
    lo_task.region.layer_hi = z_split - 1;
    hi_task.region.layer_lo = z_split;
  } else {
    const double frac = std::clamp(area0 / std::max(area0 + area1, 1e-30),
                                   0.05, 0.95);
    if (axis == 0) {
      const double cut = rg.rect.x_lo + frac * w;
      lo_task.region.rect.x_hi = cut;
      hi_task.region.rect.x_lo = cut;
    } else {
      const double cut = rg.rect.y_lo + frac * h;
      lo_task.region.rect.y_hi = cut;
      hi_task.region.rect.y_lo = cut;
    }
  }

  // Provisional positions: sub-region centers, middle layer.
  for (Task* t : {&lo_task, &hi_task}) {
    const double cx = t->region.rect.CenterX();
    const double cy = t->region.rect.CenterY();
    const int cl = (t->region.layer_lo + t->region.layer_hi) / 2;
    for (const std::int32_t c : t->cells) {
      const std::size_t i = static_cast<std::size_t>(c);
      pos_.x[i] = cx;
      pos_.y[i] = cy;
      pos_.layer[i] = cl;
    }
  }
  // Reset the scratch map for the worker's next task.
  for (const std::int32_t c : task.cells) {
    local_of[static_cast<std::size_t>(c)] = -1;
  }
}

util::StatusOr<Placement> GlobalPlacer::Run(const Placement& initial) {
  if (initial.size() != 0 &&
      initial.size() != static_cast<std::size_t>(nl_.NumCells())) {
    return util::InvalidArgumentError(
        "GlobalPlacer::Run: initial placement has " +
        std::to_string(initial.size()) + " cells, netlist has " +
        std::to_string(nl_.NumCells()));
  }
  pos_ = initial;
  if (pos_.size() != static_cast<std::size_t>(nl_.NumCells())) {
    pos_.Resize(static_cast<std::size_t>(nl_.NumCells()));
  }
  stats_ = {};
  pool_ = runtime::SharedPool(params_.threads);
  const int slots = pool_ != nullptr ? pool_->NumThreads() : 1;
  std::vector<Scratch> scratch(static_cast<std::size_t>(slots));
  for (Scratch& s : scratch) {
    s.local_of.assign(static_cast<std::size_t>(nl_.NumCells()), -1);
    s.net_stamp.assign(static_cast<std::size_t>(nl_.NumNets()), 0);
  }

  Task root;
  root.region = chip_.FullRegion();
  const double cx = chip_.width() / 2.0;
  const double cy = chip_.height() / 2.0;
  const int cl = chip_.num_layers() / 2;
  for (std::int32_t c = 0; c < nl_.NumCells(); ++c) {
    if (nl_.cell(c).fixed) continue;
    const std::size_t i = static_cast<std::size_t>(c);
    pos_.x[i] = cx;
    pos_.y[i] = cy;
    pos_.layer[i] = cl;
    root.cells.push_back(c);
  }

  std::vector<Task> level;
  level.push_back(std::move(root));
  std::vector<Task> next;
  // Sequence number of the first task of the current level, across the whole
  // run; task seeds derive from it, so they depend only on (params.seed,
  // level structure), never on scheduling.
  std::uint64_t task_base = 0;
  while (!level.empty()) {
    obs::TraceScope trace_level("global.level");
    obs::TraceCounter("global.tasks", static_cast<std::int64_t>(level.size()));
    ++stats_.bisection.levels;
    RefreshLevelData();
    pos_level_ = pos_;  // terminal-propagation snapshot for this level
    const std::int64_t num_tasks = static_cast<std::int64_t>(level.size());
    std::vector<std::array<Task, 2>> children(level.size());
    std::vector<char> did_split(level.size(), 0);
    runtime::ParallelForWorker(
        pool_, 0, num_tasks, [&](std::int64_t i, int slot) {
          const Task& task = level[static_cast<std::size_t>(i)];
          if (static_cast<int>(task.cells.size()) <= kRegionStopCells) {
            FinalizeRegion(task);
          } else {
            SplitTask(task,
                      runtime::DeriveSeed(params_.seed,
                                          task_base +
                                              static_cast<std::uint64_t>(i)),
                      &scratch[static_cast<std::size_t>(slot)],
                      children[static_cast<std::size_t>(i)].data());
            did_split[static_cast<std::size_t>(i)] = 1;
          }
        });
    task_base += static_cast<std::uint64_t>(num_tasks);
    // Children enter the next level in task order, keeping the level
    // structure (and with it every derived seed) deterministic.
    next.clear();
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (!did_split[i]) continue;
      next.push_back(std::move(children[i][0]));
      next.push_back(std::move(children[i][1]));
    }
    level.swap(next);
  }
  for (const Scratch& s : scratch) {
    stats_.bisection.partitions += s.stats.partitions;
    stats_.bisection.infeasible_partitions += s.stats.infeasible_partitions;
    stats_.bisection.partitioned_cells += s.stats.partitioned_cells;
  }
  obs::MetricAdd("global/levels", stats_.bisection.levels);
  obs::MetricAdd("global/partitioned_cells", stats_.bisection.partitioned_cells);
  util::LogDebug("global: %d levels, %d partitions", stats_.bisection.levels,
                 stats_.bisection.partitions);
  return pos_;
}

}  // namespace p3d::place
