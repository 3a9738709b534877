// Global placement by 3D recursive bisection (paper Section 3).
//
// Regions carry a subset of cells and a physical sub-volume of the die.
// Each bisection:
//   1. picks the cut direction orthogonal to the largest of region width,
//      height, and *weighted depth* (= #layers * alpha_ILV, the paper's
//      depth * alpha_ILV / d_layer), so connectivity is minimized in the
//      costliest direction;
//   2. builds the induced hypergraph with terminal propagation [11]
//      (external pins become zero-weight fixed vertices on the side of the
//      provisional cut they fall on);
//   3. weights nets with the thermal-aware weights of Eq. 8 — lateral
//      weights for x/y cuts, vertical weights for z cuts — refreshed every
//      bisection level from the provisional positions;
//   4. for z cuts, adds one thermal-resistance-reduction net per cell
//      (Section 3.2): a 2-pin net to the heat-sink-side terminal, weighted
//      by alpha_TEMP * P_j * Rslope_z * dz (Eq. 12), with P_j floored by the
//      PEKO-3D optima (Eq. 13-15);
//   5. partitions with whitespace-derived tolerance and positions the cut
//      line by the actual cell-area split.
//
// Regions are processed breadth-first; the tasks of one level are mutually
// independent (terminal propagation reads a start-of-level position
// snapshot) and run as one deterministic parallel batch on the runtime
// thread pool, each with an RNG seed derived from its task index. Recursion
// stops at a handful of cells, which are spread in a mini-grid for coarse
// legalization to refine.
#pragma once

#include <cstdint>
#include <vector>

#include "place/netweight.h"
#include "place/objective.h"
#include "runtime/thread_pool.h"
#include "util/status.h"

namespace p3d::place {

/// Partition counters of one recursive-bisection run.
struct BisectionDetail {
  int levels = 0;
  int partitions = 0;
  int infeasible_partitions = 0;  // balance bounds missed (diagnostic)
  long long partitioned_cells = 0;
};

/// Global-placement statistics, handed to PhaseObserver::OnPhase at the
/// "global" boundary.
struct GlobalPlaceStats {
  BisectionDetail bisection;
};

class GlobalPlacer {
 public:
  /// The evaluator supplies netlist, chip, params, and the Eq. 8 power-rate
  /// coefficients; its placement state is not modified.
  explicit GlobalPlacer(const ObjectiveEvaluator& eval);

  /// Runs recursive bisection. `initial` provides positions for fixed cells
  /// (movable cells are re-initialized to the chip center, as in the paper);
  /// size 0 means an all-zero initial. Errors with kInvalidArgument when a
  /// non-empty initial does not match the netlist.
  util::StatusOr<Placement> Run(const Placement& initial);

  /// Statistics of the most recent Run (zeroed before it).
  const GlobalPlaceStats& stats() const { return stats_; }

 private:
  struct Task {
    geom::Region region;
    std::vector<std::int32_t> cells;
  };

  /// Per-worker scratch for the parallel per-level task batch. Each worker
  /// slot owns one instance, so SplitTask needs no locking.
  struct Scratch {
    std::vector<std::int32_t> local_of;    // cell -> region-local vertex id
    std::vector<std::uint32_t> net_stamp;  // per-task net deduplication
    std::uint32_t stamp = 0;
    BisectionDetail stats;  // partition counters, merged after the run
  };

  /// Refreshes per-level data: net metrics from provisional positions, cell
  /// powers with PEKO floors, and Eq. 8 net weights.
  void RefreshLevelData();

  /// Splits one region task into out[0] (low side) and out[1] (high side).
  /// Reads external-pin positions from the start-of-level snapshot
  /// (pos_level_) and writes provisional positions only for the task's own
  /// cells, so tasks of one level are independent: they may run in any
  /// order or concurrently with identical results. `seed` is the task's
  /// derived partitioning seed.
  void SplitTask(const Task& task, std::uint64_t seed, Scratch* scratch,
                 Task out[2]);
  void FinalizeRegion(const Task& task);

  /// Side (0/1) a point falls on for a cut of `region` along `axis`
  /// (0 = x, 1 = y, 2 = z at layer boundary `z_split`).
  static int SideOf(const geom::Region& region, int axis, int z_split,
                    double x, double y, int layer);

  const ObjectiveEvaluator& eval_;
  const netlist::Netlist& nl_;
  Chip chip_;
  PlacerParams params_;
  Placement pos_;
  // Positions frozen at the start of the current level; terminal propagation
  // reads external pins from here while tasks update pos_ concurrently.
  Placement pos_level_;

  // Per-level caches.
  std::vector<double> net_hpwl_;
  std::vector<int> net_span_;
  std::vector<double> nw_lateral_;
  std::vector<double> nw_vertical_;
  std::vector<double> cell_power_;
  PekoFloors floors_;
  double r_slope_z_ = 0.0;

  runtime::ThreadPool* pool_ = nullptr;  // fetched per Run from the knob
  GlobalPlaceStats stats_;
};

}  // namespace p3d::place
