// Incremental evaluator of the placement objective (paper Eq. 3):
//
//   F = sum_nets [ WL_i + alpha_ILV * ILV_i ]
//       + alpha_TEMP * sum_cells R_j^cell * P_j^cell
//
// Because each net has (at most) one driver and P_j^cell sums over the nets
// cell j drives (Eq. 10), the thermal term decomposes *per net*:
//
//   F = sum_nets [ WL_i + alpha_ILV * ILV_i
//                  + alpha_TEMP * R_driver(i) * (s_wl WL_i + s_ilv ILV_i + s_pin_i) ]
//
// with the s coefficients of Eq. 8/11. Every placement phase (cell shifting
// beta selection, moves/swaps, detailed legalization) evaluates candidate
// moves through DeltaView::MoveDelta/SwapDelta, which touch only the nets
// incident to the moved cells — the efficiency the paper gets from
// replacing T_j by Delta-T_j = R_j * P_j (Eq. 2). A view caches, per priced
// cell, the bounding box of each incident net's pins on *other* cells, so
// pricing one cell at many candidate positions scans its nets' pins once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.h"
#include "place/chip.h"
#include "place/params.h"
#include "thermal/resistance.h"

namespace p3d::place {

/// Observer of evaluator state changes. The audit subsystem (src/check)
/// implements this to record the committed move/swap sequence together with
/// the incrementally applied objective deltas, so a replay pass can
/// cross-check every delta against from-scratch evaluations. Listener calls
/// happen after the commit's caches are updated; listeners must not mutate
/// the evaluator.
class CommitListener {
 public:
  virtual ~CommitListener() = default;
  /// `applied_delta` is the change of Total() this commit produced.
  virtual void OnCommitMove(std::int32_t cell, double x, double y, int layer,
                            double applied_delta) = 0;
  virtual void OnCommitSwap(std::int32_t a, std::int32_t b,
                            double applied_delta) = 0;
  /// A bulk placement install invalidates any recorded incremental history.
  virtual void OnSetPlacement(const Placement& placement) = 0;
};

class ObjectiveEvaluator {
 public:
  ObjectiveEvaluator(const netlist::Netlist& nl, const Chip& chip,
                     const PlacerParams& params);

  /// Installs a placement and recomputes all caches.
  void SetPlacement(const Placement& placement);

  const Placement& placement() const { return placement_; }
  const Chip& chip() const { return chip_; }
  const netlist::Netlist& netlist() const { return nl_; }
  const PlacerParams& params() const { return params_; }
  const thermal::ResistanceModel& resistance_model() const { return rmodel_; }

  double Total() const { return total_cost_; }
  double TotalHpwl() const { return total_hpwl_; }
  long long TotalIlv() const { return total_ilv_; }
  /// The alpha_TEMP-weighted thermal component of Total().
  double ThermalCost() const { return total_thermal_; }

  /// The three Eq. 3 terms of Total(), each already weighted by its alpha:
  ///   total = wl + ilv + thermal  (up to incremental float bookkeeping).
  struct Components {
    double wl = 0.0;        // sum WL_i
    double ilv = 0.0;       // alpha_ILV * sum ILV_i
    double thermal = 0.0;   // alpha_TEMP * sum R_j * P_j
    double total = 0.0;     // Eq. 3 value
    long long ilv_count = 0;  // raw sum ILV_i
  };
  Components GetComponents() const {
    Components c;
    c.wl = total_hpwl_;
    c.ilv = params_.alpha_ilv * static_cast<double>(total_ilv_);
    c.thermal = total_thermal_;
    c.total = total_cost_;
    c.ilv_count = total_ilv_;
    return c;
  }

  double NetHpwl(std::int32_t n) const { return hpwl_[static_cast<std::size_t>(n)]; }
  int NetSpan(std::int32_t n) const { return span_[static_cast<std::size_t>(n)]; }
  double NetCost(std::int32_t n) const { return cost_[static_cast<std::size_t>(n)]; }

  /// Commits the move and updates all caches incrementally. Candidates are
  /// priced through a DeltaView (below) before they commit.
  void CommitMove(std::int32_t cell, double x, double y, int layer);
  /// Commits the exchange of cells `a` and `b`'s positions.
  void CommitSwap(std::int32_t a, std::int32_t b);

  /// Net-evaluation accounting. `rescan_evals` counts every per-net
  /// evaluation a delta or a commit made: a commit scans the net's pins, a
  /// delta reads the priced cell's cached context (a scan only for a net
  /// both swapped cells share). `incremental_evals` is the constant 0: the
  /// incremental net-box kernel it counted is gone, and the name stays only
  /// because bench/e2e reads it.
  struct EvalStats {
    static constexpr long long incremental_evals = 0;
    long long rescan_evals = 0;
  };

  /// Folds a view's evaluation counters into the evaluator's running
  /// eval_stats(). Engines merge their views serially at a schedule
  /// boundary (sums of per-window counts are thread-count independent, so
  /// the merged totals stay deterministic).
  void MergeEvalStats(const EvalStats& stats) {
    eval_stats_.rescan_evals += stats.rescan_evals;
  }

  /// Thermal resistance to ambient of `cell` at its current position.
  double CellResistance(std::int32_t cell) const {
    return r_cell_[static_cast<std::size_t>(cell)];
  }

  /// Power-rate coefficients of net n (Eq. 8/11): s_wl, s_ilv, and the
  /// placement-independent pin term s_pin * n_inputs.
  double SWl(std::int32_t n) const { return s_wl_[static_cast<std::size_t>(n)]; }
  double SIlv(std::int32_t n) const { return s_ilv_[static_cast<std::size_t>(n)]; }
  double SPinTerm(std::int32_t n) const { return s_pin_term_[static_cast<std::size_t>(n)]; }

  /// Full O(pins) recomputation; returns the fresh total (testing aid to
  /// validate incremental bookkeeping).
  double RecomputeFull();

  /// Attaches a commit observer (the audit replay recorder and the metrics
  /// sampler coexist this way). Listeners are notified in attachment order.
  void AddCommitListener(CommitListener* listener) {
    if (listener != nullptr) listeners_.push_back(listener);
  }
  /// Detaches one previously attached listener (no-op if absent).
  void RemoveCommitListener(CommitListener* listener);
  /// Total committed moves+swaps since construction (monotonic).
  long long CommitCount() const { return total_commits_; }

  /// Resums the running totals from the per-net / per-cell caches, which are
  /// exact after every commit; only the totals accumulate float error. Called
  /// automatically every params.objective_resync_interval commits, public so
  /// tests can pin its equivalence with RecomputeFull().
  void ResyncTotals();

  /// Accounting of every evaluation the commits made plus whatever the
  /// engines folded in from their views via MergeEvalStats.
  const EvalStats& eval_stats() const { return eval_stats_; }

 private:
  friend class DeltaView;

  /// A cell priced at a position other than its committed one. `r` is the
  /// cell's resistance there: a commit always fills it, a delta only when
  /// alpha_TEMP is nonzero (the only case that reads it).
  struct Override {
    std::int32_t cell = -1;
    double x = 0.0;
    double y = 0.0;
    int layer = 0;
    double r = 0.0;
  };

  /// Distinct-net collection: a net is new to the current collection while
  /// its stamp differs from `stamp`.
  struct NetScratch {
    std::vector<std::int32_t> nets;       // distinct incident nets
    std::vector<std::uint32_t> net_stamp; // lazily sized to NumNets
    std::uint32_t stamp = 0;

    /// Starts a new collection over `num_nets` nets.
    void Begin(std::size_t num_nets);
    /// Marks net n; true if it was not yet marked in this collection.
    bool Mark(std::int32_t n) {
      std::uint32_t& s = net_stamp[static_cast<std::size_t>(n)];
      if (s == stamp) return false;
      s = stamp;
      return true;
    }
    bool Marked(std::int32_t n) const {
      return net_stamp[static_cast<std::size_t>(n)] == stamp;
    }
  };

  /// Cost of net n with up to two cells' positions overridden: a scan of the
  /// net's pins plus the thermal driver term.
  struct NetEval {
    double hpwl = 0.0;
    int span = 0;
    double cost = 0.0;
  };
  NetEval EvalNet(std::int32_t n, const Override& o1, const Override& o2) const;

  /// Eq. 3 cost of net n with the given box metrics; the driver's
  /// resistance is the override's if it is one of the overridden cells.
  double NetCost(std::int32_t n, double hpwl, int span, const Override& o1,
                 const Override& o2) const;

  double Resistance(std::int32_t cell, double x, double y, int layer) const;

  /// Change in the per-cell leakage thermal term if `o.cell` moved there.
  double LeakDelta(const Override& o) const;

  /// Collects the distinct nets incident to one or two cells into
  /// `scratch.nets`.
  void CollectNetsInto(NetScratch& scratch, std::int32_t a,
                       std::int32_t b) const;

  const netlist::Netlist& nl_;
  Chip chip_;
  PlacerParams params_;
  thermal::ResistanceModel rmodel_;
  Placement placement_;

  // Static per-net coefficients.
  std::vector<double> s_wl_;
  std::vector<double> s_ilv_;
  std::vector<double> s_pin_term_;

  // Caches.
  std::vector<double> cell_leak_cost_;  // alpha_temp * R_j * leakage, per cell
  std::vector<double> hpwl_;
  std::vector<int> span_;
  std::vector<double> cost_;
  std::vector<double> r_cell_;
  EvalStats eval_stats_;
  double total_cost_ = 0.0;
  double total_hpwl_ = 0.0;
  long long total_ilv_ = 0;
  double total_thermal_ = 0.0;

  // Bumped by every commit and placement install: a DeltaView's cached cell
  // contexts are valid only for the epoch they were built in.
  std::uint64_t epoch_ = 1;

  // The commit paths' net-collection scratch.
  NetScratch scratch_;
  // Commit-path scratch (evals computed before the placement mutates).
  std::vector<NetEval> eval_scratch_;

  std::vector<CommitListener*> listeners_;
  int commits_since_resync_ = 0;
  long long total_commits_ = 0;

  /// Shared body of CommitMove/CommitSwap: moves `o1.cell`, and `o2.cell`
  /// too unless it is -1 (a move). Fills in the overrides' resistances.
  void Commit(Override o1, Override o2);

  /// Tail of Commit: listener notification and the periodic totals resync.
  void FinishCommit(double applied_delta, const Override& o1,
                    const Override& o2);
};

/// The one way to price a candidate: a read-only view of a shared
/// ObjectiveEvaluator with privately owned scratch, so parallel propose
/// workers can evaluate candidate deltas concurrently against the frozen
/// committed state, and a serial commit can revalidate against the live
/// state (DESIGN.md §5). A view can never commit; it lives for one engine
/// pass, after which the engine merges its evaluation stats back with
/// ObjectiveEvaluator::MergeEvalStats.
///
/// A view keeps a bounded cache of *cell contexts*: for each cell it has
/// priced, the cell's distinct incident nets, each with the bounding box of
/// the net's pins on other cells and the extreme offsets of the cell's own
/// pins. Pricing a cell with a context reads no pins, and min/max are
/// exact, so every delta is bit-identical to a scan of the nets' pins. The
/// contexts hold geometry only and are dropped when the evaluator's epoch
/// moves (any commit or placement install).
class DeltaView {
 public:
  explicit DeltaView(const ObjectiveEvaluator* eval) : eval_(eval) {}

  /// Objective change if `cell` moved to (x, y, layer), or if cells `a` and
  /// `b` exchanged positions. Safe to call concurrently on distinct views
  /// as long as no commit runs at the same time.
  double MoveDelta(std::int32_t cell, double x, double y, int layer);
  double SwapDelta(std::int32_t a, std::int32_t b);

  const ObjectiveEvaluator::EvalStats& stats() const { return stats_; }

 private:
  friend void OptimalLateralPosition(DeltaView& view, std::int32_t cell,
                                     double* x, double* y);

  using Override = ObjectiveEvaluator::Override;

  /// One incident net of a cell context. The other-pin box is empty when
  /// ol_lo > ol_hi (the cell holds every pin of the net).
  struct ContextNet {
    double ox_lo, ox_hi, oy_lo, oy_hi;  // pins on other cells
    double dx_lo, dx_hi, dy_lo, dy_hi;  // offsets of the cell's own pins
    std::int32_t net;
    std::int32_t ol_lo, ol_hi;
    bool HasOthers() const { return ol_lo <= ol_hi; }
  };
  /// Index slot of one cached context: entries_[first, first + count).
  struct Slot {
    std::int32_t cell = -1;
    std::uint32_t gen = 0;  // live iff equal to gen_
    std::int32_t first = 0;
    std::int32_t count = 0;
  };

  // The cache empties when full. 4,096 entries (80 bytes each) and a
  // 2,048-slot index filled to at most 3/4 bound it at 352 KiB per view.
  static constexpr std::size_t kMaxEntries = 4096;
  static constexpr int kSlotBits = 11;
  static constexpr int kMaxContexts = 1536;

  /// Drops every context if the evaluator's epoch moved, or if contexts for
  /// `a` and `b` (-1: none) might not fit. Called on entry to each pricing
  /// call, so the contexts one call needs are never split by a flush.
  void Admit(std::int32_t a, std::int32_t b);
  void Flush();
  /// The context of `cell`, built if absent; requires a prior Admit.
  Slot ContextOf(std::int32_t cell);
  /// Eq. 3 cost of entry `e`'s net with its cell overridden by `o`.
  double ContextCost(const ContextNet& e, const Override& o) const;
  /// An override of `cell` at (x, y, layer), with its resistance when
  /// alpha_TEMP needs it.
  Override At(std::int32_t cell, double x, double y, int layer) const;

  const ObjectiveEvaluator* eval_;
  ObjectiveEvaluator::EvalStats stats_;
  ObjectiveEvaluator::NetScratch scratch_;
  std::vector<ContextNet> entries_;
  std::vector<Slot> slots_;  // open addressing by cell, sized on first use
  std::uint32_t gen_ = 1;
  int num_contexts_ = 0;
  std::uint64_t epoch_ = 0;  // never the evaluator's: the first call flushes
  // OptimalLateralPosition's weighted interval endpoints.
  std::vector<std::pair<double, double>> xs_, ys_;
};

}  // namespace p3d::place
