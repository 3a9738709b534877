// All tunable parameters of the 3D placer.
//
// Defaults reproduce the paper's Table 2 (MIT-LL 0.18um 3D FD-SOI derived
// constants) plus the effort knobs its Section 7 ablation varies.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "thermal/power.h"
#include "thermal/stack.h"

namespace p3d::place {

// ----- epsilon policy of the move engines (DESIGN.md §5) --------------------
//
// Every coarse/detailed move engine (moveswap, shift, rowopt, legalize)
// shares these thresholds so a candidate delta is treated identically no
// matter which engine evaluates it. The three tiers:
//
//   kStrictImprovementEps  A candidate is accepted only if it improves the
//                          objective by MORE than this (delta <
//                          -kStrictImprovementEps). Zero and float-noise
//                          deltas are rejected everywhere — an engine must
//                          never churn on a dead-zone delta another engine
//                          would refuse.
//   kTieBreakEps           A challenger replaces the incumbent candidate only
//                          if it is better by MORE than this; otherwise the
//                          earlier candidate in the fixed evaluation order
//                          wins. Candidate order is deterministic, so ties
//                          resolve identically at any thread count.
//   kGeomEps               Coordinate-space comparisons (did a cell actually
//                          move; does a width fit a span). Absolute, in
//                          metres — die extents are ~1e-3 m, so 1e-15 is far
//                          below one float ulp of any real coordinate.
//
// Historical note: before the unification moveswap used -1e-18, shift 1e-18,
// and rowopt mixed 1e-30 / 1e-15, so a delta of e.g. -1e-20 was "an
// improvement" to rowopt but "noise" to moveswap.
inline constexpr double kStrictImprovementEps = 1e-18;
inline constexpr double kTieBreakEps = 1e-18;
inline constexpr double kGeomEps = 1e-15;

/// Relative tolerance of bin-occupancy capacity checks, applied to the bin
/// capacity. Bin areas are float-accumulated as cells move; the tolerance
/// keeps an accept/reject decision from flipping on accumulation-order noise
/// (see BinGrid::FitsWithSlack / ResyncAreas).
inline constexpr double kBinAreaRelTol = 1e-9;

/// The shared strict-improvement predicate: true when `delta` improves the
/// objective by more than kStrictImprovementEps.
inline constexpr bool StrictlyImproves(double delta) {
  return delta < -kStrictImprovementEps;
}

/// The shared incumbent-replacement predicate: true when `delta` beats the
/// incumbent best by more than kTieBreakEps (earlier candidate wins ties).
inline constexpr bool BeatsIncumbent(double delta, double incumbent) {
  return delta < incumbent - kTieBreakEps;
}

/// Clamps a cell position into the range [lo, hi] a free span leaves it.
/// When the cell exactly fills the span, float rounding of span_lo + w/2 and
/// span_hi - w/2 can cross the bounds by one ulp, which std::clamp forbids
/// (a precondition violation, and an abort under _GLIBCXX_ASSERTIONS). This
/// is libstdc++'s std::clamp body without its check: crossed bounds give
/// `hi`, and uncrossed ones give exactly what std::clamp gives.
inline constexpr double ClampToSpan(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

struct PlacerParams {
  // ----- objective coefficients (Eq. 3) ---------------------------------
  // Interlayer-via coefficient alpha_ILV, in metres of equivalent
  // wirelength per via. The paper sweeps 5e-9 .. 5.2e-3, centred on the
  // average cell dimension (~1e-5 m).
  double alpha_ilv = 1e-5;
  // Thermal coefficient alpha_TEMP, in metres of equivalent wirelength per
  // (kelvin * watt / watt) — the paper sweeps 0 .. 5.2e-3.
  double alpha_temp = 0.0;

  // ----- die / floorplan (Table 2) ----------------------------------------
  int num_layers = 4;
  double whitespace = 0.05;        // fraction of row capacity left free
  double inter_row_space = 0.25;   // row pitch = row height * (1 + this)

  // ----- physical models ---------------------------------------------------
  thermal::ThermalStack stack{};          // vertical stack; num_layers synced
  thermal::ElectricalParams electrical{}; // Eq. 4-5 constants

  // ----- global placement (3D recursive bisection, place/global.h) ----------
  int partition_starts = 1;    // hMetis-style random starts (Section 7 knob)
  std::uint64_t seed = 12345;

  // ----- parallel runtime ----------------------------------------------------
  // Worker threads for multi-start partitioning, per-level bisection
  // batches, the windowed legalization engines (moveswap, shift, detailed
  // legalization, rowopt), and the FEA conjugate-gradient solve (0 = all
  // hardware threads). Determinism contract: same seed + same inputs
  // produce an identical placement for ANY value of this knob — see
  // src/runtime and DESIGN.md "Parallel runtime & determinism policy".
  int threads = 1;

  // ----- coarse legalization --------------------------------------------------
  // Cell shifting stops when the densest bin is at or below
  // shift_target_density, when the overflow ratio stalls, or after
  // shift_max_iters iterations (place/shift.h). Bins are 2x2 average cells,
  // so even a legal placement reads ~2.3: the target is out of reach on a
  // flow's placement, which ends on the stall. It is a constant because no
  // caller sets it; CellShifter::Run still takes a target for tests.
  int shift_max_iters = 40;
  static constexpr double shift_target_density = 1.05;
  int moveswap_rounds = 1;
  int target_region_bins = 27;  // global move/swap target region size knob

  // Windowed parallel schedule of the coarse-legalization move engines
  // (moveswap + shift): the bin grid is tiled into legalize_window_bins x
  // legalize_window_bins windows, 4-colored by window parity; windows of one
  // color propose moves in parallel against a frozen snapshot and the
  // proposals commit serially in fixed window order, so the placement is
  // byte-identical for any thread count (DESIGN.md §5). No flow caller sets
  // this or legalize_window_rows: they are test handles, shrunk so a small
  // die gets several windows per color.
  int legalize_window_bins = 8;  // window edge length, in bins (min 2)

  // ----- detailed legalization ---------------------------------------------
  int legalization_repeats = 1;       // coarse+detailed repetitions knob
  // Row-block window height for the parallel detailed-legalization and
  // rowopt schedules: row indices are tiled into blocks of this many rows
  // (all layers), 2-colored by block parity, and run under the same
  // propose/commit protocol as the coarse engines — placements stay
  // byte-identical for any thread count (DESIGN.md §5).
  int legalize_window_rows = 32;

  // ----- verification ---------------------------------------------------------
  // The evaluator's running totals are incrementally maintained; after this
  // many accepted moves/swaps they are resummed from the (exact) per-net and
  // per-cell caches so float accumulation error stays bounded regardless of
  // flow length. 0 disables resync.
  int objective_resync_interval = 4096;

  // ----- reporting -----------------------------------------------------------
  int fea_nx = 24;
  int fea_ny = 24;
  // Re-evaluate thermal FEA after every legalization pass — each move/swap
  // round and the shifting pass of coarse legalization, plus detailed and
  // refine — on top of the final report solve. The only observational-thermal
  // knob: temperatures feed telemetry and reporting, never placement
  // decisions, so placements stay byte-identical with the knob on or off.
  // Affordable because every solve of a run shares one thermal::FeaContext
  // (preconditioner built once, CG warm-started from the previous field).
  bool fea_per_pass = false;

  /// Copies num_layers into the thermal stack (kept in one place so callers
  /// can't desynchronize them).
  void SyncStack() { stack.num_layers = num_layers; }
};

/// Compensates the wire capacitance for benchmark circuits generated at a
/// fraction `circuit_scale` of their published size. Shrinking a circuit by
/// s shrinks its die by ~sqrt(s) and average net lengths with it, while the
/// per-via capacitance (fixed via geometry) does not shrink — so at small
/// scales via capacitance would spuriously dominate net power and mask the
/// wire-centric thermal tradeoff the paper measures. Raising c_per_wl by
/// s^-0.75 (geometric sqrt(s) plus the sub-linear Rent-length growth of the
/// synthetic workloads) restores the paper's wire-to-via capacitance ratio.
/// No-op at scale >= 1. See DESIGN.md, substitution notes.
inline void CompensateWireCapForScale(PlacerParams* params,
                                      double circuit_scale) {
  if (circuit_scale > 0.0 && circuit_scale < 1.0) {
    params->electrical.c_per_wl /= std::pow(circuit_scale, 0.75);
  }
}

}  // namespace p3d::place
