// Thermal-aware net weighting (paper Section 3.1) and the PEKO-3D optimal
// wirelength/via floors (Section 3.2, Eq. 13-15).
//
// The weights implement Eq. 8:
//   nw_lateral_i  = 1 + alpha_TEMP * R_net_i * s_wl_i
//   nw_vertical_i = 1 + alpha_TEMP * R_net_i * s_ilv_i / alpha_ILV
// where R_net_i sums the thermal resistances of the net's driver cells at
// their *current* (provisional) positions — so weights are refreshed as the
// recursive bisection refines positions.
//
// The PEKO-3D floors estimate the best achievable WL/ILV of a net from its
// pin count and average pin-cell dimensions. They keep the thermal
// resistance-reduction-net weights (Eq. 12) meaningful at the start of
// global placement, when all cells sit at the chip center and measured
// WL/ILV are zero.
#pragma once

#include <cstdint>
#include <vector>

#include "place/objective.h"

namespace p3d::place {

struct NetWeights {
  std::vector<double> lateral;   // nw_i^lateral per net
  std::vector<double> vertical;  // nw_i^vertical per net
};

/// Computes Eq. 8 weights for all nets from the evaluator's current
/// placement. With alpha_TEMP = 0 every weight is exactly 1. When
/// alpha_ILV = 0 the vertical weight's 1/alpha_ILV blow-up is clamped to the
/// lateral formula's scale (vertical cuts are then free anyway, because cut
/// direction selection never picks z with zero weighted depth).
NetWeights ComputeNetWeights(const ObjectiveEvaluator& eval);

struct PekoFloors {
  std::vector<double> wl_x;   // WL_i^{x opt}, metres
  std::vector<double> wl_y;   // WL_i^{y opt}, metres
  std::vector<double> ilv;    // ILV_i^{opt}, vias (real-valued)
};

/// Eq. 13-15, clamped at zero. Uses each net's average pin-cell width and
/// height; alpha_ilv <= 0 degenerates to 2D (ILV floor 0, lateral floor
/// sqrt-based half-perimeter of the minimal packing).
PekoFloors ComputePekoFloors(const netlist::Netlist& nl, double alpha_ilv);

/// Weighted-median optimal lateral position of `cell` over its nets (the
/// optimal-region center of [14], with Eq. 8 lateral net weights), read
/// from the cell's context in `view`, so pricing the cell next through the
/// same view reuses it. Used by global moves/swaps and by legal row
/// refinement.
void OptimalLateralPosition(DeltaView& view, std::int32_t cell, double* x,
                            double* y);

}  // namespace p3d::place
