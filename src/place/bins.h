// Coarse 3D density mesh shared by cell shifting and the move/swap
// optimizer (paper Section 4: "bins equal to two cell widths, two cell
// heights, and one layer thickness"), plus the window tiling the parallel
// coarse-legalization schedule runs over (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

#include "place/chip.h"
#include "place/params.h"

namespace p3d::place {

class BinGrid {
 public:
  /// Builds a uniform mesh over the chip with bins of roughly
  /// `cells_per_bin_x` average cell widths by `cells_per_bin_y` average cell
  /// heights by one layer.
  BinGrid(const Chip& chip, double avg_cell_w, double avg_cell_h,
          double cells_per_bin_x = 2.0, double cells_per_bin_y = 2.0);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  /// Size of the flat index space, *including* block padding (see Flat).
  /// Padded slots hold zero area and empty occupant lists forever, so loops
  /// over [0, NumBins()) see them as permanently empty bins.
  int NumBins() const { return layer_stride_ * nz_; }
  double bin_w() const { return bw_; }
  double bin_h() const { return bh_; }
  /// Placeable area capacity of one bin (row fraction applied).
  double BinCapacity() const { return cap_; }

  int XIndex(double x) const;
  int YIndex(double y) const;

  // Cache-blocked flat layout: each layer is tiled into kBlock x kBlock
  // lateral blocks stored contiguously (block-major, row-major inside the
  // block), so the 3x3-to-5x5 lateral neighbourhoods the move engines and the
  // legalizer BFS walk touch 1-4 cache blocks instead of kBlock-ish strided
  // rows. The x/y extents round up to whole blocks; the flat space is padded
  // accordingly (see NumBins). Only Flat/Decompose know the layout — all
  // other code treats flat ids as opaque.
  static constexpr int kBlockShift = 2;
  static constexpr int kBlock = 1 << kBlockShift;
  static constexpr int kBlockMask = kBlock - 1;

  int Flat(int bx, int by, int bz) const {
    const int block = (bx >> kBlockShift) + nbx_ * (by >> kBlockShift);
    return bz * layer_stride_ + (block << (2 * kBlockShift)) +
           ((by & kBlockMask) << kBlockShift) + (bx & kBlockMask);
  }
  /// Inverse of Flat for in-range bins (callers must not pass padded slots).
  void Decompose(int flat, int* bx, int* by, int* bz) const {
    *bz = flat / layer_stride_;
    const int rem = flat - *bz * layer_stride_;
    const int block = rem >> (2 * kBlockShift);
    const int within = rem & (kBlock * kBlock - 1);
    *bx = ((block % nbx_) << kBlockShift) + (within & kBlockMask);
    *by = ((block / nbx_) << kBlockShift) + (within >> kBlockShift);
  }
  int BinOf(double x, double y, int layer) const;
  double BinCenterX(int bx) const { return (bx + 0.5) * bw_; }
  double BinCenterY(int by) const { return (by + 0.5) * bh_; }

  /// Rebuilds occupancy (area + cell lists) from a placement; fixed cells
  /// count toward area but are not listed as movable occupants. Fixed and
  /// movable area are accumulated in separate cell-id-order passes, so a
  /// freshly rebuilt grid satisfies Area == (canonical) ResyncAreas bytes.
  void Rebuild(const netlist::Netlist& nl, const Placement& p);

  double Area(int flat) const { return area_[static_cast<std::size_t>(flat)]; }
  double Density(int flat) const { return area_[static_cast<std::size_t>(flat)] / cap_; }
  double MaxDensity() const;
  /// Total area above capacity, summed over bins: sum_b max(0, Area(b) - cap).
  double OverflowArea() const;
  const std::vector<std::int32_t>& Cells(int flat) const {
    return cells_[static_cast<std::size_t>(flat)];
  }

  /// Incremental occupancy update when a movable cell changes bins.
  void MoveCell(std::int32_t cell, double cell_area, int from_flat, int to_flat);

  /// Re-derives every bin's area from the fixed base plus its occupant list
  /// summed in ascending cell-id order — a canonical value independent of the
  /// move history. Incremental MoveCell updates accumulate float error in an
  /// order that depends on the commit sequence; resyncing at schedule
  /// boundaries pins the running occupancy to the same bytes any path to the
  /// same occupancy state produces.
  void ResyncAreas(const netlist::Netlist& nl);

  /// Tolerance-checked capacity test: true when `cell_area` more area still
  /// fits under `slack` times the bin capacity, allowing kBinAreaRelTol of
  /// capacity for float accumulation noise in the running occupancy. All
  /// capacity decisions go through this so an accept/reject can never flip on
  /// accumulation-order noise smaller than the tolerance.
  bool FitsWithSlack(int flat, double cell_area, double slack) const {
    return Area(flat) + cell_area <= cap_ * slack + cap_ * kBinAreaRelTol;
  }

 private:
  int nx_ = 1, ny_ = 1, nz_ = 1;
  int nbx_ = 1, nby_ = 1;    // lateral blocks per layer
  int layer_stride_ = 1;     // padded flat slots per layer
  double bw_ = 0.0, bh_ = 0.0, cap_ = 0.0;
  std::vector<double> area_;        // fixed + movable, running
  std::vector<double> fixed_area_;  // fixed cells only (set by Rebuild)
  std::vector<std::vector<std::int32_t>> cells_;
  mutable std::vector<std::int32_t> sort_scratch_;
};

/// One rectangular window of the lateral bin grid: bin columns
/// [x0, x1) x [y0, y1), spanning all layers. Colored by window parity so no
/// two same-color windows are lateral neighbours.
struct BinWindow {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  int color = 0;  // (wx & 1) | ((wy & 1) << 1), in [0, 4)
};

/// Tiling of an nx x ny lateral grid into window_bins x window_bins windows
/// (the last row/column may be smaller). Windows tile the grid exactly: every
/// bin belongs to exactly one window. Two windows of the same color are
/// separated by at least window_bins bins along x or y, so windows expanded
/// by a halo of up to window_bins / 2 bins stay pairwise disjoint within one
/// color — the property that lets same-color windows propose concurrently
/// without overlapping candidate regions (DESIGN.md §5).
class WindowTiling {
 public:
  WindowTiling(int nx, int ny, int window_bins);

  int NumWindows() const { return static_cast<int>(windows_.size()); }
  const BinWindow& window(int w) const {
    return windows_[static_cast<std::size_t>(w)];
  }
  const std::vector<BinWindow>& windows() const { return windows_; }
  /// Per-window color, index-aligned with windows(); 4 colors.
  const std::vector<int>& colors() const { return colors_; }
  static constexpr int kNumColors = 4;

  /// Window containing lateral bin (bx, by).
  int WindowOf(int bx, int by) const {
    return bx / window_bins_ + nwx_ * (by / window_bins_);
  }

  int window_bins() const { return window_bins_; }

 private:
  int nwx_ = 1;
  int window_bins_ = 1;
  std::vector<BinWindow> windows_;
  std::vector<int> colors_;
};

}  // namespace p3d::place
