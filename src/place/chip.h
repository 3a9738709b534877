// Die floorplan: identical standard-cell row grids on every active layer.
//
// Dimensions are derived from the netlist's movable area and the paper's
// Table 2 floorplan parameters: 5% whitespace inside rows and 25% inter-row
// spacing, identical square-ish outline on all layers.
#pragma once

#include <vector>

#include "geom/geometry.h"
#include "netlist/netlist.h"
#include "util/status.h"

namespace p3d::place {

class Chip {
 public:
  /// Builds a square die large enough for `nl`'s movable cells spread over
  /// `num_layers` layers with the given whitespace and inter-row spacing.
  /// Errors (rather than asserting) on an unfinalized netlist, a movable
  /// cell without a finite positive width and height, or out-of-range
  /// floorplan parameters; dereference directly (`*Chip::Build(...)`) at
  /// call sites with known-good inputs.
  static util::StatusOr<Chip> Build(const netlist::Netlist& nl, int num_layers,
                                    double whitespace, double inter_row_space);

  double width() const { return width_; }
  double height() const { return height_; }
  int num_layers() const { return num_layers_; }
  int num_rows() const { return num_rows_; }
  double row_height() const { return row_height_; }
  double row_pitch() const { return row_pitch_; }

  /// Bottom y of row `r` (rows are identical across layers).
  double RowBottomY(int r) const { return r * row_pitch_; }
  /// Center y of row `r`.
  double RowCenterY(int r) const { return RowBottomY(r) + 0.5 * row_height_; }
  /// Row whose band contains y (clamped to valid rows).
  int NearestRow(double y) const;

  /// Placeable (row) area on one layer.
  double RowAreaPerLayer() const { return num_rows_ * row_height_ * width_; }
  /// Fraction of die area inside rows, 1 / (1 + inter_row_space).
  double RowFraction() const { return row_height_ / row_pitch_; }

  /// Full-die lateral rectangle.
  geom::Rect Outline() const { return {0.0, 0.0, width_, height_}; }
  /// Full 3D placement region.
  geom::Region FullRegion() const {
    return {Outline(), 0, num_layers_ - 1};
  }

 private:
  double width_ = 0.0;
  double height_ = 0.0;
  int num_layers_ = 1;
  int num_rows_ = 0;
  double row_height_ = 0.0;
  double row_pitch_ = 0.0;
};

/// A 3D placement: cell-center coordinates plus layer assignment, indexed by
/// cell id. The single currency every placement phase trades in.
struct Placement {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<int> layer;

  void Resize(std::size_t n) {
    x.assign(n, 0.0);
    y.assign(n, 0.0);
    layer.assign(n, 0);
  }
  std::size_t size() const { return x.size(); }
};

}  // namespace p3d::place
