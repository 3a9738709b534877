#include "place/chip.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace p3d::place {

util::StatusOr<Chip> Chip::Build(const netlist::Netlist& nl, int num_layers,
                                 double whitespace, double inter_row_space) {
  if (!nl.finalized()) {
    return util::FailedPreconditionError(
        "Chip::Build: netlist is not finalized");
  }
  if (num_layers < 1) {
    return util::InvalidArgumentError("Chip::Build: num_layers must be >= 1, got " +
                                      std::to_string(num_layers));
  }
  if (!(whitespace >= 0.0 && whitespace < 1.0)) {
    return util::InvalidArgumentError(
        "Chip::Build: whitespace must be in [0, 1), got " +
        std::to_string(whitespace));
  }
  if (!(inter_row_space >= 0.0)) {
    return util::InvalidArgumentError(
        "Chip::Build: inter_row_space must be >= 0, got " +
        std::to_string(inter_row_space));
  }
  // The die is sized from movable area and average cell height; a zero,
  // negative or non-finite movable cell would make those meaningless.
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (nl.CellFixed(c)) continue;
    const double w = nl.CellWidth(c);
    const double h = nl.CellHeight(c);
    if (!(w > 0.0 && h > 0.0 && std::isfinite(w) && std::isfinite(h))) {
      return util::InvalidArgumentError(
          "Chip::Build: movable cell '" + nl.cell(c).name +
          "' needs a finite, positive size, got " + std::to_string(w) +
          " x " + std::to_string(h));
    }
  }

  Chip chip;
  chip.num_layers_ = num_layers;
  if (nl.NumMovableCells() == 0) {
    // No movable area to size against: produce a minimal one-row die with a
    // nominal row height so downstream geometry (NearestRow, bin grids,
    // reports) stays finite instead of dividing by zero.
    chip.row_height_ = 1e-6;
    chip.row_pitch_ = chip.row_height_ * (1.0 + inter_row_space);
    chip.num_rows_ = 1;
    chip.height_ = chip.row_pitch_;
    chip.width_ = chip.row_height_;
    return chip;
  }
  chip.row_height_ = nl.AvgCellHeight();
  chip.row_pitch_ = chip.row_height_ * (1.0 + inter_row_space);

  // Row capacity must hold the per-layer share of cell area with the given
  // whitespace: rows_area * (1 - whitespace) = cell_area / layers.
  const double cell_area_per_layer = nl.MovableArea() / num_layers;
  double rows_area = cell_area_per_layer / (1.0 - whitespace);
  // Square die: width = height, with height quantized to whole row pitches.
  const double die_area = rows_area / chip.RowFraction();
  double side = std::sqrt(die_area);
  int rows = std::max(1, static_cast<int>(std::ceil(side / chip.row_pitch_)));
  // Legalization needs each row to keep at least ~the widest cell of free
  // space once everything is placed, or the final cells face an unsolvable
  // bin-packing instance. Irrelevant for realistic designs (thousands of
  // cells per row), but scaled-down benchmark circuits have only a handful
  // of cells per row and the paper's 5% whitespace is then too tight.
  const double min_slack_per_row = 1.2 * nl.MaxCellWidth() * chip.row_height_;
  rows_area = std::max(rows_area,
                       cell_area_per_layer + rows * min_slack_per_row);
  chip.num_rows_ = rows;
  chip.height_ = rows * chip.row_pitch_;
  // Width chosen so the row capacity is exactly rows_area.
  chip.width_ = rows_area / (rows * chip.row_height_);
  // Guard against degenerate aspect ratios on tiny designs.
  if (chip.width_ < chip.row_height_) chip.width_ = chip.row_height_;
  // Cell sizes that are finite and positive can still multiply out to a die
  // area of 0 or infinity, which no bin grid or FEA mesh can discretize.
  const double area = chip.width_ * chip.height_;
  if (!(area > 0.0 && std::isfinite(area))) {
    return util::InvalidArgumentError(
        "Chip::Build: die area " + std::to_string(area) +
        " is not a positive finite number (cell sizes out of range)");
  }
  return chip;
}

int Chip::NearestRow(double y) const {
  const int r = static_cast<int>(std::floor(y / row_pitch_));
  return std::clamp(r, 0, num_rows_ - 1);
}

}  // namespace p3d::place
