#include "place/rows.h"

#include <algorithm>

namespace p3d::place {

void SortRow(Row& row) {
  std::sort(row.begin(), row.end(),
            [](const RowItem& a, const RowItem& b) { return a.lo < b.lo; });
}

std::ptrdiff_t FindCell(const Row& row, std::int32_t cell) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].cell == cell) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

Span FreeSpan(const Row& row, std::size_t i, double die_width) {
  // Neighbours can be walls reaching past the die edge; the span never does.
  return {std::max(0.0, i == 0 ? 0.0 : row[i - 1].hi),
          std::min(die_width, i + 1 < row.size() ? row[i + 1].lo : die_width)};
}

RowBlock::RowBlock(int num_layers, int row_lo, int row_hi)
    : num_layers_(num_layers),
      row_lo_(row_lo),
      row_hi_(row_hi),
      rows_(static_cast<std::size_t>(num_layers * (row_hi - row_lo))) {}

RowBlock RowBlock::Copy(int lo, int hi) const {
  RowBlock block(num_layers_, lo, hi);
  for (int layer = 0; layer < num_layers_; ++layer) {
    for (int r = lo; r < hi; ++r) block.at(layer, r) = at(layer, r);
  }
  return block;
}

RowBlock BuildRows(const netlist::Netlist& nl, const Chip& chip,
                   const Placement& p, bool with_movable) {
  RowBlock rows(chip.num_layers(), 0, chip.num_rows());
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    const int layer = std::clamp(p.layer[i], 0, chip.num_layers() - 1);
    const double w = nl.CellWidth(c);
    const double x_lo = p.x[i] - w / 2.0;
    const double x_hi = p.x[i] + w / 2.0;
    if (!nl.CellFixed(c)) {
      if (with_movable) {
        rows.at(layer, chip.NearestRow(p.y[i])).push_back({x_lo, x_hi, c});
      }
      continue;
    }
    // Pads ring the die outside its outline; they block no row. Walls keep
    // their full x extent: FreeSpan and the legalizer's gap and segment
    // scans clip to the die themselves, and rowopt's nearest-item lookup
    // reads wall centers.
    const double h = nl.CellHeight(c);
    const double y_lo = p.y[i] - h / 2.0;
    const double y_hi = p.y[i] + h / 2.0;
    if (x_hi <= 0.0 || x_lo >= chip.width() || y_hi <= 0.0 ||
        y_lo >= chip.height()) {
      continue;
    }
    for (int r = 0; r < chip.num_rows(); ++r) {
      const double band_lo = chip.RowBottomY(r);
      if (y_lo < band_lo + chip.row_height() && y_hi > band_lo) {
        rows.at(layer, r).push_back({x_lo, x_hi, RowItem::kWall});
      }
    }
  }
  for (int layer = 0; layer < chip.num_layers(); ++layer) {
    for (int r = 0; r < chip.num_rows(); ++r) SortRow(rows.at(layer, r));
  }
  return rows;
}

}  // namespace p3d::place
