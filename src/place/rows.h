// Row occupancy model of detailed placement (paper Section 5).
//
// Detailed legalization and rowopt work on the same picture of the die: per
// layer and row, the x-intervals that cells occupy, sorted by left edge.
// Fixed cells are walls. A wall blocks every row of its layer that its
// footprint overlaps, keeps its full x extent (it may reach past the die
// edge), and never moves. Movable items never overlap one another; walls may
// nest inside or abut each other. A window of the propose/commit protocol
// (DESIGN.md §5) simulates its proposals on a private copy of its row block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "place/chip.h"

namespace p3d::place {

/// One occupied x-interval of a row: a movable cell or a fixed-cell wall.
struct RowItem {
  static constexpr std::int32_t kWall = -1;

  double lo = 0.0;  // left edge
  double hi = 0.0;  // right edge
  std::int32_t cell = kWall;

  bool wall() const { return cell == kWall; }
  double center() const { return (lo + hi) / 2.0; }
};

/// A row's items, sorted by `lo`.
using Row = std::vector<RowItem>;

void SortRow(Row& row);

/// Index of `cell`'s item in `row`, or -1 when the row does not hold it.
std::ptrdiff_t FindCell(const Row& row, std::int32_t cell);

/// The x-range item `i` may occupy without touching its neighbours: from
/// the left neighbour's right edge to the right neighbour's left edge,
/// intersected with the die [0, die_width].
struct Span {
  double lo;
  double hi;
};
Span FreeSpan(const Row& row, std::size_t i, double die_width);

/// Rows [row_lo, row_hi) of every layer: the live rows of the whole die, or
/// a window's private copy of its row block.
class RowBlock {
 public:
  RowBlock(int num_layers, int row_lo, int row_hi);

  int row_lo() const { return row_lo_; }
  int row_hi() const { return row_hi_; }
  Row& at(int layer, int r) { return rows_[Index(layer, r)]; }
  const Row& at(int layer, int r) const { return rows_[Index(layer, r)]; }

  /// Copy of rows [lo, hi) of every layer; [lo, hi) lies inside this block.
  RowBlock Copy(int lo, int hi) const;

 private:
  std::size_t Index(int layer, int r) const {
    return static_cast<std::size_t>(layer * (row_hi_ - row_lo_) +
                                    (r - row_lo_));
  }

  int num_layers_ = 0;
  int row_lo_ = 0;
  int row_hi_ = 0;
  std::vector<Row> rows_;
};

/// The rows of the whole die under `p`. Each fixed cell that reaches into
/// the die becomes a wall in every row of its layer that its footprint
/// overlaps; with `with_movable`, each movable cell also joins its nearest
/// row. Items go in by cell id, then every row is sorted.
RowBlock BuildRows(const netlist::Netlist& nl, const Chip& chip,
                   const Placement& p, bool with_movable);

}  // namespace p3d::place
