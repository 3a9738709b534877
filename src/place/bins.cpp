#include "place/bins.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace p3d::place {

BinGrid::BinGrid(const Chip& chip, double avg_cell_w, double avg_cell_h,
                 double cells_per_bin_x, double cells_per_bin_y) {
  assert(avg_cell_w > 0.0 && avg_cell_h > 0.0);
  nx_ = std::max(1, static_cast<int>(
                        std::round(chip.width() / (cells_per_bin_x * avg_cell_w))));
  ny_ = std::max(1, static_cast<int>(std::round(
                        chip.height() / (cells_per_bin_y * avg_cell_h))));
  nz_ = chip.num_layers();
  nbx_ = (nx_ + kBlock - 1) >> kBlockShift;
  nby_ = (ny_ + kBlock - 1) >> kBlockShift;
  layer_stride_ = nbx_ * nby_ * kBlock * kBlock;
  bw_ = chip.width() / nx_;
  bh_ = chip.height() / ny_;
  cap_ = bw_ * bh_ * chip.RowFraction();
  area_.assign(static_cast<std::size_t>(NumBins()), 0.0);
  fixed_area_.assign(static_cast<std::size_t>(NumBins()), 0.0);
  cells_.assign(static_cast<std::size_t>(NumBins()), {});
}

int BinGrid::XIndex(double x) const {
  return std::clamp(static_cast<int>(x / bw_), 0, nx_ - 1);
}

int BinGrid::YIndex(double y) const {
  return std::clamp(static_cast<int>(y / bh_), 0, ny_ - 1);
}

int BinGrid::BinOf(double x, double y, int layer) const {
  return Flat(XIndex(x), YIndex(y), std::clamp(layer, 0, nz_ - 1));
}

void BinGrid::Rebuild(const netlist::Netlist& nl, const Placement& p) {
  std::fill(fixed_area_.begin(), fixed_area_.end(), 0.0);
  for (auto& v : cells_) v.clear();
  // Fixed base first, then movables, each in ascending cell-id order: the
  // resulting area_ bytes match what ResyncAreas derives from the occupant
  // lists (which are in cell-id order right after a rebuild).
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    const int flat = BinOf(p.x[i], p.y[i], p.layer[i]);
    if (nl.CellFixed(c)) {
      fixed_area_[static_cast<std::size_t>(flat)] += nl.CellArea(c);
    } else {
      cells_[static_cast<std::size_t>(flat)].push_back(c);
    }
  }
  area_ = fixed_area_;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (nl.CellFixed(c)) continue;
    area_[static_cast<std::size_t>(BinOf(p.x[i], p.y[i], p.layer[i]))] +=
        nl.CellArea(c);
  }
}

double BinGrid::MaxDensity() const {
  double mx = 0.0;
  for (const double a : area_) mx = std::max(mx, a / cap_);
  return mx;
}

double BinGrid::OverflowArea() const {
  double over = 0.0;
  for (const double a : area_) over += std::max(0.0, a - cap_);
  return over;
}

void BinGrid::MoveCell(std::int32_t cell, double cell_area, int from_flat,
                       int to_flat) {
  if (from_flat == to_flat) return;
  area_[static_cast<std::size_t>(from_flat)] -= cell_area;
  area_[static_cast<std::size_t>(to_flat)] += cell_area;
  auto& from_list = cells_[static_cast<std::size_t>(from_flat)];
  const auto it = std::find(from_list.begin(), from_list.end(), cell);
  if (it != from_list.end()) {
    *it = from_list.back();
    from_list.pop_back();
  }
  cells_[static_cast<std::size_t>(to_flat)].push_back(cell);
}

void BinGrid::ResyncAreas(const netlist::Netlist& nl) {
  for (std::size_t b = 0; b < area_.size(); ++b) {
    sort_scratch_.assign(cells_[b].begin(), cells_[b].end());
    std::sort(sort_scratch_.begin(), sort_scratch_.end());
    double a = fixed_area_[b];
    for (const std::int32_t c : sort_scratch_) a += nl.CellArea(c);
    area_[b] = a;
  }
}

WindowTiling::WindowTiling(int nx, int ny, int window_bins) {
  window_bins_ = std::max(1, window_bins);
  nwx_ = (nx + window_bins_ - 1) / window_bins_;
  const int nwy = (ny + window_bins_ - 1) / window_bins_;
  windows_.reserve(static_cast<std::size_t>(nwx_) * nwy);
  for (int wy = 0; wy < nwy; ++wy) {
    for (int wx = 0; wx < nwx_; ++wx) {
      BinWindow w;
      w.x0 = wx * window_bins_;
      w.y0 = wy * window_bins_;
      w.x1 = std::min(nx, w.x0 + window_bins_);
      w.y1 = std::min(ny, w.y0 + window_bins_);
      w.color = (wx & 1) | ((wy & 1) << 1);
      windows_.push_back(w);
      colors_.push_back(w.color);
    }
  }
}

}  // namespace p3d::place
