#include "place/objective.h"

#include <algorithm>
#include <cassert>

#include "geom/geometry.h"

namespace p3d::place {

ObjectiveEvaluator::ObjectiveEvaluator(const netlist::Netlist& nl,
                                       const Chip& chip,
                                       const PlacerParams& params)
    : nl_(nl),
      chip_(chip),
      params_(params),
      rmodel_(params.stack, thermal::ChipExtent{chip.width(), chip.height()}) {
  assert(nl.finalized());
  const std::size_t nn = static_cast<std::size_t>(nl.NumNets());
  s_wl_.resize(nn);
  s_ilv_.resize(nn);
  s_pin_term_.resize(nn);
  const double pre = params_.electrical.Prefactor();
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    const int n_out = nl.NumOutputPins(n);
    if (n_out == 0) {
      // Driverless nets dissipate no cell-attributed power (Eq. 10 sums over
      // driven nets only).
      s_wl_[i] = s_ilv_[i] = s_pin_term_[i] = 0.0;
      continue;
    }
    const double a = nl.net(n).activity;
    s_wl_[i] = pre * a * params_.electrical.c_per_wl / n_out;
    s_ilv_[i] = pre * a * params_.electrical.CPerIlv() / n_out;
    s_pin_term_[i] =
        pre * a * params_.electrical.c_per_pin * nl.NumInputPins(n) / n_out;
  }
  scratch_.net_stamp.assign(nn, 0);
  placement_.Resize(static_cast<std::size_t>(nl.NumCells()));
  r_cell_.assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
  cell_leak_cost_.assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
  hpwl_.assign(nn, 0.0);
  span_.assign(nn, 0);
  cost_.assign(nn, 0.0);
}

void ObjectiveEvaluator::NetBox::Add(double px, double py, int pl) {
  if (empty) {
    x_lo = x_hi = px;
    y_lo = y_hi = py;
    l_lo = l_hi = pl;
    empty = false;
    return;
  }
  x_lo = std::min(x_lo, px);
  x_hi = std::max(x_hi, px);
  y_lo = std::min(y_lo, py);
  y_hi = std::max(y_hi, py);
  l_lo = std::min(l_lo, pl);
  l_hi = std::max(l_hi, pl);
}

double ObjectiveEvaluator::Resistance(std::int32_t cell, double x, double y,
                                      int layer) const {
  const double area = nl_.CellArea(cell);
  return rmodel_.CellToAmbient(x, y, layer, area > 0.0 ? area : 1e-12);
}

void ObjectiveEvaluator::SetPlacement(const Placement& placement) {
  assert(placement.size() == static_cast<std::size_t>(nl_.NumCells()));
  placement_ = placement;
  ++epoch_;
  RecomputeFull();
  commits_since_resync_ = 0;
  for (CommitListener* l : listeners_) l->OnSetPlacement(placement_);
}

void ObjectiveEvaluator::RemoveCommitListener(CommitListener* listener) {
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (*it == listener) {
      listeners_.erase(it);
      return;
    }
  }
}

void ObjectiveEvaluator::ResyncTotals() {
  // Mirrors RecomputeFull's summation order exactly, but reads the caches
  // instead of re-evaluating geometry: r_cell_ and the per-net hpwl/span/cost
  // entries are written exactly (not accumulated) on every commit, so the
  // result is bit-identical to a full recompute at a fraction of the cost.
  const double leak_coeff =
      params_.alpha_temp * params_.electrical.leakage_per_cell_w;
  total_cost_ = 0.0;
  total_hpwl_ = 0.0;
  total_ilv_ = 0;
  total_thermal_ = 0.0;
  for (std::int32_t c = 0; c < nl_.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    cell_leak_cost_[i] = nl_.CellFixed(c) ? 0.0 : leak_coeff * r_cell_[i];
    total_cost_ += cell_leak_cost_[i];
    total_thermal_ += cell_leak_cost_[i];
  }
  for (std::int32_t n = 0; n < nl_.NumNets(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    total_cost_ += cost_[i];
    total_hpwl_ += hpwl_[i];
    total_ilv_ += span_[i];
    total_thermal_ += cost_[i] - hpwl_[i] - params_.alpha_ilv * span_[i];
  }
  commits_since_resync_ = 0;
}

void ObjectiveEvaluator::FinishCommit(double applied_delta, const Override& o1,
                                      const Override& o2) {
  ++total_commits_;
  for (CommitListener* l : listeners_) {
    if (o2.cell >= 0) {
      l->OnCommitSwap(o1.cell, o2.cell, applied_delta);
    } else {
      l->OnCommitMove(o1.cell, o1.x, o1.y, o1.layer, applied_delta);
    }
  }
  if (params_.objective_resync_interval > 0 &&
      ++commits_since_resync_ >= params_.objective_resync_interval) {
    ResyncTotals();
  }
}

double ObjectiveEvaluator::RecomputeFull() {
  // Leakage enters Eq. 3 as a per-cell term alpha_TEMP * R_j * P_leak
  // (position-dependent through R_j); dynamic power stays per-net.
  const double leak_coeff =
      params_.alpha_temp * params_.electrical.leakage_per_cell_w;
  total_cost_ = 0.0;
  total_hpwl_ = 0.0;
  total_ilv_ = 0;
  total_thermal_ = 0.0;
  for (std::int32_t c = 0; c < nl_.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    r_cell_[i] = Resistance(c, placement_.x[i], placement_.y[i],
                            placement_.layer[i]);
    cell_leak_cost_[i] =
        nl_.CellFixed(c) ? 0.0 : leak_coeff * r_cell_[i];
    total_cost_ += cell_leak_cost_[i];
    total_thermal_ += cell_leak_cost_[i];
  }
  const Override none;
  for (std::int32_t n = 0; n < nl_.NumNets(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    const NetEval e = EvalNet(n, none, none);
    hpwl_[i] = e.hpwl;
    span_[i] = e.span;
    cost_[i] = e.cost;
    total_cost_ += e.cost;
    total_hpwl_ += e.hpwl;
    total_ilv_ += e.span;
    total_thermal_ += e.cost - e.hpwl - params_.alpha_ilv * e.span;
  }
  return total_cost_;
}

ObjectiveEvaluator::NetEval ObjectiveEvaluator::EvalNet(
    std::int32_t n, const Override& o1, const Override& o2) const {
  NetBox box;
  // SoA walk over the net's contiguous pin slice: only the cell id and the
  // offsets are needed, so the flat arrays keep the scan dense.
  const std::int32_t first = nl_.NetFirstPin(n);
  const std::int32_t last = first + nl_.NetNumPins(n);
  for (std::int32_t p = first; p < last; ++p) {
    const std::int32_t cell = nl_.PinCell(p);
    double px, py;
    int pl;
    if (cell == o1.cell) {
      px = o1.x;
      py = o1.y;
      pl = o1.layer;
    } else if (cell == o2.cell) {
      px = o2.x;
      py = o2.y;
      pl = o2.layer;
    } else {
      const std::size_t c = static_cast<std::size_t>(cell);
      px = placement_.x[c];
      py = placement_.y[c];
      pl = placement_.layer[c];
    }
    box.Add(px + nl_.PinDx(p), py + nl_.PinDy(p), pl);
  }
  NetEval e;
  e.hpwl = box.Hpwl();
  e.span = box.LayerSpan();
  e.cost = NetCost(n, e.hpwl, e.span, o1, o2);
  return e;
}

double ObjectiveEvaluator::NetCost(std::int32_t n, double hpwl, int span,
                                   const Override& o1,
                                   const Override& o2) const {
  double cost = hpwl + params_.alpha_ilv * span;
  if (params_.alpha_temp > 0.0) {
    const std::int32_t driver = nl_.DriverCell(n);
    if (driver >= 0) {
      double r = r_cell_[static_cast<std::size_t>(driver)];
      if (driver == o1.cell) {
        r = o1.r;
      } else if (driver == o2.cell) {
        r = o2.r;
      }
      const std::size_t i = static_cast<std::size_t>(n);
      cost += params_.alpha_temp * r *
              (s_wl_[i] * hpwl + s_ilv_[i] * span + s_pin_term_[i]);
    }
  }
  return cost;
}

void ObjectiveEvaluator::NetScratch::Begin(std::size_t num_nets) {
  if (net_stamp.size() != num_nets) net_stamp.assign(num_nets, 0);
  nets.clear();
  ++stamp;
  if (stamp == 0) {
    // Stamp wrapped: stale entries could alias. Reset and restart at 1.
    std::fill(net_stamp.begin(), net_stamp.end(), 0u);
    stamp = 1;
  }
}

void ObjectiveEvaluator::CollectNetsInto(NetScratch& scratch, std::int32_t a,
                                         std::int32_t b) const {
  scratch.Begin(static_cast<std::size_t>(nl_.NumNets()));
  for (const std::int32_t cell : {a, b}) {
    if (cell < 0) continue;
    for (const std::int32_t p : nl_.CellPinIds(cell)) {
      const std::int32_t n = nl_.PinNet(p);
      if (scratch.Mark(n)) scratch.nets.push_back(n);
    }
  }
}

double ObjectiveEvaluator::LeakDelta(const Override& o) const {
  const double leak_coeff =
      params_.alpha_temp * params_.electrical.leakage_per_cell_w;
  if (leak_coeff <= 0.0 || nl_.CellFixed(o.cell)) return 0.0;
  return leak_coeff * o.r - cell_leak_cost_[static_cast<std::size_t>(o.cell)];
}

void ObjectiveEvaluator::CommitMove(std::int32_t cell, double x, double y,
                                    int layer) {
  Commit({cell, x, y, layer}, Override{});
}

void ObjectiveEvaluator::CommitSwap(std::int32_t a, std::int32_t b) {
  const std::size_t ai = static_cast<std::size_t>(a);
  const std::size_t bi = static_cast<std::size_t>(b);
  Commit({a, placement_.x[bi], placement_.y[bi], placement_.layer[bi]},
         {b, placement_.x[ai], placement_.y[ai], placement_.layer[ai]});
}

void ObjectiveEvaluator::Commit(Override o1, Override o2) {
  ++epoch_;
  const double total_before = total_cost_;
  const bool swap = o2.cell >= 0;
  o1.r = Resistance(o1.cell, o1.x, o1.y, o1.layer);
  if (swap) o2.r = Resistance(o2.cell, o2.x, o2.y, o2.layer);
  CollectNetsInto(scratch_, o1.cell, o2.cell);
  // Evaluate all incident nets before the placement mutates (the overrides
  // mask the moved cells, so pre- and post-mutation evaluation agree).
  eval_scratch_.clear();
  for (const std::int32_t n : scratch_.nets) {
    eval_scratch_.push_back(EvalNet(n, o1, o2));
  }
  eval_stats_.rescan_evals += static_cast<long long>(scratch_.nets.size());
  // Both leak deltas are priced before anything mutates; a swap applies
  // their sum, and a move never prices its absent second cell.
  const double leak_1 = LeakDelta(o1);
  const double leak_2 = swap ? LeakDelta(o2) : 0.0;
  const double leak = swap ? leak_1 + leak_2 : leak_1;
  const auto place = [this](const Override& o, double leak_delta) {
    const std::size_t ci = static_cast<std::size_t>(o.cell);
    placement_.x[ci] = o.x;
    placement_.y[ci] = o.y;
    placement_.layer[ci] = o.layer;
    r_cell_[ci] = o.r;
    cell_leak_cost_[ci] += leak_delta;
  };
  place(o1, leak_1);
  if (swap) place(o2, leak_2);
  total_cost_ += leak;
  total_thermal_ += leak;
  for (std::size_t k = 0; k < scratch_.nets.size(); ++k) {
    const std::size_t i = static_cast<std::size_t>(scratch_.nets[k]);
    const NetEval& e = eval_scratch_[k];
    total_cost_ += e.cost - cost_[i];
    total_hpwl_ += e.hpwl - hpwl_[i];
    total_ilv_ += e.span - span_[i];
    total_thermal_ += (e.cost - e.hpwl - params_.alpha_ilv * e.span) -
                      (cost_[i] - hpwl_[i] - params_.alpha_ilv * span_[i]);
    cost_[i] = e.cost;
    hpwl_[i] = e.hpwl;
    span_[i] = e.span;
  }
  FinishCommit(total_cost_ - total_before, o1, o2);
}

DeltaView::Override DeltaView::At(std::int32_t cell, double x, double y,
                                  int layer) const {
  Override o{cell, x, y, layer};
  // Leakage and the driver term both vanish without alpha_TEMP.
  if (eval_->params_.alpha_temp != 0.0) {
    o.r = eval_->Resistance(cell, x, y, layer);
  }
  return o;
}

void DeltaView::Flush() {
  entries_.clear();
  num_contexts_ = 0;
  if (++gen_ == 0) {
    // Generation wrapped: stale slots could alias. Reset and restart at 1.
    for (Slot& s : slots_) s.gen = 0;
    gen_ = 1;
  }
}

void DeltaView::Admit(std::int32_t a, std::int32_t b) {
  static_assert(kMaxEntries * sizeof(ContextNet) +
                        (std::size_t{1} << kSlotBits) * sizeof(Slot) <=
                    384 * 1024,
                "a view's context cache must stay within 384 KiB");
  if (slots_.empty()) {
    slots_.resize(std::size_t{1} << kSlotBits);
    entries_.reserve(kMaxEntries);
  }
  if (epoch_ != eval_->epoch_) {
    Flush();
    epoch_ = eval_->epoch_;
  }
  // A cell's pin count bounds its distinct nets. A context already cached
  // needs no room; counting it anyway only flushes a little early.
  const netlist::Netlist& nl = eval_->nl_;
  std::size_t need = nl.CellPinIds(a).size();
  if (b >= 0) need += nl.CellPinIds(b).size();
  if (entries_.size() + need > kMaxEntries ||
      num_contexts_ + 2 > kMaxContexts) {
    Flush();
  }
}

DeltaView::Slot DeltaView::ContextOf(std::int32_t cell) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i =
      (static_cast<std::uint32_t>(cell) * 2654435761u) >> (32 - kSlotBits);
  while (slots_[i].gen == gen_) {
    if (slots_[i].cell == cell) return slots_[i];
    i = (i + 1) & mask;
  }
  const netlist::Netlist& nl = eval_->nl_;
  const Placement& pl = eval_->placement_;
  Slot& slot = slots_[i];
  slot.cell = cell;
  slot.gen = gen_;
  slot.first = static_cast<std::int32_t>(entries_.size());
  ++num_contexts_;
  scratch_.Begin(static_cast<std::size_t>(nl.NumNets()));
  for (const std::int32_t pin : nl.CellPinIds(cell)) {
    const std::int32_t n = nl.PinNet(pin);
    if (!scratch_.Mark(n)) continue;
    // `pin` is one of the cell's own pins on n, so it seeds their bounds.
    ObjectiveEvaluator::NetBox others;
    double dx_lo = nl.PinDx(pin), dx_hi = dx_lo;
    double dy_lo = nl.PinDy(pin), dy_hi = dy_lo;
    const std::int32_t first = nl.NetFirstPin(n);
    const std::int32_t last = first + nl.NetNumPins(n);
    for (std::int32_t p = first; p < last; ++p) {
      const std::int32_t c = nl.PinCell(p);
      const double dx = nl.PinDx(p);
      const double dy = nl.PinDy(p);
      if (c != cell) {
        const std::size_t ci = static_cast<std::size_t>(c);
        others.Add(pl.x[ci] + dx, pl.y[ci] + dy, pl.layer[ci]);
      } else {
        dx_lo = std::min(dx_lo, dx);
        dx_hi = std::max(dx_hi, dx);
        dy_lo = std::min(dy_lo, dy);
        dy_hi = std::max(dy_hi, dy);
      }
    }
    entries_.push_back({others.x_lo, others.x_hi, others.y_lo, others.y_hi,
                        dx_lo, dx_hi, dy_lo, dy_hi, n,
                        others.empty ? 1 : others.l_lo,
                        others.empty ? 0 : others.l_hi});
  }
  slot.count = static_cast<std::int32_t>(entries_.size()) - slot.first;
  return slot;
}

double DeltaView::ContextCost(const ContextNet& e, const Override& o) const {
  // Adding a coordinate is monotone under rounding, so the extreme offsets
  // give exactly the extremes a scan of the cell's moved pins would find.
  double x_lo = o.x + e.dx_lo;
  double x_hi = o.x + e.dx_hi;
  double y_lo = o.y + e.dy_lo;
  double y_hi = o.y + e.dy_hi;
  int l_lo = o.layer;
  int l_hi = o.layer;
  if (e.HasOthers()) {
    x_lo = std::min(x_lo, e.ox_lo);
    x_hi = std::max(x_hi, e.ox_hi);
    y_lo = std::min(y_lo, e.oy_lo);
    y_hi = std::max(y_hi, e.oy_hi);
    l_lo = std::min(l_lo, e.ol_lo);
    l_hi = std::max(l_hi, e.ol_hi);
  }
  const double hpwl = (x_hi - x_lo) + (y_hi - y_lo);
  return eval_->NetCost(e.net, hpwl, l_hi - l_lo, o, Override{});
}

double DeltaView::MoveDelta(std::int32_t cell, double x, double y, int layer) {
  Admit(cell, -1);
  const Slot ctx = ContextOf(cell);
  const Override o = At(cell, x, y, layer);
  const std::vector<double>& cost = eval_->cost_;
  double delta = eval_->LeakDelta(o);
  for (std::int32_t k = ctx.first; k < ctx.first + ctx.count; ++k) {
    const ContextNet& e = entries_[static_cast<std::size_t>(k)];
    delta += ContextCost(e, o) - cost[static_cast<std::size_t>(e.net)];
  }
  stats_.rescan_evals += ctx.count;
  return delta;
}

double DeltaView::SwapDelta(std::int32_t a, std::int32_t b) {
  Admit(a, b);
  const Slot ca = ContextOf(a);
  const Slot cb = ContextOf(b);
  const Placement& pl = eval_->placement_;
  const std::size_t ai = static_cast<std::size_t>(a);
  const std::size_t bi = static_cast<std::size_t>(b);
  const Override oa = At(a, pl.x[bi], pl.y[bi], pl.layer[bi]);
  const Override ob = At(b, pl.x[ai], pl.y[ai], pl.layer[ai]);
  const std::vector<double>& cost = eval_->cost_;
  const std::size_t num_nets = static_cast<std::size_t>(eval_->nl_.NumNets());
  double delta = eval_->LeakDelta(oa) + eval_->LeakDelta(ob);
  // a's nets first, in context order. A net that also holds b needs both
  // overrides, so it is scanned.
  scratch_.Begin(num_nets);
  for (std::int32_t k = cb.first; k < cb.first + cb.count; ++k) {
    scratch_.Mark(entries_[static_cast<std::size_t>(k)].net);
  }
  for (std::int32_t k = ca.first; k < ca.first + ca.count; ++k) {
    const ContextNet& e = entries_[static_cast<std::size_t>(k)];
    const double c = scratch_.Marked(e.net)
                         ? eval_->EvalNet(e.net, oa, ob).cost
                         : ContextCost(e, oa);
    delta += c - cost[static_cast<std::size_t>(e.net)];
  }
  // Then b's nets that are not on a.
  long long evals = ca.count;
  scratch_.Begin(num_nets);
  for (std::int32_t k = ca.first; k < ca.first + ca.count; ++k) {
    scratch_.Mark(entries_[static_cast<std::size_t>(k)].net);
  }
  for (std::int32_t k = cb.first; k < cb.first + cb.count; ++k) {
    const ContextNet& e = entries_[static_cast<std::size_t>(k)];
    if (scratch_.Marked(e.net)) continue;
    delta += ContextCost(e, ob) - cost[static_cast<std::size_t>(e.net)];
    ++evals;
  }
  stats_.rescan_evals += evals;
  return delta;
}

}  // namespace p3d::place
