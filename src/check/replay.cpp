#include "check/replay.h"

#include <cmath>
#include <cstdio>

namespace p3d::check {

void MoveLog::OnCommitMove(std::int32_t cell, double x, double y, int layer,
                           double applied_delta) {
  if (ops_.size() >= cap_) {
    ++dropped_;
    return;
  }
  RecordedOp op;
  op.a = cell;
  op.x = x;
  op.y = y;
  op.layer = layer;
  op.delta = applied_delta;
  ops_.push_back(op);
}

void MoveLog::OnCommitSwap(std::int32_t a, std::int32_t b,
                           double applied_delta) {
  if (ops_.size() >= cap_) {
    ++dropped_;
    return;
  }
  RecordedOp op;
  op.is_swap = true;
  op.a = a;
  op.b = b;
  op.delta = applied_delta;
  ops_.push_back(op);
}

void MoveLog::OnSetPlacement(const place::Placement& placement) {
  Rebase(placement);
}

void MoveLog::Rebase(const place::Placement& start) {
  start_ = start;
  has_start_ = true;
  ops_.clear();
  dropped_ = 0;
}

namespace {

std::string Fail(std::size_t op_index, const char* what, double got,
                 double want, double tol) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "op %zu: %s mismatch: got %.17g want %.17g (err %.3g, tol "
                "%.3g)",
                op_index, what, got, want, std::abs(got - want), tol);
  return buf;
}

}  // namespace

ReplayResult ReplayAndVerify(const netlist::Netlist& nl,
                             const place::Chip& chip,
                             const place::PlacerParams& params,
                             const MoveLog& log,
                             const place::Placement* expected_final,
                             const ReplayOptions& options) {
  ReplayResult result;
  if (!log.has_start()) {
    result.ok = false;
    result.message = "no start placement recorded";
    return result;
  }
  place::ObjectiveEvaluator eval(nl, chip, params);
  eval.SetPlacement(log.start());
  place::DeltaView view(&eval);

  auto tol = [&](double scale) {
    return options.abs_tol + options.rel_tol * std::max(std::abs(scale), 1.0);
  };

  const std::vector<RecordedOp>& ops = log.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const RecordedOp& op = ops[i];
    const double predicted =
        op.is_swap ? view.SwapDelta(op.a, op.b)
                   : view.MoveDelta(op.a, op.x, op.y, op.layer);
    const double delta_err = std::abs(predicted - op.delta);
    result.max_delta_err = std::max(result.max_delta_err, delta_err);
    const double total_before = eval.Total();
    if (delta_err > tol(total_before)) {
      result.ok = false;
      result.message = Fail(i, op.is_swap ? "SwapDelta" : "MoveDelta",
                            predicted, op.delta, tol(total_before));
      return result;
    }
    if (op.is_swap) {
      eval.CommitSwap(op.a, op.b);
    } else {
      eval.CommitMove(op.a, op.x, op.y, op.layer);
    }
    // The committed total must land where the prediction said it would.
    if (std::abs(eval.Total() - (total_before + predicted)) >
        tol(total_before)) {
      result.ok = false;
      result.message = Fail(i, "committed total", eval.Total(),
                            total_before + predicted, tol(total_before));
      return result;
    }
    ++result.ops_checked;
    const bool last = i + 1 == ops.size();
    if (last || (options.full_check_stride > 0 &&
                 (i + 1) % static_cast<std::size_t>(
                               options.full_check_stride) == 0)) {
      const double incremental = eval.Total();
      const double fresh = eval.RecomputeFull();
      if (std::abs(incremental - fresh) > tol(fresh)) {
        result.ok = false;
        result.message =
            Fail(i, "full recomputation", incremental, fresh, tol(fresh));
        return result;
      }
    }
  }

  if (expected_final != nullptr && log.dropped() == 0) {
    const place::Placement& got = eval.placement();
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got.x[i] != expected_final->x[i] ||
          got.y[i] != expected_final->y[i] ||
          got.layer[i] != expected_final->layer[i]) {
        result.ok = false;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "replayed placement diverges at cell %zu: "
                      "(%.9g, %.9g, %d) vs expected (%.9g, %.9g, %d)",
                      i, got.x[i], got.y[i], got.layer[i],
                      expected_final->x[i], expected_final->y[i],
                      expected_final->layer[i]);
        result.message = buf;
        return result;
      }
    }
  }
  return result;
}

}  // namespace p3d::check
