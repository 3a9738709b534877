#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>

#include "linalg/multigrid.h"
#include "thermal/power.h"

namespace p3d::e2e {
namespace {

constexpr int kBatches = 5;

/// Median over kBatches runs of `body`, in nanoseconds per `per_batch` unit.
template <typename Body>
double MedianNs(int per_batch, Body&& body) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    util::Timer t;
    body();
    ns.push_back(static_cast<double>(t.Nanos()) / per_batch);
  }
  return Median(ns);
}

}  // namespace

ProbeResults RunProbes(const netlist::Netlist& nl, const JobConfig& config,
                       const TracedJob& job, int delta_calls,
                       SpanRecorder& spans) {
  using Scope = SpanRecorder::Scope;
  ProbeResults out;
  const place::ObjectiveEvaluator& eval = job.placer->evaluator();
  const place::Placement& p = eval.placement();
  const place::Chip& chip = eval.chip();

  // Local targets: the coarse engines' density bins are 2 x 2 average cells.
  const double bin_w = 2.0 * nl.AvgCellWidth();
  const double bin_h = 2.0 * nl.AvgCellHeight();
  const int nbx = std::max(1, static_cast<int>(chip.width() / bin_w));
  const int nby = std::max(1, static_cast<int>(chip.height() / bin_h));
  const int layers = chip.num_layers();
  const auto bin_of = [&](double x, double y, int layer) {
    const int bx = std::clamp(static_cast<int>(x / bin_w), 0, nbx - 1);
    const int by = std::clamp(static_cast<int>(y / bin_h), 0, nby - 1);
    return (layer * nby + by) * nbx + bx;
  };
  std::vector<std::int32_t> movable;
  std::vector<std::vector<std::int32_t>> bins(
      static_cast<std::size_t>(nbx * nby * layers));
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (nl.CellFixed(c)) continue;
    movable.push_back(c);
    const std::size_t i = static_cast<std::size_t>(c);
    bins[static_cast<std::size_t>(bin_of(p.x[i], p.y[i], p.layer[i]))]
        .push_back(c);
  }
  if (movable.empty()) return out;

  std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
  std::uniform_real_distribution<double> offset(-1.0, 1.0);
  std::uniform_int_distribution<int> step(-1, 1);
  std::uniform_int_distribution<std::size_t> pick(0, movable.size() - 1);
  struct Move {
    std::int32_t cell;
    double x, y;
    int layer;
  };
  const auto local_target = [&](std::int32_t c) {
    const std::size_t i = static_cast<std::size_t>(c);
    return Move{
        c, std::clamp(p.x[i] + offset(rng) * bin_w, 0.0, chip.width()),
        std::clamp(p.y[i] + offset(rng) * bin_h, 0.0, chip.height()),
        std::clamp(p.layer[i] + step(rng), 0, layers - 1)};
  };
  std::vector<Move> moves;
  for (int k = 0; k < delta_calls; ++k) {
    moves.push_back(local_target(movable[pick(rng)]));
  }
  // A swap partner is a cell of the bin holding a local target.
  std::vector<std::pair<std::int32_t, std::int32_t>> swaps;
  for (long long tries = 0; static_cast<int>(swaps.size()) < delta_calls &&
                            tries < 8LL * delta_calls;
       ++tries) {
    const Move m = local_target(movable[pick(rng)]);
    const auto& bin = bins[static_cast<std::size_t>(bin_of(m.x, m.y, m.layer))];
    if (bin.empty()) continue;
    const std::int32_t b =
        bin[std::uniform_int_distribution<std::size_t>(0, bin.size() - 1)(rng)];
    if (b != m.cell) swaps.emplace_back(m.cell, b);
  }

  place::DeltaView view(&eval);
  double sink = 0.0;
  {
    Scope span(spans, "probe.move_delta");
    out.move_delta_ns = MedianNs(delta_calls, [&] {
      for (const Move& m : moves) {
        sink += view.MoveDelta(m.cell, m.x, m.y, m.layer);
      }
    });
  }
  if (!swaps.empty()) {
    Scope span(spans, "probe.swap_delta");
    out.swap_delta_ns = MedianNs(static_cast<int>(swaps.size()), [&] {
      for (const auto& [a, b] : swaps) sink += view.SwapDelta(a, b);
    });
  }

  if (job.fea != nullptr) {
    const thermal::FeaSolver& solver = job.fea->solver();
    const linalg::CsrMatrix& a = solver.matrix();
    const std::size_t n = static_cast<std::size_t>(a.Dim());
    const thermal::NetMetrics metrics =
        thermal::ComputeNetMetrics(nl, p.x, p.y, p.layer);
    const std::vector<double> rhs = solver.BuildRhs(
        p.x, p.y, p.layer,
        thermal::ComputePower(nl, metrics, eval.params().electrical)
            .cell_power);
    std::vector<double> x(n, 1.0), y(n, 0.0);
    {
      Scope span(spans, "probe.spmv");
      constexpr int kPerBatch = 40;
      out.spmv_ms = 1e-6 * MedianNs(kPerBatch, [&] {
                      for (int i = 0; i < kPerBatch; ++i) a.Multiply(x, &y);
                    });
      sink += y[n / 2];
      const double bytes = 12.0 * static_cast<double>(a.NumNonZeros()) +
                           24.0 * static_cast<double>(n);
      out.spmv_gbps_computed = bytes / (out.spmv_ms * 1e-3) * 1e-9;
    }
    {
      Scope span(spans, "probe.precond_apply");
      constexpr int kPerBatch = 4;
      out.precond_apply_ms = 1e-6 * MedianNs(kPerBatch, [&] {
                               for (int i = 0; i < kPerBatch; ++i) {
                                 job.fea->preconditioner().Apply(rhs, &y);
                               }
                             });
      sink += y[n / 2];
    }
    thermal::FeaContextOptions copt =
        FeaContextOptionsFor(eval.params(), config.options);
    copt.fea.cg.preconditioner = linalg::PreconditionerKind::kMultigrid;
    std::optional<thermal::FeaContext> mg;
    {
      Scope span(spans, "probe.mg_setup", &out.mg_setup_s);
      mg.emplace(eval.params().stack,
                 thermal::ChipExtent{chip.width(), chip.height()}, copt);
    }
    if (const auto& h = mg->assembly()->hierarchy; h != nullptr) {
      Scope span(spans, "probe.vcycle");
      constexpr int kPerBatch = 4;
      out.vcycle_ms = 1e-6 * MedianNs(kPerBatch, [&] {
                        for (int i = 0; i < kPerBatch; ++i) {
                          x.assign(n, 0.0);
                          h->VCycle(rhs, &x);
                        }
                      });
      sink += x[n / 2];
    }
  }
  // Keeps the probed calls observable, so none can be optimized away.
  std::fprintf(stderr, "probe checksum %.6g\n", sink);
  return out;
}

}  // namespace p3d::e2e
