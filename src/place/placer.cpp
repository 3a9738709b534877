#include "place/placer.h"

#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "place/global.h"
#include "place/legalize.h"
#include "place/moveswap.h"
#include "place/rowopt.h"
#include "place/shift.h"
#include "thermal/fea.h"
#include "thermal/power.h"
#include "util/log.h"
#include "util/timer.h"

namespace p3d::place {
namespace {

/// Runs this flow's FEA thermal solves through the one FeaContext it owns,
/// which adopts RunOptions::fea_assembly or assembles its own. Builds
/// nothing when the run solves no FEA.
class FeaRunner {
 public:
  FeaRunner(const netlist::Netlist& nl, const PlacerParams& params,
            const Chip& chip, const RunOptions& opts)
      : nl_(nl), params_(params) {
    if (!RunSolvesFea(params, opts)) return;
    const thermal::FeaContextOptions copt{.fea = FeaOptionsFor(params, opts),
                                          .warm_start = opts.warm_start};
    if (opts.fea_assembly != nullptr) {
      ctx_.emplace(opts.fea_assembly, copt);
    } else {
      ctx_.emplace(params.stack,
                   thermal::ChipExtent{chip.width(), chip.height()}, copt);
    }
  }

  /// Full solve from a placement: per-net metrics -> powers -> temperature.
  thermal::FeaResult Solve(const Placement& p) {
    const thermal::NetMetrics metrics =
        thermal::ComputeNetMetrics(nl_, p.x, p.y, p.layer);
    const thermal::PowerReport power =
        thermal::ComputePower(nl_, metrics, params_.electrical);
    return SolveWithPower(p, power.cell_power);
  }

  /// Solve with already-computed cell powers (final report path).
  thermal::FeaResult SolveWithPower(const Placement& p,
                                    const std::vector<double>& cell_power) {
    return ctx_->Solve(p.x, p.y, p.layer, cell_power);
  }

  /// Fills the FEA accounting of `r` with the context's solves.
  void Report(PlacementResult* r) const {
    if (!ctx_.has_value()) return;
    const thermal::FeaContext::Stats& stats = ctx_->stats();
    r->t_fea = stats.solve_seconds;
    r->fea_solves = stats.solves;
    r->fea_cg_iters = stats.iters_total;
    r->fea_nonconverged = stats.nonconverged;
    r->fea_precond = ctx_->preconditioner().kind();
  }

 private:
  const netlist::Netlist& nl_;
  const PlacerParams& params_;
  std::optional<thermal::FeaContext> ctx_;  // empty when the run solves no FEA
};

/// Ok when `assembly` was built for this run's stack, chip extent and FEA
/// options, so the run's context may adopt it.
util::Status CheckAssembly(const thermal::FeaAssembly& assembly,
                           const PlacerParams& params, const Chip& chip,
                           const RunOptions& options) {
  const char* mismatch = nullptr;
  if (!(assembly.stack == params.stack)) {
    mismatch = "thermal stack";
  } else if (!(assembly.chip ==
               thermal::ChipExtent{chip.width(), chip.height()})) {
    mismatch = "chip extent";
  } else if (!thermal::SameAssembly(assembly.solver.options(),
                                    FeaOptionsFor(params, options))) {
    mismatch = "FEA mesh or preconditioner";
  }
  if (mismatch == nullptr) return util::Status::Ok();
  return util::InvalidArgumentError(
      std::string("Placer3D::Run: fea_assembly was built for another ") +
      mismatch);
}

void FillMetrics(const netlist::Netlist& nl, const PlacerParams& params,
                 const Chip& chip, const Placement& p, FeaRunner* fea,
                 PlacementResult* r) {
  obs::TraceScope trace_metrics("placer.fill_metrics");
  const thermal::NetMetrics metrics =
      thermal::ComputeNetMetrics(nl, p.x, p.y, p.layer);
  r->hpwl_m = metrics.total_hpwl;
  r->ilv_count = metrics.total_ilv;
  const int interlayers = chip.num_layers() - 1;
  r->ilv_density =
      interlayers > 0
          ? static_cast<double>(r->ilv_count) /
                (chip.width() * chip.height() * interlayers)
          : 0.0;

  const thermal::PowerReport power =
      thermal::ComputePower(nl, metrics, params.electrical);
  r->total_power_w = power.total;

  if (fea != nullptr) {
    thermal::FeaResult ft = fea->SolveWithPower(p, power.cell_power);
    r->avg_temp_c = ft.avg_cell_temp;
    r->max_temp_c = ft.max_cell_temp;
    r->fea_valid = ft.converged;
    r->cell_temp_c = std::move(ft.cell_temp);
  }

  r->overlaps = DetailedLegalizer::CountOverlaps(nl, p);
  r->legal = r->overlaps == 0;
}

}  // namespace

bool RunSolvesFea(const PlacerParams& params, const RunOptions& options) {
  return options.with_fea || params.fea_per_pass;
}

thermal::FeaOptions FeaOptionsFor(const PlacerParams& params,
                                  const RunOptions& options) {
  thermal::FeaOptions fea;
  fea.nx = params.fea_nx;
  fea.ny = params.fea_ny;
  fea.cg.threads = params.threads;
  fea.cg.preconditioner = options.preconditioner;
  return fea;
}

util::StatusOr<Placer3D> Placer3D::Create(const netlist::Netlist& nl,
                                          const PlacerParams& params) {
  if (!nl.finalized()) {
    return util::FailedPreconditionError(
        "Placer3D::Create: netlist is not finalized");
  }
  // Bin grids and partition targets are sized by the average movable cell;
  // with none there is nothing to place and nothing to size them by.
  if (nl.NumMovableCells() == 0) {
    return util::InvalidArgumentError(
        "Placer3D::Create: netlist has no movable cells");
  }
  PlacerParams synced = params;
  synced.SyncStack();
  util::StatusOr<Chip> chip = Chip::Build(
      nl, synced.num_layers, synced.whitespace, synced.inter_row_space);
  if (!chip.ok()) return chip.status();
  return Placer3D(nl, synced, *std::move(chip));
}

Placer3D::Placer3D(const netlist::Netlist& nl, const PlacerParams& params,
                   Chip chip)
    : nl_(nl), params_(params), chip_(std::move(chip)) {
  eval_ = std::make_unique<ObjectiveEvaluator>(nl_, chip_, params_);
}

void Placer3D::RemovePhaseObserver(PhaseObserver* observer) {
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (*it == observer) {
      observers_.erase(it);
      return;
    }
  }
}

void Placer3D::NotifyPhase(const char* phase, int round,
                           const GlobalPlaceStats* global_stats) {
  for (PhaseObserver* o : observers_) {
    o->OnPhase(phase, round, *eval_, global_stats);
  }
}

util::StatusOr<PlacementResult> Placer3D::Run(const RunOptions& options) {
  obs::TraceScope trace_run("placer.run");
  util::Timer total;
  PlacementResult result;

  Placement initial = options.initial;
  if (initial.size() == 0) {
    initial.Resize(static_cast<std::size_t>(nl_.NumCells()));
  } else if (initial.size() != static_cast<std::size_t>(nl_.NumCells())) {
    return util::InvalidArgumentError(
        "Placer3D::Run: initial placement has " +
        std::to_string(initial.size()) + " cells, netlist has " +
        std::to_string(nl_.NumCells()));
  }
  if (options.fea_assembly != nullptr) {
    if (util::Status s =
            CheckAssembly(*options.fea_assembly, params_, chip_, options);
        !s.ok()) {
      return s;
    }
  }

  // Cooperative cancellation: polled at the same phase boundaries where
  // PhaseObserver fires, so a cancel request wins within one phase.
  const auto cancelled_at = [&options](const char* phase) {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed)
               ? util::CancelledError(std::string("Placer3D::Run: cancelled "
                                                  "at the ") +
                                      phase + " boundary")
               : util::Status::Ok();
  };
  if (util::Status s = cancelled_at("start"); !s.ok()) return s;

  FeaRunner fea(nl_, params_, chip_, options);
  // Per-pass thermal (params_.fea_per_pass): one observational solve after
  // every legalization pass, at a finer grain than the phase boundaries.
  // Results feed telemetry and the reuse accounting, never the placement —
  // the flow's bytes are identical with the knob on or off. Affordable
  // because the context reuses its preconditioner and warm-starts CG.
  const auto pass_fea = [&](const char* pass) {
    if (!params_.fea_per_pass) return;
    obs::TraceScope trace_pass("fea.pass");
    obs::MetricAdd("fea/pass_solves", 1);
    const thermal::FeaResult ft = fea.Solve(eval_->placement());
    util::LogDebug("pass thermal (%s): max %.2f C, avg %.2f C (%d iters)",
                   pass, ft.max_cell_temp, ft.avg_cell_temp, ft.cg_iters);
  };
  const ObjectiveEvaluator::EvalStats eval_stats_before = eval_->eval_stats();

  // --- global placement ---------------------------------------------------
  util::Timer t;
  GlobalPlacer global(*eval_);
  {
    obs::TraceScope trace_global("placer.global");
    util::StatusOr<Placement> gp = global.Run(initial);
    if (!gp.ok()) return gp.status();
    eval_->SetPlacement(*gp);
  }
  result.t_global = t.Seconds();
  NotifyPhase("global", -1, &global.stats());
  if (util::Status s = cancelled_at("global"); !s.ok()) return s;
  util::LogInfo("global done: hpwl %.4g m, ilv %lld, obj %.4g (%.2fs)",
                eval_->TotalHpwl(),
                static_cast<long long>(eval_->TotalIlv()), eval_->Total(),
                result.t_global);

  MoveSwapOptimizer mso(*eval_, params_.seed ^ 0xabcdef12345ULL);
  CellShifter shifter(*eval_);
  DetailedLegalizer legalizer(*eval_);
  RowRefiner refiner(*eval_, params_.seed ^ 0x5eed0123ULL);

  // Across repeated coarse+detailed rounds (paper Section 6: "can be
  // repeated multiple times if additional optimization is required"), keep
  // the best legal placement seen: a round whose re-legalization loses more
  // than its moves gained must not degrade the final result.
  Placement best_placement;
  double best_objective = 0.0;
  bool have_best = false;

  for (int round = 0; round < std::max(params_.legalization_repeats, 1);
       ++round) {
    // --- coarse legalization -----------------------------------------------
    t.Reset();
    {
      obs::TraceScope trace_coarse("placer.coarse");
      for (int i = 0; i < std::max(params_.moveswap_rounds, 1); ++i) {
        mso.RunGlobal(params_.target_region_bins);
        util::LogDebug("after global msw: hpwl %.4g ilv %lld obj %.4g",
                       eval_->TotalHpwl(),
                       static_cast<long long>(eval_->TotalIlv()),
                       eval_->Total());
        mso.RunLocal();
        util::LogDebug("after local msw: hpwl %.4g ilv %lld obj %.4g",
                       eval_->TotalHpwl(),
                       static_cast<long long>(eval_->TotalIlv()),
                       eval_->Total());
        pass_fea("moveswap");
      }
      shifter.Run(params_.shift_max_iters, params_.shift_target_density);
      util::LogDebug("after shifting: hpwl %.4g ilv %lld obj %.4g",
                     eval_->TotalHpwl(),
                     static_cast<long long>(eval_->TotalIlv()), eval_->Total());
      pass_fea("shift");
    }
    result.t_coarse += t.Seconds();
    NotifyPhase("coarse", round);
      if (util::Status s = cancelled_at("coarse"); !s.ok()) return s;

    // --- detailed legalization -----------------------------------------------
    t.Reset();
    LegalizeStats ls;
    {
      obs::TraceScope trace_detailed("placer.detailed");
      ls = legalizer.Run();
    }
    result.t_detailed += t.Seconds();
    if (!ls.success) {
      util::LogWarn("placer: detailed legalization left %lld cells unplaced",
                    static_cast<long long>(nl_.NumMovableCells() - ls.placed));
    }
    NotifyPhase("detailed", round);
      pass_fea("detailed");
    if (util::Status s = cancelled_at("detailed"); !s.ok()) return s;
    // Legality-preserving post-optimization of detailed placement.
    if (ls.success) {
      t.Reset();
      {
        obs::TraceScope trace_refine("placer.refine");
        refiner.Run(/*passes=*/2);
      }
      result.t_detailed += t.Seconds();
      NotifyPhase("refine", round);
          pass_fea("refine");
      if (util::Status s = cancelled_at("refine"); !s.ok()) return s;
    }
    obs::MetricAdd("placer/rounds", 1);
    if (!have_best || eval_->Total() < best_objective) {
      best_placement = eval_->placement();
      best_objective = eval_->Total();
      have_best = true;
    } else {
      // Restart the next round from the best placement so a bad round
      // cannot compound (the move/swap RNG advances, so rounds still differ).
      eval_->SetPlacement(best_placement);
    }
  }
  if (have_best) eval_->SetPlacement(best_placement);
  NotifyPhase("final", -1);

  result.placement = eval_->placement();
  result.objective = eval_->Total();
  FillMetrics(nl_, params_, chip_, result.placement,
              options.with_fea ? &fea : nullptr, &result);
  fea.Report(&result);
  result.t_total = total.Seconds();

  // Net evaluations of this run (a delta: the evaluator's counter is
  // cumulative across Run calls).
  const ObjectiveEvaluator::EvalStats eval_stats_after = eval_->eval_stats();
  obs::MetricAdd("solver/netbox_rescan_evals",
                 eval_stats_after.rescan_evals - eval_stats_before.rescan_evals);

  util::LogInfo(
      "placer done: hpwl %.4g m, ilv %lld, power %.4g W, %s obj %.4g "
      "(%.2fs total, %.2fs fea over %lld solves)",
      result.hpwl_m, result.ilv_count, result.total_power_w,
      result.legal ? "legal," : "NOT LEGAL,", result.objective, result.t_total,
      result.t_fea, result.fea_solves);
  return result;
}

}  // namespace p3d::place
