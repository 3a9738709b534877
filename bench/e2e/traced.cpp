#include "traced.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "place/global_backend.h"
#include "place/legalize.h"
#include "place/moveswap.h"
#include "place/rowopt.h"
#include "place/shift.h"
#include "serve/job_engine.h"
#include "thermal/power.h"

namespace p3d::e2e {

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           double* total)
    : recorder_(recorder),
      index_(static_cast<int>(recorder.spans_.size())),
      total_(total) {
  const int parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  recorder.spans_.push_back(
      {name, recorder.clock_.Nanos(), 0, parent, recorder.job_});
  recorder.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  Span& span = recorder_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = recorder_.clock_.Nanos();
  recorder_.open_.pop_back();
  if (total_ != nullptr) {
    *total_ += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
}

obs::JsonValue SpanRecorder::ToChromeTrace() const {
  obs::JsonValue events = obs::JsonValue::MakeArray();
  for (const Span& span : spans_) {
    obs::JsonValue args = obs::JsonValue::MakeObject();
    const int parent = span.parent;
    args.Set("parent",
             parent < 0 ? "" : spans_[static_cast<std::size_t>(parent)].name);
    args.Set("job", span.job);
    obs::JsonValue ev = obs::JsonValue::MakeObject();
    ev.Set("name", span.name);
    ev.Set("ph", "X");
    ev.Set("pid", 1);
    ev.Set("tid", 1);
    ev.Set("ts", static_cast<double>(span.start_ns) * 1e-3);
    ev.Set("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    ev.Set("args", std::move(args));
    events.Push(std::move(ev));
  }
  obs::JsonValue doc = obs::JsonValue::MakeObject();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

thermal::FeaContextOptions FeaContextOptionsFor(
    const place::PlacerParams& params, const place::RunOptions& options) {
  thermal::FeaContextOptions copt;
  copt.fea.nx = params.fea_nx;
  copt.fea.ny = params.fea_ny;
  copt.fea.cg.threads = params.threads;
  copt.fea.cg.preconditioner = options.preconditioner;
  copt.warm_start = options.warm_start;
  return copt;
}

util::Status RunTracedFlow(const netlist::Netlist& nl, const JobConfig& job,
                           SpanRecorder& spans, LayerTotals* t,
                           TracedJob* out) {
  using Scope = SpanRecorder::Scope;
  {
    Scope span(spans, "place.create", &t->create_s);
    util::StatusOr<place::Placer3D> placer =
        place::Placer3D::Create(nl, job.params);
    if (!placer.ok()) return placer.status();
    out->placer = std::make_unique<place::Placer3D>(*std::move(placer));
  }
  Scope run_span(spans, "place.run", &t->run_s);
  place::ObjectiveEvaluator& eval = *out->placer->mutable_evaluator();
  const place::PlacerParams& params = eval.params();  // stack synced
  const place::Chip& chip = eval.chip();
  const place::RunOptions& opts = job.options;
  const place::ObjectiveEvaluator::EvalStats stats_before = eval.eval_stats();

  // Placer3D::Run builds its FEA context before global placement.
  if (opts.with_fea || params.fea_per_pass) {
    Scope span(spans, "thermal.fea.setup", &t->fea_setup_s);
    out->fea = std::make_unique<thermal::FeaContext>(
        params.stack, thermal::ChipExtent{chip.width(), chip.height()},
        FeaContextOptionsFor(params, opts));
  }
  const auto solve = [&](const std::vector<double>& cell_power) {
    Scope span(spans, "thermal.fea.solve", &t->fea_solve_s);
    const place::Placement& p = eval.placement();
    thermal::FeaResult r = out->fea->Solve(p.x, p.y, p.layer, cell_power);
    ++t->fea_solves;
    t->fea_iters += r.cg_iters;
    if (!r.converged) ++t->fea_nonconverged;
    return r;
  };
  const auto pass_fea = [&] {
    if (!params.fea_per_pass) return;
    const place::Placement& p = eval.placement();
    const thermal::NetMetrics metrics =
        thermal::ComputeNetMetrics(nl, p.x, p.y, p.layer);
    solve(thermal::ComputePower(nl, metrics, params.electrical).cell_power);
  };

  {
    Scope span(spans, "place.global", &t->global_s);
    util::StatusOr<std::unique_ptr<place::GlobalPlacerBackend>> backend =
        place::MakeGlobalPlacerBackend(eval);
    if (!backend.ok()) return backend.status();
    place::Placement initial;
    initial.Resize(static_cast<std::size_t>(nl.NumCells()));
    util::StatusOr<place::Placement> gp = (*backend)->Run(initial);
    if (!gp.ok()) return gp.status();
    const place::GlobalPlaceStats& stats = (*backend)->stats();
    t->global_levels += stats.bisection.levels;
    t->global_partitions += stats.bisection.partitions;
    t->global_infeasible += stats.bisection.infeasible_partitions;
    Scope set_span(spans, "place.set_placement");
    eval.SetPlacement(*gp);
  }

  // The seeds and pass order of Placer3D::Run.
  place::MoveSwapOptimizer mso(eval, params.seed ^ 0xabcdef12345ULL);
  place::CellShifter shifter(eval);
  place::DetailedLegalizer legalizer(eval);
  place::RowRefiner refiner(eval, params.seed ^ 0x5eed0123ULL);
  const auto add_moveswap = [t](const place::MoveSwapStats& s) {
    t->moveswap_proposals += s.proposals;
    t->moveswap_rejected += s.rejected;
    t->moveswap_moves += s.moves;
    t->moveswap_swaps += s.swaps;
  };

  place::Placement best_placement;
  double best_objective = 0.0;
  bool have_best = false;
  for (int round = 0; round < std::max(params.legalization_repeats, 1);
       ++round) {
    for (int i = 0; i < std::max(params.moveswap_rounds, 1); ++i) {
      {
        Scope span(spans, "place.moveswap.global", &t->moveswap_global_s);
        add_moveswap(mso.RunGlobal(params.target_region_bins));
      }
      {
        Scope span(spans, "place.moveswap.local", &t->moveswap_local_s);
        add_moveswap(mso.RunLocal());
      }
      pass_fea();
    }
    {
      Scope span(spans, "place.shift", &t->shift_s);
      const place::ShiftStats s =
          shifter.Run(params.shift_max_iters, params.shift_target_density);
      t->shift_iterations += s.iterations;
      t->shift_final_max_density =
          std::max(t->shift_final_max_density, s.final_max_density);
    }
    pass_fea();
    place::LegalizeStats ls;
    {
      Scope span(spans, "place.legalize", &t->legalize_s);
      ls = legalizer.Run();
    }
    t->legalize_squeezes += ls.squeezes;
    t->legalize_deferred += ls.deferred;
    t->legalize_max_radius_rows =
        std::max(t->legalize_max_radius_rows, ls.max_radius_rows);
    pass_fea();
    if (ls.success) {
      {
        Scope span(spans, "place.rowopt", &t->rowopt_s);
        const place::RowOptStats s = refiner.Run(/*passes=*/2);
        t->rowopt_actions += s.slides + s.reorders + s.layer_swaps;
        t->rowopt_gain += s.gain;
      }
      pass_fea();
    }
    if (!have_best || eval.Total() < best_objective) {
      best_placement = eval.placement();
      best_objective = eval.Total();
      have_best = true;
    } else {
      eval.SetPlacement(best_placement);
    }
  }
  if (have_best) eval.SetPlacement(best_placement);

  place::PlacementResult& r = out->result;
  r.placement = eval.placement();
  r.objective = eval.Total();
  const thermal::NetMetrics metrics =
      thermal::ComputeNetMetrics(nl, r.placement.x, r.placement.y,
                                 r.placement.layer);
  r.hpwl_m = metrics.total_hpwl;
  r.ilv_count = metrics.total_ilv;
  const thermal::PowerReport power =
      thermal::ComputePower(nl, metrics, params.electrical);
  r.total_power_w = power.total;
  const long long nonconverged_before = t->fea_nonconverged;
  if (opts.with_fea) {
    const thermal::FeaResult ft = solve(power.cell_power);
    r.avg_temp_c = ft.avg_cell_temp;
    r.max_temp_c = ft.max_cell_temp;
    r.fea_valid = ft.converged;
  }
  r.fea_nonconverged = t->fea_nonconverged - nonconverged_before;
  r.overlaps = place::DetailedLegalizer::CountOverlaps(nl, r.placement);
  r.legal = r.overlaps == 0;

  const place::ObjectiveEvaluator::EvalStats stats_after = eval.eval_stats();
  t->netbox_incremental +=
      stats_after.incremental_evals - stats_before.incremental_evals;
  t->netbox_rescan += stats_after.rescan_evals - stats_before.rescan_evals;
  return util::Status::Ok();
}

BatchResult RunBatch(const netlist::Netlist& nl, const Instance& in,
                     const std::vector<place::Chip>& chips, int workers) {
  const std::size_t n = in.jobs.size();
  BatchResult batch;
  batch.results.resize(n);
  batch.errors.resize(n);
  batch.job_wall_s.assign(n, 0.0);
  batch.queue_wait_s.assign(n, 0.0);

  // Declared before the engine, whose callback refers to them.
  util::Timer clock;
  std::mutex mutex;  // guards finish_s
  std::map<std::uint64_t, double> finish_s;
  // The engine's default thread budget runs concurrent jobs single-threaded
  // and lets a lone worker's job use its own thread count.
  serve::JobEngine engine(serve::JobEngineOptions{.num_workers = workers});
  engine.SetCompletionCallback(
      [&](serve::JobHandle handle, const std::string&,
          const serve::JobResult&) {
        const double now = clock.Seconds();
        std::lock_guard<std::mutex> lock(mutex);
        finish_s[handle.id] = now;
      });
  clock.Reset();  // the batch starts at the first submit

  std::vector<serve::JobHandle> handles(n);
  std::vector<double> submit_s(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    serve::JobSpec spec;
    spec.name = in.jobs[j].name;
    spec.netlist = &nl;
    spec.params = in.jobs[j].params;
    spec.options = in.jobs[j].options;
    submit_s[j] = clock.Seconds();
    util::StatusOr<serve::JobHandle> handle = engine.Submit(std::move(spec));
    if (!handle.ok()) {
      batch.errors[j] = handle.status().ToString();
      continue;
    }
    handles[j] = *handle;
  }
  engine.WaitAll();
  batch.wall_s = clock.Seconds();

  for (std::size_t j = 0; j < n; ++j) {
    if (!batch.errors[j].empty()) continue;
    const serve::JobResult* job = engine.Result(handles[j]);
    if (job == nullptr) {
      batch.errors[j] = "job has no result";
      continue;
    }
    batch.job_wall_s[j] = job->wall_s;
    {
      std::lock_guard<std::mutex> lock(mutex);
      batch.queue_wait_s[j] =
          std::max(0.0, finish_s[handles[j].id] - job->wall_s - submit_s[j]);
    }
    if (!job->status.ok()) {
      batch.errors[j] = job->status.ToString();
      continue;
    }
    batch.results[j] = job->placement;
    batch.errors[j] = CheckResult(nl, chips[j], job->placement);
  }
  const serve::JobEngine::Stats stats = engine.GetStats();
  batch.fea_cache_hits = stats.fea_cache.hits;
  batch.fea_cache_misses = stats.fea_cache.misses;
  return batch;
}

}  // namespace p3d::e2e
