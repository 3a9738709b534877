// The traced side of bench_e2e: spans recorded by the benchmark around its
// own calls into each layer, a replica of Placer3D::Run that drives those
// layers one public call at a time, and the serve-layer batch runner.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "e2e.h"
#include "obs/json.h"
#include "place/placer.h"
#include "thermal/fea.h"
#include "util/status.h"
#include "util/timer.h"

namespace p3d::e2e {

/// In-memory span list: name, start, end, parent span and job id. Written
/// out once, as a Chrome trace, when the benchmark ends. Single-threaded:
/// spans are recorded only around calls made from the benchmark's thread.
class SpanRecorder {
 public:
  /// RAII span; on close adds its duration in seconds to `*total` if given.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, double* total = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    const int index_;
    double* const total_;
  };

  /// Tags the spans opened from now on with job id `job` (-1: no job).
  void SetJob(int job) { job_ = job; }

  /// Chrome trace-event document ("X" events, microsecond timestamps) with
  /// each span's parent name and job id in its args.
  obs::JsonValue ToChromeTrace() const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans_, -1 at the root
    int job;
  };

  util::Timer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int job_ = -1;
};

/// The FEA context options Placer3D::Run builds for these parameters.
thermal::FeaContextOptions FeaContextOptionsFor(
    const place::PlacerParams& params, const place::RunOptions& options);

/// Per-layer totals of the traced flows, summed over a workload's jobs.
struct LayerTotals {
  double create_s = 0.0;
  double run_s = 0.0;  // the traced equivalent of Placer3D::Run
  double global_s = 0.0;
  double moveswap_global_s = 0.0;
  double moveswap_local_s = 0.0;
  double shift_s = 0.0;
  double legalize_s = 0.0;
  double rowopt_s = 0.0;
  double fea_setup_s = 0.0;
  double fea_solve_s = 0.0;

  long long global_levels = 0;
  long long global_partitions = 0;
  long long global_infeasible = 0;
  long long moveswap_proposals = 0;
  long long moveswap_rejected = 0;
  long long moveswap_moves = 0;
  long long moveswap_swaps = 0;
  long long shift_iterations = 0;
  double shift_final_max_density = 0.0;  // max over jobs
  long long legalize_squeezes = 0;
  long long legalize_deferred = 0;
  int legalize_max_radius_rows = 0;      // max over jobs
  long long rowopt_actions = 0;
  double rowopt_gain = 0.0;
  long long netbox_incremental = 0;
  long long netbox_rescan = 0;
  long long fea_solves = 0;
  long long fea_iters = 0;
  long long fea_nonconverged = 0;
};

/// What a traced flow leaves behind for the kernel probes.
struct TracedJob {
  place::PlacementResult result;
  std::unique_ptr<place::Placer3D> placer;  // evaluator holds the final state
  std::unique_ptr<thermal::FeaContext> fea;
};

/// Runs `job` the way Placer3D::Run does (src/place/placer.cpp), but one
/// public layer call at a time with a span around each: Placer3D::Create,
/// the global backend, SetPlacement, moves/swaps (global then local), cell
/// shifting, detailed legalization, RowRefiner::Run(2), and the FEA solves
/// after each pass (fea_per_pass) and at the end. Uses the same move-engine
/// seeds and pass order, so the placement must match Run's byte for byte.
/// Mirrors the option set the workloads use: the solver cache and warm
/// starts on, no per-phase FEA, the bisection or analytic backend.
util::Status RunTracedFlow(const netlist::Netlist& nl, const JobConfig& job,
                           SpanRecorder& spans, LayerTotals* totals,
                           TracedJob* out);

/// One closed batch on a fresh serve::JobEngine: every job of `in` is
/// submitted at once, and a completion callback timestamps each finish.
struct BatchResult {
  double wall_s = 0.0;              // first submit to the last completion
  std::vector<place::PlacementResult> results;  // per job, in `in` order
  std::vector<std::string> errors;  // per job: status or check failure
  std::vector<double> job_wall_s;   // JobResult::wall_s per job
  std::vector<double> queue_wait_s; // per job: start minus submit
  long long fea_cache_hits = 0;
  long long fea_cache_misses = 0;
};
BatchResult RunBatch(const netlist::Netlist& nl, const Instance& in,
                     const std::vector<place::Chip>& chips, int workers);

}  // namespace p3d::e2e
