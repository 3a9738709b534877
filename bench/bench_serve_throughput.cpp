// Serve-engine throughput harness.
//
// Runs one fixed alpha_ILV x alpha_TEMP sweep over ibm01 through
// serve::JobEngine at 1, 2, 4, and 8 workers and measures batch throughput
// (jobs/sec). Every job solves FEA over the same chip geometry, so the
// cross-job FeaAssemblyCache should build the stiffness matrix + multigrid
// hierarchy exactly once per engine and hit for every later job.
//
// Three gates ride on the output (scripts/check_bench_regression.py,
// baseline bench/baselines/serve_throughput.json):
//   * placements_identical — the engine's determinism contract. Every
//     worker count must reproduce the 1-worker per-job placements AND
//     per-job deterministic metric dumps to the byte; the harness exits
//     non-zero the moment any job drifts.
//   * cache_warm — the FEA-cache hit rate must be > 0 (the sweep shares one
//     geometry, so anything less means the cache key or sharing broke).
//   * scaling_ok — the throughput claim: on hosts with >= 4 hardware
//     threads, 4 workers must move >= 2x the jobs/sec of 1 worker; smaller
//     hosts pass vacuously (hw_threads records which case applied).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/batch.h"
#include "serve/job_engine.h"
#include "util/timer.h"

namespace {

struct JobSnapshot {
  std::string name;
  std::vector<double> x, y;
  std::vector<int> layer;
  std::string metrics_dump;
};

}  // namespace

int main() {
  p3d::bench::BenchSetup setup(
      "serve_throughput",
      "Serve engine: concurrent job throughput and FEA-cache sharing");

  const auto spec = p3d::bench::Ibm01();
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);

  p3d::serve::SweepSpec sweep;
  sweep.netlist = &nl;
  sweep.circuit = spec.name;
  sweep.circuit_scale = p3d::bench::Scale();
  sweep.base = p3d::bench::BaseParams();
  sweep.options.with_fea = true;
  if (p3d::bench::Fast()) {
    sweep.alpha_ilv = {1e-5, 5.2e-3};
    sweep.alpha_temp = {1e-6, 4.1e-5};
  } else {
    sweep.alpha_ilv = {5e-9, 1.3e-6, 1e-5, 5.2e-3};
    sweep.alpha_temp = {1e-7, 1e-6, 4.1e-5};
  }
  const std::size_t num_jobs =
      sweep.alpha_ilv.size() * sweep.alpha_temp.size();

  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> worker_counts = {1, 2, 4, 8};

  std::printf("%-8s %-8s %-10s %-12s %-8s %-8s %-10s\n", "workers", "jobs",
              "wall_s", "jobs_per_s", "hits", "misses", "identical");
  std::vector<JobSnapshot> reference;
  std::vector<double> wall_times;
  double speedup_4w = 0.0;
  double hit_rate_4w = 0.0;
  bool all_identical = true;
  for (const int workers : worker_counts) {
    p3d::serve::JobEngineOptions opts;
    opts.num_workers = workers;
    // Budget every job to one inner thread at EVERY worker count, so the
    // 1-worker reference runs the exact same per-job configuration the
    // concurrent runs do and the speedup isolates job-level parallelism.
    opts.thread_budget = 1;
    p3d::serve::JobEngine engine(opts);

    p3d::util::Timer timer;
    const auto points = p3d::serve::RunSweep(engine, sweep);
    const double wall_s = timer.Seconds();
    if (!points.ok()) {
      std::fprintf(stderr, "FAIL: sweep: %s\n",
                   points.status().ToString().c_str());
      return 1;
    }

    bool identical = true;
    for (std::size_t i = 0; i < points->size(); ++i) {
      const p3d::serve::SweepPoint& point = (*points)[i];
      if (point.result == nullptr || !point.result->status.ok()) {
        std::fprintf(stderr, "FAIL: job %s: %s\n", point.name.c_str(),
                     point.result == nullptr
                         ? "no result"
                         : point.result->status.ToString().c_str());
        return 1;
      }
      const auto& placement = point.result->placement.placement;
      if (workers == worker_counts.front()) {
        reference.push_back({point.name, placement.x, placement.y,
                             placement.layer,
                             point.result->metrics_dump});
      } else {
        const JobSnapshot& ref = reference[i];
        const bool same = point.name == ref.name && placement.x == ref.x &&
                          placement.y == ref.y &&
                          placement.layer == ref.layer &&
                          point.result->metrics_dump == ref.metrics_dump;
        identical = identical && same;
      }
    }
    all_identical = all_identical && identical;

    const auto stats = engine.GetStats();
    const long long lookups = stats.fea_cache.hits + stats.fea_cache.misses;
    const double hit_rate =
        lookups > 0 ? static_cast<double>(stats.fea_cache.hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    const double jobs_per_sec =
        wall_s > 0.0 ? static_cast<double>(num_jobs) / wall_s : 0.0;
    wall_times.push_back(wall_s);
    if (workers == 4) {
      speedup_4w = wall_s > 0.0 ? wall_times.front() / wall_s : 0.0;
      hit_rate_4w = hit_rate;
    }
    std::printf("%-8d %-8zu %-10.3f %-12.2f %-8lld %-8lld %-10s\n", workers,
                num_jobs, wall_s, jobs_per_sec, stats.fea_cache.hits,
                stats.fea_cache.misses, identical ? "yes" : "NO");
    std::fflush(stdout);
    setup.Row({{"workers", workers},
               {"jobs", static_cast<long long>(num_jobs)},
               {"wall_s", wall_s},
               {"jobs_per_sec", jobs_per_sec},
               {"fea_cache_hits", stats.fea_cache.hits},
               {"fea_cache_misses", stats.fea_cache.misses},
               {"fea_cache_hit_rate", hit_rate},
               {"identical", identical}});
  }

  const bool cache_warm = hit_rate_4w > 0.0;
  // The >= 2x-at-4-workers acceptance only means something when the host
  // actually has 4 hardware threads to run on.
  const bool scaling_ok = hw_threads < 4 || speedup_4w >= 2.0;
  std::printf("\n# speedup at 4 workers: %.2fx (hw threads: %d)  "
              "fea cache hit rate: %.2f  placements %s\n",
              speedup_4w, hw_threads, hit_rate_4w,
              all_identical ? "byte-identical" : "DIFFER (BUG)");
  setup.Row({{"hw_threads", hw_threads},
             {"speedup_4w", speedup_4w},
             {"fea_cache_hit_rate_4w", hit_rate_4w},
             {"placements_identical", all_identical},
             {"cache_warm", cache_warm},
             {"scaling_ok", scaling_ok}});
  setup.recorder.Flush();

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: worker count changed per-job placement bytes\n");
    return 1;
  }
  if (!cache_warm) {
    std::fprintf(stderr, "FAIL: FEA cache never hit across the sweep\n");
    return 1;
  }
  return 0;
}
