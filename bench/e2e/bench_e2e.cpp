// bench_e2e — the placer's end-to-end benchmark (see README.md here).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--out DIR] [--smoke]
//
// --trace 0 sets the workload up several times, then repeats its
// placements untraced for S seconds (at least 3 repetitions) and reports the
// end-to-end metrics: medians of the set-up and placement times, and the
// quality of the placement. --trace 1 runs the workload once untraced, once
// through the traced layer-by-layer replica of Placer3D::Run, and once
// through the serve layer, then probes the kernels, and reports the
// per-layer metrics. Every placement is checked (e2e.h CheckResult), and
// the repetitions, the traced run and the served run must all produce the
// same placement bytes. --smoke shrinks the circuits to 5% and runs one
// repetition of both modes: the replica-fidelity test.
//
// Each metric prints as "workload metric value unit"; the last line of
// standard output is the JSON result {"correct", "attempted", "failed",
// "metrics"}, also written to DIR/<workload>.json (--trace 0) or
// DIR/<workload>.layers.json (--trace 1) with --out. The traced run's spans
// go to DIR/<workload>.trace.json. Exit status: 0 when every check holds,
// 1 on a correctness failure, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "e2e.h"
#include "io/synthetic.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "probes.h"
#include "serve/job_engine.h"
#include "traced.h"
#include "util/log.h"

namespace p3d::e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string out;
  bool smoke = false;
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR] [--smoke]\n"
               "workloads:",
               message);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Returns "" or a usage error.
std::string ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (args->seconds < 0.0) return "--seconds must be >= 0";
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (args->trace != 0 && args->trace != 1) return "--trace must be 0 or 1";
    } else {
      return "unknown flag " + flag;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return "bad number for " + flag + ": " + value;
    }
  }
  if (args->workload.empty()) return "--workload is required";
  return "";
}

std::string OutPath(const Args& args, const char* suffix) {
  return args.out.empty() ? "" : args.out + "/" + args.workload + suffix;
}

/// Tallies checked outcomes; each failure is reported on stderr.
struct Outcomes {
  long long attempted = 0;
  long long failed = 0;

  void Record(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), error.c_str());
  }
};

/// Generates the circuit and builds one placer per job (the chips are kept
/// for the checks); for a serve workload also constructs the engine.
/// Returns the elapsed seconds, or a negative value on error; the
/// generation alone goes to `*generate_s` when given.
double SetUp(const Instance& in, netlist::Netlist* nl,
             std::vector<place::Chip>* chips, double* generate_s = nullptr) {
  util::Timer t;
  *nl = io::Generate(in.spec);
  if (generate_s != nullptr) *generate_s = t.Seconds();
  chips->clear();
  for (const JobConfig& job : in.jobs) {
    util::StatusOr<place::Placer3D> placer =
        place::Placer3D::Create(*nl, job.params);
    if (!placer.ok()) {
      std::fprintf(stderr, "set-up: %s\n", placer.status().ToString().c_str());
      return -1.0;
    }
    chips->push_back(placer->chip());
  }
  std::optional<serve::JobEngine> engine;
  if (in.workers > 0) {
    engine.emplace(serve::JobEngineOptions{.num_workers = in.workers});
  }
  return t.Seconds();
}

/// Runs every job of `in` directly through Placer3D::Run, one after the
/// other; wall_s sums the Run calls.
BatchResult RunSerial(const netlist::Netlist& nl, const Instance& in,
                      const std::vector<place::Chip>& chips) {
  BatchResult batch;
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    // Set-up already created a placer for every job, so this one succeeds.
    place::Placer3D placer = *place::Placer3D::Create(nl, in.jobs[j].params);
    util::Timer t;
    util::StatusOr<place::PlacementResult> run = placer.Run(in.jobs[j].options);
    const double wall = t.Seconds();
    batch.wall_s += wall;
    batch.job_wall_s.push_back(wall);
    batch.queue_wait_s.push_back(0.0);
    batch.errors.push_back(run.ok() ? CheckResult(nl, chips[j], *run)
                                    : run.status().ToString());
    batch.results.push_back(run.ok() ? *std::move(run)
                                     : place::PlacementResult{});
  }
  return batch;
}

/// --trace 0: end-to-end metrics. Returns the process exit status.
int RunTimed(const Instance& in, const Args& args) {
  // Set-up is cheap next to placement, so it repeats enough for a steady
  // median.
  const int setup_reps = args.smoke ? 1 : 25;
  const int min_reps = args.smoke ? 1 : 3;
  netlist::Netlist nl;
  std::vector<place::Chip> chips;
  std::vector<double> setup_s;
  for (int k = 0; k < setup_reps; ++k) {
    const double s = SetUp(in, &nl, &chips);
    if (s < 0.0) return 1;
    setup_s.push_back(s);
  }

  Outcomes outcomes;
  std::vector<double> wall_s;
  std::vector<double> job_wall_s;
  std::vector<place::PlacementResult> first;
  util::Timer window;
  for (int rep = 0; rep < min_reps || window.Seconds() < args.seconds; ++rep) {
    BatchResult batch = in.workers > 0 ? RunBatch(nl, in, chips, in.workers)
                                       : RunSerial(nl, in, chips);
    wall_s.push_back(batch.wall_s);
    job_wall_s.insert(job_wall_s.end(), batch.job_wall_s.begin(),
                      batch.job_wall_s.end());
    for (std::size_t j = 0; j < in.jobs.size(); ++j) {
      std::string error = batch.errors[j];
      if (error.empty() && rep > 0 &&
          !SamePlacement(batch.results[j].placement, first[j].placement)) {
        error = "placement differs from repetition 1";
      }
      outcomes.Record(
          in.jobs[j].name + " repetition " + std::to_string(rep + 1), error);
    }
    if (rep == 0) first = std::move(batch.results);
  }
  const double peak_rss_mb = PeakRssMb();

  // Quality is the geometric mean over the jobs (the value itself for a
  // single job): across the sweep's weights the objective and via count span
  // orders of magnitude, and a sum would follow the few high-alpha_ILV jobs.
  double objective = 1.0, hpwl_m = 1.0, ilv = 1.0, max_temp_c = 1.0;
  for (std::size_t j = 0; j < first.size(); ++j) {
    objective *= first[j].objective;
    hpwl_m *= first[j].hpwl_m;
    ilv *= static_cast<double>(first[j].ilv_count);
    max_temp_c *= first[j].max_temp_c - in.jobs[j].params.stack.ambient_c;
  }
  const double root = 1.0 / static_cast<double>(first.size());
  const double place_s = Median(wall_s);
  std::fprintf(stderr, "%s: %zu set-ups, %zu job times; repetitions (s):",
               args.workload.c_str(), setup_s.size(), job_wall_s.size());
  for (const double s : wall_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  MetricSink sink;
  sink.Add("setup_s", Median(setup_s), "s");
  sink.Add("place_s", place_s, "s");
  sink.Add("jobs_per_s", static_cast<double>(in.jobs.size()) / place_s, "1/s");
  sink.Add("job_p50_s", Median(job_wall_s), "s");
  sink.Add("objective", std::pow(objective, root), "m");
  sink.Add("hpwl_m", std::pow(hpwl_m, root), "m");
  sink.Add("ilv_count", std::pow(ilv, root), "vias");
  sink.Add("max_temp_c", std::pow(max_temp_c, root), "C");
  sink.Add("peak_rss_mb", peak_rss_mb, "MB");
  const bool correct = outcomes.failed == 0;
  if (!sink.Print(args.workload, args.seed, 0, correct, outcomes.attempted,
                  outcomes.failed, OutPath(args, ".json"))) {
    std::fprintf(stderr, "cannot write %s\n", OutPath(args, ".json").c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

/// Writes the spans as a Chrome trace, reads the file back and validates it
/// (in memory when there is no output directory). Returns "" or the error.
std::string WriteTrace(const SpanRecorder& spans, const std::string& path) {
  std::string text = spans.ToChromeTrace().Serialize();
  if (!path.empty()) {
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
      if (!out) return "cannot write " + path;
    }
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  obs::JsonValue doc;
  std::string error;
  if (!obs::ParseJson(text, &doc, &error) ||
      !obs::ValidateChromeTrace(doc, &error)) {
    return "trace does not validate: " + error;
  }
  return "";
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// --trace 1: per-layer metrics. Returns the process exit status.
int RunTraced(const Instance& in, const Args& args) {
  SpanRecorder spans;
  Outcomes outcomes;
  netlist::Netlist nl;
  std::vector<place::Chip> chips;
  double generate_s = 0.0;
  {
    SpanRecorder::Scope span(spans, "setup");
    if (SetUp(in, &nl, &chips, &generate_s) < 0.0) return 1;
  }

  // The serve layer: the jobs as one batch on a JobEngine. Running it first
  // also warms the process up before the untraced and traced runs are
  // timed against each other.
  BatchResult served;
  {
    SpanRecorder::Scope span(spans, "serve.batch");
    served = RunBatch(nl, in, chips, std::max(in.workers, 1));
  }
  // The untraced reference: the bytes every other run must reproduce.
  const BatchResult ref = RunSerial(nl, in, chips);
  double busy_s = 0.0;
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    outcomes.Record(in.jobs[j].name + " untraced", ref.errors[j]);
    std::string error = served.errors[j];
    if (error.empty() &&
        !SamePlacement(served.results[j].placement, ref.results[j].placement)) {
      error = "served placement differs from the untraced run";
    }
    outcomes.Record(in.jobs[j].name + " served", error);
    busy_s += served.job_wall_s[j];
  }

  // The traced replica, with a metrics registry installed so the program's
  // own counters can be read.
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* previous = obs::InstallMetrics(&registry);
  LayerTotals t;
  TracedJob last;
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    spans.SetJob(static_cast<int>(j));
    TracedJob traced;
    const util::Status status =
        RunTracedFlow(nl, in.jobs[j], spans, &t, &traced);
    std::string error = status.ok() ? CheckResult(nl, chips[j], traced.result)
                                    : status.ToString();
    const place::PlacementResult& want = ref.results[j];
    if (error.empty() &&
        !SamePlacement(traced.result.placement, want.placement)) {
      error = "traced placement differs from the untraced run";
    }
    if (error.empty() && (traced.result.objective != want.objective ||
                          traced.result.max_temp_c != want.max_temp_c)) {
      error = "traced objective or temperature differs from the untraced run";
    }
    outcomes.Record(in.jobs[j].name + " traced", error);
    last = std::move(traced);
  }
  obs::InstallMetrics(previous);
  spans.SetJob(-1);

  const int delta_calls = args.smoke ? 10000 : 200000;
  const ProbeResults probes =
      last.placer != nullptr
          ? RunProbes(nl, in.jobs.back(), last, delta_calls, spans)
          : ProbeResults{};
  outcomes.Record("trace file",
                  WriteTrace(spans, OutPath(args, ".trace.json")));

  const double proposals = static_cast<double>(t.moveswap_proposals);
  const double netbox_evals =
      static_cast<double>(t.netbox_incremental + t.netbox_rescan);
  MetricSink sink;
  sink.Add("io.generate_s", generate_s, "s");
  sink.Add("place.create_s", t.create_s, "s");
  sink.Add("global.s", t.global_s, "s");
  sink.Add("global.levels", t.global_levels, "count");
  sink.Add("global.partitions", t.global_partitions, "count");
  sink.Add("global.infeasible_partitions", t.global_infeasible, "count");
  sink.Add("partition.fm_passes", registry.Counter("fm/passes"), "count");
  sink.Add("partition.bipartitions", registry.Counter("partition/bipartitions"),
           "count");
  sink.Add("moveswap.global_s", t.moveswap_global_s, "s");
  sink.Add("moveswap.local_s", t.moveswap_local_s, "s");
  sink.Add("moveswap.proposals", proposals, "count");
  sink.Add("moveswap.moves", t.moveswap_moves, "count");
  sink.Add("moveswap.swaps", t.moveswap_swaps, "count");
  sink.Add("moveswap.reject_ratio", Ratio(t.moveswap_rejected, proposals),
           "ratio");
  sink.Add("shift.s", t.shift_s, "s");
  sink.Add("shift.iterations", t.shift_iterations, "count");
  sink.Add("shift.final_max_density", t.shift_final_max_density, "ratio");
  sink.Add("shift.s_per_iter", Ratio(t.shift_s, t.shift_iterations), "s");
  sink.Add("legalize.s", t.legalize_s, "s");
  sink.Add("legalize.squeezes", t.legalize_squeezes, "count");
  sink.Add("legalize.deferred", t.legalize_deferred, "count");
  sink.Add("legalize.max_radius_rows", t.legalize_max_radius_rows, "rows");
  sink.Add("rowopt.s", t.rowopt_s, "s");
  sink.Add("rowopt.actions", t.rowopt_actions, "count");
  sink.Add("rowopt.gain", t.rowopt_gain, "m");
  sink.Add("objective.netbox_incremental_evals", t.netbox_incremental, "count");
  sink.Add("objective.netbox_rescan_evals", t.netbox_rescan, "count");
  sink.Add("objective.rescan_ratio", Ratio(t.netbox_rescan, netbox_evals),
           "ratio");
  sink.Add("objective.move_delta_ns", probes.move_delta_ns, "ns");
  sink.Add("objective.swap_delta_ns", probes.swap_delta_ns, "ns");
  sink.Add("fea.setup_s", t.fea_setup_s, "s");
  sink.Add("fea.solve_s", t.fea_solve_s, "s");
  sink.Add("fea.solves", t.fea_solves, "count");
  sink.Add("fea.iters_per_solve", Ratio(t.fea_iters, t.fea_solves), "count");
  sink.Add("fea.nonconverged", t.fea_nonconverged, "count");
  sink.Add("linalg.spmv_ms", probes.spmv_ms, "ms");
  sink.Add("linalg.spmv_gbps_computed", probes.spmv_gbps_computed, "GB/s");
  sink.Add("linalg.precond_apply_ms", probes.precond_apply_ms, "ms");
  sink.Add("linalg.mg_setup_s", probes.mg_setup_s, "s");
  sink.Add("linalg.vcycle_ms", probes.vcycle_ms, "ms");
  sink.Add("serve.queue_wait_p50_s", Median(served.queue_wait_s), "s");
  sink.Add("serve.worker_busy_ratio",
           Ratio(busy_s, std::max(in.workers, 1) * served.wall_s), "ratio");
  sink.Add("serve.fea_cache_hits", served.fea_cache_hits, "count");
  sink.Add("serve.fea_cache_misses", served.fea_cache_misses, "count");
  sink.Add("trace.overhead_ratio", Ratio(t.run_s, ref.wall_s) - 1.0, "ratio");
  const bool correct = outcomes.failed == 0;
  if (!sink.Print(args.workload, args.seed, 1, correct, outcomes.attempted,
                  outcomes.failed, OutPath(args, ".layers.json"))) {
    std::fprintf(stderr, "cannot write %s\n",
                 OutPath(args, ".layers.json").c_str());
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace p3d::e2e

int main(int argc, char** argv) {
  using namespace p3d::e2e;
  Args args;
  if (const std::string error = ParseArgs(argc, argv, &args); !error.empty()) {
    return Usage(error.c_str());
  }
  p3d::util::StatusOr<Instance> in =
      MakeInstance(args.workload, args.seed, args.smoke);
  if (!in.ok()) return Usage(in.status().message().c_str());
  if (std::error_code ec; !args.out.empty() &&
                          !std::filesystem::create_directories(args.out, ec) &&
                          ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s: %s\n",
                 args.out.c_str(), ec.message().c_str());
    return 1;
  }
  // The serve layer's anomaly monitor warns on every sweep job; the
  // benchmark reports failures itself.
  p3d::util::ScopedLogLevel quiet(p3d::util::LogLevel::kError);
  if (args.smoke) {
    args.seconds = 0.0;
    const int timed = RunTimed(*in, args);
    const int traced = RunTraced(*in, args);
    return std::max(timed, traced);
  }
  return args.trace == 1 ? RunTraced(*in, args) : RunTimed(*in, args);
}
