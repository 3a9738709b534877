// placer3d — command-line front end.
//
// Places a Bookshelf design or a generated Table-1 circuit with the full
// thermal/via-aware flow and writes any combination of: an extended .pl, an
// SVG visualization (structure or thermal view), and a text quality report.
//
// Usage:
//   placer3d_cli [options]
//     --circuit NAME|-        ibm01..ibm18 synthetic circuit (default ibm01)
//     --aux PATH              load a Bookshelf .aux instead of --circuit
//     --scale S               synthetic circuit scale (default 0.05)
//     --layers N              active layers (default 4)
//     --alpha-ilv V           interlayer via coefficient (default 1e-5)
//     --alpha-temp V          thermal coefficient (default 0)
//     --seed N                placer seed
//     --threads N             worker threads (0 = all hardware threads);
//                             results are identical for any thread count
//     --legalize-threads N    worker threads for the windowed coarse
//                             legalization schedule (0 = inherit --threads)
//     --legalize-window N     coarse-legalization window edge, in bins
//                             (default 8, min 2)
//     --out-pl PATH           write extended .pl
//     --export-bookshelf DIR  write the circuit + placement as a complete
//                             Bookshelf design (aux/nodes/nets/pl/scl)
//     --out-svg PATH          write layer-panel SVG (structure view)
//     --out-thermal-svg PATH  write SVG colored by FEA cell temperature
//     --report                print the placement quality report
//     --trace PATH            write a Chrome trace-event JSON of every event
//                             of the run (open in Perfetto /
//                             chrome://tracing); it is also the black box
//     --metrics PATH          write the machine-readable run report
//                             (report.json: params, per-phase Eq. 3 series,
//                             QoR, timings, full metrics snapshot)
//     --audit LEVEL           off|phase|paranoid — verify invariants at every
//                             phase boundary (paranoid also replays every
//                             committed move); exits 3 on any violation
//     --blackbox PATH         flight-recorder black box: the last N events
//                             per thread (every event with --trace)
//                             auto-dump to PATH as a Chrome trace
//                             on audit violations and fatal signals
//     --no-fea                skip the FEA temperature solve
//     --fea-per-pass          re-solve thermal FEA after every legalization
//                             pass (observational; every solve reuses the
//                             run's cached FEA assembly)
//     --fea-precond NAME      FEA preconditioner: jacobi|ic0|multigrid
//                             (default ic0)
//     --quiet                 errors only
//
// Every --flag also accepts the --flag=value spelling.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "check/audit.h"
#include "io/bookshelf.h"
#include "io/svg.h"
#include "io/synthetic.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/ring.h"
#include "place/instrument.h"
#include "place/monitor.h"
#include "place/placer.h"
#include "place/report.h"
#include "thermal/fea.h"
#include "thermal/power.h"
#include "util/log.h"
#include "util/status.h"

namespace {

struct Args {
  std::string circuit = "ibm01";
  std::string aux;
  double scale = 0.05;
  int layers = 4;
  double alpha_ilv = 1e-5;
  double alpha_temp = 0.0;
  std::uint64_t seed = 12345;
  int threads = 1;
  int legalize_threads = 0;
  int legalize_window = 8;
  std::string out_pl;
  std::string export_dir;
  std::string out_svg;
  std::string out_thermal_svg;
  std::string trace_path;
  std::string metrics_path;
  std::string blackbox_path;
  bool report = false;
  bool fea = true;
  bool fea_per_pass = false;
  p3d::linalg::PreconditionerKind fea_precond =
      p3d::linalg::PreconditionerKind::kIc0;
  bool quiet = false;
  p3d::place::AuditLevel audit = p3d::place::AuditLevel::kOff;
};

void PrintUsage() {
  std::puts(
      "usage: placer3d_cli [--circuit ibmXX | --aux design.aux] [--scale S]\n"
      "                    [--layers N] [--alpha-ilv V] [--alpha-temp V]\n"
      "                    [--seed N] [--threads N] [--legalize-threads N]\n"
      "                    [--legalize-window N] [--out-pl F] [--out-svg F]\n"
      "                    [--out-thermal-svg F] [--report] [--no-fea]\n"
      "                    [--fea-per-pass] [--fea-precond jacobi|ic0|multigrid]\n"
      "                    [--trace F] [--metrics F] [--blackbox F]\n"
      "                    [--audit off|phase|paranoid] [--quiet]");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    // Accept both "--flag value" and "--flag=value".
    std::string inline_value;
    bool has_inline = false;
    if (a.size() > 2 && a[0] == '-' && a[1] == '-') {
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&](const char* flag) -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (a == "--circuit") {
      const char* v = next("--circuit");
      if (!v) return false;
      args->circuit = v;
    } else if (a == "--aux") {
      const char* v = next("--aux");
      if (!v) return false;
      args->aux = v;
    } else if (a == "--scale") {
      const char* v = next("--scale");
      if (!v) return false;
      args->scale = std::atof(v);
    } else if (a == "--layers") {
      const char* v = next("--layers");
      if (!v) return false;
      args->layers = std::atoi(v);
    } else if (a == "--alpha-ilv") {
      const char* v = next("--alpha-ilv");
      if (!v) return false;
      args->alpha_ilv = std::atof(v);
    } else if (a == "--alpha-temp") {
      const char* v = next("--alpha-temp");
      if (!v) return false;
      args->alpha_temp = std::atof(v);
    } else if (a == "--seed") {
      const char* v = next("--seed");
      if (!v) return false;
      args->seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (a == "--threads") {
      const char* v = next("--threads");
      if (!v) return false;
      args->threads = std::atoi(v);
    } else if (a == "--legalize-threads") {
      const char* v = next("--legalize-threads");
      if (!v) return false;
      args->legalize_threads = std::atoi(v);
    } else if (a == "--legalize-window") {
      const char* v = next("--legalize-window");
      if (!v) return false;
      args->legalize_window = std::atoi(v);
    } else if (a == "--export-bookshelf") {
      const char* v = next("--export-bookshelf");
      if (!v) return false;
      args->export_dir = v;
    } else if (a == "--out-pl") {
      const char* v = next("--out-pl");
      if (!v) return false;
      args->out_pl = v;
    } else if (a == "--out-svg") {
      const char* v = next("--out-svg");
      if (!v) return false;
      args->out_svg = v;
    } else if (a == "--out-thermal-svg") {
      const char* v = next("--out-thermal-svg");
      if (!v) return false;
      args->out_thermal_svg = v;
    } else if (a == "--trace") {
      const char* v = next("--trace");
      if (!v) return false;
      args->trace_path = v;
    } else if (a == "--metrics") {
      const char* v = next("--metrics");
      if (!v) return false;
      args->metrics_path = v;
    } else if (a == "--blackbox") {
      const char* v = next("--blackbox");
      if (!v) return false;
      args->blackbox_path = v;
    } else if (a == "--audit") {
      const char* v = next("--audit");
      if (!v) return false;
      const std::string level = v;
      if (level == "off") {
        args->audit = p3d::place::AuditLevel::kOff;
      } else if (level == "phase") {
        args->audit = p3d::place::AuditLevel::kPhase;
      } else if (level == "paranoid") {
        args->audit = p3d::place::AuditLevel::kParanoid;
      } else {
        std::fprintf(stderr, "bad --audit level: %s\n", v);
        return false;
      }
    } else if (a == "--report") {
      args->report = true;
    } else if (a == "--no-fea") {
      args->fea = false;
    } else if (a == "--fea-per-pass") {
      args->fea_per_pass = true;
    } else if (a == "--fea-precond") {
      const char* v = next("--fea-precond");
      if (!v) return false;
      const std::string kind = v;
      if (kind == "jacobi") {
        args->fea_precond = p3d::linalg::PreconditionerKind::kJacobi;
      } else if (kind == "ic0") {
        args->fea_precond = p3d::linalg::PreconditionerKind::kIc0;
      } else if (kind == "multigrid") {
        args->fea_precond = p3d::linalg::PreconditionerKind::kMultigrid;
      } else {
        std::fprintf(stderr, "bad --fea-precond kind: %s\n", v);
        return false;
      }
    } else if (a == "--quiet") {
      args->quiet = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      PrintUsage();
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  p3d::util::SetLogLevel(args.quiet ? p3d::util::LogLevel::kError
                                    : p3d::util::LogLevel::kInfo);

  // --- load or generate the circuit -------------------------------------
  // Exit codes: 0 success, 1 runtime/input error, 2 usage error, 3 audit
  // violation. Library Status errors map onto 1 (2 when the argument itself
  // was unusable).
  p3d::netlist::Netlist netlist;
  if (!args.aux.empty()) {
    p3d::io::BookshelfDesign design;
    if (const p3d::util::Status s =
            p3d::io::LoadBookshelf(args.aux, 1e-6, &design);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return s.code() == p3d::util::StatusCode::kInvalidArgument ? 2 : 1;
    }
    netlist = std::move(design.netlist);
  } else {
    try {
      netlist = p3d::io::Generate(p3d::io::Table1Spec(args.circuit, args.scale));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }
  std::printf("circuit: %d cells, %d nets, %d pins\n", netlist.NumCells(),
              netlist.NumNets(), netlist.NumPins());

  // --- place ---------------------------------------------------------------
  p3d::place::PlacerParams params;
  params.num_layers = args.layers;
  params.alpha_ilv = args.alpha_ilv;
  params.alpha_temp = args.alpha_temp;
  params.seed = args.seed;
  params.threads = args.threads;
  params.legalize_threads = args.legalize_threads;
  params.legalize_window_bins = args.legalize_window;
  params.fea_per_pass = args.fea_per_pass;
  params.audit_level = args.audit;
  if (args.aux.empty()) {
    p3d::place::CompensateWireCapForScale(&params, args.scale);
  }
  p3d::util::StatusOr<p3d::place::Placer3D> placer_or =
      p3d::place::Placer3D::Create(netlist, params);
  if (!placer_or.ok()) {
    std::fprintf(stderr, "%s\n", placer_or.status().ToString().c_str());
    return placer_or.status().code() == p3d::util::StatusCode::kInvalidArgument
               ? 2
               : 1;
  }
  p3d::place::Placer3D& placer = *placer_or;
  std::unique_ptr<p3d::check::PlacementAuditor> auditor;
  if (args.audit != p3d::place::AuditLevel::kOff) {
    auditor = std::make_unique<p3d::check::PlacementAuditor>(netlist,
                                                             args.audit);
    auditor->Attach(&placer);
  }

  // Black box: always on — recording costs a few relaxed stores per phase
  // span and never perturbs placement. With --blackbox the last N events
  // per thread auto-dump on audit violations and fatal signals. --trace
  // keeps every event instead, and writes them all after the run.
  p3d::obs::RingOptions ring_options;
  if (!args.trace_path.empty()) ring_options.capacity_per_thread = 0;
  static p3d::obs::RingRecorder ring(ring_options);  // outlives every return
  p3d::obs::InstallRingRecorder(&ring);
  if (!args.blackbox_path.empty()) {
    if (!p3d::obs::SetBlackBoxPath(args.blackbox_path)) {
      std::fprintf(stderr, "invalid --blackbox path\n");
      return 2;
    }
    p3d::obs::InstallCrashHandler();
  }

  // Metrics: installed only on request. Observers are additive, so the
  // sampler coexists with the auditor's phase hook and the convergence
  // anomaly monitor.
  p3d::obs::MetricsRegistry metrics;
  p3d::place::PhaseMetricsSampler sampler;
  p3d::place::AnomalyMonitor monitor;
  if (!args.trace_path.empty() || !args.metrics_path.empty()) {
    p3d::obs::InstallMetrics(&metrics);
    placer.AddPhaseObserver(&sampler);
    placer.AddPhaseObserver(&monitor);
  }

  p3d::place::RunOptions run_opts;
  run_opts.with_fea = args.fea || !args.out_thermal_svg.empty();
  run_opts.preconditioner = args.fea_precond;
  p3d::util::StatusOr<p3d::place::PlacementResult> result_or =
      placer.Run(run_opts);
  if (!result_or.ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
    return 1;
  }
  const p3d::place::PlacementResult& r = *result_or;

  p3d::obs::InstallMetrics(nullptr);
  if (!args.trace_path.empty()) {
    if (!ring.DumpToFile(args.trace_path.c_str(), "trace")) {
      std::fprintf(stderr, "failed to write %s\n", args.trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu events)\n", args.trace_path.c_str(),
                ring.NumEvents());
  }
  if (!args.metrics_path.empty()) {
    p3d::obs::RunReport report;
    report.circuit = args.aux.empty() ? args.circuit : args.aux;
    report.cells = netlist.NumCells();
    report.nets = netlist.NumNets();
    report.pins = netlist.NumPins();
    if (args.aux.empty()) report.params.emplace_back("scale", args.scale);
    report.params.emplace_back("layers", args.layers);
    report.params.emplace_back("alpha_ilv", args.alpha_ilv);
    report.params.emplace_back("alpha_temp", args.alpha_temp);
    report.params.emplace_back("seed", args.seed);
    report.params.emplace_back("threads", args.threads);
    report.params.emplace_back("legalize_threads", args.legalize_threads);
    report.params.emplace_back("legalize_window", args.legalize_window);
    report.params.emplace_back("fea_per_pass", args.fea_per_pass);
    report.phases = sampler.samples();
    report.qor.emplace_back("hpwl_m", r.hpwl_m);
    report.qor.emplace_back("ilv", r.ilv_count);
    report.qor.emplace_back("ilv_density_per_m2", r.ilv_density);
    report.qor.emplace_back("objective", r.objective);
    report.qor.emplace_back("power_w", r.total_power_w);
    report.qor.emplace_back("legal", r.legal);
    report.qor.emplace_back("overlaps", r.overlaps);
    report.qor.emplace_back("fea_nonconverged", r.fea_nonconverged);
    if (r.fea_valid) {
      report.qor.emplace_back("avg_temp_c", r.avg_temp_c);
      report.qor.emplace_back("max_temp_c", r.max_temp_c);
    }
    report.timings.emplace_back("global_s", r.t_global);
    report.timings.emplace_back("coarse_s", r.t_coarse);
    report.timings.emplace_back("detailed_s", r.t_detailed);
    report.timings.emplace_back("total_s", r.t_total);
    report.metrics = &metrics;
    if (!report.Write(args.metrics_path)) {
      std::fprintf(stderr, "failed to write %s\n", args.metrics_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.metrics_path.c_str());
  }

  std::printf("result: hpwl %.5g m | %lld vias | %.5g W | %s\n", r.hpwl_m,
              r.ilv_count, r.total_power_w, r.legal ? "legal" : "NOT LEGAL");
  if (auditor != nullptr) {
    std::fputs(auditor->report().Summary().c_str(), stdout);
    if (!auditor->ok()) return 3;
  }
  if (r.fea_valid) {
    std::printf("temps:  avg %.2f C, max %.2f C above ambient\n",
                r.avg_temp_c, r.max_temp_c);
  }

  // --- outputs ----------------------------------------------------------------
  if (args.report) {
    const auto report = p3d::place::AnalyzePlacement(netlist, placer.chip(),
                                                     params, r.placement);
    std::fputs(p3d::place::FormatReport(report).c_str(), stdout);
  }
  if (!args.out_pl.empty()) {
    if (!p3d::io::WritePlFile(args.out_pl, netlist, r.placement.x,
                              r.placement.y, r.placement.layer, 1e-6)) {
      return 1;
    }
    std::printf("wrote %s\n", args.out_pl.c_str());
  }
  if (!args.export_dir.empty()) {
    const std::string base = args.aux.empty() ? args.circuit : "design";
    if (!p3d::io::WriteBookshelf(args.export_dir, base, netlist, 1e-6,
                                 &placer.chip(), &r.placement)) {
      return 1;
    }
    std::printf("wrote %s/%s.{aux,nodes,nets,pl,scl}\n",
                args.export_dir.c_str(), base.c_str());
  }
  if (!args.out_svg.empty()) {
    p3d::io::SvgOptions opt;
    opt.title = "placer3d: " + (args.aux.empty() ? args.circuit : args.aux);
    if (!p3d::io::WritePlacementSvg(args.out_svg, netlist, placer.chip(),
                                    r.placement, opt)) {
      return 1;
    }
    std::printf("wrote %s\n", args.out_svg.c_str());
  }
  if (!args.out_thermal_svg.empty()) {
    // Per-cell FEA temperatures drive the color ramp.
    const auto metrics = p3d::thermal::ComputeNetMetrics(
        netlist, r.placement.x, r.placement.y, r.placement.layer);
    const auto power =
        p3d::thermal::ComputePower(netlist, metrics, params.electrical);
    p3d::place::PlacerParams synced = params;
    synced.SyncStack();
    const p3d::thermal::FeaSolver fea(
        synced.stack,
        p3d::thermal::ChipExtent{placer.chip().width(), placer.chip().height()},
        p3d::place::FeaOptionsFor(synced, run_opts));
    const auto ft = fea.Solve(r.placement.x, r.placement.y, r.placement.layer,
                              power.cell_power);
    p3d::io::SvgOptions opt;
    opt.title = "placer3d thermal view (blue=cool, red=hot)";
    opt.cell_scalar = ft.cell_temp;
    if (!p3d::io::WritePlacementSvg(args.out_thermal_svg, netlist,
                                    placer.chip(), r.placement, opt)) {
      return 1;
    }
    std::printf("wrote %s\n", args.out_thermal_svg.c_str());
  }
  return r.legal ? 0 : 1;
}
