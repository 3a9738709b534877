#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "check/invariants.h"
#include "e2e.h"
#include "obs/json.h"

namespace p3d::e2e {
namespace {

/// Table 2 defaults on four layers, with the wire-capacitance compensation
/// every harness applies to a circuit generated at `circuit_scale` of its
/// published size (DESIGN.md substitution notes).
place::PlacerParams BaseParams(double circuit_scale) {
  place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 0.0;
  place::CompensateWireCapForScale(&params, circuit_scale);
  return params;
}

io::SyntheticSpec Shrunk(io::SyntheticSpec spec, double factor) {
  spec.num_cells = std::max<std::int32_t>(
      16, static_cast<std::int32_t>(std::lround(spec.num_cells * factor)));
  spec.total_area_m2 *= factor;
  return spec;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "ibm10_serial", "lite_2t", "ibm01_thermal", "serve_sweep"};
  return names;
}

util::StatusOr<Instance> MakeInstance(const std::string& workload,
                                      std::uint64_t seed, bool smoke) {
  const double shrink = smoke ? 0.05 : 1.0;
  Instance in;
  if (workload == "ibm10_serial") {
    // The ROADMAP reference flow (ibm10, 4 layers, alpha_ILV 1e-5, one
    // thread, one FEA solve at the end), shrunk to fit the run length.
    // Coarse legalization dominates; thermal work is negligible.
    const double scale = 0.15 * shrink;
    in.spec = io::Table1Spec("ibm10", scale);
    in.jobs.push_back({"ibm10", BaseParams(scale), {}});
  } else if (workload == "lite_2t") {
    // The scale tier's lite preset, shrunk, on two threads: exercises the
    // windowed propose/commit schedule of every legalization engine.
    const double scale = 0.15 * shrink;
    in.spec = Shrunk(io::ScaleTierSpec("lite"), scale);
    JobConfig job{"lite", BaseParams(scale), {}};
    job.params.threads = 2;
    in.jobs.push_back(job);
  } else if (workload == "ibm01_thermal") {
    // The paper's Figs. 6/8 circuit at the EXPERIMENTS.md thermal operating
    // point, re-solving FEA after every legalization pass on a fine mesh:
    // the thermal term is live in every MoveDelta and FEA dominates.
    const double scale = 0.5 * shrink;
    in.spec = io::Table1Spec("ibm01", scale);
    JobConfig job{"ibm01", BaseParams(scale), {}};
    job.params.alpha_temp = 6.4e-6;
    job.params.fea_per_pass = true;
    job.params.fea_nx = 64;
    job.params.fea_ny = 64;
    in.jobs.push_back(job);
  } else if (workload == "serve_sweep") {
    // The paper's tradeoff grid as a closed batch of small jobs submitted
    // at once: per-job fixed costs, the serve layer and the shared FEA
    // cache weigh, and the same engines run under very different weights.
    const double scale = 0.2 * shrink;
    in.spec = io::Table1Spec("ibm01", scale);
    in.workers = 3;
    for (const double alpha_ilv : {5e-9, 1.3e-6, 1e-5, 5.2e-3}) {
      for (const double alpha_temp : {1e-7, 1e-6, 4.1e-5}) {
        char name[64];
        std::snprintf(name, sizeof(name), "ilv%g_temp%g", alpha_ilv,
                      alpha_temp);
        JobConfig job{name, BaseParams(scale), {}};
        job.params.alpha_ilv = alpha_ilv;
        job.params.alpha_temp = alpha_temp;
        in.jobs.push_back(job);
      }
    }
  } else {
    return util::InvalidArgumentError("unknown workload: " + workload);
  }
  in.spec.seed = seed;
  return in;
}

std::string CheckResult(const netlist::Netlist& nl, const place::Chip& chip,
                        const place::PlacementResult& result) {
  const place::Placement& p = result.placement;
  if (p.size() != static_cast<std::size_t>(nl.NumCells())) {
    return "placement size differs from the netlist";
  }
  std::vector<check::Violation> violations;
  check::CheckFinite(nl, p, &violations);
  check::CheckLayers(nl, p, chip.num_layers(), &violations);
  check::CheckBounds(nl, chip, p, /*extents=*/true, &violations);
  check::CheckRowAlignment(nl, chip, p, &violations);
  if (!violations.empty()) {
    return violations.front().check + ": " + violations.front().message;
  }
  if (const long long overlaps = check::CountOverlapsSweep(nl, p, nullptr);
      overlaps != 0) {
    return std::to_string(overlaps) + " overlapping cell pairs";
  }
  if (!result.legal) return "the placer reports the placement as not legal";
  if (!result.fea_valid || result.fea_nonconverged != 0) {
    return "an FEA solve did not converge";
  }

  double hpwl = 0.0;
  long long ilv = 0;
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    double x_lo = 0.0, x_hi = 0.0, y_lo = 0.0, y_hi = 0.0;
    int l_lo = 0, l_hi = 0;
    bool first = true;
    for (const netlist::Pin& pin : nl.NetPins(n)) {
      const std::size_t c = static_cast<std::size_t>(pin.cell);
      const double x = p.x[c] + pin.dx;
      const double y = p.y[c] + pin.dy;
      const int l = p.layer[c];
      if (first) {
        x_lo = x_hi = x;
        y_lo = y_hi = y;
        l_lo = l_hi = l;
        first = false;
        continue;
      }
      x_lo = std::min(x_lo, x);
      x_hi = std::max(x_hi, x);
      y_lo = std::min(y_lo, y);
      y_hi = std::max(y_hi, y);
      l_lo = std::min(l_lo, l);
      l_hi = std::max(l_hi, l);
    }
    hpwl += (x_hi - x_lo) + (y_hi - y_lo);
    ilv += l_hi - l_lo;
  }
  if (ilv != result.ilv_count) {
    return "reported ILV " + std::to_string(result.ilv_count) +
           " != recomputed " + std::to_string(ilv);
  }
  if (std::fabs(hpwl - result.hpwl_m) > 1e-9 * std::fabs(hpwl)) {
    char msg[128];
    std::snprintf(msg, sizeof(msg), "reported HPWL %.17g != recomputed %.17g",
                  result.hpwl_m, hpwl);
    return msg;
  }
  return "";
}

bool SamePlacement(const place::Placement& a, const place::Placement& b) {
  const auto same = [](const auto& u, const auto& v) {
    return u.size() == v.size() &&
           (u.empty() ||
            std::memcmp(u.data(), v.data(), u.size() * sizeof(u[0])) == 0);
  };
  return same(a.x, b.x) && same(a.y, b.y) && same(a.layer, b.layer);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

void MetricSink::Add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

bool MetricSink::Print(const std::string& workload, std::uint64_t seed,
                       int trace, bool correct, long long attempted,
                       long long failed, const std::string& out_path) const {
  obs::JsonValue metrics = obs::JsonValue::MakeObject();
  for (const Metric& m : metrics_) {
    std::printf("%s %s %.10g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
    obs::JsonValue entry = obs::JsonValue::MakeObject();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    metrics.Set(m.name, std::move(entry));
  }
  obs::JsonValue result = obs::JsonValue::MakeObject();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", metrics);
  std::printf("%s\n", result.Serialize().c_str());
  std::fflush(stdout);
  if (out_path.empty()) return true;

  obs::JsonValue doc = obs::JsonValue::MakeObject();
  doc.Set("workload", workload);
  doc.Set("seed", seed);
  doc.Set("trace", trace);
  for (auto& [key, value] : result.AsObject()) doc.Set(key, value);
  const std::string text = doc.SerializePretty() + "\n";
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace p3d::e2e
