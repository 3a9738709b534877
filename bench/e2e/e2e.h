// Shared pieces of the end-to-end benchmark (bench_e2e): the workload
// definitions, the correctness checks applied to every placement, and the
// metric list every mode prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/synthetic.h"
#include "netlist/netlist.h"
#include "place/chip.h"
#include "place/placer.h"
#include "util/status.h"

namespace p3d::e2e {

/// One placement a workload asks for: the arguments of one Placer3D::Run
/// call, or of one serve::JobEngine job.
struct JobConfig {
  std::string name;
  place::PlacerParams params;
  place::RunOptions options;
};

/// A workload made concrete for one seed: the synthetic circuit and the
/// placements to run on it.
struct Instance {
  io::SyntheticSpec spec;
  std::vector<JobConfig> jobs;
  /// > 0: the jobs run together as one batch on a serve::JobEngine with this
  /// many workers. 0: each job is a direct Placer3D::Run.
  int workers = 0;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds `workload` for generator seed `seed`. `smoke` shrinks every
/// circuit to 5% of its benchmark size. kInvalidArgument on an unknown name.
util::StatusOr<Instance> MakeInstance(const std::string& workload,
                                      std::uint64_t seed, bool smoke);

/// Checks a finished placement without trusting the placer's own report:
/// every movable cell in bounds, row-aligned, on a valid layer, and free of
/// overlaps (plane sweep); the final FEA solve converged; and HPWL and ILV,
/// recomputed here from the pins, equal the reported values. Returns "" when
/// all hold, else the first failure.
std::string CheckResult(const netlist::Netlist& nl, const place::Chip& chip,
                        const place::PlacementResult& result);

/// Byte equality of two placements (x, y and layer arrays).
bool SamePlacement(const place::Placement& a, const place::Placement& b);

double Median(std::vector<double> values);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// The metrics one run reports, in insertion order. Print() writes one
/// "workload metric value unit" line per metric, then the JSON result line,
/// which is always the last line of standard output.
class MetricSink {
 public:
  void Add(std::string name, double value, std::string unit);

  /// Prints the metric lines and the result line; when `out_path` is not
  /// empty, also writes the result (plus workload, seed and trace) there.
  /// Returns false when the file cannot be written.
  bool Print(const std::string& workload, std::uint64_t seed, int trace,
             bool correct, long long attempted, long long failed,
             const std::string& out_path) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace p3d::e2e
