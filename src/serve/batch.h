// Batch front-ends over the JobEngine: sweep expansion and the batch report.
//
// BatchSweep expands a (alpha_ILV x alpha_TEMP x layers) grid — the paper's
// Figs. 3/4/8 tradeoff space — into one JobSpec per grid point and runs them
// through an engine, replacing the serial loops of
// examples/tradeoff_explorer.cpp. Grid expansion order (layers outer,
// alpha_ilv middle, alpha_temp inner) and per-point seeds are pure functions
// of the sweep spec, so results are independent of worker count.
//
// The batch report ("placer3d.batch_report" v1) aggregates the engine's
// counters and every job's per-job run report ("placer3d.run_report" v1,
// embedded verbatim) into one machine-readable document; ValidateBatchReport
// is the C++ schema check mirrored by scripts/check_report.py --batch.
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"
#include "serve/job_engine.h"
#include "util/status.h"

namespace p3d::serve {

inline constexpr const char* kBatchReportSchema = "placer3d.batch_report";
inline constexpr int kBatchReportVersion = 1;

struct SweepSpec {
  const netlist::Netlist* netlist = nullptr;  // must outlive the engine
  std::string circuit;        // reporting label
  double circuit_scale = 1.0;  // reporting label (netlist generation scale)
  place::PlacerParams base;   // every grid point starts from this
  place::RunOptions options;  // with_fea and FEA options for every point

  // Grid axes; an empty axis means "the base value only".
  std::vector<int> layers;
  std::vector<double> alpha_ilv;
  std::vector<double> alpha_temp;
};

struct SweepPoint {
  std::string name;  // "L<layers>_ilv<val>_temp<val>"
  int layers = 0;
  double alpha_ilv = 0.0;
  double alpha_temp = 0.0;
  JobHandle handle;
  const JobResult* result = nullptr;  // owned by the engine
};

/// Expands the grid, submits every point to `engine`, waits for all of them,
/// and returns the points in grid order with their results attached.
/// Errors: invalid spec (null netlist) or a Submit failure.
util::StatusOr<std::vector<SweepPoint>> RunSweep(JobEngine& engine,
                                                 const SweepSpec& spec);

/// Builds the batch report for `handles` (every job must be done — run
/// after WaitAll). Per-job run reports are embedded for successful jobs;
/// cancelled/failed jobs carry their status message instead.
obs::JsonValue BuildBatchReport(const JobEngine& engine,
                                const std::vector<JobHandle>& handles);

/// Pretty-writes `report` to `path`; false on I/O error.
bool WriteBatchReport(const obs::JsonValue& report, const std::string& path);

/// Schema check of a parsed batch report (engine block, per-job entries,
/// embedded run reports). On failure returns false and, when `error` is
/// non-null, a one-line description of the first violation.
bool ValidateBatchReport(const obs::JsonValue& doc,
                         std::string* error = nullptr);

}  // namespace p3d::serve
