// Kernel probes of bench_e2e, run after the traced flow on its final state:
// the objective's MoveDelta/SwapDelta and the thermal solver's SpMV,
// preconditioner apply and multigrid V-cycle. Single-threaded.
#pragma once

#include "traced.h"

namespace p3d::e2e {

struct ProbeResults {
  double move_delta_ns = 0.0;       // per call, median of 5 batches
  double swap_delta_ns = 0.0;
  double spmv_ms = 0.0;             // per SpMV on the FEA matrix
  double spmv_gbps_computed = 0.0;  // (12 nnz + 24 n) bytes per SpMV
  double precond_apply_ms = 0.0;    // the flow's own preconditioner
  double mg_setup_s = 0.0;          // multigrid FeaContext built on the side
  double vcycle_ms = 0.0;
};

/// Probes `job`'s final evaluator with `delta_calls` MoveDelta and as many
/// SwapDelta calls per batch, on local targets (within one density bin
/// laterally and one layer) drawn from a fixed seed; then, when the flow
/// built an FEA context, 200 SpMVs, 20 preconditioner applies, and 20
/// V-cycles of a multigrid context for the same geometry.
ProbeResults RunProbes(const netlist::Netlist& nl, const JobConfig& config,
                       const TracedJob& job, int delta_calls,
                       SpanRecorder& spans);

}  // namespace p3d::e2e
