// Multilevel min-cut bipartitioner — the drop-in replacement for hMetis [15]
// used by the placer's recursive bisection (paper Section 3).
//
// Pipeline per start: coarsen until the graph is small, grow several random
// greedy initial partitions at the coarsest level, refine the best-ranked
// few with FM, then uncoarsen with FM refinement at every level. Multiple independent starts
// (the knob the paper's Section 7 runtime/quality ablation turns) keep the
// best feasible result.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/fm.h"
#include "partition/hypergraph.h"

namespace p3d::partition {

struct PartitionOptions {
  // Desired weight fraction of part 0 (0.5 = balanced bisection; the placer
  // uses m/L when splitting an L-layer region into m + (L-m) layers).
  double target_fraction = 0.5;
  // Allowed deviation of part 0's weight fraction from the target; e.g. 0.1
  // allows [target-0.1, target+0.1]. Derived from region whitespace.
  double tolerance = 0.1;
  // Independent multilevel runs; best feasible cut wins.
  int num_starts = 1;
  // FM pass cap per refinement (FmOptions::max_passes).
  int fm_passes = 6;
  std::uint64_t seed = 1;
  // Parallel runtime width for the independent starts (0 = all hardware
  // threads). Each start draws a seed derived from (seed, start index) and
  // the best result is tie-broken on start index, so the outcome is
  // identical for any thread count.
  int threads = 1;
};

struct PartitionResult {
  std::vector<std::int8_t> side;  // 0/1 per vertex
  double cut_cost = 0.0;          // real-weight cut
  double part0_fraction = 0.5;    // of total quantized weight
  bool feasible = false;
};

/// Bipartitions a finalized hypergraph. Fixed vertices keep their side.
PartitionResult Bipartition(const Hypergraph& hg,
                            const PartitionOptions& options);

/// Independent re-verification of a bipartition's balance, used by the audit
/// subsystem and by Bipartition itself as a bookkeeping cross-check: the
/// part-0 weight is resummed from scratch and compared against the same
/// quantized bounds the FM refiner enforced.
struct BalanceAudit {
  double fraction = 0.0;      // recomputed part-0 weight fraction
  std::int64_t weight0 = 0;   // recomputed part-0 quantized weight
  std::int64_t min0 = 0;      // inclusive feasibility bounds
  std::int64_t max0 = 0;
  bool within = false;        // weight0 in [min0, max0]
};
BalanceAudit AuditBalance(const Hypergraph& hg,
                          const std::vector<std::int8_t>& side,
                          double target_fraction, double tolerance);

}  // namespace p3d::partition
