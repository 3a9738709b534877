#include "partition/partitioner.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "partition/coarsen.h"
#include "runtime/parallel.h"
#include "runtime/stream.h"
#include "runtime/thread_pool.h"
#include "util/log.h"
#include "util/rng.h"

namespace p3d::partition {
namespace {

// Random greedy initial partitions grown at the coarsest level, and how
// many of the best of them FM refines.
constexpr std::size_t kInitialTries = 8;
constexpr std::size_t kRefinedTries = 2;
// Coarsening stops at this many vertices (or when progress stalls).
constexpr std::int32_t kCoarsenTo = 64;

struct Bounds {
  std::int64_t min0 = 0;
  std::int64_t max0 = 0;
};

Bounds BalanceBounds(const Hypergraph& hg, double target, double tolerance) {
  const double total = static_cast<double>(hg.TotalVertWeightQ());
  Bounds b;
  b.min0 = static_cast<std::int64_t>(std::floor((target - tolerance) * total));
  b.max0 = static_cast<std::int64_t>(std::ceil((target + tolerance) * total));
  b.min0 = std::max<std::int64_t>(b.min0, 0);
  b.max0 = std::min<std::int64_t>(b.max0, hg.TotalVertWeightQ());
  return b;
}

/// Random greedy growth: BFS from a random free seed, accreting vertices into
/// part 0 until it reaches half the weight; everything else goes to part 1.
/// Fixed vertices keep their side and seed the growth of their part.
std::vector<std::int8_t> GreedyGrowInitial(const Hypergraph& hg,
                                           double target_fraction,
                                           util::Rng& rng) {
  const std::int32_t nv = hg.NumVerts();
  std::vector<std::int8_t> side(static_cast<std::size_t>(nv), 1);
  std::vector<bool> visited(static_cast<std::size_t>(nv), false);
  std::int64_t w0 = 0;
  const std::int64_t target = static_cast<std::int64_t>(
      target_fraction * static_cast<double>(hg.TotalVertWeightQ()));

  // A FIFO queue: vertices are appended and read from `head` on.
  std::vector<std::int32_t> frontier;
  frontier.reserve(static_cast<std::size_t>(nv));
  std::size_t head = 0;
  for (std::int32_t v = 0; v < nv; ++v) {
    if (hg.Fixed(v) == FixedSide::kPart0) {
      side[static_cast<std::size_t>(v)] = 0;
      visited[static_cast<std::size_t>(v)] = true;
      w0 += hg.VertWeightQ(v);
      frontier.push_back(v);
    } else if (hg.Fixed(v) == FixedSide::kPart1) {
      visited[static_cast<std::size_t>(v)] = true;  // never joins part 0
    }
  }
  if (frontier.empty() && nv > 0) {
    // Random free seed.
    for (int tries = 0; tries < 32; ++tries) {
      const auto v = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nv)));
      if (!visited[static_cast<std::size_t>(v)]) {
        frontier.push_back(v);
        visited[static_cast<std::size_t>(v)] = true;
        side[static_cast<std::size_t>(v)] = 0;
        w0 += hg.VertWeightQ(v);
        break;
      }
    }
  }
  while (head < frontier.size() && w0 < target) {
    const std::int32_t v = frontier[head++];
    for (const std::int32_t n : hg.VertNets(v)) {
      for (const std::int32_t u : hg.NetVerts(n)) {
        if (visited[static_cast<std::size_t>(u)]) continue;
        visited[static_cast<std::size_t>(u)] = true;
        side[static_cast<std::size_t>(u)] = 0;
        w0 += hg.VertWeightQ(u);
        frontier.push_back(u);
        if (w0 >= target) return side;
      }
    }
  }
  // Disconnected leftovers: random fill toward the target.
  if (w0 < target) {
    std::vector<std::int32_t> order(static_cast<std::size_t>(nv));
    for (std::int32_t v = 0; v < nv; ++v) order[static_cast<std::size_t>(v)] = v;
    rng.Shuffle(order);
    for (const std::int32_t v : order) {
      if (w0 >= target) break;
      if (visited[static_cast<std::size_t>(v)]) continue;
      side[static_cast<std::size_t>(v)] = 0;
      w0 += hg.VertWeightQ(v);
    }
  }
  return side;
}

/// Deterministic last-resort balance repair: while part 0 is outside its
/// bounds, greedily move the free vertex with the best cut-gain-to-weight
/// ratio from the heavy side. FM almost always leaves a feasible partition;
/// this guarantees it whenever the weight granularity allows.
void RepairBalance(const Hypergraph& hg, std::vector<std::int8_t>* side_ptr,
                   std::int64_t min0, std::int64_t max0) {
  auto& side = *side_ptr;
  std::int64_t w0 = hg.PartWeightQ(side, 0);
  int guard = hg.NumVerts() + 1;
  while ((w0 < min0 || w0 > max0) && guard-- > 0) {
    const int from = w0 > max0 ? 0 : 1;
    std::int32_t best = -1;
    double best_score = 0.0;
    for (std::int32_t v = 0; v < hg.NumVerts(); ++v) {
      if (side[static_cast<std::size_t>(v)] != from) continue;
      if (hg.Fixed(v) != FixedSide::kFree) continue;
      const std::int64_t wv = hg.VertWeightQ(v);
      if (wv == 0) continue;
      // Overshoot check: moving must not flip infeasibility to the other side.
      const std::int64_t w0_after = from == 0 ? w0 - wv : w0 + wv;
      if (from == 0 && w0_after < min0 && min0 - w0_after > w0 - max0) continue;
      if (from == 1 && w0_after > max0 && w0_after - max0 > min0 - w0) continue;
      // Cut delta of moving v (positive = cut increases).
      double delta = 0.0;
      for (const std::int32_t n : hg.VertNets(v)) {
        int same = 0, other = 0;
        for (const std::int32_t u : hg.NetVerts(n)) {
          if (u == v) continue;
          (side[static_cast<std::size_t>(u)] == from ? same : other) += 1;
        }
        if (same == 0 && other > 0) delta -= hg.NetWeight(n);  // uncuts
        if (other == 0 && same > 0) delta += hg.NetWeight(n);  // cuts
      }
      const double score = -delta / static_cast<double>(wv);
      if (best < 0 || score > best_score) {
        best = v;
        best_score = score;
      }
    }
    if (best < 0) break;  // nothing movable
    side[static_cast<std::size_t>(best)] =
        static_cast<std::int8_t>(1 - from);
    w0 += from == 0 ? -hg.VertWeightQ(best) : hg.VertWeightQ(best);
  }
}

PartitionResult RunOneStart(const Hypergraph& hg,
                            const PartitionOptions& options, util::Rng rng) {
  // One multilevel V-cycle. FM statistics accumulate locally and post to the
  // metrics registry once at the end: integer counters are commutative, so
  // recording from parallel starts in any order stays deterministic.
  obs::TraceScope trace_vcycle("partition.vcycle");
  long long fm_calls = 0;
  long long fm_passes = 0;
  long long fm_gain_q = 0;
  long long fm_stop_converged = 0;
  long long fm_stop_cap = 0;
  const auto tally_fm = [&](const FmStats& fs) {
    ++fm_calls;
    fm_passes += fs.passes;
    fm_gain_q += fs.initial_cut_q - fs.final_cut_q;
    ++(fs.stop == FmStop::kCap ? fm_stop_cap : fm_stop_converged);
  };

  // --- coarsen -------------------------------------------------------------
  std::vector<CoarseLevel> levels;
  const Hypergraph* cur = &hg;
  // Cluster-weight cap ~1/kCoarsenTo of the total keeps even tight balance
  // targets reachable at the coarsest level.
  const std::int64_t max_cluster_weight =
      std::max<std::int64_t>(1, hg.TotalVertWeightQ() / kCoarsenTo);
  while (cur->NumVerts() > kCoarsenTo) {
    CoarseLevel next = CoarsenOnce(*cur, max_cluster_weight, rng);
    const double ratio = static_cast<double>(next.hg.NumVerts()) /
                         static_cast<double>(cur->NumVerts());
    if (ratio > 0.95) break;  // stalled (e.g. star topology)
    levels.push_back(std::move(next));
    cur = &levels.back().hg;
  }
  // Coarsening ends at kCoarsenTo vertices or, when a step no longer
  // shrinks the graph, above it.
  const bool coarsen_stalled = cur->NumVerts() > kCoarsenTo;

  // --- initial partition at the coarsest level -----------------------------
  const Hypergraph& coarsest = *cur;
  const Bounds cb =
      BalanceBounds(coarsest, options.target_fraction, options.tolerance);
  FmOptions fm;
  fm.min_part0_weight_q = cb.min0;
  fm.max_part0_weight_q = cb.max0;
  fm.max_passes = options.fm_passes;

  // Greedy growth costs a fraction of an FM refinement, so every try is
  // grown, the tries are ranked by (feasible, cut), and only the best
  // kRefinedTries are refined. The stable sort breaks ties by try order.
  struct Start {
    std::vector<std::int8_t> side;
    double cut = 0.0;
    bool feasible = false;
  };
  const auto score = [&](Start* s) {
    s->cut = coarsest.CutCost(s->side);
    const std::int64_t w0 = coarsest.PartWeightQ(s->side, 0);
    s->feasible = w0 >= cb.min0 && w0 <= cb.max0;
  };
  const auto better = [](const Start& a, const Start& b) {
    return (a.feasible && !b.feasible) ||
           (a.feasible == b.feasible && a.cut < b.cut);
  };
  std::vector<Start> starts(kInitialTries);
  for (Start& s : starts) {
    s.side = GreedyGrowInitial(coarsest, options.target_fraction, rng);
    score(&s);
  }
  std::stable_sort(starts.begin(), starts.end(), better);
  std::size_t best = 0;
  for (std::size_t t = 0; t < kRefinedTries; ++t) {
    tally_fm(RefineFm(coarsest, &starts[t].side, fm, rng));
    score(&starts[t]);
    if (better(starts[t], starts[best])) best = t;
  }

  // --- uncoarsen + refine ----------------------------------------------------
  std::vector<std::int8_t> side = std::move(starts[best].side);
  for (std::size_t li = levels.size(); li-- > 0;) {
    const Hypergraph& fine = li == 0 ? hg : levels[li - 1].hg;
    const auto& map = levels[li].fine_to_coarse;
    std::vector<std::int8_t> fine_side(static_cast<std::size_t>(fine.NumVerts()));
    for (std::int32_t v = 0; v < fine.NumVerts(); ++v) {
      fine_side[static_cast<std::size_t>(v)] =
          side[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    }
    const Bounds fb =
        BalanceBounds(fine, options.target_fraction, options.tolerance);
    FmOptions ffm = fm;
    ffm.min_part0_weight_q = fb.min0;
    ffm.max_part0_weight_q = fb.max0;
    tally_fm(RefineFm(fine, &fine_side, ffm, rng));
    side = std::move(fine_side);
  }

  const Bounds b =
      BalanceBounds(hg, options.target_fraction, options.tolerance);
  {
    const std::int64_t w0_now = hg.PartWeightQ(side, 0);
    if (w0_now < b.min0 || w0_now > b.max0) {
      // FM missed the balance window (tight z-cut tolerances can defeat it);
      // repair deterministically, then let FM re-optimize inside the window.
      RepairBalance(hg, &side, b.min0, b.max0);
      obs::MetricAdd("partition/balance_repairs", 1);
      FmOptions ffm = fm;
      ffm.min_part0_weight_q = b.min0;
      ffm.max_part0_weight_q = b.max0;
      tally_fm(RefineFm(hg, &side, ffm, rng));
    }
  }

  obs::MetricAdd("fm/refinements", fm_calls);
  obs::MetricAdd("fm/passes", fm_passes);
  obs::MetricAdd("fm/gain_q", fm_gain_q);
  obs::MetricAdd("fm/stop_converged", fm_stop_converged);
  obs::MetricAdd("fm/stop_cap", fm_stop_cap);
  obs::MetricAdd(coarsen_stalled ? "partition/coarsen_stop_stalled"
                                 : "partition/coarsen_stop_target",
                 1);
  obs::MetricObserve("partition/coarsen_levels",
                     static_cast<std::int64_t>(levels.size()));

  PartitionResult result;
  result.cut_cost = hg.CutCost(side);
  const std::int64_t w0 = hg.PartWeightQ(side, 0);
  result.feasible = w0 >= b.min0 && w0 <= b.max0;
  result.part0_fraction =
      hg.TotalVertWeightQ() > 0
          ? static_cast<double>(w0) / static_cast<double>(hg.TotalVertWeightQ())
          : 0.5;
  result.side = std::move(side);
  return result;
}

}  // namespace

PartitionResult Bipartition(const Hypergraph& hg,
                            const PartitionOptions& options) {
  assert(hg.finalized());
  obs::TraceScope trace_bipartition("partition.bipartition");

  // Independent multilevel starts, each on its own derived RNG stream, run
  // as one parallel batch. Start s writes only results[s], so the batch is
  // race-free and its outcome independent of scheduling.
  const int num_starts = std::max(options.num_starts, 1);
  std::vector<PartitionResult> results(static_cast<std::size_t>(num_starts));
  runtime::ThreadPool* pool = runtime::SharedPool(options.threads);
  runtime::ParallelFor(pool, 0, num_starts, /*grain=*/1, [&](std::int64_t s) {
    results[static_cast<std::size_t>(s)] = RunOneStart(
        hg, options,
        runtime::DeriveStream(options.seed, static_cast<std::uint64_t>(s)));
  });

  // Deterministic best pick: feasibility first, then cut cost, ties broken
  // by the lowest start index (the strict comparison scans in start order).
  PartitionResult best;
  for (PartitionResult& r : results) {
    const bool better = best.side.empty() ||
                        (r.feasible && !best.feasible) ||
                        (r.feasible == best.feasible && r.cut_cost < best.cut_cost);
    if (better) best = std::move(r);
  }
  // Fixed vertices must end on their side regardless of refinement paths.
  for (std::int32_t v = 0; v < hg.NumVerts(); ++v) {
    if (hg.Fixed(v) == FixedSide::kPart0) best.side[static_cast<std::size_t>(v)] = 0;
    if (hg.Fixed(v) == FixedSide::kPart1) best.side[static_cast<std::size_t>(v)] = 1;
  }
  // Bookkeeping cross-check: a result claiming feasibility must still be
  // inside the balance window when the weights are resummed from scratch
  // (the fixed-vertex fixup above must not have changed the split).
  if (best.feasible) {
    const BalanceAudit audit = AuditBalance(hg, best.side,
                                            options.target_fraction,
                                            options.tolerance);
    if (!audit.within) {
      util::LogWarn(
          "partition: feasible result fails balance re-verification "
          "(w0 %lld outside [%lld, %lld])",
          static_cast<long long>(audit.weight0),
          static_cast<long long>(audit.min0),
          static_cast<long long>(audit.max0));
      best.feasible = false;
    }
  }
  obs::MetricAdd("partition/bipartitions", 1);
  if (!best.feasible) obs::MetricAdd("partition/infeasible", 1);
  return best;
}

BalanceAudit AuditBalance(const Hypergraph& hg,
                          const std::vector<std::int8_t>& side,
                          double target_fraction, double tolerance) {
  BalanceAudit audit;
  // Resummed independently of Hypergraph::PartWeightQ so a bug in the
  // incremental weight bookkeeping cannot hide here.
  for (std::int32_t v = 0; v < hg.NumVerts(); ++v) {
    if (side[static_cast<std::size_t>(v)] == 0) audit.weight0 += hg.VertWeightQ(v);
  }
  const Bounds b = BalanceBounds(hg, target_fraction, tolerance);
  audit.min0 = b.min0;
  audit.max0 = b.max0;
  audit.fraction =
      hg.TotalVertWeightQ() > 0
          ? static_cast<double>(audit.weight0) /
                static_cast<double>(hg.TotalVertWeightQ())
          : 0.5;
  audit.within = audit.weight0 >= audit.min0 && audit.weight0 <= audit.max0;
  return audit;
}

}  // namespace p3d::partition
