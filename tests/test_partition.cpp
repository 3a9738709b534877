#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "partition/coarsen.h"
#include "partition/fm.h"
#include "partition/hypergraph.h"
#include "partition/partitioner.h"
#include "region_hypergraph.h"
#include "util/rng.h"

namespace p3d::partition {
namespace {

/// Two cliques of `k` vertices each, joined by `bridges` weak nets. The
/// optimal bisection cuts exactly the bridges.
Hypergraph TwoCliques(int k, int bridges) {
  Hypergraph hg;
  for (int i = 0; i < 2 * k; ++i) hg.AddVertex(1.0);
  auto add2 = [&](std::int32_t a, std::int32_t b) {
    const std::int32_t v[2] = {a, b};
    hg.AddNet(1.0, v);
  };
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      add2(i, j);
      add2(k + i, k + j);
    }
  }
  for (int i = 0; i < bridges; ++i) add2(i % k, k + (i % k));
  hg.Finalize();
  return hg;
}

TEST(Hypergraph, BasicConstruction) {
  Hypergraph hg;
  hg.AddVertex(2.0);
  hg.AddVertex(3.0);
  hg.AddVertex(1.0, FixedSide::kPart1);
  const std::int32_t pins[3] = {0, 1, 2};
  hg.AddNet(1.5, pins);
  const std::int32_t pins2[2] = {0, 0};  // duplicate pin collapses
  hg.AddNet(1.0, pins2);
  hg.Finalize();

  EXPECT_EQ(hg.NumVerts(), 3);
  EXPECT_EQ(hg.NumNets(), 2);
  EXPECT_EQ(hg.NetVerts(0).size(), 3u);
  EXPECT_EQ(hg.NetVerts(1).size(), 1u);  // deduplicated
  EXPECT_EQ(hg.Fixed(2), FixedSide::kPart1);
  EXPECT_EQ(hg.VertNets(0).size(), 2u);
  EXPECT_EQ(hg.VertNets(1).size(), 1u);
}

TEST(Hypergraph, QuantizationPreservesRatios) {
  Hypergraph hg;
  hg.AddVertex(1.0);
  hg.AddVertex(1.0);
  const std::int32_t pins[2] = {0, 1};
  hg.AddNet(1.0, pins);
  hg.AddNet(2.0, pins);
  hg.AddNet(0.5, pins);
  hg.Finalize();
  // q(2.0)/q(1.0) ~ 2, q(0.5)/q(1.0) ~ 0.5 within rounding.
  EXPECT_NEAR(static_cast<double>(hg.NetWeightQ(1)) / hg.NetWeightQ(0), 2.0,
              0.01);
  EXPECT_NEAR(static_cast<double>(hg.NetWeightQ(2)) / hg.NetWeightQ(0), 0.5,
              0.01);
}

TEST(Hypergraph, TinyWeightsDoNotSaturateLargeOnes) {
  Hypergraph hg;
  hg.AddVertex(1.0);
  hg.AddVertex(1.0);
  const std::int32_t pins[2] = {0, 1};
  hg.AddNet(1.0, pins);
  hg.AddNet(1e-9, pins);  // e.g. a feeble TRR net
  hg.Finalize();
  EXPECT_GT(hg.NetWeightQ(0), 1000);  // regular net keeps resolution
  EXPECT_EQ(hg.NetWeightQ(1), 0);     // below resolution: no influence
}

TEST(Hypergraph, QuantizationKeepsFreeVertexGainsIn32Bits) {
  // A free hub on 2^20 + 1 equal nets: at full resolution each net weighs
  // 2048, and the hub's gain bound would overflow FM's 32-bit gain key.
  const std::int32_t kNets = (1 << 20) + 1;
  Hypergraph hg;
  const std::int32_t hub = hg.AddVertex(1.0);
  const std::int32_t leaf = hg.AddVertex(1.0);
  const std::int32_t pins[2] = {hub, leaf};
  for (std::int32_t n = 0; n < kNets; ++n) hg.AddNet(1.0, pins);
  hg.Finalize();
  std::int64_t hub_gain_bound = 0;
  for (const std::int32_t n : hg.VertNets(hub)) hub_gain_bound += hg.NetWeightQ(n);
  EXPECT_LE(hub_gain_bound, std::numeric_limits<std::int32_t>::max());
  EXPECT_GT(hg.NetWeightQ(0), 0);  // shrunk, not zeroed

  std::vector<std::int8_t> side = {0, 1};
  FmOptions opt;
  opt.max_part0_weight_q = hg.TotalVertWeightQ();
  util::Rng rng(1);
  const FmStats stats = RefineFm(hg, &side, opt, rng);
  EXPECT_EQ(stats.final_cut_q, 0);  // hub and leaf joined
  EXPECT_EQ(stats.final_cut_q, hg.CutCostQ(side));
}

TEST(Hypergraph, ZeroWeightVerticesIgnoredInBalance) {
  Hypergraph hg;
  hg.AddVertex(1.0);
  hg.AddVertex(0.0, FixedSide::kPart0);  // terminal
  hg.Finalize();
  EXPECT_EQ(hg.VertWeightQ(1), 0);
  EXPECT_GT(hg.TotalVertWeightQ(), 0);
}

TEST(Hypergraph, CutCost) {
  Hypergraph hg = TwoCliques(4, 2);
  std::vector<std::int8_t> side(8, 0);
  for (int i = 4; i < 8; ++i) side[static_cast<std::size_t>(i)] = 1;
  EXPECT_DOUBLE_EQ(hg.CutCost(side), 2.0);  // only the bridges
  std::vector<std::int8_t> all_same(8, 0);
  EXPECT_DOUBLE_EQ(hg.CutCost(all_same), 0.0);
}

TEST(Fm, ImprovesBadPartition) {
  Hypergraph hg = TwoCliques(8, 1);
  // Interleaved start: awful cut.
  std::vector<std::int8_t> side(16);
  for (int i = 0; i < 16; ++i) side[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i % 2);
  const double bad = hg.CutCost(side);
  FmOptions opt;
  opt.min_part0_weight_q = hg.TotalVertWeightQ() * 4 / 10;
  opt.max_part0_weight_q = hg.TotalVertWeightQ() * 6 / 10;
  util::Rng rng(1);
  const FmStats stats = RefineFm(hg, &side, opt, rng);
  EXPECT_LT(hg.CutCost(side), bad);
  EXPECT_TRUE(stats.feasible);
  EXPECT_DOUBLE_EQ(hg.CutCost(side), 1.0);  // finds the optimal single-bridge cut
}

TEST(Fm, RespectsFixedVertices) {
  Hypergraph hg;
  for (int i = 0; i < 4; ++i) {
    hg.AddVertex(1.0, i == 0 ? FixedSide::kPart0
                             : (i == 3 ? FixedSide::kPart1 : FixedSide::kFree));
  }
  const std::int32_t p01[2] = {0, 1};
  const std::int32_t p23[2] = {2, 3};
  hg.AddNet(1.0, p01);
  hg.AddNet(1.0, p23);
  hg.Finalize();
  std::vector<std::int8_t> side = {0, 1, 0, 1};
  FmOptions opt;
  opt.min_part0_weight_q = 0;
  opt.max_part0_weight_q = hg.TotalVertWeightQ();
  util::Rng rng(2);
  RefineFm(hg, &side, opt, rng);
  EXPECT_EQ(side[0], 0);  // fixed stayed
  EXPECT_EQ(side[3], 1);
  EXPECT_EQ(side[1], 0);  // free vertices joined their anchors
  EXPECT_EQ(side[2], 1);
}

TEST(Fm, RepairsInfeasibleBalance) {
  Hypergraph hg;
  for (int i = 0; i < 10; ++i) hg.AddVertex(1.0);
  const std::int32_t pins[2] = {0, 1};
  hg.AddNet(1.0, pins);
  hg.Finalize();
  std::vector<std::int8_t> side(10, 0);  // everything on side 0: infeasible
  FmOptions opt;
  opt.min_part0_weight_q = hg.TotalVertWeightQ() * 4 / 10;
  opt.max_part0_weight_q = hg.TotalVertWeightQ() * 6 / 10;
  util::Rng rng(3);
  const FmStats stats = RefineFm(hg, &side, opt, rng);
  EXPECT_TRUE(stats.feasible);
}

TEST(Fm, StopsAtPassCapWhileStillImproving) {
  Hypergraph hg = TwoCliques(8, 1);
  std::vector<std::int8_t> side(16);
  for (int i = 0; i < 16; ++i) side[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i % 2);
  FmOptions opt;
  opt.min_part0_weight_q = hg.TotalVertWeightQ() * 4 / 10;
  opt.max_part0_weight_q = hg.TotalVertWeightQ() * 6 / 10;
  opt.max_passes = 1;
  util::Rng rng(1);
  const FmStats stats = RefineFm(hg, &side, opt, rng);
  EXPECT_EQ(stats.passes, 1);
  EXPECT_LT(stats.final_cut_q, stats.initial_cut_q);
  EXPECT_EQ(stats.stop, FmStop::kCap);
}

TEST(Fm, ConvergesOnOptimalPartition) {
  Hypergraph hg = TwoCliques(8, 1);
  std::vector<std::int8_t> side(16, 0);
  for (int i = 8; i < 16; ++i) side[static_cast<std::size_t>(i)] = 1;
  const std::vector<std::int8_t> optimal = side;
  FmOptions opt;
  opt.min_part0_weight_q = hg.TotalVertWeightQ() * 4 / 10;
  opt.max_part0_weight_q = hg.TotalVertWeightQ() * 6 / 10;
  util::Rng rng(1);
  const FmStats stats = RefineFm(hg, &side, opt, rng);
  EXPECT_EQ(stats.passes, 1);
  EXPECT_EQ(stats.stop, FmStop::kConverged);
  EXPECT_EQ(side, optimal);
}

TEST(Bipartition, CountsEveryFmStopOnceAtAnyThreadCount) {
  const Hypergraph hg = fixtures::RegionHypergraph(9, 200);
  std::int64_t counts[2][3] = {};
  for (const int threads : {1, 3}) {
    obs::MetricsRegistry registry;
    obs::InstallMetrics(&registry);
    PartitionOptions opt;
    opt.num_starts = 3;
    opt.threads = threads;
    opt.fm_passes = 1;  // every refinement that improves hits the cap
    (void)Bipartition(hg, opt);
    obs::InstallMetrics(nullptr);
    std::int64_t* c = counts[threads == 1 ? 0 : 1];
    c[0] = registry.Counter("fm/stop_converged");
    c[1] = registry.Counter("fm/stop_cap");
    c[2] = registry.Counter("fm/refinements");
    EXPECT_EQ(c[0] + c[1], c[2]) << threads << " threads";
    EXPECT_GT(c[0], 0) << threads << " threads";
    EXPECT_GT(c[1], 0) << threads << " threads";
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(counts[0][i], counts[1][i]) << i;
}

TEST(Coarsen, PreservesTotalWeightAndMapsAllVertices) {
  Hypergraph hg = TwoCliques(16, 2);
  util::Rng rng(4);
  const CoarseLevel level = CoarsenOnce(hg, hg.TotalVertWeightQ(), rng);
  EXPECT_LT(level.hg.NumVerts(), hg.NumVerts());
  EXPECT_GE(level.hg.NumVerts(), hg.NumVerts() / 2);
  double fine_w = 0.0, coarse_w = 0.0;
  for (std::int32_t v = 0; v < hg.NumVerts(); ++v) {
    fine_w += hg.VertWeight(v);
    ASSERT_GE(level.fine_to_coarse[static_cast<std::size_t>(v)], 0);
    ASSERT_LT(level.fine_to_coarse[static_cast<std::size_t>(v)],
              level.hg.NumVerts());
  }
  for (std::int32_t v = 0; v < level.hg.NumVerts(); ++v) {
    coarse_w += level.hg.VertWeight(v);
  }
  EXPECT_NEAR(fine_w, coarse_w, 1e-9);
}

TEST(Coarsen, FixedVerticesStaySingletons) {
  Hypergraph hg;
  hg.AddVertex(1.0, FixedSide::kPart0);
  hg.AddVertex(1.0);
  hg.AddVertex(1.0);
  const std::int32_t pins[3] = {0, 1, 2};
  hg.AddNet(1.0, pins);
  hg.Finalize();
  util::Rng rng(5);
  const CoarseLevel level = CoarsenOnce(hg, 1000, rng);
  const std::int32_t c0 = level.fine_to_coarse[0];
  EXPECT_EQ(level.hg.Fixed(c0), FixedSide::kPart0);
  // No free vertex merged into the fixed one.
  EXPECT_NE(level.fine_to_coarse[1], c0);
  EXPECT_NE(level.fine_to_coarse[2], c0);
}

/// Coarsening stop counters of one single-start bipartition.
struct CoarsenStops {
  std::int64_t target = 0;
  std::int64_t stalled = 0;
};
CoarsenStops CountCoarsenStops(const Hypergraph& hg) {
  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  (void)Bipartition(hg, PartitionOptions{});
  obs::InstallMetrics(nullptr);
  return {registry.Counter("partition/coarsen_stop_target"),
          registry.Counter("partition/coarsen_stop_stalled")};
}

TEST(Coarsen, RecordsWhyItStopped) {
  // A star: the hub pairs with one leaf, every other leaf has only the hub
  // as a neighbour, so the first step barely shrinks the graph.
  Hypergraph star;
  for (int i = 0; i <= 200; ++i) star.AddVertex(1.0);
  for (std::int32_t leaf = 1; leaf <= 200; ++leaf) {
    const std::int32_t pins[2] = {0, leaf};
    star.AddNet(1.0, pins);
  }
  star.Finalize();
  const CoarsenStops s = CountCoarsenStops(star);
  EXPECT_EQ(s.stalled, 1);
  EXPECT_EQ(s.target, 0);

  // A path halves at every step until it is down to kCoarsenTo = 64. The
  // cluster-weight cap is 1/64 of the total weight, so a path of equal
  // cells needs clusters of exactly the cap and usually stops above 64; an
  // unconnected macro holding most of the weight lifts the cap off the
  // path, the way large cells do in real regions.
  Hypergraph path;
  for (int i = 0; i < 500; ++i) path.AddVertex(1.0);
  for (std::int32_t v = 0; v + 1 < 500; ++v) {
    const std::int32_t pins[2] = {v, v + 1};
    path.AddNet(1.0, pins);
  }
  path.AddVertex(1000.0);
  path.Finalize();
  const CoarsenStops p = CountCoarsenStops(path);
  EXPECT_EQ(p.target, 1);
  EXPECT_EQ(p.stalled, 0);
}

TEST(Bipartition, FindsObviousCut) {
  Hypergraph hg = TwoCliques(20, 3);
  PartitionOptions opt;
  opt.tolerance = 0.1;
  opt.seed = 7;
  const PartitionResult r = Bipartition(hg, opt);
  EXPECT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.cut_cost, 3.0);
  // Each clique ends up whole on one side.
  for (int i = 1; i < 20; ++i) {
    EXPECT_EQ(r.side[static_cast<std::size_t>(i)], r.side[0]);
    EXPECT_EQ(r.side[static_cast<std::size_t>(20 + i)], r.side[20]);
  }
  EXPECT_NE(r.side[0], r.side[20]);
}

TEST(Bipartition, Deterministic) {
  Hypergraph hg = TwoCliques(12, 2);
  PartitionOptions opt;
  opt.seed = 11;
  const PartitionResult a = Bipartition(hg, opt);
  const PartitionResult b = Bipartition(hg, opt);
  EXPECT_EQ(a.side, b.side);
  EXPECT_DOUBLE_EQ(a.cut_cost, b.cut_cost);
}

TEST(Bipartition, HonorsTargetFraction) {
  // 30 unit vertices, no nets: any split works; check the 1/3 target.
  Hypergraph hg;
  for (int i = 0; i < 30; ++i) hg.AddVertex(1.0);
  hg.Finalize();
  PartitionOptions opt;
  opt.target_fraction = 1.0 / 3.0;
  opt.tolerance = 0.02;
  opt.seed = 13;
  const PartitionResult r = Bipartition(hg, opt);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.part0_fraction, 1.0 / 3.0, 0.05);
}

TEST(Bipartition, FixedSeedsRespectedInResult) {
  Hypergraph hg = TwoCliques(6, 1);
  // Re-build with vertex 0 fixed to part 1 (against its clique).
  Hypergraph hg2;
  for (int i = 0; i < 12; ++i) {
    hg2.AddVertex(1.0, i == 0 ? FixedSide::kPart1 : FixedSide::kFree);
  }
  for (std::int32_t n = 0; n < hg.NumNets(); ++n) {
    std::vector<std::int32_t> verts(hg.NetVerts(n).begin(),
                                    hg.NetVerts(n).end());
    hg2.AddNet(hg.NetWeight(n), verts);
  }
  hg2.Finalize();
  const PartitionResult r = Bipartition(hg2, {.tolerance = 0.2, .seed = 17});
  EXPECT_EQ(r.side[0], 1);
}

class BipartitionQuality : public ::testing::TestWithParam<int> {};

TEST_P(BipartitionQuality, BeatsRandomSplit) {
  const int n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n) * 31);
  Hypergraph hg;
  for (int i = 0; i < n; ++i) hg.AddVertex(1.0 + rng.NextDouble());
  // Local-structure nets: each connects 2-4 nearby vertices.
  for (int i = 0; i < 2 * n; ++i) {
    const int deg = 2 + static_cast<int>(rng.NextBounded(3));
    const int base = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n)));
    std::vector<std::int32_t> verts;
    for (int d = 0; d < deg; ++d) {
      verts.push_back((base + static_cast<int>(rng.NextBounded(8))) % n);
    }
    hg.AddNet(1.0, verts);
  }
  hg.Finalize();

  const PartitionResult r = Bipartition(hg, {.tolerance = 0.1, .seed = 19});
  EXPECT_TRUE(r.feasible);

  // Random balanced split for comparison.
  std::vector<std::int8_t> random_side(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    random_side[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i % 2);
  }
  EXPECT_LT(r.cut_cost, 0.7 * hg.CutCost(random_side));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BipartitionQuality,
                         ::testing::Values(64, 256, 1024, 4096));

// Property: starting from a feasible partition, FM never increases the cut
// and never leaves the balance window.
class FmNeverWorsens : public ::testing::TestWithParam<int> {};

TEST_P(FmNeverWorsens, CutMonotoneFromFeasibleStart) {
  const int n = 300;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  Hypergraph hg;
  for (int i = 0; i < n; ++i) hg.AddVertex(1.0 + rng.NextDouble());
  for (int i = 0; i < 3 * n / 2; ++i) {
    const int base = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n)));
    std::vector<std::int32_t> verts = {base};
    const int deg = 2 + static_cast<int>(rng.NextBounded(4));
    for (int d = 1; d < deg; ++d) {
      verts.push_back(static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n))));
    }
    hg.AddNet(0.2 + rng.NextDouble(), verts);
  }
  hg.Finalize();

  // Feasible alternating start.
  std::vector<std::int8_t> side(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) side[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i % 2);
  const std::int64_t w0 = hg.PartWeightQ(side, 0);
  FmOptions opt;
  opt.min_part0_weight_q = std::min(w0, hg.TotalVertWeightQ() * 45 / 100);
  opt.max_part0_weight_q = std::max(w0, hg.TotalVertWeightQ() * 55 / 100);
  const std::int64_t before = hg.CutCostQ(side);
  util::Rng fm_rng(static_cast<std::uint64_t>(GetParam()));
  const FmStats stats = RefineFm(hg, &side, opt, fm_rng);
  EXPECT_LE(hg.CutCostQ(side), before);
  EXPECT_EQ(stats.final_cut_q, hg.CutCostQ(side));  // reported = actual
  EXPECT_TRUE(stats.feasible);
  const std::int64_t w0_after = hg.PartWeightQ(side, 0);
  EXPECT_GE(w0_after, opt.min_part0_weight_q);
  EXPECT_LE(w0_after, opt.max_part0_weight_q);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmNeverWorsens, ::testing::Values(1, 2, 3, 4));

// Regression: multi-pass FM once corrupted its balance bookkeeping during
// rollback (sign error), producing wildly infeasible partitions. Tight
// tolerances over many random graphs keep that path exercised.
class BipartitionTightBalance : public ::testing::TestWithParam<int> {};

TEST_P(BipartitionTightBalance, StaysWithinTightBounds) {
  const int n = 500;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101);
  Hypergraph hg;
  for (int i = 0; i < n; ++i) hg.AddVertex(1.0 + 3.0 * rng.NextDouble());
  for (int i = 0; i < 2 * n; ++i) {
    const int base = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n)));
    std::vector<std::int32_t> verts = {base};
    const int deg = 2 + static_cast<int>(rng.NextBounded(3));
    for (int d = 1; d < deg; ++d) {
      verts.push_back((base + 1 + static_cast<int>(rng.NextBounded(16))) % n);
    }
    hg.AddNet(0.5 + rng.NextDouble(), verts);
  }
  hg.Finalize();
  PartitionOptions opt;
  opt.tolerance = 0.012;  // the placer's tight z-cut tolerance
  opt.fm_passes = 6;
  opt.seed = static_cast<std::uint64_t>(GetParam());
  const PartitionResult r = Bipartition(hg, opt);
  EXPECT_TRUE(r.feasible) << "fraction " << r.part0_fraction;
  EXPECT_NEAR(r.part0_fraction, 0.5, 0.015);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BipartitionTightBalance,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Bipartition, MoreStartsNeverHurt) {
  util::Rng rng(404);
  Hypergraph hg;
  const int n = 400;
  for (int i = 0; i < n; ++i) hg.AddVertex(1.0);
  for (int i = 0; i < 2 * n; ++i) {
    const int base = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n)));
    std::vector<std::int32_t> verts = {base,
        (base + 1 + static_cast<int>(rng.NextBounded(12))) % n,
        (base + 1 + static_cast<int>(rng.NextBounded(24))) % n};
    hg.AddNet(1.0, verts);
  }
  hg.Finalize();
  PartitionOptions one;
  one.num_starts = 1;
  one.seed = 5;
  PartitionOptions four = one;
  four.num_starts = 4;
  const double cut1 = Bipartition(hg, one).cut_cost;
  const double cut4 = Bipartition(hg, four).cut_cost;
  // Starts use independent RNG forks, so best-of-4 is not a strict superset
  // of the single start; assert no meaningful regression.
  EXPECT_LE(cut4, cut1 * 1.15);
}

/// Mean Bipartition cut over 24 region-shaped hypergraphs of 60 to 290 free
/// vertices, alternating z-cut and lateral tolerances: the sizes where
/// coarsening stalls above kCoarsenTo, so the coarsest-level starts are
/// ranked and refined on graphs of that size. `terminal_prob` goes to
/// fixtures::RegionHypergraph.
double RegionSweepMeanCut(double terminal_prob) {
  double sum = 0.0;
  int count = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const int free_verts = 60 + 10 * static_cast<int>(seed - 1);
    const Hypergraph hg =
        fixtures::RegionHypergraph(seed, free_verts, terminal_prob);
    PartitionOptions opt;
    opt.tolerance = seed % 2 == 0 ? 0.02 : 0.1;
    opt.seed = seed;
    const PartitionResult r = Bipartition(hg, opt);
    EXPECT_TRUE(r.feasible) << "seed " << seed;
    sum += r.cut_cost;
    ++count;
  }
  return sum / count;
}

// Mean cut of the sweep below at the commit before the partitioner refined
// only its best-ranked greedy starts: 13.809015692209167.
constexpr double kRegionSweepParentMeanCut = 13.809015692209167;

TEST(Bipartition, RegionSweepCutStaysNearParent) {
  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  const double mean_cut = RegionSweepMeanCut(0.8);
  obs::InstallMetrics(nullptr);
  EXPECT_GT(registry.Counter("partition/coarsen_stop_stalled"), 0);
  EXPECT_LE(mean_cut, 1.03 * kRegionSweepParentMeanCut);
}

// Mean cut of the sweep at terminal probability 0.2, recorded with 8 greedy
// starts of which the best 2 are refined: 1.4071175089287766.
constexpr double kSparseTerminalSweepMeanCut = 1.4071175089287766;

TEST(Bipartition, SparseTerminalSweepCutStaysNearRecorded) {
  // At the fixture's default terminal probability both terminals sit on
  // ~64% of the nets and every partition cuts those. At 0.2 only ~4% of
  // the nets carry both, so the terminals no longer fix most of the cut.
  const double mean_cut = RegionSweepMeanCut(0.2);
  EXPECT_LE(mean_cut, 1.03 * kSparseTerminalSweepMeanCut);
}

TEST(Bipartition, EmptyAndTinyGraphs) {
  Hypergraph empty;
  empty.Finalize();
  const PartitionResult r0 = Bipartition(empty, {});
  EXPECT_TRUE(r0.side.empty());

  Hypergraph one;
  one.AddVertex(1.0);
  one.Finalize();
  const PartitionResult r1 = Bipartition(one, {.tolerance = 0.5});
  EXPECT_EQ(r1.side.size(), 1u);
}

// ----- golden byte-identity -------------------------------------------------
// FM's move sequence, and with it every placement, depends on how the gain
// structure orders vertices of equal gain: the most recently inserted or
// updated vertex goes first (the LIFO head of the classic bucket list). The
// values below were recorded from that bucket-list implementation on
// region-shaped hypergraphs (fixture in region_hypergraph.h) and pin the
// tie-break: any gain structure must reproduce them exactly.

std::string SideString(const std::vector<std::int8_t>& side) {
  std::string s;
  for (const std::int8_t b : side) s.push_back(static_cast<char>('0' + b));
  return s;
}

std::string Exact(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

TEST(FmGolden, RegionFixtureExercisesZeroWeightNets) {
  // The zero-delta gain updates that the tie-break must count come from
  // nets whose weight quantizes to 0 but that join two free vertices.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Hypergraph hg = fixtures::RegionHypergraph(seed);
    int zero_nets = 0;
    for (std::int32_t n = 0; n < hg.NumNets(); ++n) {
      int free_pins = 0;
      for (const std::int32_t v : hg.NetVerts(n)) {
        free_pins += hg.Fixed(v) == FixedSide::kFree ? 1 : 0;
      }
      if (hg.NetWeightQ(n) == 0 && free_pins >= 2) ++zero_nets;
    }
    EXPECT_GT(zero_nets, 0) << "seed " << seed;
  }
}

TEST(FmGolden, RefineFmMatchesRecordedMoves) {
  struct Golden {
    std::uint64_t seed;
    const char* side;
    int passes;
    std::int64_t initial_cut_q;
    std::int64_t final_cut_q;
    bool feasible;
  };
  const Golden golden[] = {
      {1, "111000110101010011110100001", 2, 4615, 2480, true},
      {2, "111100010100101000000001101", 2, 3926, 3549, true},
      {3, "011111010101110011100001101", 2, 5335, 5272, true},
      {4, "000000011111110111111010101", 2, 12535, 10875, true},
  };
  for (const Golden& g : golden) {
    const Hypergraph hg = fixtures::RegionHypergraph(g.seed);
    util::Rng rng(g.seed);
    std::vector<std::int8_t> side(static_cast<std::size_t>(hg.NumVerts()));
    for (std::int32_t v = 0; v < hg.NumVerts(); ++v) {
      const FixedSide f = hg.Fixed(v);
      side[static_cast<std::size_t>(v)] =
          f == FixedSide::kFree ? static_cast<std::int8_t>(rng.NextBounded(2))
                                : static_cast<std::int8_t>(f);
    }
    FmOptions opt;
    opt.min_part0_weight_q = hg.TotalVertWeightQ() * 4 / 10;
    opt.max_part0_weight_q = hg.TotalVertWeightQ() * 6 / 10;
    const FmStats st = RefineFm(hg, &side, opt, rng);
    EXPECT_EQ(SideString(side), g.side) << "seed " << g.seed;
    EXPECT_EQ(st.passes, g.passes) << "seed " << g.seed;
    EXPECT_EQ(st.initial_cut_q, g.initial_cut_q) << "seed " << g.seed;
    EXPECT_EQ(st.final_cut_q, g.final_cut_q) << "seed " << g.seed;
    EXPECT_EQ(st.feasible, g.feasible) << "seed " << g.seed;
  }
}

TEST(FmGolden, BipartitionMatchesRecordedResult) {
  struct Golden {
    std::uint64_t seed;
    int free_verts;
    double tolerance;  // 0.02 is a z cut, wider ones lateral cuts
    int num_starts;
    const char* side;
    const char* cut_cost;  // exact, 17 significant digits
    bool feasible;
  };
  // 200 free vertices coarsen below kCoarsenTo = 64 (partitioner.cpp)
  // before FM runs on the V-cycle's way back up; the small regions refine
  // flat.
  const Golden golden[] = {
      {1, 25, 0.1, 1, "011100010001110110011100001", "0.84523527212014338",
       true},
      {2, 25, 0.02, 1, "101111101010010111000001001", "1.6409181380588507",
       true},
      {3, 25, 0.2, 2, "101111010100110101010100101", "2.5640101130640094",
       true},
      {4, 200, 0.1, 1,
       "11000001110101101110110100111100110001011111000111010110111000001000"
       "11111110110001110011000100011111000000000000101100001000111010010011"
       "111110101011111000010110010111101100000010011110100001001110011101",
       "12.717654365935495", true},
  };
  for (const Golden& g : golden) {
    const Hypergraph hg = fixtures::RegionHypergraph(g.seed, g.free_verts);
    PartitionOptions opt;
    opt.tolerance = g.tolerance;
    opt.num_starts = g.num_starts;
    opt.seed = g.seed;
    const PartitionResult r = Bipartition(hg, opt);
    EXPECT_EQ(SideString(r.side), g.side) << "seed " << g.seed;
    EXPECT_EQ(Exact(r.cut_cost), g.cut_cost) << "seed " << g.seed;
    EXPECT_EQ(r.feasible, g.feasible) << "seed " << g.seed;
  }
}

}  // namespace
}  // namespace p3d::partition
