// Unit tests of the audit subsystem (src/check): each invariant checker
// against hand-built violations, the replay verifier against tampered
// histories (the ISSUE acceptance "injected overlap / stale-delta mutation
// is caught"), resync equivalence, and the auditor over real flows.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "check/audit.h"
#include "check/fuzz.h"
#include "check/invariants.h"
#include "check/replay.h"
#include "io/synthetic.h"
#include "partition/partitioner.h"
#include "place/legalize.h"
#include "place/placer.h"
#include "util/log.h"
#include "util/rng.h"

namespace p3d::check {
namespace {

netlist::Netlist SmallCircuit(std::int32_t cells, std::uint64_t seed,
                              std::int32_t pads = 0) {
  io::SyntheticSpec spec;
  spec.name = "chk";
  spec.num_cells = cells;
  spec.total_area_m2 = cells * 4.9e-12;
  spec.num_pads = pads;
  spec.seed = seed;
  return io::Generate(spec);
}

/// A placed flow result plus everything needed to audit it.
struct PlacedFlow {
  netlist::Netlist nl;
  place::PlacerParams params;
  place::PlacementResult result;
  place::Chip chip;
};

PlacedFlow RunSmallFlow(std::int32_t cells, std::uint64_t seed,
                        double alpha_temp = 0.0) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  PlacedFlow f;
  f.nl = SmallCircuit(cells, seed);
  f.params.num_layers = 3;
  f.params.alpha_temp = alpha_temp;
  f.params.seed = seed * 31 + 7;
  place::Placer3D placer = *place::Placer3D::Create(f.nl, f.params);
  f.result = *placer.Run({.with_fea = false});
  f.chip = placer.chip();
  return f;
}

// ----- legality invariants --------------------------------------------------

TEST(Invariants, BoundsCatchesEscapedCell) {
  PlacedFlow f = RunSmallFlow(80, 3);
  ASSERT_TRUE(f.result.legal);
  std::vector<Violation> out;
  EXPECT_EQ(0, CheckBounds(f.nl, f.chip, f.result.placement, true, &out));

  place::Placement bad = f.result.placement;
  bad.x[5] = 2.0 * f.chip.width();
  EXPECT_EQ(1, CheckBounds(f.nl, f.chip, bad, true, &out));
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ(5, out[0].cell);
  EXPECT_NE(out[0].message.find("outside die"), std::string::npos);
}

TEST(Invariants, LayerRangeChecked) {
  PlacedFlow f = RunSmallFlow(80, 4);
  std::vector<Violation> out;
  EXPECT_EQ(0, CheckLayers(f.nl, f.result.placement, 3, &out));
  place::Placement bad = f.result.placement;
  bad.layer[2] = 7;
  bad.layer[3] = -1;
  EXPECT_EQ(2, CheckLayers(f.nl, bad, 3, &out));
}

TEST(Invariants, FiniteCatchesNan) {
  PlacedFlow f = RunSmallFlow(60, 5);
  std::vector<Violation> out;
  place::Placement bad = f.result.placement;
  bad.y[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(1, CheckFinite(f.nl, bad, &out));
  EXPECT_EQ(1, out[0].cell);
}

TEST(Invariants, RowAlignmentDetectsOffRowCell) {
  PlacedFlow f = RunSmallFlow(80, 6);
  ASSERT_TRUE(f.result.legal);
  std::vector<Violation> out;
  EXPECT_EQ(0, CheckRowAlignment(f.nl, f.chip, f.result.placement, &out));
  place::Placement bad = f.result.placement;
  bad.y[0] += 0.3 * f.chip.row_height();
  EXPECT_EQ(1, CheckRowAlignment(f.nl, f.chip, bad, &out));
}

TEST(Invariants, FixedUntouchedDetectsMovedPad) {
  const netlist::Netlist nl = SmallCircuit(60, 7, /*pads=*/8);
  place::Placement base;
  base.Resize(static_cast<std::size_t>(nl.NumCells()));
  io::PlacePadRing(nl, 1e-4, 1e-4, &base);
  place::Placement moved = base;
  std::vector<Violation> out;
  EXPECT_EQ(0, CheckFixedUntouched(nl, base, moved, &out));
  // First pad cell is the first fixed cell.
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (nl.cell(c).fixed) {
      moved.x[static_cast<std::size_t>(c)] += 1e-6;
      break;
    }
  }
  EXPECT_EQ(1, CheckFixedUntouched(nl, base, moved, &out));
  EXPECT_NE(out[0].message.find("moved from"), std::string::npos);
}

// ----- overlap sweep-line ---------------------------------------------------

TEST(OverlapSweep, ZeroOnLegalPlacementAndAgreesWithLegalizer) {
  PlacedFlow f = RunSmallFlow(120, 8);
  ASSERT_TRUE(f.result.legal);
  EXPECT_EQ(0, CountOverlapsSweep(f.nl, f.result.placement, nullptr));
  EXPECT_EQ(0, place::DetailedLegalizer::CountOverlaps(f.nl,
                                                       f.result.placement));
}

TEST(OverlapSweep, InjectedOverlapCaughtWithActionableMessage) {
  // Acceptance: a deliberately injected overlap must be caught, naming both
  // cells with coordinates.
  PlacedFlow f = RunSmallFlow(120, 9);
  ASSERT_TRUE(f.result.legal);
  place::Placement bad = f.result.placement;
  // Park cell 1 exactly on top of cell 0: same center, same layer.
  bad.x[1] = bad.x[0];
  bad.y[1] = bad.y[0];
  bad.layer[1] = bad.layer[0];
  Violation first;
  EXPECT_GE(CountOverlapsSweep(f.nl, bad, &first), 1);
  EXPECT_NE(first.message.find("overlap on layer"), std::string::npos);
  EXPECT_NE(first.message.find("cell"), std::string::npos);

  std::vector<Violation> out;
  EXPECT_EQ(1, CheckNoOverlap(f.nl, bad, &out));
}

TEST(OverlapSweep, CountsAllPairsInStack) {
  // Three cells stacked at one spot = 3 overlapping pairs; the sweep must
  // count every pair, not just band-adjacent ones.
  netlist::Netlist nl;
  for (int i = 0; i < 3; ++i) nl.AddCell("c" + std::to_string(i), 2e-6, 1e-6);
  ASSERT_TRUE(nl.Finalize());
  place::Placement p;
  p.Resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    p.x[i] = 5e-6;
    p.y[i] = 5e-6;
    p.layer[i] = 0;
  }
  EXPECT_EQ(3, CountOverlapsSweep(nl, p, nullptr));
  // A touching (abutted) neighbour does not overlap.
  p.x[2] = 5e-6 + 2e-6;
  EXPECT_EQ(1, CountOverlapsSweep(nl, p, nullptr));
  // Different layer never overlaps.
  p.layer[1] = 1;
  p.x[2] = 5e-6;
  EXPECT_EQ(1, CountOverlapsSweep(nl, p, nullptr));
}

// ----- conservation ---------------------------------------------------------

TEST(Conservation, DetectsPlacementResize) {
  const netlist::Netlist nl = SmallCircuit(50, 10);
  const ConservationSnapshot snap = ConservationSnapshot::Of(nl);
  place::Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  std::vector<Violation> out;
  EXPECT_EQ(0, CheckConservation(nl, snap, p, &out));
  p.x.pop_back();
  EXPECT_GT(CheckConservation(nl, snap, p, &out), 0);
}

TEST(Conservation, SnapshotSensitiveToPinMembership) {
  const netlist::Netlist a = SmallCircuit(50, 11);
  const netlist::Netlist b = SmallCircuit(50, 12);  // different wiring
  EXPECT_NE(ConservationSnapshot::Of(a).pin_checksum,
            ConservationSnapshot::Of(b).pin_checksum);
}

// ----- objective consistency & resync ---------------------------------------

TEST(ObjectiveConsistency, HoldsAfterThousandsOfCommitsAndResyncIsExact) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = SmallCircuit(150, 13);
  place::PlacerParams params;
  params.num_layers = 3;
  params.alpha_temp = 5e-6;  // exercise the thermal term too
  params.SyncStack();
  const place::Chip chip =
      *place::Chip::Build(nl, params.num_layers, params.whitespace,
                         params.inter_row_space);
  place::ObjectiveEvaluator eval(nl, chip, params);
  place::Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  util::Rng rng(99);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
    p.layer[i] = rng.NextInt(0, params.num_layers - 1);
  }
  eval.SetPlacement(p);
  for (int i = 0; i < 5000; ++i) {
    const auto cell = static_cast<std::int32_t>(
        rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
    if (rng.NextBool()) {
      eval.CommitMove(cell, rng.NextDouble(0.0, chip.width()),
                      rng.NextDouble(0.0, chip.height()),
                      rng.NextInt(0, params.num_layers - 1));
    } else {
      const auto other = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      if (other != cell) eval.CommitSwap(cell, other);
    }
  }
  std::vector<Violation> out;
  EXPECT_EQ(0, CheckObjectiveConsistency(eval, ObjectiveTolerance{}, &out))
      << (out.empty() ? "" : out[0].message);

  // ResyncTotals must land bit-identical to a from-scratch recomputation.
  eval.ResyncTotals();
  const double synced = eval.Total();
  const double synced_hpwl = eval.TotalHpwl();
  const long long synced_ilv = eval.TotalIlv();
  const double fresh = eval.RecomputeFull();
  EXPECT_EQ(synced, fresh);
  EXPECT_EQ(synced_hpwl, eval.TotalHpwl());
  EXPECT_EQ(synced_ilv, eval.TotalIlv());
}

// ----- replay ---------------------------------------------------------------

struct ReplayFixture {
  netlist::Netlist nl;
  place::PlacerParams params;
  place::Chip chip;
  std::unique_ptr<place::ObjectiveEvaluator> eval;
  MoveLog log;
  place::Placement final_placement;

  explicit ReplayFixture(std::uint64_t seed, int commits = 400) {
    nl = SmallCircuit(100, seed);
    params.num_layers = 3;
    params.alpha_temp = 5e-6;
    params.SyncStack();
    chip = *place::Chip::Build(nl, params.num_layers, params.whitespace,
                              params.inter_row_space);
    eval = std::make_unique<place::ObjectiveEvaluator>(nl, chip, params);
    eval->AddCommitListener(&log);
    place::Placement p;
    p.Resize(static_cast<std::size_t>(nl.NumCells()));
    util::Rng rng(seed);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.x[i] = rng.NextDouble(0.0, chip.width());
      p.y[i] = rng.NextDouble(0.0, chip.height());
      p.layer[i] = rng.NextInt(0, params.num_layers - 1);
    }
    eval->SetPlacement(p);  // anchors the log
    for (int i = 0; i < commits; ++i) {
      const auto cell = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      const auto other = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      if (rng.NextBool() || other == cell) {
        eval->CommitMove(cell, rng.NextDouble(0.0, chip.width()),
                         rng.NextDouble(0.0, chip.height()),
                         rng.NextInt(0, params.num_layers - 1));
      } else {
        eval->CommitSwap(cell, other);
      }
    }
    final_placement = eval->placement();
  }
};

TEST(Replay, FaithfulHistoryVerifies) {
  ReplayFixture f(21);
  const ReplayResult r =
      ReplayAndVerify(f.nl, f.chip, f.params, f.log, &f.final_placement);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_EQ(400u, r.ops_checked);
  EXPECT_LT(r.max_delta_err, 1e-9);
}

TEST(Replay, StaleDeltaMutationCaught) {
  // Acceptance: an injected stale-delta (a recorded incremental delta that
  // disagrees with the true objective change) must be caught.
  ReplayFixture f(22);
  f.log.ops()[200].delta += 1e-3;
  const ReplayResult r =
      ReplayAndVerify(f.nl, f.chip, f.params, f.log, &f.final_placement);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("op 200"), std::string::npos);
  EXPECT_NE(r.message.find("mismatch"), std::string::npos);
}

TEST(Replay, TamperedTargetPositionCaught) {
  ReplayFixture f(23);
  // Find a move op and bend its target: the replayed placement diverges.
  auto& ops = f.log.ops();
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (!it->is_swap) {
      it->x += 1e-6;
      break;
    }
  }
  const ReplayResult r =
      ReplayAndVerify(f.nl, f.chip, f.params, f.log, &f.final_placement);
  EXPECT_FALSE(r.ok);
}

// ----- partition balance ----------------------------------------------------

TEST(PartitionBalance, AuditAgreesWithFeasibility) {
  const netlist::Netlist nl = SmallCircuit(200, 14);
  partition::Hypergraph hg;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    hg.AddVertex(nl.cell(c).Area());
  }
  std::vector<std::int32_t> verts;
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    verts.clear();
    for (const auto& pin : nl.NetPins(n)) verts.push_back(pin.cell);
    hg.AddNet(1.0, verts);
  }
  hg.Finalize();
  partition::PartitionOptions opt;
  opt.tolerance = 0.05;
  opt.seed = 3;
  const partition::PartitionResult r = partition::Bipartition(hg, opt);
  const partition::BalanceAudit audit =
      partition::AuditBalance(hg, r.side, opt.target_fraction, opt.tolerance);
  EXPECT_EQ(r.feasible, audit.within);
  EXPECT_NEAR(audit.fraction, r.part0_fraction, 1e-12);

  // A grossly unbalanced assignment must fail the audit.
  std::vector<std::int8_t> all0(static_cast<std::size_t>(hg.NumVerts()), 0);
  EXPECT_FALSE(
      partition::AuditBalance(hg, all0, 0.5, 0.1).within);
}

// ----- the auditor over real flows ------------------------------------------

TEST(PlacementAuditor, CleanFlowPassesPhaseAudit) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = SmallCircuit(120, 15, /*pads=*/10);
  place::PlacerParams params;
  params.num_layers = 3;
  params.alpha_temp = 5e-6;
  place::Placer3D placer = *place::Placer3D::Create(nl, params);
  place::Placement initial;
  initial.Resize(static_cast<std::size_t>(nl.NumCells()));
  io::PlacePadRing(nl, placer.chip().width(), placer.chip().height(),
                   &initial);
  PlacementAuditor auditor(nl, AuditLevel::kPhase);
  auditor.Attach(&placer);
  auditor.SetFixedBaseline(initial);
  const place::PlacementResult r = *placer.Run({.initial = initial, .with_fea = false});
  EXPECT_TRUE(r.legal);
  EXPECT_TRUE(auditor.ok()) << auditor.report().Summary();
  EXPECT_GE(auditor.report().phases_audited, 4);
  EXPECT_EQ(0u, auditor.report().replayed_ops);  // phase mode: no replay
}

TEST(PlacementAuditor, ParanoidFlowReplaysCommits) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = SmallCircuit(100, 16);
  place::PlacerParams params;
  params.num_layers = 3;
  place::Placer3D placer = *place::Placer3D::Create(nl, params);
  PlacementAuditor auditor(nl, AuditLevel::kParanoid);
  auditor.Attach(&placer);
  const place::PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_TRUE(r.legal);
  EXPECT_TRUE(auditor.ok()) << auditor.report().Summary();
  EXPECT_GT(auditor.report().replayed_ops, 0u);
}

TEST(PlacementAuditor, AuditNowFlagsCorruptedState) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  PlacedFlow f = RunSmallFlow(100, 17);
  ASSERT_TRUE(f.result.legal);
  f.params.SyncStack();
  place::ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  place::Placement bad = f.result.placement;
  bad.x[3] = bad.x[2];  // stack cell 3 on cell 2
  bad.y[3] = bad.y[2];
  bad.layer[3] = bad.layer[2];
  eval.SetPlacement(bad);
  PlacementAuditor auditor(f.nl, AuditLevel::kPhase);
  auditor.AuditNow("final", eval);
  ASSERT_FALSE(auditor.ok());
  const Violation& v = auditor.report().violations.front();
  EXPECT_EQ("overlap", v.check);
  EXPECT_EQ("final", v.phase);
}

TEST(PlacementAuditor, SummaryIsActionable) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  PlacedFlow f = RunSmallFlow(80, 18);
  f.params.SyncStack();
  place::ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  place::Placement bad = f.result.placement;
  bad.x[0] = -1.0;
  eval.SetPlacement(bad);
  PlacementAuditor auditor(f.nl, AuditLevel::kPhase);
  auditor.AuditNow("detailed", eval);
  ASSERT_FALSE(auditor.ok());
  const std::string summary = auditor.report().Summary();
  EXPECT_NE(summary.find("VIOLATION"), std::string::npos);
  EXPECT_NE(summary.find("cell 0"), std::string::npos);   // which cell
  EXPECT_NE(summary.find("detailed"), std::string::npos); // which phase
}

// ----- fuzz harness plumbing ------------------------------------------------

TEST(Fuzz, CaseDerivationIsDeterministicAndVaried) {
  const FuzzCase a = MakeFuzzCase(42);
  const FuzzCase b = MakeFuzzCase(42);
  EXPECT_EQ(ReproLine(a), ReproLine(b));
  const FuzzCase c = MakeFuzzCase(43);
  EXPECT_NE(ReproLine(a), ReproLine(c));
}

TEST(Fuzz, ReproLineNamesEveryKnob) {
  const std::string line = ReproLine(MakeFuzzCase(7));
  for (const char* key :
       {"seed=", "cells=", "pads=", "layers=", "alpha_ilv=", "alpha_temp=",
        "threads=", "starts=", "repeats=", "resync="}) {
    EXPECT_NE(line.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace p3d::check
