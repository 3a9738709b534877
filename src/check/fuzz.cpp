#include "check/fuzz.h"

#include <algorithm>
#include <cstdio>

#include "util/log.h"
#include "util/rng.h"

namespace p3d::check {
namespace {

constexpr double kAreaPerCell = 4.9e-12;  // Table 1 average, m^2
// Every fuzz case runs under the strictest audit.
constexpr AuditLevel kFuzzAuditLevel = AuditLevel::kParanoid;

}  // namespace

FuzzCase MakeFuzzCase(std::uint64_t seed) {
  // Every knob is drawn from one SplitMix64 stream keyed by the seed, so a
  // seed alone reconstructs the whole case.
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5fc2d1);
  FuzzCase c;
  c.seed = seed;

  c.spec.name = "fuzz" + std::to_string(seed);
  c.spec.num_cells = 60 + static_cast<std::int32_t>(rng.NextBounded(200));
  c.spec.total_area_m2 = c.spec.num_cells * kAreaPerCell;
  c.spec.rent_locality = rng.NextDouble(0.6, 0.9);
  c.spec.num_pads =
      rng.NextBool() ? 0 : 8 + static_cast<std::int32_t>(rng.NextBounded(12));
  c.spec.seed = rng.NextU64();

  static constexpr double kAlphaIlv[] = {0.0, 1e-6, 1e-5, 1e-4};
  static constexpr double kAlphaTemp[] = {0.0, 5e-7, 5e-6, 5e-5};
  c.params.num_layers = 2 + static_cast<int>(rng.NextBounded(4));
  c.params.alpha_ilv = kAlphaIlv[rng.NextBounded(4)];
  c.params.alpha_temp = kAlphaTemp[rng.NextBounded(4)];
  c.params.threads = 1 + static_cast<int>(rng.NextBounded(4));
  c.params.partition_starts = 1 + static_cast<int>(rng.NextBounded(2));
  c.params.legalization_repeats = 1 + static_cast<int>(rng.NextBounded(2));
  c.params.moveswap_rounds = 1 + static_cast<int>(rng.NextBounded(2));
  static constexpr int kResync[] = {256, 1024, 4096};
  c.params.objective_resync_interval = kResync[rng.NextBounded(3)];
  c.params.seed = rng.NextU64();
  return c;
}

std::string ReproLine(const FuzzCase& c) {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "(seed=%llu cells=%d pads=%d locality=%.3f spec_seed=%llu layers=%d "
      "alpha_ilv=%g alpha_temp=%g threads=%d starts=%d repeats=%d "
      "msrounds=%d resync=%d placer_seed=%llu)",
      static_cast<unsigned long long>(c.seed), c.spec.num_cells,
      c.spec.num_pads, c.spec.rent_locality,
      static_cast<unsigned long long>(c.spec.seed), c.params.num_layers,
      c.params.alpha_ilv, c.params.alpha_temp, c.params.threads,
      c.params.partition_starts, c.params.legalization_repeats,
      c.params.moveswap_rounds, c.params.objective_resync_interval,
      static_cast<unsigned long long>(c.params.seed));
  return buf;
}

FuzzOutcome RunFuzzCase(const FuzzCase& c) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  FuzzOutcome out;
  out.repro = ReproLine(c);

  const netlist::Netlist nl = io::Generate(c.spec);
  util::StatusOr<place::Placer3D> placer_or =
      place::Placer3D::Create(nl, c.params);
  if (!placer_or.ok()) {
    out.ok = false;
    out.failure = "create: " + placer_or.status().ToString();
    return out;
  }
  place::Placer3D& placer = *placer_or;
  place::Placement initial;
  initial.Resize(static_cast<std::size_t>(nl.NumCells()));
  if (c.spec.num_pads > 0) {
    io::PlacePadRing(nl, placer.chip().width(), placer.chip().height(),
                     &initial);
  }
  PlacementAuditor auditor(nl, kFuzzAuditLevel);
  auditor.Attach(&placer);
  auditor.SetFixedBaseline(initial);
  out.result = *placer.Run({.initial = initial, .with_fea = false});
  out.audit = auditor.report();

  if (!auditor.ok()) {
    out.ok = false;
    const Violation& v = out.audit.violations.front();
    out.failure = "audit [" + v.phase + "/" + v.check + "] " + v.message;
    return out;
  }
  if (!out.result.legal) {
    out.ok = false;
    out.failure = "final placement not legal (" +
                  std::to_string(out.result.overlaps) + " overlaps)";
    return out;
  }

  // Determinism property: threads and auditing are pure observers.
  place::PlacerParams replay_params = c.params;
  replay_params.threads = 1;
  place::Placer3D p1 = *place::Placer3D::Create(nl, replay_params);
  const place::PlacementResult r1 = *p1.Run({.initial = initial, .with_fea = false});
  if (r1.placement.x != out.result.placement.x ||
      r1.placement.y != out.result.placement.y ||
      r1.placement.layer != out.result.placement.layer) {
    out.ok = false;
    out.failure =
        "determinism: threads=1/audit-off rerun diverged from threads=" +
        std::to_string(c.params.threads) + "/paranoid run";
  }
  return out;
}

FuzzOutcome RunSeed(std::uint64_t seed) {
  FuzzCase c = MakeFuzzCase(seed);
  FuzzOutcome out = RunFuzzCase(c);
  if (out.ok) return out;

  // Greedy shrink: each transformation is kept only while the case still
  // fails, so the reported repro is a local minimum.
  FuzzCase smallest = c;
  FuzzOutcome failing = out;
  auto try_shrink = [&](FuzzCase candidate) {
    const FuzzOutcome o = RunFuzzCase(candidate);
    if (!o.ok) {
      smallest = candidate;
      failing = o;
    }
  };
  for (int i = 0; i < 3 && smallest.spec.num_cells > 60; ++i) {
    FuzzCase candidate = smallest;
    candidate.spec.num_cells = std::max(60, candidate.spec.num_cells / 2);
    candidate.spec.total_area_m2 = candidate.spec.num_cells * kAreaPerCell;
    try_shrink(candidate);
  }
  if (smallest.params.legalization_repeats > 1) {
    FuzzCase candidate = smallest;
    candidate.params.legalization_repeats = 1;
    try_shrink(candidate);
  }
  if (smallest.params.moveswap_rounds > 1) {
    FuzzCase candidate = smallest;
    candidate.params.moveswap_rounds = 1;
    try_shrink(candidate);
  }
  if (smallest.spec.num_pads > 0) {
    FuzzCase candidate = smallest;
    candidate.spec.num_pads = 0;
    try_shrink(candidate);
  }
  util::LogWarn("fuzz: seed %llu failed; smallest repro %s: %s",
                static_cast<unsigned long long>(seed),
                ReproLine(smallest).c_str(), failing.failure.c_str());
  return failing;
}

}  // namespace p3d::check
