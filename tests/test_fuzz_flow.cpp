// Property-based fuzz harness over the full placement flow: 25 seeded
// randomized benchmarks + configurations, each run under a paranoid audit,
// must produce zero audit violations, a legal final placement, and a
// byte-identical threads=1/audit-off rerun. On failure the harness shrinks
// and prints a one-line repro.
//
// Seeds are SeedBase()..SeedBase()+24; the nightly CI job rolls
// P3D_FUZZ_SEED_BASE so coverage accumulates across runs while any single
// run stays reproducible from the logged repro line.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "check/fuzz.h"

namespace p3d::check {
namespace {

std::uint64_t SeedBase() {
  const char* env = std::getenv("P3D_FUZZ_SEED_BASE");
  if (env == nullptr || env[0] == '\0') return 1;
  const unsigned long long v = std::strtoull(env, nullptr, 10);
  return v == 0 ? 1 : static_cast<std::uint64_t>(v);
}

class FuzzFlow : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFlow, SeededFlowPassesParanoidAudit) {
  const std::uint64_t seed =
      SeedBase() + static_cast<std::uint64_t>(GetParam());
  const FuzzOutcome o = RunSeed(seed);
  EXPECT_TRUE(o.ok) << "fuzz repro " << o.repro << "\n"
                    << o.failure << "\n"
                    << o.audit.Summary();
  // Paranoid mode must actually have replayed the flow's commit history.
  EXPECT_GT(o.audit.replayed_ops, 0u) << o.repro;
  EXPECT_GT(o.audit.phases_audited, 2) << o.repro;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFlow, ::testing::Range(0, 25));

}  // namespace
}  // namespace p3d::check
