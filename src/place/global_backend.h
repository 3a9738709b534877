// Forwarding header for the global-placement phase.
//
// Global placement has one engine, GlobalPlacer (place/global.h). This header
// and its two names exist only because bench/e2e compiles against them and
// BENCHMARK.json's `paths` freeze that directory; new code includes
// place/global.h and constructs GlobalPlacer directly.
#pragma once

#include <memory>

#include "place/global.h"
#include "util/status.h"

namespace p3d::place {

using GlobalPlacerBackend = GlobalPlacer;

/// Constructs the global placer over `eval` (which must outlive it).
inline util::StatusOr<std::unique_ptr<GlobalPlacerBackend>>
MakeGlobalPlacerBackend(const ObjectiveEvaluator& eval) {
  return std::make_unique<GlobalPlacer>(eval);
}

}  // namespace p3d::place
