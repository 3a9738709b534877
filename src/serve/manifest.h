// Jobs-manifest loader for the serve engine (`tools/placed`, CI smoke).
//
// A manifest is a JSON document describing one batch of placement jobs over
// the synthetic Table-1 circuits:
//
//   {
//     "schema": "placer3d.jobs", "version": 1,
//     "seed": 42,                      // base seed (optional, default 12345)
//     "defaults": {"circuit": "ibm01", "scale": 0.02, "layers": 4},
//     "jobs": [
//       {"name": "ilv_lo", "alpha_ilv": 5e-9},
//       {"name": "ilv_hi", "alpha_ilv": 5.2e-3, "priority": 2},
//       {"name": "therm",  "alpha_temp": 4.1e-5, "with_fea": true}
//     ]
//   }
//
// Per-job fields (each falls back to `defaults`, then to the built-in
// default): circuit, scale, layers, alpha_ilv, alpha_temp, seed, priority,
// threads, with_fea, fea_per_pass and start_deadline_s. Any other key in a
// job or in `defaults` is a manifest error (kParseError naming the key). No
// field selects the FEA preconditioner: every run solves with the constant
// place::RunOptions::preconditioner, multigrid.
// Integer fields (layers, threads, priority, and the top-level and per-job
// seed) must be whole numbers in their type's range.
//
// Determinism: a job without an explicit "seed" gets
// runtime::DeriveSeed(base_seed, job_index) — a pure function of the
// manifest, independent of worker count or scheduling. Netlists are
// generated once per distinct (circuit, scale) pair and shared by the jobs
// that use them; the manifest object keeps them alive.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "serve/job_engine.h"
#include "util/status.h"

namespace p3d::serve {

inline constexpr const char* kJobsManifestSchema = "placer3d.jobs";
inline constexpr int kJobsManifestVersion = 1;

struct JobsManifest {
  std::vector<JobSpec> jobs;  // netlist pointers aim into `netlists`
  // Generated circuits, deduplicated by (circuit, scale); shared_ptr keeps
  // addresses stable across moves of the manifest.
  std::vector<std::shared_ptr<const netlist::Netlist>> netlists;
  std::uint64_t base_seed = 12345;
};

/// Parses a manifest document from JSON text.
util::StatusOr<JobsManifest> ParseJobsManifest(const std::string& text);

/// Reads and parses a manifest file.
util::StatusOr<JobsManifest> LoadJobsManifest(const std::string& path);

}  // namespace p3d::serve
