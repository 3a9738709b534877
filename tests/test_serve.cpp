// Serve-layer tests: JobEngine scheduling semantics (determinism across
// worker counts, cancellation, priority), the cross-job FeaAssemblyCache,
// the jobs-manifest loader, and the batch report.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/synthetic.h"
#include "place/instrument.h"
#include "runtime/stream.h"
#include "serve/batch.h"
#include "serve/fea_cache.h"
#include "serve/job_engine.h"
#include "serve/manifest.h"
#include "util/log.h"
#include "util/status.h"

namespace p3d::serve {
namespace {

netlist::Netlist Circuit(int cells, std::uint64_t seed = 51) {
  io::SyntheticSpec spec;
  spec.name = "serve";
  spec.num_cells = cells;
  spec.total_area_m2 = cells * 4.9e-12;
  spec.seed = seed;
  return io::Generate(spec);
}

place::PlacerParams Params(int layers, double alpha_ilv = 1e-5,
                           double alpha_temp = 0.0) {
  place::PlacerParams p;
  p.num_layers = layers;
  p.alpha_ilv = alpha_ilv;
  p.alpha_temp = alpha_temp;
  return p;
}

/// Parks the calling worker inside the placer at the first phase boundary
/// until Unblock(), so a test can observe a job mid-run.
class PhaseBlocker : public place::PhaseObserver {
 public:
  void OnPhase(const char* /*phase*/, int /*round*/,
               const place::ObjectiveEvaluator& /*eval*/,
               const place::GlobalPlaceStats* /*stats*/) override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (fired_) return;  // block only at the first boundary
    fired_ = true;
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    blocked_ = false;
  }

  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return blocked_; });
  }

  void Unblock() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool fired_ = false;
  bool blocked_ = false;
  bool released_ = false;
};

JobSpec SpecFor(const netlist::Netlist& nl, const std::string& name,
                double alpha_ilv, double alpha_temp, bool with_fea) {
  JobSpec spec;
  spec.name = name;
  spec.netlist = &nl;
  spec.params = Params(4, alpha_ilv, alpha_temp);
  spec.options.with_fea = with_fea;
  return spec;
}

// ---------------------------------------------------------------------------
// Determinism across worker counts
// ---------------------------------------------------------------------------

TEST(JobEngine, ResultsAreByteIdenticalAcrossWorkerCounts) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);
  const std::vector<std::pair<double, double>> grid = {
      {5e-9, 0.0}, {1e-5, 0.0}, {1e-5, 1e-6}, {5.2e-3, 0.0},
      {1e-5, 4.1e-5}, {8e-8, 1e-7}};

  struct Snapshot {
    place::Placement placement;
    std::string dump;
  };
  std::vector<Snapshot> reference;
  for (const int workers : {1, 8}) {
    JobEngineOptions opts;
    opts.num_workers = workers;
    opts.thread_budget = 1;  // same per-job configuration at both counts
    JobEngine engine(opts);
    std::vector<JobHandle> handles;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      auto h = engine.Submit(SpecFor(nl, "job" + std::to_string(i),
                                     grid[i].first, grid[i].second,
                                     /*with_fea=*/true));
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      handles.push_back(*h);
    }
    engine.WaitAll();
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const JobResult* r = engine.Result(handles[i]);
      ASSERT_NE(r, nullptr);
      ASSERT_TRUE(r->status.ok()) << r->status.ToString();
      if (workers == 1) {
        reference.push_back({r->placement.placement, r->metrics_dump});
      } else {
        // Byte-identical placement AND byte-identical deterministic
        // metrics dump, alone or among concurrent jobs.
        EXPECT_EQ(r->placement.placement.x, reference[i].placement.x)
            << "job " << i;
        EXPECT_EQ(r->placement.placement.y, reference[i].placement.y)
            << "job " << i;
        EXPECT_EQ(r->placement.placement.layer, reference[i].placement.layer)
            << "job " << i;
        EXPECT_EQ(r->metrics_dump, reference[i].dump) << "job " << i;
      }
    }
  }
}

TEST(JobEngine, EngineJobMatchesStandalonePlacerRun) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);

  place::Placer3D standalone =
      *place::Placer3D::Create(nl, Params(4, 1e-5, 1e-6));
  const place::PlacementResult direct = *standalone.Run({.with_fea = true});

  JobEngineOptions opts;
  opts.num_workers = 4;
  JobEngine engine(opts);
  auto h = engine.Submit(SpecFor(nl, "match", 1e-5, 1e-6, true));
  ASSERT_TRUE(h.ok());
  const JobResult* r = engine.Wait(*h);
  ASSERT_NE(r, nullptr);
  ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  EXPECT_EQ(r->placement.placement.x, direct.placement.x);
  EXPECT_EQ(r->placement.placement.y, direct.placement.y);
  EXPECT_EQ(r->placement.placement.layer, direct.placement.layer);
  EXPECT_DOUBLE_EQ(r->placement.hpwl_m, direct.hpwl_m);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(JobEngine, CancelQueuedJobCompletesImmediately) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);
  PhaseBlocker blocker;

  JobEngineOptions opts;
  opts.num_workers = 1;
  JobEngine engine(opts);

  JobSpec running = SpecFor(nl, "running", 1e-5, 0.0, false);
  running.observers.push_back(&blocker);
  auto h_running = engine.Submit(std::move(running));
  ASSERT_TRUE(h_running.ok());
  blocker.WaitUntilBlocked();  // the single worker is now occupied

  auto h_queued = engine.Submit(SpecFor(nl, "queued", 1e-5, 0.0, false));
  ASSERT_TRUE(h_queued.ok());
  ASSERT_EQ(*engine.Poll(*h_queued), JobState::kQueued);

  EXPECT_TRUE(engine.Cancel(*h_queued));
  // A queued cancel completes without waiting for the worker.
  EXPECT_EQ(*engine.Poll(*h_queued), JobState::kDone);
  const JobResult* r = engine.Result(*h_queued);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(util::IsCancelled(r->status)) << r->status.ToString();
  EXPECT_FALSE(engine.Cancel(*h_queued));  // already done

  blocker.Unblock();
  engine.WaitAll();
  EXPECT_EQ(engine.GetStats().cancelled, 1);
  EXPECT_EQ(engine.GetStats().completed, 1);
}

TEST(JobEngine, CancelRunningJobStopsAtPhaseBoundaryAndReleasesCacheRef) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);
  PhaseBlocker blocker;

  JobEngineOptions opts;
  opts.num_workers = 1;
  JobEngine engine(opts);

  // with_fea = true so the job holds a cached FEA assembly while running.
  JobSpec spec = SpecFor(nl, "victim", 1e-5, 1e-6, true);
  spec.observers.push_back(&blocker);
  auto h = engine.Submit(std::move(spec));
  ASSERT_TRUE(h.ok());

  blocker.WaitUntilBlocked();
  EXPECT_EQ(engine.GetStats().fea_cache.live_entries, 1);
  EXPECT_TRUE(engine.Cancel(*h));  // flags the running job
  blocker.Unblock();

  const JobResult* r = engine.Wait(*h);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(util::IsCancelled(r->status)) << r->status.ToString();
  // The placer reports WHERE the cancel won — a phase boundary, not the end
  // of the run.
  EXPECT_NE(r->status.message().find("boundary"), std::string::npos)
      << r->status.message();
  // The cancelled job dropped its assembly: the entry is idle, not live.
  const JobEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.fea_cache.live_entries, 0);
  EXPECT_EQ(stats.fea_cache.idle_entries, 1);
  EXPECT_EQ(stats.cancelled, 1);
}

TEST(JobEngine, ExpiredStartDeadlineCancelsQueuedJob) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);
  PhaseBlocker blocker;

  JobEngineOptions opts;
  opts.num_workers = 1;
  JobEngine engine(opts);

  JobSpec running = SpecFor(nl, "running", 1e-5, 0.0, false);
  running.observers.push_back(&blocker);
  auto h_running = engine.Submit(std::move(running));
  ASSERT_TRUE(h_running.ok());
  blocker.WaitUntilBlocked();

  JobSpec late = SpecFor(nl, "late", 1e-5, 0.0, false);
  late.start_deadline_s = 1e-9;  // expires while the worker is occupied
  auto h_late = engine.Submit(std::move(late));
  ASSERT_TRUE(h_late.ok());

  blocker.Unblock();
  const JobResult* r = engine.Wait(*h_late);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(util::IsCancelled(r->status)) << r->status.ToString();
  EXPECT_NE(r->status.message().find("deadline"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Priority
// ---------------------------------------------------------------------------

TEST(JobEngine, LateHighPriorityJobStartsBeforeQueuedLowPriority) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);
  PhaseBlocker blocker;

  JobEngineOptions opts;
  opts.num_workers = 1;
  JobEngine engine(opts);

  std::mutex order_mutex;
  std::vector<std::string> completion_order;
  engine.SetCompletionCallback(
      [&](JobHandle, const std::string& name, const JobResult&) {
        std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(name);
      });

  JobSpec first = SpecFor(nl, "first", 1e-5, 0.0, false);
  first.observers.push_back(&blocker);
  ASSERT_TRUE(engine.Submit(std::move(first)).ok());
  blocker.WaitUntilBlocked();  // worker busy; everything below queues

  JobSpec low_a = SpecFor(nl, "low_a", 1e-5, 0.0, false);
  JobSpec low_b = SpecFor(nl, "low_b", 1e-5, 0.0, false);
  JobSpec high = SpecFor(nl, "high", 1e-5, 0.0, false);
  high.priority = 5;  // admitted last, must run first
  ASSERT_TRUE(engine.Submit(std::move(low_a)).ok());
  ASSERT_TRUE(engine.Submit(std::move(low_b)).ok());
  ASSERT_TRUE(engine.Submit(std::move(high)).ok());

  blocker.Unblock();
  engine.WaitAll();

  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order[0], "first");
  EXPECT_EQ(completion_order[1], "high");
  EXPECT_EQ(completion_order[2], "low_a");  // FIFO within a priority
  EXPECT_EQ(completion_order[3], "low_b");
}

// ---------------------------------------------------------------------------
// FEA cache
// ---------------------------------------------------------------------------

TEST(JobEngine, FeaCacheBuildsOncePerGeometry) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);

  JobEngineOptions opts;
  opts.num_workers = 4;
  JobEngine engine(opts);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    auto h = engine.Submit(SpecFor(nl, "same" + std::to_string(i),
                                   1e-5 * (i + 1), 0.0, /*with_fea=*/true));
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  // Different layer count => different stack geometry => second entry.
  JobSpec other = SpecFor(nl, "other", 1e-5, 0.0, true);
  other.params.num_layers = 2;
  auto h_other = engine.Submit(std::move(other));
  ASSERT_TRUE(h_other.ok());
  engine.WaitAll();

  // Misses are scheduling-independent: same-key racers serialize on the
  // build, so exactly one miss per distinct geometry.
  const JobEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.fea_cache.misses, 2);
  EXPECT_EQ(stats.fea_cache.hits, 3);
  EXPECT_EQ(stats.fea_cache.live_entries, 0);
  EXPECT_EQ(stats.fea_cache.idle_entries, 2);
  EXPECT_EQ(stats.completed, 5);
}

TEST(JobEngine, FeaCacheSharesAssemblyAcrossThreadCounts) {
  // The assembly does not depend on the CG thread count, so jobs that differ
  // only in `threads` share it; each still solves at its own thread count,
  // and the placements stay byte-identical.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(300);

  JobEngineOptions opts;
  opts.num_workers = 1;
  JobEngine engine(opts);
  std::vector<JobHandle> handles;
  for (const int threads : {1, 2}) {
    JobSpec spec = SpecFor(nl, "threads" + std::to_string(threads), 1e-5, 0.0,
                           /*with_fea=*/true);
    spec.params.threads = threads;
    auto h = engine.Submit(std::move(spec));
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  engine.WaitAll();

  const JobEngine::Stats stats = engine.GetStats();
  EXPECT_EQ(stats.fea_cache.misses, 1);
  EXPECT_EQ(stats.fea_cache.hits, 1);
  EXPECT_EQ(stats.completed, 2);
  const JobResult* one = engine.Result(handles[0]);
  const JobResult* two = engine.Result(handles[1]);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(one->placement.placement.x, two->placement.placement.x);
  EXPECT_EQ(one->placement.max_temp_c, two->placement.max_temp_c);
}

TEST(FeaContextCache, EvictsLeastRecentlyUsedIdleEntriesBeyondCap) {
  // FeaAssemblyCache: an entry is live while anyone but the cache holds its
  // assembly. Eviction runs on Acquire and takes the least-recently-used
  // idle entries beyond 8.
  FeaAssemblyCache cache;

  auto key = [](int layers) {
    FeaCacheKey k;
    k.stack.num_layers = layers;
    k.chip = thermal::ChipExtent{1e-3, 1e-3};
    k.fea.nx = 8;
    k.fea.ny = 8;
    return k;
  };

  // Nine geometries, one more than the cache keeps idle.
  std::vector<std::shared_ptr<const thermal::FeaAssembly>> held;
  for (int layers = 2; layers <= 10; ++layers) {
    held.push_back(cache.Acquire(key(layers)));
    EXPECT_NE(held.back(), nullptr);
  }
  EXPECT_EQ(cache.GetStats().live_entries, 9);  // held: never evicted
  EXPECT_EQ(cache.GetStats().evictions, 0);

  // Dropping the references leaves nine idle entries until the next
  // Acquire.
  held.clear();
  FeaAssemblyCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.live_entries, 0);
  EXPECT_EQ(stats.idle_entries, 9);
  EXPECT_EQ(stats.evictions, 0);

  // A hit refreshes key(2); the acquired entry is live while the cache
  // evicts, so eight idle entries remain and none goes.
  cache.Acquire(key(2));
  EXPECT_EQ(cache.GetStats().hits, 1);
  EXPECT_EQ(cache.GetStats().evictions, 0);

  // A tenth geometry leaves nine idle entries: the LRU one, key(3), goes.
  held.push_back(cache.Acquire(key(11)));
  stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 10);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.live_entries, 1);
  EXPECT_EQ(stats.idle_entries, 8);

  // The refreshed key survived; the evicted one rebuilds.
  cache.Acquire(key(2));
  EXPECT_EQ(cache.GetStats().hits, 2);
  cache.Acquire(key(3));
  EXPECT_EQ(cache.GetStats().misses, 11);
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST(JobsManifest, ParsesJobsWithDefaultsAndDerivedSeeds) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const std::string text = R"({
    "schema": "placer3d.jobs", "version": 1, "seed": 42,
    "defaults": {"circuit": "ibm01", "scale": 0.01, "layers": 3},
    "jobs": [
      {"name": "a", "alpha_ilv": 5e-9},
      {"alpha_ilv": 1e-5, "priority": 2, "seed": 7},
      {"name": "c", "circuit": "ibm02", "scale": 0.01, "layers": 2}
    ]
  })";
  auto m = ParseJobsManifest(text);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_EQ(m->jobs.size(), 3u);
  EXPECT_EQ(m->base_seed, 42u);

  EXPECT_EQ(m->jobs[0].name, "a");
  EXPECT_EQ(m->jobs[0].params.num_layers, 3);
  EXPECT_DOUBLE_EQ(m->jobs[0].params.alpha_ilv, 5e-9);
  EXPECT_EQ(m->jobs[0].params.seed, runtime::DeriveSeed(42, 0));

  EXPECT_EQ(m->jobs[1].name, "ibm01-job2");  // generated name
  EXPECT_EQ(m->jobs[1].priority, 2);
  EXPECT_EQ(m->jobs[1].params.seed, 7u);  // explicit seed wins

  EXPECT_EQ(m->jobs[2].params.num_layers, 2);
  // Netlists dedupe by (circuit, scale): ibm01 shared, ibm02 separate.
  EXPECT_EQ(m->netlists.size(), 2u);
  EXPECT_EQ(m->jobs[0].netlist, m->jobs[1].netlist);
  EXPECT_NE(m->jobs[0].netlist, m->jobs[2].netlist);
}

TEST(JobsManifest, RejectsMalformedInput) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  EXPECT_FALSE(ParseJobsManifest("not json").ok());
  EXPECT_FALSE(ParseJobsManifest(R"({"schema": "other", "version": 1,
                                     "jobs": []})")
                   .ok());
  EXPECT_FALSE(ParseJobsManifest(R"({"schema": "placer3d.jobs",
                                     "version": 99, "jobs": []})")
                   .ok());
  // jobs must be an array of objects.
  EXPECT_FALSE(ParseJobsManifest(R"({"schema": "placer3d.jobs",
                                     "version": 1, "jobs": 3})")
                   .ok());
  // Unknown circuit name surfaces as an error, not a crash.
  EXPECT_FALSE(ParseJobsManifest(R"({"schema": "placer3d.jobs", "version": 1,
      "jobs": [{"circuit": "nope", "scale": 0.01}]})")
                   .ok());
  // Type error in a field.
  EXPECT_FALSE(ParseJobsManifest(R"({"schema": "placer3d.jobs", "version": 1,
      "jobs": [{"circuit": "ibm01", "scale": "wide"}]})")
                   .ok());
  EXPECT_FALSE(LoadJobsManifest("/nonexistent/manifest.json").ok());
}

TEST(JobsManifest, RejectsUnknownFields) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  // A typo in a job: the error names the job index and the key.
  const auto typo = ParseJobsManifest(R"({"schema": "placer3d.jobs",
      "version": 1, "defaults": {"circuit": "ibm01", "scale": 0.01},
      "jobs": [{"alpha_temp": 1e-6}, {"alpha_tmep": 1e-6}]})");
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(typo.status().message().find("job 1"), std::string::npos);
  EXPECT_NE(typo.status().message().find("'alpha_tmep'"), std::string::npos);
  // An unknown field in `defaults` is rejected the same way.
  const auto unknown = ParseJobsManifest(R"({"schema": "placer3d.jobs",
      "version": 1, "defaults": {"scale": 0.01, "fea_solver": "multigrid"},
      "jobs": [{"circuit": "ibm01"}]})");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(unknown.status().message().find("defaults"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("'fea_solver'"),
            std::string::npos);
  // A removed field is unknown like any other.
  const auto removed = ParseJobsManifest(R"({"schema": "placer3d.jobs",
      "version": 1, "defaults": {"circuit": "ibm01", "scale": 0.01},
      "jobs": [{"global_backend": "bisection"}]})");
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(removed.status().message().find("'global_backend'"),
            std::string::npos);
  const auto precond = ParseJobsManifest(R"({"schema": "placer3d.jobs",
      "version": 1, "defaults": {"circuit": "ibm01", "scale": 0.01},
      "jobs": [{"fea_precond": "ic0"}]})");
  ASSERT_FALSE(precond.ok());
  EXPECT_EQ(precond.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(precond.status().message().find("'fea_precond'"),
            std::string::npos);
  // The committed example manifest uses only known fields.
  const auto sweep =
      LoadJobsManifest(std::string(P3D_SOURCE_DIR) +
                       "/examples/manifests/sweep6.json");
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(sweep->jobs.size(), 6u);
}

TEST(JobsManifest, RejectsIntegerFieldsOutsideTheirType) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const auto parse = [](const std::string& seed, const std::string& job) {
    return ParseJobsManifest(R"({"schema": "placer3d.jobs", "version": 1,
        "seed": )" + seed + R"(, "defaults": {"circuit": "ibm01",
        "scale": 0.01}, "jobs": [)" + job + "]}");
  };
  for (const char* job :
       {R"({"layers": 1e300})", R"({"layers": 2.5})", R"({"threads": -1e10})",
        R"({"priority": 2147483648})", R"({"seed": -1})",
        R"({"seed": 1e300})", R"({"seed": 18446744073709551616})"}) {
    const auto m = parse("42", job);
    ASSERT_FALSE(m.ok()) << job;
    EXPECT_EQ(m.status().code(), util::StatusCode::kParseError) << job;
    EXPECT_NE(m.status().message().find("job 0"), std::string::npos) << job;
  }
  for (const char* seed : {"-1", "1e300", "0.5"}) {
    const auto m = parse(seed, "{}");
    ASSERT_FALSE(m.ok()) << seed;
    EXPECT_EQ(m.status().code(), util::StatusCode::kParseError) << seed;
  }
  // Whole numbers in range parse, the extremes included.
  const auto ok = parse(
      "18446744073709549568",
      R"({"priority": -2147483648, "threads": 2, "seed": 0, "layers": 3})");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->base_seed, 18446744073709549568ULL);
  EXPECT_EQ(ok->jobs[0].priority, -2147483648LL);
  EXPECT_EQ(ok->jobs[0].params.seed, 0u);
  EXPECT_EQ(ok->jobs[0].params.num_layers, 3);
}

// ---------------------------------------------------------------------------
// Sweep + batch report
// ---------------------------------------------------------------------------

TEST(BatchReport, SweepProducesValidatableReport) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);

  JobEngineOptions opts;
  opts.num_workers = 2;
  JobEngine engine(opts);

  SweepSpec sweep;
  sweep.netlist = &nl;
  sweep.circuit = "serve";
  sweep.circuit_scale = 1.0;
  sweep.base = Params(4);
  sweep.options.with_fea = true;
  sweep.alpha_ilv = {5e-9, 1e-5};
  sweep.alpha_temp = {0.0, 1e-6};
  auto points = RunSweep(engine, sweep);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points->size(), 4u);  // 2 x 2 grid, layers axis defaulted

  std::vector<JobHandle> handles;
  for (const SweepPoint& p : *points) {
    ASSERT_NE(p.result, nullptr);
    EXPECT_TRUE(p.result->status.ok()) << p.name;
    handles.push_back(p.handle);
  }
  // Grid order is layers-outer / ilv-middle / temp-inner.
  EXPECT_EQ((*points)[0].name, "L4_ilv5e-09_temp0");
  EXPECT_EQ((*points)[1].name, "L4_ilv5e-09_temp1e-06");
  EXPECT_EQ((*points)[2].name, "L4_ilv1e-05_temp0");

  const obs::JsonValue report = BuildBatchReport(engine, handles);
  std::string error;
  EXPECT_TRUE(ValidateBatchReport(report, &error)) << error;

  // Round-trips through serialization.
  obs::JsonValue parsed;
  std::string parse_error;
  ASSERT_TRUE(obs::ParseJson(report.Serialize(), &parsed, &parse_error))
      << parse_error;
  EXPECT_TRUE(ValidateBatchReport(parsed, &error)) << error;

  EXPECT_FALSE(ValidateBatchReport(obs::JsonValue::MakeObject(), &error));
}

TEST(BatchReport, SurfacesCancelledJobsWithMessages) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(150);
  PhaseBlocker blocker;

  JobEngineOptions opts;
  opts.num_workers = 1;
  JobEngine engine(opts);

  JobSpec running = SpecFor(nl, "running", 1e-5, 0.0, false);
  running.observers.push_back(&blocker);
  auto h_running = engine.Submit(std::move(running));
  ASSERT_TRUE(h_running.ok());
  blocker.WaitUntilBlocked();
  auto h_queued = engine.Submit(SpecFor(nl, "doomed", 1e-5, 0.0, false));
  ASSERT_TRUE(h_queued.ok());
  EXPECT_TRUE(engine.Cancel(*h_queued));
  blocker.Unblock();
  engine.WaitAll();

  const obs::JsonValue report =
      BuildBatchReport(engine, {*h_running, *h_queued});
  std::string error;
  ASSERT_TRUE(ValidateBatchReport(report, &error)) << error;
  const auto& jobs = report.Find("jobs")->AsArray();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].Find("status")->AsString(), "ok");
  EXPECT_EQ(jobs[1].Find("status")->AsString(), "cancelled");
  ASSERT_NE(jobs[1].Find("message"), nullptr);
}

// ---------------------------------------------------------------------------
// Submit validation
// ---------------------------------------------------------------------------

TEST(JobEngine, SubmitRejectsInvalidSpecs) {
  JobEngine engine;
  JobSpec no_netlist;
  EXPECT_EQ(engine.Submit(std::move(no_netlist)).status().code(),
            util::StatusCode::kInvalidArgument);

  const netlist::Netlist nl = Circuit(150);
  JobSpec bad_deadline;
  bad_deadline.netlist = &nl;
  bad_deadline.start_deadline_s = -1.0;
  EXPECT_EQ(engine.Submit(std::move(bad_deadline)).status().code(),
            util::StatusCode::kInvalidArgument);

  EXPECT_EQ(engine.Poll(JobHandle{999}).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(engine.Wait(JobHandle{999}), nullptr);
  EXPECT_FALSE(engine.Cancel(JobHandle{999}));
}

}  // namespace
}  // namespace p3d::serve
