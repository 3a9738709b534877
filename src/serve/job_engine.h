// JobEngine — the concurrent placement-job engine (DESIGN.md §9).
//
// A long-lived engine that accepts many placement jobs (netlist + params +
// RunOptions + priority + optional start deadline), schedules them on a
// bounded worker pool, and exposes poll/wait/cancel semantics per job.
//
// Contracts:
//   * Determinism — a job's placement and deterministic metrics dump are
//     byte-identical whether it ran alone or among 100 concurrent jobs, at
//     any worker count. Jobs share no mutable solver state (the FEA cache
//     shares only the immutable assembly), each job gets a private
//     MetricsRegistry via a thread-local override, and per-job seeds come
//     from the caller (the manifest loader derives them with
//     runtime::DeriveSeed, independent of scheduling).
//   * No oversubscription — when the engine runs jobs concurrently, each
//     job's inner parallelism is clamped to `thread_budget` (default 1) via
//     runtime::ScopedThreadBudget, so total OS threads stay bounded by
//     num_workers instead of num_workers x PlacerParams::threads
//     (DESIGN.md §5).
//   * Cancellation — Cancel() on a queued job completes it immediately with
//     kCancelled; on a running job it sets a flag the placer polls at every
//     phase boundary, so the job stops (and releases its FEA-cache lease)
//     within one phase.
//   * Priority — the ready queue is ordered by (priority descending,
//     submission order ascending): a high-priority job admitted late starts
//     before queued low-priority jobs. No preemption.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "netlist/netlist.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "place/placer.h"
#include "serve/fea_cache.h"
#include "util/status.h"
#include "util/timer.h"

namespace p3d::serve {

/// One placement job. The netlist must outlive the engine; the RunOptions'
/// `cancel` and `fea_assembly` fields are engine-owned and any caller-set
/// values are overwritten.
struct JobSpec {
  std::string name;  // report label; "job-<id>" when empty
  const netlist::Netlist* netlist = nullptr;
  place::PlacerParams params;
  place::RunOptions options;
  int priority = 0;            // higher starts earlier
  double start_deadline_s = 0.0;  // > 0: cancel if not started in time
  // Reporting identity (batch report's run_report.circuit / params.scale);
  // purely informational, never used by the engine itself.
  std::string circuit;
  double circuit_scale = 1.0;
  // Extra phase observers attached before Run (auditors, test probes).
  std::vector<place::PhaseObserver*> observers;
};

struct JobHandle {
  std::uint64_t id = 0;
};

enum class JobState { kQueued, kRunning, kDone };

/// Everything one finished job produced. Owned by the engine; pointers from
/// Wait()/Result() stay valid for the engine's lifetime.
struct JobResult {
  util::Status status;               // ok, kCancelled, or the run's error
  place::PlacementResult placement;  // meaningful only when status.ok()
  std::vector<obs::PhaseSample> phases;
  std::unique_ptr<obs::MetricsRegistry> metrics;  // per-job registry
  std::string metrics_dump;  // DumpDeterministic() of `metrics`
  double wall_s = 0.0;       // worker wall-clock inside the job
  bool stalled = false;      // watchdog flagged this job at least once
  long long anomalies = 0;   // convergence anomalies (place::AnomalyMonitor)
};

struct JobEngineOptions {
  int num_workers = 1;
  /// Per-job inner-thread budget. 0 = policy default: 1 when num_workers > 1
  /// (concurrent jobs must not oversubscribe), unlimited when jobs run one
  /// at a time (the job's own PlacerParams::threads rules).
  int thread_budget = 0;
  /// > 0: a watchdog thread flags any running job whose last phase heartbeat
  /// is older than this many seconds (and triggers a black-box dump). The
  /// flag clears on the next heartbeat; JobResult::stalled stays sticky. The
  /// watchdog scans every stall_timeout_s / 4 seconds, clamped to
  /// [0.01, 0.25].
  double stall_timeout_s = 0.0;
};

class JobEngine {
 public:
  explicit JobEngine(const JobEngineOptions& options = {});
  /// Cancels every queued job, flags running ones, and joins the workers.
  ~JobEngine();

  JobEngine(const JobEngine&) = delete;
  JobEngine& operator=(const JobEngine&) = delete;

  /// Validates and enqueues a job. Errors: null/unfinalized netlist,
  /// negative deadline, engine already shutting down.
  util::StatusOr<JobHandle> Submit(JobSpec spec);

  /// Current state of a job; kNotFound for an unknown handle.
  util::StatusOr<JobState> Poll(JobHandle handle) const;

  /// Blocks until the job is done; nullptr for an unknown handle.
  const JobResult* Wait(JobHandle handle);

  /// Non-blocking result access; nullptr while the job is not done (or the
  /// handle is unknown).
  const JobResult* Result(JobHandle handle) const;

  /// The spec a job was submitted with (report building); nullptr for an
  /// unknown handle. Stable for the engine's lifetime.
  const JobSpec* Spec(JobHandle handle) const;

  /// Requests cancellation. Returns true when the request was delivered
  /// (the job was queued — completed immediately — or running — flagged);
  /// false when the job is already done or unknown.
  bool Cancel(JobHandle handle);

  /// Blocks until every submitted job is done.
  void WaitAll();

  /// Invoked on the completing worker thread, serialized (one callback at a
  /// time), after the result is stored. The job reads kRunning until the
  /// callback returns — Wait()/WaitAll() never unblock mid-callback. Set
  /// before submitting.
  using CompletionCallback =
      std::function<void(JobHandle, const std::string& name,
                         const JobResult& result)>;
  void SetCompletionCallback(CompletionCallback callback);

  struct Stats {
    long long submitted = 0;
    long long completed = 0;  // status.ok()
    long long cancelled = 0;  // IsCancelled(status)
    long long failed = 0;     // any other non-OK status
    long long stalled = 0;    // watchdog stall detections (flag events)
    FeaAssemblyCache::Stats fea_cache;
  };
  Stats GetStats() const;

  /// Point-in-time view of one job, for live telemetry (/jobs) and the
  /// heartbeat stream. Heartbeats fire at every placer phase boundary.
  struct JobView {
    std::uint64_t id = 0;
    std::string name;
    JobState state = JobState::kQueued;
    int priority = 0;
    std::string phase;     // last phase boundary ("" before the first)
    int round = -1;
    long long heartbeats = 0;
    double since_beat_s = 0.0;  // seconds since the last beat (running only)
    double wall_s = 0.0;        // seconds since submit
    bool stalled = false;       // currently flagged by the watchdog
    bool ever_stalled = false;  // sticky
    bool cancel_requested = false;
  };
  /// All jobs the engine knows, in submission order.
  std::vector<JobView> SnapshotJobs() const;

  /// Resolved watchdog configuration (0 = disabled).
  double stall_timeout_s() const { return stall_timeout_s_; }

  int num_workers() const { return num_workers_; }
  /// Resolved per-job inner-thread budget; 0 = unlimited.
  int job_thread_budget() const { return thread_budget_; }

 private:
  struct Job;
  struct QueueOrder {
    bool operator()(const Job* a, const Job* b) const;
  };
  class HeartbeatObserver;

  void WorkerLoop();
  void RunJob(Job* job);
  /// Stores the terminal state, bumps counters, notifies waiters, and fires
  /// the completion callback. Takes the (unlocked) mutex itself.
  void FinishJob(Job* job);
  void WatchdogLoop();

  const int num_workers_;
  const int thread_budget_;
  const double stall_timeout_s_;
  const double watchdog_poll_s_;
  FeaAssemblyCache fea_cache_;
  util::Timer clock_;  // engine epoch; heartbeat timestamps live on it

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // workers wait for queue/stop
  std::condition_variable done_cv_;  // Wait/WaitAll wait for completions
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::set<Job*, QueueOrder> queue_;
  std::uint64_t next_id_ = 0;
  bool stop_ = false;
  long long submitted_ = 0;
  long long completed_ = 0;
  long long cancelled_ = 0;
  long long failed_ = 0;
  long long stalls_ = 0;  // watchdog flag events
  CompletionCallback on_complete_;

  std::mutex callback_mutex_;  // serializes completion callbacks
  std::vector<std::thread> workers_;
  std::condition_variable watchdog_cv_;  // watchdog waits on mutex_/stop_
  std::thread watchdog_;
};

/// The FeaAssemblyCache key a run with these parameters uses. Its
/// FeaOptions come from place::FeaOptionsFor, like the assembly the placer
/// would build itself, so the engine-acquired one is interchangeable.
FeaCacheKey FeaKeyFor(const place::PlacerParams& params,
                      const place::Chip& chip);

}  // namespace p3d::serve
