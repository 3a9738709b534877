#include "serve/job_engine.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/ring.h"
#include "place/instrument.h"
#include "place/monitor.h"
#include "runtime/thread_pool.h"
#include "util/log.h"
#include "util/timer.h"

namespace p3d::serve {

struct JobEngine::Job {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::atomic<bool> cancel{false};
  util::Timer queued;  // starts at submit; start_deadline_s is measured on it
  JobResult result;

  // Live-telemetry fields: written by the job's HeartbeatObserver on the
  // worker thread, read by the watchdog and SnapshotJobs. `phase` holds the
  // placer's phase-name literals, so the pointer is always dereferenceable.
  std::atomic<const char*> phase{nullptr};
  std::atomic<int> phase_round{-1};
  std::atomic<long long> heartbeats{0};
  std::atomic<std::int64_t> last_beat_ns{0};  // on the engine clock
  std::atomic<bool> stalled{false};           // clears on the next beat
  std::atomic<bool> ever_stalled{false};
};

// Engine-owned observer attached ahead of the user's observers: every phase
// boundary becomes one heartbeat. Deliberately writes no metrics — the
// heartbeat timestamps are wall-clock and must never enter the job's
// deterministic registry.
class JobEngine::HeartbeatObserver : public place::PhaseObserver {
 public:
  HeartbeatObserver(Job* job, const util::Timer* clock)
      : job_(job), clock_(clock) {}

  void OnPhase(const char* phase, int round, const place::ObjectiveEvaluator&,
               const place::GlobalPlaceStats*) override {
    job_->phase.store(phase, std::memory_order_relaxed);
    job_->phase_round.store(round, std::memory_order_relaxed);
    job_->last_beat_ns.store(clock_->Nanos(), std::memory_order_relaxed);
    job_->heartbeats.fetch_add(1, std::memory_order_relaxed);
    job_->stalled.store(false, std::memory_order_relaxed);
    obs::TraceInstant("serve.heartbeat", static_cast<std::int64_t>(job_->id));
  }

 private:
  Job* const job_;
  const util::Timer* const clock_;
};

bool JobEngine::QueueOrder::operator()(const Job* a, const Job* b) const {
  if (a->spec.priority != b->spec.priority) {
    return a->spec.priority > b->spec.priority;  // higher priority first
  }
  return a->id < b->id;  // then submission order
}

namespace {

int ResolveBudget(const JobEngineOptions& options, int num_workers) {
  if (options.thread_budget > 0) return options.thread_budget;
  return num_workers > 1 ? 1 : 0;  // 0 = unlimited (serial engine)
}

}  // namespace

JobEngine::JobEngine(const JobEngineOptions& options)
    : num_workers_(std::max(1, options.num_workers)),
      thread_budget_(ResolveBudget(options, std::max(1, options.num_workers))),
      stall_timeout_s_(std::max(0.0, options.stall_timeout_s)),
      watchdog_poll_s_(std::clamp(stall_timeout_s_ / 4.0, 0.01, 0.25)) {
  workers_.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (stall_timeout_s_ > 0.0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

JobEngine::~JobEngine() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
    // Queued jobs will never run; complete them as cancelled so Wait()ers
    // unblock. Running jobs get the flag and stop at their next boundary.
    for (auto& [id, job] : jobs_) {
      job->cancel.store(true, std::memory_order_relaxed);
      if (job->state == JobState::kQueued) {
        queue_.erase(job.get());
        job->state = JobState::kDone;
        job->result.status =
            util::CancelledError("job cancelled: engine shut down");
        ++cancelled_;
      }
    }
    done_cv_.notify_all();
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  if (watchdog_.joinable()) watchdog_.join();
}

util::StatusOr<JobHandle> JobEngine::Submit(JobSpec spec) {
  if (spec.netlist == nullptr) {
    return util::InvalidArgumentError("JobEngine::Submit: null netlist");
  }
  if (!spec.netlist->finalized()) {
    return util::FailedPreconditionError(
        "JobEngine::Submit: netlist is not finalized");
  }
  if (spec.start_deadline_s < 0.0) {
    return util::InvalidArgumentError(
        "JobEngine::Submit: negative start deadline");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (stop_) {
    return util::FailedPreconditionError(
        "JobEngine::Submit: engine is shutting down");
  }
  const std::uint64_t id = ++next_id_;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = std::move(spec);
  if (job->spec.name.empty()) job->spec.name = "job-" + std::to_string(id);
  queue_.insert(job.get());
  jobs_.emplace(id, std::move(job));
  ++submitted_;
  obs::MetricAdd("serve/jobs_submitted", 1);
  work_cv_.notify_one();
  return JobHandle{id};
}

util::StatusOr<JobState> JobEngine::Poll(JobHandle handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(handle.id);
  if (it == jobs_.end()) {
    return util::NotFoundError("JobEngine::Poll: unknown job handle");
  }
  return it->second->state;
}

const JobResult* JobEngine::Wait(JobHandle handle) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(handle.id);
  if (it == jobs_.end()) return nullptr;
  Job* job = it->second.get();
  done_cv_.wait(lock, [&] { return job->state == JobState::kDone; });
  return &job->result;
}

const JobResult* JobEngine::Result(JobHandle handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(handle.id);
  if (it == jobs_.end() || it->second->state != JobState::kDone) {
    return nullptr;
  }
  return &it->second->result;
}

const JobSpec* JobEngine::Spec(JobHandle handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(handle.id);
  return it == jobs_.end() ? nullptr : &it->second->spec;
}

bool JobEngine::Cancel(JobHandle handle) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(handle.id);
  if (it == jobs_.end()) return false;
  Job* job = it->second.get();
  if (job->state == JobState::kDone) return false;
  job->cancel.store(true, std::memory_order_relaxed);
  if (job->state == JobState::kQueued) {
    queue_.erase(job);
    // kRunning until the callback returns (same ordering as FinishJob): a
    // Wait()er must not unblock mid-callback, and a racing second Cancel()
    // sees a "running" job whose flag is already set — a harmless no-op.
    job->state = JobState::kRunning;
    job->result.status = util::CancelledError("job cancelled while queued");
    ++cancelled_;
    obs::MetricAdd("serve/jobs_cancelled", 1);
    CompletionCallback callback = on_complete_;
    lock.unlock();
    if (callback) {
      std::lock_guard<std::mutex> serialize(callback_mutex_);
      callback(JobHandle{job->id}, job->spec.name, job->result);
    }
    lock.lock();
    job->state = JobState::kDone;
    done_cv_.notify_all();
  }
  return true;
}

void JobEngine::WaitAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    for (const auto& [id, job] : jobs_) {
      if (job->state != JobState::kDone) return false;
    }
    return true;
  });
}

void JobEngine::SetCompletionCallback(CompletionCallback callback) {
  std::lock_guard<std::mutex> lock(mutex_);
  on_complete_ = std::move(callback);
}

JobEngine::Stats JobEngine::GetStats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.cancelled = cancelled_;
    s.failed = failed_;
    s.stalled = stalls_;
  }
  s.fea_cache = fea_cache_.GetStats();
  return s;
}

std::vector<JobEngine::JobView> JobEngine::SnapshotJobs() const {
  const std::int64_t now_ns = clock_.Nanos();
  std::vector<JobView> views;
  std::lock_guard<std::mutex> lock(mutex_);
  views.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {  // std::map: submission order
    JobView v;
    v.id = id;
    v.name = job->spec.name;
    v.state = job->state;
    v.priority = job->spec.priority;
    if (const char* phase = job->phase.load(std::memory_order_relaxed)) {
      v.phase = phase;
    }
    v.round = job->phase_round.load(std::memory_order_relaxed);
    v.heartbeats = job->heartbeats.load(std::memory_order_relaxed);
    if (job->state == JobState::kRunning && v.heartbeats > 0) {
      // A beat may land between reading `now_ns` and this load; it is 0 s
      // old, not negative.
      const std::int64_t beat_ns =
          job->last_beat_ns.load(std::memory_order_relaxed);
      v.since_beat_s =
          static_cast<double>(std::max<std::int64_t>(0, now_ns - beat_ns)) *
          1e-9;
    }
    v.wall_s = job->queued.Seconds();
    v.stalled = job->stalled.load(std::memory_order_relaxed);
    v.ever_stalled = job->ever_stalled.load(std::memory_order_relaxed);
    v.cancel_requested = job->cancel.load(std::memory_order_relaxed);
    views.push_back(std::move(v));
  }
  return views;
}

void JobEngine::WatchdogLoop() {
  const std::int64_t timeout_ns =
      static_cast<std::int64_t>(stall_timeout_s_ * 1e9);
  for (;;) {
    struct Stall {
      std::uint64_t id;
      std::string name;
      const char* phase;
      double since_s;
    };
    std::vector<Stall> fresh;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      watchdog_cv_.wait_for(
          lock,
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(watchdog_poll_s_)),
          [&] { return stop_; });
      if (stop_) return;
      const std::int64_t now_ns = clock_.Nanos();
      for (const auto& [id, job] : jobs_) {
        if (job->state != JobState::kRunning) continue;
        // Jobs that never reached a phase boundary are not watched: the
        // first heartbeat arms the timer (arming on start would misfire on
        // a long global phase right after a worker picks the job up).
        if (job->heartbeats.load(std::memory_order_relaxed) == 0) continue;
        const std::int64_t beat =
            job->last_beat_ns.load(std::memory_order_relaxed);
        if (now_ns - beat <= timeout_ns) continue;
        if (job->stalled.exchange(true, std::memory_order_relaxed)) continue;
        job->ever_stalled.store(true, std::memory_order_relaxed);
        ++stalls_;
        fresh.push_back(Stall{id, job->spec.name,
                              job->phase.load(std::memory_order_relaxed),
                              static_cast<double>(now_ns - beat) * 1e-9});
      }
    }
    // Report outside the lock: the black-box dump does real I/O.
    for (const Stall& s : fresh) {
      obs::MetricAdd("serve/watchdog_stalls", 1);
      obs::TraceInstant("serve.watchdog_stall",
                        static_cast<std::int64_t>(s.id));
      util::LogWarn(
          "watchdog: job %llu (%s) stalled %.1fs past phase '%s' "
          "(timeout %.1fs)",
          static_cast<unsigned long long>(s.id), s.name.c_str(), s.since_s,
          s.phase != nullptr ? s.phase : "<none>", stall_timeout_s_);
      obs::DumpBlackBox("watchdog_stall");
    }
  }
}

void JobEngine::WorkerLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = *queue_.begin();
      queue_.erase(queue_.begin());
      job->state = JobState::kRunning;
    }
    RunJob(job);
    FinishJob(job);
  }
}

void JobEngine::RunJob(Job* job) {
  obs::TraceScope trace("serve.job");
  util::Timer timer;
  JobResult& out = job->result;
  out.metrics = std::make_unique<obs::MetricsRegistry>();

  if (job->cancel.load(std::memory_order_relaxed)) {
    out.status = util::CancelledError("job cancelled before start");
    out.wall_s = timer.Seconds();
    return;
  }
  if (job->spec.start_deadline_s > 0.0 &&
      job->queued.Seconds() > job->spec.start_deadline_s) {
    out.status = util::CancelledError(
        "job cancelled: start deadline expired while queued");
    out.wall_s = timer.Seconds();
    return;
  }

  auto placer_or =
      place::Placer3D::Create(*job->spec.netlist, job->spec.params);
  if (!placer_or.ok()) {
    out.status = placer_or.status();
    out.wall_s = timer.Seconds();
    return;
  }
  place::Placer3D placer = *std::move(placer_or);

  place::RunOptions options = job->spec.options;
  options.cancel = &job->cancel;

  // Acquire the shared FEA assembly BEFORE installing the per-job metrics
  // scope: cache hit/miss counters are engine-level and must not enter the
  // job's deterministic dump.
  options.fea_assembly =
      place::RunSolvesFea(job->spec.params, options)
          ? fea_cache_.Acquire(FeaKeyFor(job->spec.params, placer.chip()))
          : nullptr;

  // Clamp the job's inner parallelism while it shares the machine with
  // sibling jobs (DESIGN.md §5). Budget 0 = serial engine, job runs free.
  std::optional<runtime::ScopedThreadBudget> budget;
  if (thread_budget_ > 0) budget.emplace(thread_budget_);

  obs::ScopedThreadMetrics metrics_scope(out.metrics.get());
  // Heartbeats go first so the watchdog sees a beat even if a later
  // observer blocks; the anomaly monitor reads the per-job registry, so it
  // sits inside the metrics scope.
  HeartbeatObserver heartbeat(job, &clock_);
  placer.AddPhaseObserver(&heartbeat);
  place::PhaseMetricsSampler sampler;
  placer.AddPhaseObserver(&sampler);
  place::AnomalyMonitor monitor;
  placer.AddPhaseObserver(&monitor);
  for (place::PhaseObserver* observer : job->spec.observers) {
    placer.AddPhaseObserver(observer);
  }

  util::StatusOr<place::PlacementResult> result = placer.Run(options);
  out.phases = sampler.samples();
  if (result.ok()) {
    out.placement = *std::move(result);
    out.status = util::Status::Ok();
  } else {
    out.status = result.status();
  }
  out.metrics_dump = out.metrics->DumpDeterministic();
  out.wall_s = timer.Seconds();
  out.stalled = job->ever_stalled.load(std::memory_order_relaxed);
  out.anomalies = static_cast<long long>(monitor.anomalies().size());
  if (util::IsCancelled(out.status)) {
    // A cancelled run is a black-box trigger like any other anomaly.
    obs::DumpBlackBox("job_cancelled");
  }
}

void JobEngine::FinishJob(Job* job) {
  CompletionCallback callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->result.status.ok()) {
      ++completed_;
      obs::MetricAdd("serve/jobs_completed", 1);
    } else if (util::IsCancelled(job->result.status)) {
      ++cancelled_;
      obs::MetricAdd("serve/jobs_cancelled", 1);
    } else {
      ++failed_;
      obs::MetricAdd("serve/jobs_failed", 1);
    }
    callback = on_complete_;
  }
  // Fire the callback BEFORE flipping the state to done: Wait()/WaitAll()
  // must not return while a completion callback is still running (a caller
  // streaming progress would see its summary print before the last job's
  // line). The job stays kRunning for Poll() until the callback returns.
  if (callback) {
    std::lock_guard<std::mutex> serialize(callback_mutex_);
    callback(JobHandle{job->id}, job->spec.name, job->result);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->state = JobState::kDone;
    done_cv_.notify_all();
  }
}

FeaCacheKey FeaKeyFor(const place::PlacerParams& params,
                      const place::Chip& chip) {
  FeaCacheKey key;
  key.stack = params.stack;
  key.stack.num_layers = params.num_layers;  // what SyncStack() enforces
  key.chip = thermal::ChipExtent{chip.width(), chip.height()};
  key.fea = place::FeaOptionsFor(params);
  return key;
}

}  // namespace p3d::serve
