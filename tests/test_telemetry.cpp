// Live-telemetry tests (obs v2): the TelemetryServer endpoints over a real
// JobEngine, phase heartbeats and their monotonicity under concurrent jobs,
// the stall watchdog (forced stall -> flag + black-box dump + 503 + batch
// report), and the acceptance pin that full telemetry never perturbs
// placement bytes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/synthetic.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/ring.h"
#include "serve/batch.h"
#include "serve/job_engine.h"
#include "serve/telemetry.h"
#include "util/log.h"
#include "util/timer.h"

namespace p3d::serve {
namespace {

netlist::Netlist Circuit(int cells, std::uint64_t seed = 51) {
  io::SyntheticSpec spec;
  spec.name = "telemetry";
  spec.num_cells = cells;
  spec.total_area_m2 = cells * 4.9e-12;
  spec.seed = seed;
  return io::Generate(spec);
}

JobSpec SpecFor(const netlist::Netlist& nl, const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.netlist = &nl;
  spec.params.num_layers = 2;
  spec.params.alpha_ilv = 1e-5;
  spec.options.with_fea = false;
  return spec;
}

/// Minimal HTTP GET against 127.0.0.1:<port>; returns the raw response
/// (status line + headers + body), or "" on connect failure.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// Parks the calling worker inside the placer at the first phase boundary
/// until Unblock(), so a test can force a watchdog stall.
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

TEST(Telemetry, EndpointsServeMetricsJobsAndHealth) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300);
  JobEngine engine;
  std::vector<JobHandle> handles;
  for (const char* name : {"a", "b"}) {
    auto handle = engine.Submit(SpecFor(nl, name));
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  engine.WaitAll();

  obs::MetricsRegistry metrics;
  metrics.Add("cg/solves", 5);
  for (int i = 1; i <= 8; ++i) metrics.Observe("legalize/window_cells", i);

  TelemetryServer server;
  TelemetryOptions options;
  options.port = 0;  // ephemeral
  options.metrics = &metrics;
  options.engine = &engine;
  ASSERT_TRUE(server.Start(options).ok());
  ASSERT_GT(server.port(), 0);

  const std::string metrics_rsp = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics_rsp.find("HTTP/1.1 200"), std::string::npos);
  const std::string body = BodyOf(metrics_rsp);
  EXPECT_NE(body.find("placer3d_cg_solves 5"), std::string::npos);
  EXPECT_NE(body.find("placer3d_legalize_window_cells{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(body.find("placer3d_jobs_done 2"), std::string::npos);

  const std::string jobs_rsp = HttpGet(server.port(), "/jobs");
  EXPECT_NE(jobs_rsp.find("HTTP/1.1 200"), std::string::npos);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(BodyOf(jobs_rsp), &doc, &error)) << error;
  EXPECT_EQ(doc.Find("schema")->AsString(), kJobsSchema);
  const auto& jobs = doc.Find("jobs")->AsArray();
  ASSERT_EQ(jobs.size(), 2u);
  for (const obs::JsonValue& job : jobs) {
    EXPECT_EQ(job.Find("state")->AsString(), "done");
    EXPECT_GT(job.Find("heartbeats")->AsNumber(), 0.0);
    EXPECT_FALSE(job.Find("stalled")->AsBool());
  }

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  EXPECT_NE(HttpGet(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  // Stop is idempotent and Start works again after Stop.
  server.Stop();
  ASSERT_TRUE(server.Start(options).ok());
  server.Stop();
}

TEST(Telemetry, HeartbeatsAreMonotonicUnderConcurrentJobs) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(400);
  JobEngineOptions options;
  options.num_workers = 2;
  JobEngine engine(options);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    auto handle = engine.Submit(SpecFor(nl, "job" + std::to_string(i)));
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
  }

  // Poll the live snapshot while the jobs run: per-job heartbeat counts
  // must never decrease, and a beat timestamp must never be in the future.
  std::map<std::uint64_t, long long> last;
  bool done = false;
  while (!done) {
    done = true;
    for (const JobEngine::JobView& v : engine.SnapshotJobs()) {
      auto [it, inserted] = last.try_emplace(v.id, v.heartbeats);
      if (!inserted) {
        EXPECT_GE(v.heartbeats, it->second) << "job " << v.name;
        it->second = v.heartbeats;
      }
      EXPECT_GE(v.since_beat_s, 0.0);
      if (v.state != JobState::kDone) done = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  engine.WaitAll();

  for (const JobHandle handle : handles) {
    const JobResult* result = engine.Wait(handle);
    ASSERT_NE(result, nullptr);
    ASSERT_TRUE(result->status.ok()) << result->status.ToString();
    EXPECT_FALSE(result->stalled);
  }
  // Every job beat at least once per flow phase (global/coarse/detailed/
  // final at minimum).
  for (const JobEngine::JobView& v : engine.SnapshotJobs()) {
    EXPECT_GE(v.heartbeats, 4) << "job " << v.name;
    EXPECT_EQ(v.phase, "final");
  }
}

TEST(Telemetry, WatchdogFlagsStalledJobAndDumpsBlackBox) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300);

  const std::string blackbox = testing::TempDir() + "/stall_blackbox.json";
  std::remove(blackbox.c_str());
  obs::RingRecorder ring;
  obs::InstallRingRecorder(&ring);
  ASSERT_TRUE(obs::SetBlackBoxPath(blackbox));

  JobEngineOptions options;
  options.stall_timeout_s = 0.15;  // the watchdog scans every 0.0375 s
  JobEngine engine(options);

  TelemetryServer server;
  TelemetryOptions topts;
  topts.engine = &engine;
  ASSERT_TRUE(server.Start(topts).ok());

  PhaseBlocker blocker;
  JobSpec spec = SpecFor(nl, "stall_me");
  spec.observers.push_back(&blocker);
  auto handle = engine.Submit(std::move(spec));
  ASSERT_TRUE(handle.ok());

  // The blocker parks the worker inside the first phase boundary, after its
  // first heartbeat — the watchdog must flag the job within ~0.2s.
  blocker.WaitUntilBlocked();
  util::Timer timer;
  bool flagged = false;
  while (!flagged && timer.Seconds() < 10.0) {
    for (const JobEngine::JobView& v : engine.SnapshotJobs()) {
      flagged |= v.stalled;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(flagged) << "watchdog never flagged the blocked job";

  // Stalled job surfaces as 503 on /healthz, naming the job.
  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_NE(health.find("stall_me"), std::string::npos);

  blocker.Unblock();
  engine.WaitAll();
  server.Stop();

  const JobResult* result = engine.Wait(*handle);
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_TRUE(result->stalled);  // sticky even though the job recovered

  const JobEngine::Stats stats = engine.GetStats();
  EXPECT_GE(stats.stalled, 1);

  // The stall triggered a black-box dump, and it is a loadable Chrome trace.
  std::ifstream in(blackbox);
  std::ostringstream text;
  text << in.rdbuf();
  obs::InstallRingRecorder(nullptr);
  obs::SetBlackBoxPath("");
  ASSERT_FALSE(text.str().empty()) << "no black-box dump at " << blackbox;
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(text.str(), &doc, &error)) << error;
  EXPECT_TRUE(obs::ValidateChromeTrace(doc, &error)) << error;
  EXPECT_NE(text.str().find("watchdog_stall"), std::string::npos);

  // The batch report carries the stall, per job and in the engine block.
  const obs::JsonValue report = BuildBatchReport(engine, {*handle});
  ASSERT_TRUE(ValidateBatchReport(report, &error)) << error;
  EXPECT_GE(report.Find("engine")->Find("stalled")->AsNumber(), 1.0);
  EXPECT_TRUE(report.Find("jobs")->AsArray()[0].Find("stalled")->AsBool());
}

TEST(Telemetry, PlacementBytesUnchangedByFullTelemetry) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300);

  // Plain run: no telemetry at all.
  JobEngine plain;
  auto plain_handle = plain.Submit(SpecFor(nl, "job"));
  ASSERT_TRUE(plain_handle.ok());
  const JobResult* plain_result = plain.Wait(*plain_handle);
  ASSERT_TRUE(plain_result->status.ok());

  // Instrumented run: ring recorder installed, watchdog armed, telemetry
  // server answering requests mid-run.
  obs::RingRecorder ring;
  obs::InstallRingRecorder(&ring);
  JobEngineOptions options;
  options.stall_timeout_s = 30.0;  // armed but never firing
  JobEngine live(options);
  TelemetryServer server;
  TelemetryOptions topts;
  topts.engine = &live;
  ASSERT_TRUE(server.Start(topts).ok());
  auto live_handle = live.Submit(SpecFor(nl, "job"));
  ASSERT_TRUE(live_handle.ok());
  HttpGet(server.port(), "/jobs");
  HttpGet(server.port(), "/metrics");
  const JobResult* live_result = live.Wait(*live_handle);
  ASSERT_TRUE(live_result->status.ok());
  server.Stop();
  obs::InstallRingRecorder(nullptr);

  EXPECT_EQ(plain_result->placement.placement.x,
            live_result->placement.placement.x);
  EXPECT_EQ(plain_result->placement.placement.y,
            live_result->placement.placement.y);
  EXPECT_EQ(plain_result->placement.placement.layer,
            live_result->placement.placement.layer);
  EXPECT_EQ(plain_result->metrics_dump, live_result->metrics_dump);
}

}  // namespace
}  // namespace p3d::serve
