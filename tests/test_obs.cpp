// Flight-recorder tests (src/obs): JSON round-trips, Chrome trace
// well-formedness and span nesting, metric determinism across thread counts,
// the zero-cost-when-disabled guarantee, run-report schema round-trips, and
// the acceptance pin that observability never perturbs placement bytes.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/synthetic.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/ring.h"
#include "place/instrument.h"
#include "place/placer.h"
#include "util/log.h"
#include "util/timer.h"

namespace p3d {
namespace {

// ---------------------------------------------------------------- JSON -----

TEST(Json, RoundTripScalarsAndContainers) {
  obs::JsonValue doc = obs::JsonValue::MakeObject();
  doc.Set("str", "a \"quoted\" \\ line\nwith\ttabs");
  doc.Set("int", 1234567);
  doc.Set("neg", -42);
  doc.Set("dbl", 0.1);
  doc.Set("sci", 3.25e-19);
  doc.Set("yes", true);
  doc.Set("no", false);
  doc.Set("nil", obs::JsonValue());
  obs::JsonValue arr = obs::JsonValue::MakeArray();
  arr.Push(1);
  arr.Push("two");
  arr.Push(obs::JsonValue::MakeObject());
  doc.Set("arr", std::move(arr));

  for (const std::string& text : {doc.Serialize(), doc.SerializePretty()}) {
    obs::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(ParseJson(text, &parsed, &error)) << error;
    ASSERT_TRUE(parsed.is_object());
    EXPECT_EQ(parsed.Find("str")->AsString(), "a \"quoted\" \\ line\nwith\ttabs");
    EXPECT_EQ(parsed.Find("int")->AsNumber(), 1234567.0);
    EXPECT_EQ(parsed.Find("neg")->AsNumber(), -42.0);
    EXPECT_EQ(parsed.Find("dbl")->AsNumber(), 0.1);
    EXPECT_EQ(parsed.Find("sci")->AsNumber(), 3.25e-19);
    EXPECT_TRUE(parsed.Find("yes")->AsBool());
    EXPECT_FALSE(parsed.Find("no")->AsBool());
    EXPECT_TRUE(parsed.Find("nil")->is_null());
    ASSERT_TRUE(parsed.Find("arr")->is_array());
    EXPECT_EQ(parsed.Find("arr")->AsArray().size(), 3u);
  }
}

TEST(Json, ParserRejectsMalformedInput) {
  obs::JsonValue v;
  EXPECT_FALSE(ParseJson("", &v));
  EXPECT_FALSE(ParseJson("{", &v));
  EXPECT_FALSE(ParseJson("[1,]", &v));
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &v));
  EXPECT_FALSE(ParseJson("{'single':1}", &v));
  EXPECT_FALSE(ParseJson("nul", &v));
}

// --------------------------------------------------------------- trace -----

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The recorder's Chrome-JSON dump, through a file under the test temp dir.
std::string DumpToString(const obs::RingRecorder& ring, const char* file) {
  const std::string path = testing::TempDir() + "/" + file;
  EXPECT_TRUE(ring.DumpToFile(path.c_str(), "unit_test"));
  return ReadFileOrEmpty(path);
}

// Index in traceEvents of the first "X" span named `name`, or -1.
int SpanIndex(const obs::JsonValue& doc, const std::string& name) {
  const auto& events = doc.Find("traceEvents")->AsArray();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].Find("ph")->AsString() == "X" &&
        events[i].Find("name")->AsString() == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

constexpr obs::RingOptions kKeepAll{/*capacity_per_thread=*/0};

TEST(Trace, ChromeJsonIsWellFormedAndValidates) {
  obs::RingRecorder ring(kKeepAll);
  obs::InstallRingRecorder(&ring);
  {
    obs::TraceScope outer("outer");
    {
      obs::TraceScope inner("inner");
      obs::TraceCounter("work", 7);
    }
    obs::TraceInstant("marker");
  }
  obs::InstallRingRecorder(nullptr);

  EXPECT_EQ(ring.NumEvents(), 4u);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(DumpToString(ring, "trace_valid.json"), &doc, &error))
      << error;
  ASSERT_TRUE(ValidateChromeTrace(doc, &error)) << error;
}

TEST(Trace, NestedSpansEmitParentFirst) {
  obs::RingRecorder ring(kKeepAll);
  obs::InstallRingRecorder(&ring);
  {
    obs::TraceScope outer("outer");
    obs::TraceScope inner("inner");
  }
  obs::InstallRingRecorder(nullptr);

  obs::JsonValue doc;
  ASSERT_TRUE(ParseJson(DumpToString(ring, "trace_nested.json"), &doc));
  const int outer_idx = SpanIndex(doc, "outer");
  const int inner_idx = SpanIndex(doc, "inner");
  ASSERT_GE(outer_idx, 0);
  ASSERT_GE(inner_idx, 0);
  const auto& events = doc.Find("traceEvents")->AsArray();
  const obs::JsonValue& outer = events[static_cast<std::size_t>(outer_idx)];
  const obs::JsonValue& inner = events[static_cast<std::size_t>(inner_idx)];
  // Parent precedes child in the serialized array, and encloses it in time.
  EXPECT_LT(outer_idx, inner_idx);
  EXPECT_LE(outer.Find("ts")->AsNumber(), inner.Find("ts")->AsNumber());
  EXPECT_GE(outer.Find("ts")->AsNumber() + outer.Find("dur")->AsNumber(),
            inner.Find("ts")->AsNumber() + inner.Find("dur")->AsNumber());
}

TEST(Trace, DumpInsideOpenScopesListsThemParentFirst) {
  // The black box's view of a crash: both scopes are still open at the dump.
  obs::RingRecorder ring;
  obs::InstallRingRecorder(&ring);
  std::string text;
  {
    obs::TraceScope outer("outer");
    obs::TraceScope inner("inner");
    text = DumpToString(ring, "trace_open.json");
  }
  obs::InstallRingRecorder(nullptr);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(text, &doc, &error)) << error;
  ASSERT_TRUE(ValidateChromeTrace(doc, &error)) << error;
  const int outer_idx = SpanIndex(doc, "outer");
  const int inner_idx = SpanIndex(doc, "inner");
  ASSERT_GE(outer_idx, 0);
  ASSERT_GE(inner_idx, 0);
  EXPECT_LT(outer_idx, inner_idx);
}

TEST(Trace, ParallelWritersAllRecorded) {
  obs::RingRecorder ring(kKeepAll);
  obs::InstallRingRecorder(&ring);
  constexpr int kThreads = 4;
  // More than one block per thread, so the block chain grows.
  constexpr int kSpansEach =
      static_cast<int>(obs::RingRecorder::kBlockEvents) + 250;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i) obs::TraceScope span("worker.span");
    });
  }
  for (std::thread& w : workers) w.join();
  obs::InstallRingRecorder(nullptr);

  EXPECT_EQ(ring.NumEvents(),
            static_cast<std::size_t>(kThreads) * kSpansEach);
  EXPECT_EQ(ring.Snapshot().size(),
            static_cast<std::size_t>(kThreads) * kSpansEach);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(
      ParseJson(DumpToString(ring, "trace_parallel.json"), &doc, &error))
      << error;
  ASSERT_TRUE(ValidateChromeTrace(doc, &error)) << error;
}

TEST(Trace, DisabledPathIsCheap) {
  ASSERT_EQ(obs::CurrentRingRecorder(), nullptr);
  constexpr int kIterations = 1000000;
  util::Timer timer;
  for (int i = 0; i < kIterations; ++i) {
    obs::TraceScope span("noop");
    obs::TraceCounter("noop", i);
  }
  // One relaxed atomic load + branch per entry point: microseconds of real
  // cost. The bound is deliberately loose (sanitizer/debug builds, loaded CI
  // machines) — it exists to catch an accidental clock read or allocation on
  // the disabled path, which would blow past it by orders of magnitude.
  EXPECT_LT(timer.Seconds(), 1.0);
}

// ------------------------------------------------- ring black box ----------

TEST(Ring, WraparoundKeepsLastEvents) {
  obs::RingRecorder ring(obs::RingOptions{/*capacity_per_thread=*/64});
  EXPECT_EQ(ring.capacity_per_thread(), 64u);
  for (std::int64_t i = 0; i < 200; ++i) {
    ring.RecordInstant("tick", i);
  }
  EXPECT_EQ(ring.NumThreads(), 1u);
  EXPECT_EQ(ring.NumEvents(), 64u);
  const std::vector<obs::RingRecorder::EventView> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  // Only the last 64 of the 200 records survive, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 136u + i);
    EXPECT_EQ(events[i].value, static_cast<std::int64_t>(136 + i));
    EXPECT_STREQ(events[i].name, "tick");
  }
}

TEST(Ring, CapacityRoundsUpToPowerOfTwo) {
  obs::RingRecorder ring(obs::RingOptions{/*capacity_per_thread=*/100});
  EXPECT_EQ(ring.capacity_per_thread(), 128u);
  obs::RingRecorder tiny(obs::RingOptions{/*capacity_per_thread=*/1});
  EXPECT_EQ(tiny.capacity_per_thread(), 64u);  // floor
  obs::RingRecorder keep_all(kKeepAll);
  EXPECT_EQ(keep_all.capacity_per_thread(), 0u);  // unbounded
}

TEST(Ring, SpanWhoseSlotWasReusedIsDropped) {
  obs::RingRecorder ring(obs::RingOptions{/*capacity_per_thread=*/64});
  const obs::RingRecorder::OpenSpan span = ring.BeginSpan("lost");
  for (std::int64_t i = 0; i < 64; ++i) ring.RecordInstant("tick", i);
  ring.EndSpan(span);
  // The span's slot now holds the last tick, which EndSpan left alone.
  const std::vector<obs::RingRecorder::EventView> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (const obs::RingRecorder::EventView& e : events) {
    EXPECT_STREQ(e.name, "tick");
    EXPECT_EQ(e.dur_ns, 0u);
  }
}

TEST(Ring, EachThreadGetsItsOwnRing) {
  obs::RingRecorder ring(obs::RingOptions{/*capacity_per_thread=*/64});
  constexpr int kThreads = 4;
  constexpr int kEach = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ring, t] {
      for (int i = 0; i < kEach; ++i) {
        ring.RecordInstant("w", t * 1000 + i);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(ring.NumThreads(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(ring.NumEvents(), static_cast<std::size_t>(kThreads * kEach));
}

TEST(Ring, DumpIsValidChromeTraceWithReason) {
  obs::RingRecorder ring;
  ring.EndSpan(ring.BeginSpan("span.a"));
  ring.RecordCounter("count.b", 7);
  ring.RecordInstant("mark.c", 3);
  const std::string path = testing::TempDir() + "/ring_dump.json";
  ASSERT_TRUE(ring.DumpToFile(path.c_str(), "unit_test"));

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(ReadFileOrEmpty(path), &doc, &error)) << error;
  EXPECT_TRUE(obs::ValidateChromeTrace(doc, &error)) << error;
  const auto& events = doc.Find("traceEvents")->AsArray();
  bool saw_span = false, saw_counter = false, saw_mark = false,
       saw_dump = false;
  for (const obs::JsonValue& ev : events) {
    const std::string& name = ev.Find("name")->AsString();
    saw_span |= name == "span.a";
    saw_counter |= name == "count.b";
    saw_mark |= name == "mark.c";
    if (name == "blackbox.dump") {
      saw_dump = true;
      EXPECT_EQ(ev.Find("args")->Find("reason")->AsString(), "unit_test");
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_mark);
  EXPECT_TRUE(saw_dump);
}

TEST(Ring, DumpBlackBoxRequiresRecorderAndPath) {
  ASSERT_EQ(obs::CurrentRingRecorder(), nullptr);
  EXPECT_FALSE(obs::DumpBlackBox("no_recorder"));

  obs::RingRecorder ring;
  obs::InstallRingRecorder(&ring);
  obs::SetBlackBoxPath("");
  EXPECT_FALSE(obs::DumpBlackBox("no_path"));

  const std::string path = testing::TempDir() + "/blackbox.json";
  ASSERT_TRUE(obs::SetBlackBoxPath(path));
  ring.RecordInstant("before.dump", 1);
  const std::int64_t dumps_before = obs::BlackBoxDumps();
  EXPECT_TRUE(obs::DumpBlackBox("configured"));
  EXPECT_EQ(obs::BlackBoxDumps(), dumps_before + 1);
  obs::InstallRingRecorder(nullptr);
  obs::SetBlackBoxPath("");

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(ReadFileOrEmpty(path), &doc, &error)) << error;
  EXPECT_TRUE(obs::ValidateChromeTrace(doc, &error)) << error;
}

TEST(Ring, RecordPathIsCheap) {
  obs::RingRecorder ring;
  obs::RingRecorder* previous = obs::InstallRingRecorder(&ring);
  constexpr int kIterations = 1000000;
  util::Timer timer;
  for (int i = 0; i < kIterations; ++i) {
    obs::TraceInstant("noop", i);
  }
  const double elapsed = timer.Seconds();
  obs::InstallRingRecorder(previous);
  // A record is a TLS lookup plus a handful of relaxed stores — tens of
  // nanoseconds. As in DisabledPathIsCheap, the bound is loose on purpose:
  // it exists to catch an accidental lock, clock read, or allocation.
  EXPECT_LT(elapsed, 1.0);
  EXPECT_EQ(ring.NumEvents(), ring.capacity_per_thread());
}

#if defined(__SANITIZE_THREAD__)
#define P3D_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define P3D_TEST_TSAN 1
#endif
#endif

// Death tests fork; under TSan the forked child of a multi-threaded gtest
// process is unreliable, so the crash-handler pin runs un-sanitized only.
#if !defined(P3D_TEST_TSAN)

TEST(RingDeathTest, CrashHandlerDumpsBlackBox) {
  const std::string path = testing::TempDir() + "/blackbox_crash.json";
  std::remove(path.c_str());
  obs::RingRecorder ring;
  obs::InstallRingRecorder(&ring);
  ASSERT_TRUE(obs::SetBlackBoxPath(path));
  obs::InstallCrashHandler();
  // The child inherits recorder + handler; the handler dumps and re-raises
  // with the default disposition, so the child still dies of SIGSEGV.
  EXPECT_DEATH(
      {
        obs::TraceInstant("about.to.crash", 42);
        std::raise(SIGSEGV);
      },
      "");
  obs::InstallRingRecorder(nullptr);
  obs::SetBlackBoxPath("");

  obs::JsonValue doc;
  std::string error;
  const std::string text = ReadFileOrEmpty(path);
  ASSERT_FALSE(text.empty()) << "crash handler did not write " << path;
  ASSERT_TRUE(obs::ParseJson(text, &doc, &error)) << error;
  EXPECT_TRUE(obs::ValidateChromeTrace(doc, &error)) << error;
  EXPECT_NE(text.find("fatal_signal"), std::string::npos);
  EXPECT_NE(text.find("about.to.crash"), std::string::npos);
}
#endif  // !P3D_TEST_TSAN

// ------------------------------------------------------------- metrics -----

TEST(Metrics, CountersGaugesHistogramsSeries) {
  obs::MetricsRegistry m;
  m.Add("c", 2);
  m.Add("c", 3);
  EXPECT_EQ(m.Counter("c"), 5);
  EXPECT_EQ(m.Counter("absent"), 0);

  m.Set("g", 1.5);
  m.Set("g", 2.5);  // last write wins
  EXPECT_EQ(m.Gauge("g"), 2.5);

  m.Observe("h", 0);
  m.Observe("h", 1);
  m.Observe("h", 9);
  const obs::MetricsRegistry::Histogram* h = m.Hist("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3);
  EXPECT_EQ(h->sum, 10);
  EXPECT_EQ(h->min, 0);
  EXPECT_EQ(h->max, 9);

  m.Append("s", 1.0);
  m.Append("s", 2.0);
  const std::vector<double>* s = m.Series("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, (std::vector<double>{1.0, 2.0}));

  const obs::JsonValue json = m.ToJson();
  ASSERT_TRUE(json.is_object());
  EXPECT_NE(json.Find("counters"), nullptr);
  EXPECT_NE(json.Find("gauges"), nullptr);
  EXPECT_NE(json.Find("histograms"), nullptr);
  EXPECT_NE(json.Find("series"), nullptr);
  EXPECT_EQ(json.Find("counters")->Find("c")->AsNumber(), 5.0);

  m.Clear();
  EXPECT_EQ(m.Counter("c"), 0);
  EXPECT_EQ(m.Hist("h"), nullptr);
}

TEST(Metrics, HistogramQuantilesAreOrderedAndClamped) {
  obs::MetricsRegistry m;
  // A constant distribution: every quantile is that constant (the clamp to
  // [min, max] beats the pow2 bucket bounds).
  for (int i = 0; i < 100; ++i) m.Observe("const", 7);
  const obs::MetricsRegistry::Histogram* c = m.Hist("const");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(*c, 0.50), 7.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(*c, 0.95), 7.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(*c, 0.99), 7.0);

  // A spread distribution: quantiles are monotone in q and stay inside the
  // observed [min, max].
  for (int i = 1; i <= 1000; ++i) m.Observe("spread", i);
  const obs::MetricsRegistry::Histogram* s = m.Hist("spread");
  ASSERT_NE(s, nullptr);
  const double p50 = obs::HistogramQuantile(*s, 0.50);
  const double p95 = obs::HistogramQuantile(*s, 0.95);
  const double p99 = obs::HistogramQuantile(*s, 0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 1000.0);
  // Pow2 buckets bound the estimate to the true value's bucket: p50 of
  // 1..1000 is 500.5, whose bucket is [256, 511].
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 511.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(*s, 0.0), 1.0);    // q<=0 -> min
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(*s, 1.0), 1000.0);  // q>=1 -> max

  const obs::MetricsRegistry::Histogram empty;
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(empty, 0.5), 0.0);
}

TEST(Metrics, DeterministicDumpCarriesQuantiles) {
  obs::MetricsRegistry m;
  for (int i = 0; i < 10; ++i) m.Observe("h", i);
  const std::string dump = m.DumpDeterministic();
  EXPECT_NE(dump.find(" p50 "), std::string::npos);
  EXPECT_NE(dump.find(" p95 "), std::string::npos);
  EXPECT_NE(dump.find(" p99 "), std::string::npos);

  const obs::JsonValue json = m.ToJson();
  const obs::JsonValue* h = json.Find("histograms")->Find("h");
  ASSERT_NE(h, nullptr);
  for (const char* key : {"p50", "p95", "p99"}) {
    ASSERT_NE(h->Find(key), nullptr) << key;
    EXPECT_TRUE(h->Find(key)->is_number()) << key;
  }
}

TEST(Metrics, RenderPrometheusExposesAllFamilies) {
  obs::MetricsRegistry m;
  m.Add("cg/solves", 3);
  m.Set("flow/alpha_temp", 1.5);
  m.Accumulate("flow/t_fea_s", 0.25);
  for (int i = 1; i <= 16; ++i) m.Observe("legalize/window_cells", i);

  const std::string text = obs::RenderPrometheus(m);
  // Names are sanitized under the placer3d_ prefix; each family carries a
  // TYPE line; histograms render as summaries with quantiles + sum/count.
  EXPECT_NE(text.find("# TYPE placer3d_cg_solves counter\n"
                      "placer3d_cg_solves 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE placer3d_flow_alpha_temp gauge"),
            std::string::npos);
  EXPECT_NE(text.find("placer3d_flow_t_fea_s 0.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE placer3d_legalize_window_cells summary"),
            std::string::npos);
  EXPECT_NE(text.find("placer3d_legalize_window_cells{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("placer3d_legalize_window_cells_sum 136"),
            std::string::npos);
  EXPECT_NE(text.find("placer3d_legalize_window_cells_count 16"),
            std::string::npos);
}

TEST(Metrics, CommutativeRecordingFromParallelWorkers) {
  // Two interleavings of the same Add/Observe multiset must dump equal.
  obs::MetricsRegistry a, b;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&a, t] {
      for (int i = 0; i < 1000; ++i) {
        a.Add("adds", t + 1);
        a.Observe("obs", i % 17);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 1000; ++i) {
      b.Add("adds", t + 1);
      b.Observe("obs", i % 17);
    }
  }
  EXPECT_EQ(a.DumpDeterministic(), b.DumpDeterministic());
}

TEST(Metrics, ScopedThreadMetricsOverridesCurrentRegistry) {
  obs::MetricsRegistry process;
  obs::InstallMetrics(&process);
  obs::MetricAdd("before", 1);
  {
    obs::MetricsRegistry job;
    obs::ScopedThreadMetrics scope(&job);
    obs::MetricAdd("inside", 1);  // routed to the thread-local override
    EXPECT_EQ(job.Counter("inside"), 1);
    EXPECT_EQ(process.Counter("inside"), 0);
    {
      // A nested null override silences recording without falling through
      // to the process registry.
      obs::ScopedThreadMetrics silence(nullptr);
      obs::MetricAdd("silenced", 1);
      EXPECT_EQ(job.Counter("silenced"), 0);
      EXPECT_EQ(process.Counter("silenced"), 0);
    }
    obs::MetricAdd("inside", 1);  // inner scope restored the outer override
    EXPECT_EQ(job.Counter("inside"), 2);
  }
  obs::MetricAdd("after", 1);  // override popped: back to the process registry
  EXPECT_EQ(process.Counter("before"), 1);
  EXPECT_EQ(process.Counter("after"), 1);
  obs::InstallMetrics(nullptr);
}

TEST(Metrics, ThreadMetricsOverrideIsPerThread) {
  obs::MetricsRegistry job, other;
  obs::ScopedThreadMetrics scope(&job);
  std::thread t([&] {
    // The override does not leak across threads; this thread installs its
    // own and the two registries stay disjoint.
    obs::ScopedThreadMetrics inner(&other);
    obs::MetricAdd("theirs", 1);
  });
  t.join();
  obs::MetricAdd("mine", 1);
  EXPECT_EQ(job.Counter("mine"), 1);
  EXPECT_EQ(job.Counter("theirs"), 0);
  EXPECT_EQ(other.Counter("theirs"), 1);
}

// ----------------------------------------- full-flow acceptance checks -----

struct InstrumentedRun {
  place::PlacementResult result;
  std::string metrics_dump;
  std::vector<obs::PhaseSample> samples;
};

InstrumentedRun RunWithObservability(const netlist::Netlist& nl, int threads,
                                     bool install) {
  place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 1e-6;
  params.threads = threads;

  obs::MetricsRegistry registry;
  obs::RingRecorder ring(kKeepAll);  // the full trace, also the black box
  place::Placer3D placer(nl, params);
  place::PhaseMetricsSampler sampler;
  if (install) {
    obs::InstallMetrics(&registry);
    obs::InstallRingRecorder(&ring);
    placer.AddPhaseObserver(&sampler);
  }
  InstrumentedRun out;
  out.result = *placer.Run({.with_fea = false});
  obs::InstallMetrics(nullptr);
  obs::InstallRingRecorder(nullptr);
  out.metrics_dump = registry.DumpDeterministic();
  out.samples = sampler.samples();
  return out;
}

TEST(ObsAcceptance, MetricsIdenticalAcrossThreadCounts) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = io::Generate(io::Table1Spec("ibm01", 0.01));
  const InstrumentedRun r1 = RunWithObservability(nl, 1, true);
  const InstrumentedRun r4 = RunWithObservability(nl, 4, true);
  EXPECT_FALSE(r1.metrics_dump.empty());
  EXPECT_EQ(r1.metrics_dump, r4.metrics_dump);
  ASSERT_EQ(r1.samples.size(), r4.samples.size());
  for (std::size_t i = 0; i < r1.samples.size(); ++i) {
    EXPECT_EQ(r1.samples[i].phase, r4.samples[i].phase);
    EXPECT_EQ(r1.samples[i].total_m, r4.samples[i].total_m);  // bitwise
    EXPECT_EQ(r1.samples[i].ilv, r4.samples[i].ilv);
    EXPECT_EQ(r1.samples[i].commits, r4.samples[i].commits);
  }
}

TEST(ObsAcceptance, PlacementBytesUnchangedByObservability) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = io::Generate(io::Table1Spec("ibm01", 0.01));
  for (const int threads : {1, 4}) {
    const InstrumentedRun off = RunWithObservability(nl, threads, false);
    const InstrumentedRun on = RunWithObservability(nl, threads, true);
    EXPECT_EQ(off.result.placement.x, on.result.placement.x)
        << "threads=" << threads;
    EXPECT_EQ(off.result.placement.y, on.result.placement.y)
        << "threads=" << threads;
    EXPECT_EQ(off.result.placement.layer, on.result.placement.layer)
        << "threads=" << threads;
  }
}

TEST(ObsAcceptance, PhaseSamplesCarryEq3Decomposition) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = io::Generate(io::Table1Spec("ibm01", 0.01));
  const InstrumentedRun r = RunWithObservability(nl, 1, true);
  ASSERT_GE(r.samples.size(), 4u);  // global, coarse, detailed, final at least
  for (const obs::PhaseSample& s : r.samples) {
    EXPECT_FALSE(s.phase.empty());
    EXPECT_GT(s.wl_m, 0.0);
    EXPECT_NEAR(s.total_m, s.wl_m + s.ilv_cost_m + s.thermal_cost_m,
                1e-6 * s.total_m + 1e-12);
  }
}

// -------------------------------------------------------------- report -----

TEST(Report, RoundTripAndValidate) {
  obs::MetricsRegistry registry;
  registry.Add("cg/solves", 3);
  registry.Append("phase/total_m", 1.25);

  obs::RunReport report;
  report.circuit = "ibm01";
  report.cells = 123;
  report.nets = 129;
  report.pins = 403;
  report.params.emplace_back("alpha_ilv", 1e-5);
  report.params.emplace_back("seed", 12345);
  obs::PhaseSample s;
  s.phase = "global";
  s.wl_m = 0.25;
  s.ilv_cost_m = 0.01;
  s.thermal_cost_m = 0.04;
  s.total_m = 0.30;
  s.ilv = 99;
  s.commits = 0;
  s.t_s = 0.5;
  report.phases.push_back(s);
  report.qor.emplace_back("hpwl_m", 0.21);
  report.qor.emplace_back("legal", true);
  report.timings.emplace_back("total_s", 1.5);
  report.metrics = &registry;

  const std::string path =
      testing::TempDir() + "/placer3d_report_roundtrip.json";
  ASSERT_TRUE(report.Write(path));

  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  std::remove(path.c_str());

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(text, &doc, &error)) << error;
  ASSERT_TRUE(ValidateRunReport(doc, &error)) << error;
  EXPECT_EQ(doc.Find("schema")->AsString(), obs::kRunReportSchema);
  EXPECT_EQ(doc.Find("version")->AsNumber(), obs::kRunReportVersion);
  const obs::JsonValue* phases = doc.Find("phases");
  ASSERT_TRUE(phases != nullptr && phases->is_array());
  ASSERT_EQ(phases->AsArray().size(), 1u);
  const obs::JsonValue& p0 = phases->AsArray()[0];
  EXPECT_EQ(p0.Find("phase")->AsString(), "global");
  EXPECT_EQ(p0.Find("wl_m")->AsNumber(), 0.25);
  EXPECT_EQ(p0.Find("ilv")->AsNumber(), 99.0);
  const obs::JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("counters")->Find("cg/solves")->AsNumber(), 3.0);
}

TEST(Report, ValidateRejectsSchemaViolations) {
  obs::RunReport report;
  report.circuit = "x";
  obs::JsonValue doc = report.ToJson();
  std::string error;
  ASSERT_TRUE(ValidateRunReport(doc, &error)) << error;

  obs::JsonValue wrong_schema = report.ToJson();
  for (auto& [key, value] : wrong_schema.AsObject()) {
    if (key == "schema") value = "other.schema";
  }
  EXPECT_FALSE(ValidateRunReport(wrong_schema, &error));

  obs::JsonValue not_object;
  EXPECT_FALSE(ValidateRunReport(not_object, &error));
}

}  // namespace
}  // namespace p3d
