#include "serve/batch.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/report.h"
#include "place/instrument.h"

namespace p3d::serve {
namespace {

std::string FormatG(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// The per-job run report ("placer3d.run_report") for one finished job.
obs::JsonValue JobRunReport(const JobSpec& spec, const JobResult& result) {
  obs::RunReport report = place::BuildRunReport(
      *spec.netlist, spec.params, result.placement, result.phases,
      result.metrics.get());
  report.circuit = spec.circuit.empty() ? spec.name : spec.circuit;
  report.params.emplace_back("scale", spec.circuit_scale);
  return report.ToJson();
}

const char* StatusLabel(const util::Status& status) {
  if (status.ok()) return "ok";
  if (util::IsCancelled(status)) return "cancelled";
  return "failed";
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool RequireNumber(const obs::JsonValue& obj, const char* key,
                   std::string* error, const std::string& where) {
  const obs::JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) {
    return Fail(error, where + ": missing numeric '" + key + "'");
  }
  return true;
}

}  // namespace

util::StatusOr<std::vector<SweepPoint>> RunSweep(JobEngine& engine,
                                                 const SweepSpec& spec) {
  if (spec.netlist == nullptr) {
    return util::InvalidArgumentError("RunSweep: null netlist");
  }
  std::vector<int> layers = spec.layers;
  if (layers.empty()) layers.push_back(spec.base.num_layers);
  std::vector<double> ilvs = spec.alpha_ilv;
  if (ilvs.empty()) ilvs.push_back(spec.base.alpha_ilv);
  std::vector<double> temps = spec.alpha_temp;
  if (temps.empty()) temps.push_back(spec.base.alpha_temp);

  std::vector<SweepPoint> points;
  for (const int n_layers : layers) {
    for (const double a_ilv : ilvs) {
      for (const double a_temp : temps) {
        SweepPoint point;
        point.layers = n_layers;
        point.alpha_ilv = a_ilv;
        point.alpha_temp = a_temp;
        point.name = "L" + std::to_string(n_layers) + "_ilv" +
                     FormatG(a_ilv) + "_temp" + FormatG(a_temp);

        JobSpec job;
        job.name = point.name;
        job.netlist = spec.netlist;
        job.params = spec.base;
        job.params.num_layers = n_layers;
        job.params.alpha_ilv = a_ilv;
        job.params.alpha_temp = a_temp;
        job.options = spec.options;
        job.circuit = spec.circuit;
        job.circuit_scale = spec.circuit_scale;

        util::StatusOr<JobHandle> handle = engine.Submit(std::move(job));
        if (!handle.ok()) return handle.status();
        point.handle = *handle;
        points.push_back(std::move(point));
      }
    }
  }
  for (SweepPoint& point : points) {
    point.result = engine.Wait(point.handle);
  }
  return points;
}

obs::JsonValue BuildBatchReport(const JobEngine& engine,
                                const std::vector<JobHandle>& handles) {
  const JobEngine::Stats stats = engine.GetStats();

  obs::JsonValue doc = obs::JsonValue::MakeObject();
  doc.Set("schema", kBatchReportSchema);
  doc.Set("version", kBatchReportVersion);

  obs::JsonValue eng = obs::JsonValue::MakeObject();
  eng.Set("workers", engine.num_workers());
  eng.Set("thread_budget", engine.job_thread_budget());
  eng.Set("jobs", static_cast<long long>(handles.size()));
  eng.Set("completed", stats.completed);
  eng.Set("cancelled", stats.cancelled);
  eng.Set("failed", stats.failed);
  eng.Set("stalled", stats.stalled);  // watchdog flag events (additive, v1)
  obs::JsonValue cache = obs::JsonValue::MakeObject();
  cache.Set("hits", stats.fea_cache.hits);
  cache.Set("misses", stats.fea_cache.misses);
  cache.Set("evictions", stats.fea_cache.evictions);
  eng.Set("fea_cache", std::move(cache));
  doc.Set("engine", std::move(eng));

  obs::JsonValue jobs = obs::JsonValue::MakeArray();
  for (const JobHandle handle : handles) {
    const JobSpec* spec = engine.Spec(handle);
    const JobResult* result = engine.Result(handle);
    obs::JsonValue entry = obs::JsonValue::MakeObject();
    if (spec == nullptr || result == nullptr) {
      entry.Set("name", "unknown-job-" + std::to_string(handle.id));
      entry.Set("status", "failed");
      entry.Set("message", "job not found or not finished");
      entry.Set("wall_s", 0.0);
      jobs.Push(std::move(entry));
      continue;
    }
    entry.Set("name", spec->name);
    entry.Set("status", StatusLabel(result->status));
    entry.Set("priority", spec->priority);
    entry.Set("wall_s", result->wall_s);
    entry.Set("stalled", result->stalled);
    entry.Set("anomalies", result->anomalies);
    if (result->status.ok()) {
      entry.Set("report", JobRunReport(*spec, *result));
    } else {
      entry.Set("message", result->status.ToString());
    }
    jobs.Push(std::move(entry));
  }
  doc.Set("jobs", std::move(jobs));
  return doc;
}

bool WriteBatchReport(const obs::JsonValue& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << report.SerializePretty() << "\n";
  return static_cast<bool>(out);
}

bool ValidateBatchReport(const obs::JsonValue& doc, std::string* error) {
  if (!doc.is_object()) return Fail(error, "batch report: not an object");
  const obs::JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != kBatchReportSchema) {
    return Fail(error, "batch report: bad schema");
  }
  const obs::JsonValue* version = doc.Find("version");
  if (version == nullptr || !version->is_number() ||
      static_cast<int>(version->AsNumber()) != kBatchReportVersion) {
    return Fail(error, "batch report: bad version");
  }

  const obs::JsonValue* engine = doc.Find("engine");
  if (engine == nullptr || !engine->is_object()) {
    return Fail(error, "batch report: missing 'engine' object");
  }
  for (const char* key :
       {"workers", "thread_budget", "jobs", "completed", "cancelled",
        "failed"}) {
    if (!RequireNumber(*engine, key, error, "batch report engine")) {
      return false;
    }
  }
  // Additive v1 field: absent in pre-watchdog reports, numeric when present.
  if (const obs::JsonValue* stalled = engine->Find("stalled");
      stalled != nullptr && !stalled->is_number()) {
    return Fail(error, "batch report engine: 'stalled' is not a number");
  }
  const obs::JsonValue* cache = engine->Find("fea_cache");
  if (cache == nullptr || !cache->is_object()) {
    return Fail(error, "batch report: missing 'engine.fea_cache' object");
  }
  for (const char* key : {"hits", "misses", "evictions"}) {
    if (!RequireNumber(*cache, key, error, "batch report fea_cache")) {
      return false;
    }
  }

  const obs::JsonValue* jobs = doc.Find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    return Fail(error, "batch report: missing 'jobs' array");
  }
  for (std::size_t i = 0; i < jobs->AsArray().size(); ++i) {
    const obs::JsonValue& entry = jobs->AsArray()[i];
    const std::string where = "batch report job " + std::to_string(i);
    if (!entry.is_object()) return Fail(error, where + ": not an object");
    const obs::JsonValue* name = entry.Find("name");
    if (name == nullptr || !name->is_string()) {
      return Fail(error, where + ": missing 'name'");
    }
    const obs::JsonValue* status = entry.Find("status");
    if (status == nullptr || !status->is_string() ||
        (status->AsString() != "ok" && status->AsString() != "cancelled" &&
         status->AsString() != "failed")) {
      return Fail(error, where + ": bad 'status'");
    }
    if (!RequireNumber(entry, "wall_s", error, where)) return false;
    if (const obs::JsonValue* stalled = entry.Find("stalled");
        stalled != nullptr && !stalled->is_bool()) {
      return Fail(error, where + ": 'stalled' is not a bool");
    }
    if (status->AsString() == "ok") {
      const obs::JsonValue* report = entry.Find("report");
      if (report == nullptr) {
        return Fail(error, where + ": ok job without 'report'");
      }
      std::string inner;
      if (!obs::ValidateRunReport(*report, &inner)) {
        return Fail(error, where + ": embedded run report: " + inner);
      }
    } else if (entry.Find("message") == nullptr) {
      return Fail(error, where + ": non-ok job without 'message'");
    }
  }
  return true;
}

}  // namespace p3d::serve
