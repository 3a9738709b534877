#include "serve/manifest.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "io/synthetic.h"
#include "obs/json.h"
#include "place/params.h"
#include "runtime/stream.h"

namespace p3d::serve {
namespace {

/// Job-level field with fallback to the manifest's `defaults` object.
const obs::JsonValue* Lookup(const obs::JsonValue& job,
                             const obs::JsonValue* defaults,
                             const std::string& key) {
  if (const obs::JsonValue* v = job.Find(key)) return v;
  if (defaults != nullptr) return defaults->Find(key);
  return nullptr;
}

util::Status FieldTypeError(std::size_t job_index, const std::string& key,
                            const char* want) {
  return util::ParseError("jobs manifest: job " + std::to_string(job_index) +
                          ": field '" + key + "' must be a " + want);
}

/// Every field a job object (or `defaults`) may carry; any other key is a
/// manifest error, so a typo or a removed field never passes silently.
constexpr const char* kJobFields[] = {
    "name", "circuit", "scale", "layers", "alpha_ilv", "alpha_temp",
    "seed", "threads", "priority", "with_fea", "fea_per_pass",
    "fea_precond", "start_deadline_s"};

/// Names the first key of `object` outside kJobFields; `where` is "job N"
/// or "defaults".
util::Status CheckJobFields(const obs::JsonValue& object,
                            const std::string& where) {
  for (const auto& [key, value] : object.AsObject()) {
    const auto known = [&key](const char* f) { return key == f; };
    if (std::none_of(std::begin(kJobFields), std::end(kJobFields), known)) {
      return util::ParseError("jobs manifest: " + where + ": unknown field '" +
                              key + "'");
    }
  }
  return util::Status::Ok();
}

/// Converts a JSON number to the integer type T when it is finite, has no
/// fractional part and lies in T's range; false otherwise (a static_cast
/// of such a value would be undefined behaviour).
template <typename T>
bool ToIntegral(const obs::JsonValue& v, T* out) {
  if (!v.is_number()) return false;
  const double d = v.AsNumber();
  // [lo, hi) with hi = 2^digits is exact in a double for int and uint64_t.
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lo = std::numeric_limits<T>::is_signed ? -hi : 0.0;
  if (!std::isfinite(d) || d != std::trunc(d) || d < lo || d >= hi) {
    return false;
  }
  *out = static_cast<T>(d);
  return true;
}

}  // namespace

util::StatusOr<JobsManifest> ParseJobsManifest(const std::string& text) {
  obs::JsonValue doc;
  std::string json_error;
  if (!obs::ParseJson(text, &doc, &json_error)) {
    return util::ParseError("jobs manifest: " + json_error);
  }
  if (!doc.is_object()) {
    return util::ParseError("jobs manifest: document is not an object");
  }
  const obs::JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != kJobsManifestSchema) {
    return util::ParseError(std::string("jobs manifest: schema must be \"") +
                            kJobsManifestSchema + "\"");
  }
  const obs::JsonValue* version = doc.Find("version");
  int version_number = 0;
  if (version == nullptr || !ToIntegral(*version, &version_number) ||
      version_number != kJobsManifestVersion) {
    return util::ParseError("jobs manifest: unsupported version");
  }

  JobsManifest manifest;
  if (const obs::JsonValue* seed = doc.Find("seed")) {
    if (!ToIntegral(*seed, &manifest.base_seed)) {
      return util::ParseError(
          "jobs manifest: 'seed' must be a 64-bit unsigned integer");
    }
  }

  const obs::JsonValue* defaults = doc.Find("defaults");
  if (defaults != nullptr) {
    if (!defaults->is_object()) {
      return util::ParseError("jobs manifest: 'defaults' must be an object");
    }
    if (util::Status s = CheckJobFields(*defaults, "defaults"); !s.ok()) {
      return s;
    }
  }

  const obs::JsonValue* jobs = doc.Find("jobs");
  if (jobs == nullptr || !jobs->is_array() || jobs->AsArray().empty()) {
    return util::ParseError(
        "jobs manifest: 'jobs' must be a non-empty array");
  }

  // Netlists deduplicated by (circuit, scale); generated lazily on first use.
  std::vector<std::pair<std::string, double>> circuit_keys;

  for (std::size_t i = 0; i < jobs->AsArray().size(); ++i) {
    const obs::JsonValue& jv = jobs->AsArray()[i];
    if (!jv.is_object()) {
      return util::ParseError("jobs manifest: job " + std::to_string(i) +
                              " is not an object");
    }
    if (util::Status s = CheckJobFields(jv, "job " + std::to_string(i));
        !s.ok()) {
      return s;
    }

    std::string circuit = "ibm01";
    double scale = 0.05;
    JobSpec spec;
    spec.params.seed = runtime::DeriveSeed(manifest.base_seed, i);

    if (const auto* v = Lookup(jv, defaults, "name")) {
      if (!v->is_string()) return FieldTypeError(i, "name", "string");
      spec.name = v->AsString();
    }
    if (const auto* v = Lookup(jv, defaults, "circuit")) {
      if (!v->is_string()) return FieldTypeError(i, "circuit", "string");
      circuit = v->AsString();
    }
    if (const auto* v = Lookup(jv, defaults, "scale")) {
      if (!v->is_number() || v->AsNumber() <= 0.0) {
        return FieldTypeError(i, "scale", "positive number");
      }
      scale = v->AsNumber();
    }
    if (const auto* v = Lookup(jv, defaults, "layers")) {
      if (!ToIntegral(*v, &spec.params.num_layers)) {
        return FieldTypeError(i, "layers", "32-bit integer");
      }
    }
    if (const auto* v = Lookup(jv, defaults, "alpha_ilv")) {
      if (!v->is_number()) return FieldTypeError(i, "alpha_ilv", "number");
      spec.params.alpha_ilv = v->AsNumber();
    }
    if (const auto* v = Lookup(jv, defaults, "alpha_temp")) {
      if (!v->is_number()) return FieldTypeError(i, "alpha_temp", "number");
      spec.params.alpha_temp = v->AsNumber();
    }
    if (const auto* v = Lookup(jv, defaults, "seed")) {
      if (!ToIntegral(*v, &spec.params.seed)) {
        return FieldTypeError(i, "seed", "64-bit unsigned integer");
      }
    }
    if (const auto* v = Lookup(jv, defaults, "threads")) {
      if (!ToIntegral(*v, &spec.params.threads)) {
        return FieldTypeError(i, "threads", "32-bit integer");
      }
    }
    if (const auto* v = Lookup(jv, defaults, "priority")) {
      if (!ToIntegral(*v, &spec.priority)) {
        return FieldTypeError(i, "priority", "32-bit integer");
      }
    }
    if (const auto* v = Lookup(jv, defaults, "with_fea")) {
      if (!v->is_bool()) return FieldTypeError(i, "with_fea", "bool");
      spec.options.with_fea = v->AsBool();
    }
    if (const auto* v = Lookup(jv, defaults, "fea_per_pass")) {
      if (!v->is_bool()) return FieldTypeError(i, "fea_per_pass", "bool");
      spec.params.fea_per_pass = v->AsBool();
    }
    if (const auto* v = Lookup(jv, defaults, "fea_precond")) {
      if (!v->is_string()) return FieldTypeError(i, "fea_precond", "string");
      const std::string& kind = v->AsString();
      if (kind == "jacobi") {
        spec.options.preconditioner = linalg::PreconditionerKind::kJacobi;
      } else if (kind == "ic0") {
        spec.options.preconditioner = linalg::PreconditionerKind::kIc0;
      } else if (kind == "multigrid") {
        spec.options.preconditioner = linalg::PreconditionerKind::kMultigrid;
      } else {
        return util::ParseError("jobs manifest: job " + std::to_string(i) +
                                ": bad fea_precond '" + kind +
                                "' (want jacobi|ic0|multigrid)");
      }
    }
    if (const auto* v = Lookup(jv, defaults, "start_deadline_s")) {
      if (!v->is_number() || v->AsNumber() < 0.0) {
        return FieldTypeError(i, "start_deadline_s", "non-negative number");
      }
      spec.start_deadline_s = v->AsNumber();
    }
    if (spec.name.empty()) {
      spec.name = circuit + "-job" + std::to_string(i + 1);
    }

    std::size_t circuit_index = circuit_keys.size();
    for (std::size_t k = 0; k < circuit_keys.size(); ++k) {
      if (circuit_keys[k].first == circuit &&
          circuit_keys[k].second == scale) {
        circuit_index = k;
        break;
      }
    }
    if (circuit_index == circuit_keys.size()) {
      io::SyntheticSpec synth;
      try {
        synth = io::Table1Spec(circuit, scale);
      } catch (const std::exception& e) {
        return util::ParseError("jobs manifest: job " + std::to_string(i) +
                                ": " + e.what());
      }
      manifest.netlists.push_back(
          std::make_shared<const netlist::Netlist>(io::Generate(synth)));
      circuit_keys.emplace_back(circuit, scale);
    }
    spec.netlist = manifest.netlists[circuit_index].get();
    spec.circuit = circuit;
    spec.circuit_scale = scale;
    place::CompensateWireCapForScale(&spec.params, scale);
    manifest.jobs.push_back(std::move(spec));
  }
  return manifest;
}

util::StatusOr<JobsManifest> LoadJobsManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return util::NotFoundError("jobs manifest: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return util::IoError("jobs manifest: read failed for " + path);
  }
  return ParseJobsManifest(buffer.str());
}

}  // namespace p3d::serve
