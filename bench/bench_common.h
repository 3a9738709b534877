// Shared plumbing for the benchmark harnesses that regenerate the paper's
// tables and figures.
//
// Environment knobs:
//   REPRO_SCALE     fraction of the published circuit sizes to generate
//                   (default 0.05; 1.0 reproduces Table 1 exactly)
//   REPRO_FAST      if set (non-empty), coarser sweeps / fewer circuits for
//                   a quick smoke run
//   BENCH_JSON_DIR  directory for the BENCH_<name>.json row dumps
//                   (default: current directory)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "io/synthetic.h"
#include "obs/json.h"
#include "place/placer.h"
#include "util/log.h"

namespace p3d::bench {

inline double Scale() {
  if (const char* env = std::getenv("REPRO_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 0.05;
}

inline bool Fast() {
  const char* env = std::getenv("REPRO_FAST");
  return env != nullptr && env[0] != '\0';
}

/// Table 1 circuits at the configured scale. Fast mode keeps a small,
/// size-diverse subset.
inline std::vector<io::SyntheticSpec> Circuits() {
  std::vector<io::SyntheticSpec> specs = io::Table1Specs(Scale());
  if (!Fast()) return specs;
  return {specs[0], specs[4], specs[9]};  // ibm01, ibm05, ibm10
}

inline io::SyntheticSpec Ibm01() { return io::Table1Spec("ibm01", Scale()); }

/// Table 2 defaults with the wire-capacitance compensation for scaled
/// circuits (DESIGN.md substitution notes).
inline place::PlacerParams BaseParams(int layers = 4) {
  place::PlacerParams params;
  params.num_layers = layers;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 0.0;
  place::CompensateWireCapForScale(&params, Scale());
  return params;
}

/// The paper's alpha_ILV sweep: 5e-9 .. 5.2e-3 in multiplicative steps of 4
/// ("centred around the average cell width or height (~1e-5)").
inline std::vector<double> IlvSweep() {
  std::vector<double> v;
  const int stride = Fast() ? 4 : 1;
  int i = 0;
  for (double a = 5e-9; a <= 5.3e-3; a *= 4.0) {
    if (i++ % stride == 0) v.push_back(a);
  }
  return v;
}

/// The paper's alpha_TEMP sweep: 1e-8 .. 5.2e-3 in steps of 2 (Figures 6/8).
inline std::vector<double> TempSweep(double lo = 1e-8, double hi = 5.2e-3) {
  std::vector<double> v;
  const int stride = Fast() ? 3 : 1;
  int i = 0;
  for (double a = lo; a <= hi * 1.01; a *= 2.0) {
    if (i++ % stride == 0) v.push_back(a);
  }
  return v;
}

inline place::PlacementResult RunPlacer(const netlist::Netlist& nl,
                                        const place::PlacerParams& params,
                                        bool with_fea) {
  place::Placer3D placer(nl, params);
  return *placer.Run({.with_fea = with_fea});
}

/// Machine-readable twin of each harness's printed table. Every data point
/// the main() prints is also recorded as one JSON object; the collected rows
/// are written to BENCH_<slug>.json (in $BENCH_JSON_DIR, default the current
/// directory) when the recorder goes out of scope. Rows within one file need
/// not share a column set — summary/headline rows just carry fewer keys.
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string slug)
      : slug_(std::move(slug)), rows_(obs::JsonValue::MakeArray()) {}
  ~BenchRecorder() { Flush(); }
  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  void Row(std::initializer_list<std::pair<const char*, obs::JsonValue>> cols) {
    obs::JsonValue row = obs::JsonValue::MakeObject();
    for (const auto& [key, value] : cols) row.Set(key, value);
    rows_.Push(std::move(row));
  }

  /// Writes BENCH_<slug>.json once; later calls (and the destructor) are
  /// no-ops. Returns false on I/O failure.
  bool Flush() {
    if (flushed_) return true;
    flushed_ = true;
    const std::size_t num_rows = rows_.AsArray().size();
    obs::JsonValue doc = obs::JsonValue::MakeObject();
    doc.Set("schema", "placer3d.bench");
    doc.Set("version", 1);
    doc.Set("bench", slug_);
    doc.Set("repro_scale", Scale());
    doc.Set("fast", Fast());
    doc.Set("rows", std::move(rows_));
    std::string dir = ".";
    if (const char* env = std::getenv("BENCH_JSON_DIR")) {
      if (env[0] != '\0') dir = env;
    }
    const std::string path = dir + "/BENCH_" + slug_ + ".json";
    const std::string text = doc.SerializePretty() + "\n";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      util::LogWarn("bench: cannot open %s", path.c_str());
      return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (ok) std::printf("# wrote %s (%zu rows)\n", path.c_str(), num_rows);
    return ok;
  }

 private:
  std::string slug_;
  obs::JsonValue rows_;
  bool flushed_ = false;
};

/// Quiet-library guard + JSON row recorder shared by all harness mains.
struct BenchSetup {
  util::ScopedLogLevel quiet{util::LogLevel::kWarn};
  BenchRecorder recorder;
  BenchSetup(const char* slug, const char* title) : recorder(slug) {
    std::printf("# %s  (REPRO_SCALE=%g%s)\n", title, Scale(),
                Fast() ? ", REPRO_FAST" : "");
  }
  void Row(std::initializer_list<std::pair<const char*, obs::JsonValue>> c) {
    recorder.Row(c);
  }
};

}  // namespace p3d::bench
