// Micro-benchmarks (google-benchmark) for the performance-critical
// substrates: hypergraph bipartitioning and FM refinement, FEA thermal
// solves, incremental objective evaluation, cell shifting, synthetic
// generation, and the parallel-runtime scaling of multi-start partitioning
// and CG/SpMV (threads = 1/2/4/8; wall-clock speedup requires matching
// hardware cores).
#include <benchmark/benchmark.h>

#include "io/synthetic.h"
#include "linalg/cg.h"
#include "linalg/csr.h"
#include "obs/ring.h"
#include "partition/fm.h"
#include "partition/partitioner.h"
#include "place/objective.h"
#include "place/shift.h"
#include "region_hypergraph.h"
#include "thermal/fea.h"
#include "util/log.h"
#include "util/rng.h"

namespace {

using namespace p3d;

netlist::Netlist MakeCircuit(int cells, std::uint64_t seed = 1) {
  io::SyntheticSpec spec;
  spec.name = "bench";
  spec.num_cells = cells;
  spec.total_area_m2 = cells * 4.9e-12;
  spec.seed = seed;
  return io::Generate(spec);
}

void BM_SyntheticGenerate(benchmark::State& state) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const int cells = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeCircuit(cells));
  }
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_SyntheticGenerate)->Arg(1000)->Arg(10000);

void BM_Bipartition(benchmark::State& state) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const int cells = static_cast<int>(state.range(0));
  const netlist::Netlist nl = MakeCircuit(cells);
  partition::Hypergraph hg;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    hg.AddVertex(nl.cell(c).Area());
  }
  std::vector<std::int32_t> verts;
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    verts.clear();
    for (const auto& pin : nl.NetPins(n)) verts.push_back(pin.cell);
    hg.AddNet(1.0, verts);
  }
  hg.Finalize();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    partition::PartitionOptions opt;
    opt.tolerance = 0.05;
    opt.seed = seed++;
    benchmark::DoNotOptimize(partition::Bipartition(hg, opt));
  }
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_Bipartition)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// One FM refinement of the shape the flow runs most often: a region of ~25
// cells, ~34 nets and ~100 pins, with two fixed terminals on most nets
// (fixture shared with test_partition). A flow makes tens of thousands of
// these calls, so this measures FM's fixed cost per call, which the large
// terminal-free BM_Bipartition graphs hide.
void BM_RefineFmRegion(benchmark::State& state) {
  const partition::Hypergraph hg = partition::fixtures::RegionHypergraph(1);
  std::vector<std::int8_t> start(static_cast<std::size_t>(hg.NumVerts()));
  util::Rng start_rng(1);
  for (std::int32_t v = 0; v < hg.NumVerts(); ++v) {
    const partition::FixedSide f = hg.Fixed(v);
    start[static_cast<std::size_t>(v)] =
        f == partition::FixedSide::kFree
            ? static_cast<std::int8_t>(start_rng.NextBounded(2))
            : static_cast<std::int8_t>(f);
  }
  partition::FmOptions opt;
  opt.min_part0_weight_q = hg.TotalVertWeightQ() * 4 / 10;
  opt.max_part0_weight_q = hg.TotalVertWeightQ() * 6 / 10;
  opt.max_passes = partition::PartitionOptions{}.fm_passes;
  std::vector<std::int8_t> side;
  for (auto _ : state) {
    side = start;
    util::Rng rng(1);
    benchmark::DoNotOptimize(partition::RefineFm(hg, &side, opt, rng));
  }
  std::int64_t pins = 0;
  for (std::int32_t n = 0; n < hg.NumNets(); ++n) {
    pins += static_cast<std::int64_t>(hg.NetVerts(n).size());
  }
  state.counters["verts"] = hg.NumVerts();
  state.counters["nets"] = hg.NumNets();
  state.counters["pins"] = static_cast<double>(pins);
}
BENCHMARK(BM_RefineFmRegion);

// Multi-start partitioning with the runtime fanning the 8 independent
// starts over N threads. The result is identical for every N (determinism
// contract); only the wall clock changes. Compare the per-thread-count rows
// for the scaling curve (>= 2x at 4 threads on >= 4 cores).
void BM_BipartitionMultiStart(benchmark::State& state) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const int threads = static_cast<int>(state.range(0));
  const netlist::Netlist nl = MakeCircuit(4000);
  partition::Hypergraph hg;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    hg.AddVertex(nl.cell(c).Area());
  }
  std::vector<std::int32_t> verts;
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    verts.clear();
    for (const auto& pin : nl.NetPins(n)) verts.push_back(pin.cell);
    hg.AddNet(1.0, verts);
  }
  hg.Finalize();
  partition::PartitionOptions opt;
  opt.tolerance = 0.05;
  opt.num_starts = 8;
  opt.threads = threads;
  opt.seed = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition::Bipartition(hg, opt));
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_BipartitionMultiStart)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// CG SpMV scaling on an FEA-shaped SPD system (3D 7-point Laplacian).
void BM_CgSolveThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::int32_t g = 48, gz = 16;
  const std::int32_t n = g * g * gz;
  linalg::CooBuilder coo(n);
  auto id = [&](std::int32_t x, std::int32_t y, std::int32_t z) {
    return x + g * (y + g * z);
  };
  for (std::int32_t z = 0; z < gz; ++z) {
    for (std::int32_t y = 0; y < g; ++y) {
      for (std::int32_t x = 0; x < g; ++x) {
        const std::int32_t i = id(x, y, z);
        coo.Add(i, i, 6.05);
        if (x > 0) coo.Add(i, i - 1, -1.0);
        if (x < g - 1) coo.Add(i, i + 1, -1.0);
        if (y > 0) coo.Add(i, id(x, y - 1, z), -1.0);
        if (y < g - 1) coo.Add(i, id(x, y + 1, z), -1.0);
        if (z > 0) coo.Add(i, id(x, y, z - 1), -1.0);
        if (z < gz - 1) coo.Add(i, id(x, y, z + 1), -1.0);
      }
    }
  }
  const linalg::CsrMatrix a = linalg::CsrMatrix::FromCoo(coo);
  std::vector<double> b(static_cast<std::size_t>(n));
  util::Rng rng(7);
  for (double& v : b) v = rng.NextDouble(-1.0, 1.0);
  linalg::CgOptions opt;
  opt.threads = threads;
  opt.max_iters = 200;
  opt.rel_tolerance = 1e-10;
  for (auto _ : state) {
    std::vector<double> x;
    benchmark::DoNotOptimize(linalg::SolveCg(a, b, &x, opt));
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.NumNonZeros()));
}
BENCHMARK(BM_CgSolveThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_FeaSolve(benchmark::State& state) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const int n = static_cast<int>(state.range(0));
  thermal::ThermalStack stack;
  stack.num_layers = 4;
  const thermal::ChipExtent chip{1e-3, 1e-3};
  const thermal::FeaSolver fea(stack, chip, {.nx = n, .ny = n, .bulk_elems = 4});
  util::Rng rng(3);
  std::vector<double> x, y, p;
  std::vector<int> layer;
  for (int i = 0; i < 2000; ++i) {
    x.push_back(rng.NextDouble(0.0, chip.width));
    y.push_back(rng.NextDouble(0.0, chip.height));
    layer.push_back(rng.NextInt(0, 3));
    p.push_back(rng.NextDouble(0.0, 1e-5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fea.Solve(x, y, layer, p));
  }
}
BENCHMARK(BM_FeaSolve)->Arg(16)->Arg(24)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_ObjectiveMoveDelta(benchmark::State& state) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = MakeCircuit(5000);
  place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_temp = 1e-6;
  params.SyncStack();
  const place::Chip chip = *place::Chip::Build(nl, 4, 0.05, 0.25);
  place::ObjectiveEvaluator eval(nl, chip, params);
  util::Rng rng(5);
  place::Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(p);
  std::int32_t c = 0;
  for (auto _ : state) {
    c = (c + 1) % nl.NumCells();
    benchmark::DoNotOptimize(
        eval.MoveDelta(c, rng.NextDouble(0.0, chip.width()),
                       rng.NextDouble(0.0, chip.height()), rng.NextInt(0, 3)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObjectiveMoveDelta);

// The always-on black box must be invisible next to real work: one record
// is a TLS lookup, a pow2 mask, and five relaxed stores. The Disabled
// variant measures the uninstalled path (one relaxed load).
void BM_RingRecord(benchmark::State& state) {
  obs::RingRecorder ring;
  obs::RingRecorder* previous = obs::InstallRingRecorder(&ring);
  std::int64_t i = 0;
  for (auto _ : state) {
    obs::RingNote("bench.note", i++);
  }
  obs::InstallRingRecorder(previous);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingRecord);

void BM_RingRecordDisabled(benchmark::State& state) {
  obs::RingRecorder* previous = obs::InstallRingRecorder(nullptr);
  std::int64_t i = 0;
  for (auto _ : state) {
    obs::RingNote("bench.note", i++);
  }
  obs::InstallRingRecorder(previous);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingRecordDisabled);

void BM_CellShiftIteration(benchmark::State& state) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = MakeCircuit(3000);
  place::PlacerParams params;
  params.num_layers = 4;
  params.SyncStack();
  const place::Chip chip = *place::Chip::Build(nl, 4, 0.05, 0.25);
  for (auto _ : state) {
    state.PauseTiming();
    place::ObjectiveEvaluator eval(nl, chip, params);
    place::Placement p;
    p.Resize(static_cast<std::size_t>(nl.NumCells()));
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.x[i] = chip.width() / 2;
      p.y[i] = chip.height() / 2;
      p.layer[i] = 1;
    }
    eval.SetPlacement(p);
    place::CellShifter shifter(eval);
    state.ResumeTiming();
    shifter.Run(5, 1.05);
  }
}
BENCHMARK(BM_CellShiftIteration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
