// Bookshelf flow: reads an IBM-PLACE-style Bookshelf design (.aux naming
// .nodes/.nets/.pl/.scl), places it on a 3D stack, and writes the result as
// an extended .pl (with a trailing layer column).
//
// If no .aux path is given, the example writes a small self-contained
// Bookshelf design to ./p3d_bookshelf_demo, then round-trips it through the
// parser and placer — so the example is runnable without external benchmark
// data. The placement goes to ./p3d_placed.pl unless out.pl is given.
//
//   ./bookshelf_flow [design.aux] [out.pl] [layers]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "io/bookshelf.h"
#include "io/synthetic.h"
#include "place/placer.h"
#include "util/log.h"

namespace {

/// Writes a tiny Bookshelf design derived from a synthetic circuit.
std::string WriteDemoDesign() {
  const std::string dir = "p3d_bookshelf_demo";
  std::filesystem::create_directories(dir);

  p3d::io::SyntheticSpec spec;
  spec.name = "demo";
  spec.num_cells = 400;
  spec.total_area_m2 = 400 * 4.9e-12;
  spec.seed = 5;
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);

  const double unit = 1e-6;  // bookshelf unit = 1 um
  {
    std::ofstream f(dir + "/demo.nodes");
    f << "UCLA nodes 1.0\n\nNumNodes : " << nl.NumCells()
      << "\nNumTerminals : 0\n";
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      f << '\t' << nl.cell(c).name << '\t' << nl.cell(c).width / unit << '\t'
        << nl.cell(c).height / unit << '\n';
    }
  }
  {
    std::ofstream f(dir + "/demo.nets");
    f << "UCLA nets 1.0\n\nNumNets : " << nl.NumNets()
      << "\nNumPins : " << nl.NumPins() << "\n";
    for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
      f << "NetDegree : " << nl.net(n).num_pins << " " << nl.net(n).name
        << "\n";
      for (const p3d::netlist::Pin& pin : nl.NetPins(n)) {
        f << '\t' << nl.cell(pin.cell).name << ' '
          << (pin.dir == p3d::netlist::PinDir::kOutput ? 'O' : 'I')
          << " : 0 0\n";
      }
    }
  }
  {
    std::ofstream f(dir + "/demo.pl");
    f << "UCLA pl 1.0\n\n";
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      f << nl.cell(c).name << "\t0\t0\t: N\n";
    }
  }
  {
    std::ofstream f(dir + "/demo.aux");
    f << "RowBasedPlacement : demo.nodes demo.nets demo.pl\n";
  }
  return dir + "/demo.aux";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string aux = argc > 1 ? argv[1] : WriteDemoDesign();
  const std::string out_pl = argc > 2 ? argv[2] : "p3d_placed.pl";
  const int layers = argc > 3 ? std::atoi(argv[3]) : 4;

  p3d::io::BookshelfDesign design;
  if (const p3d::util::Status s = p3d::io::LoadBookshelf(aux, /*unit_m=*/1e-6,
                                                         &design);
      !s.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", aux.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  std::printf("loaded %s: %d cells, %d nets, %d pins\n", aux.c_str(),
              design.netlist.NumCells(), design.netlist.NumNets(),
              design.netlist.NumPins());

  p3d::place::PlacerParams params;
  params.num_layers = layers;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 1e-6;
  p3d::util::StatusOr<p3d::place::Placer3D> placer =
      p3d::place::Placer3D::Create(design.netlist, params);
  if (!placer.ok()) {
    std::fprintf(stderr, "%s\n", placer.status().ToString().c_str());
    return 1;
  }
  const p3d::place::PlacementResult r = *placer->Run({.with_fea = true});

  std::printf("placed: hpwl %.5g m, %lld vias, avg temp %.2f C, %s\n",
              r.hpwl_m, r.ilv_count, r.avg_temp_c,
              r.legal ? "legal" : "NOT legal");

  if (!p3d::io::WritePlFile(out_pl, design.netlist, r.placement.x,
                            r.placement.y, r.placement.layer, 1e-6)) {
    return 1;
  }
  std::printf("wrote %s\n", out_pl.c_str());
  return r.legal ? 0 : 1;
}
