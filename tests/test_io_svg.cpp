#include <gtest/gtest.h>

#include <fstream>

#include "io/svg.h"
#include "io/synthetic.h"
#include "util/log.h"

namespace p3d::io {
namespace {

struct Fixture {
  netlist::Netlist nl;
  place::Chip chip;
  place::Placement p;

  Fixture() {
    SyntheticSpec spec;
    spec.name = "svg";
    spec.num_cells = 60;
    spec.total_area_m2 = 60 * 4.9e-12;
    spec.seed = 2;
    nl = Generate(spec);
    chip = *place::Chip::Build(nl, 4, 0.05, 0.25);
    p.Resize(static_cast<std::size_t>(nl.NumCells()));
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      const std::size_t i = static_cast<std::size_t>(c);
      p.x[i] = (c % 8 + 0.5) * chip.width() / 8;
      p.y[i] = chip.RowCenterY(c / 8 % chip.num_rows());
      p.layer[i] = c % 4;
    }
  }
};

TEST(Svg, RendersOnePanelPerLayer) {
  Fixture f;
  const std::string svg = RenderPlacementSvg(f.nl, f.chip, f.p);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("layer 0 (heat sink side)"), std::string::npos);
  EXPECT_NE(svg.find("layer 3"), std::string::npos);
}

TEST(Svg, OneRectPerCellPlusChrome) {
  Fixture f;
  const std::string svg = RenderPlacementSvg(f.nl, f.chip, f.p);
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  // background + 4 panel frames, each with one band per row, + 60 cells.
  const std::size_t rows = static_cast<std::size_t>(f.chip.num_rows());
  ASSERT_GT(rows, 0u);
  EXPECT_EQ(rects, 1u + 4u * (1u + rows) + 60u);
}

TEST(Svg, ScalarViewUsesRampColors) {
  Fixture f;
  SvgOptions opt;
  opt.cell_scalar.assign(static_cast<std::size_t>(f.nl.NumCells()), 0.0);
  opt.cell_scalar[0] = 1.0;  // one hot cell
  const std::string svg = RenderPlacementSvg(f.nl, f.chip, f.p, opt);
  // The layer tints must not appear in scalar view.
  EXPECT_EQ(svg.find("#4e79a7"), std::string::npos);
}

TEST(Svg, ScalarViewHandlesConstantField) {
  Fixture f;
  SvgOptions opt;
  opt.cell_scalar.assign(static_cast<std::size_t>(f.nl.NumCells()), 5.0);
  const std::string svg = RenderPlacementSvg(f.nl, f.chip, f.p, opt);
  EXPECT_NE(svg.find("<svg"), std::string::npos);  // no div-by-zero
}

TEST(Svg, TitleIncluded) {
  Fixture f;
  SvgOptions opt;
  opt.title = "hello-title";
  const std::string svg = RenderPlacementSvg(f.nl, f.chip, f.p, opt);
  EXPECT_NE(svg.find("hello-title"), std::string::npos);
}

TEST(Svg, WriteToFile) {
  Fixture f;
  const std::string path = ::testing::TempDir() + "p3d_test.svg";
  ASSERT_TRUE(WritePlacementSvg(path, f.nl, f.chip, f.p));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("<svg"), std::string::npos);
}

TEST(Svg, WriteToBadPathFails) {
  util::ScopedLogLevel quiet(util::LogLevel::kSilent);
  Fixture f;
  EXPECT_FALSE(WritePlacementSvg("/nonexistent_dir_xyz/out.svg", f.nl, f.chip,
                                 f.p));
}

}  // namespace
}  // namespace p3d::io
