#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "io/bookshelf.h"
#include "io/synthetic.h"
#include "util/log.h"

namespace p3d::io {
namespace {

class BookshelfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "p3d_bs_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string cmd = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream f(dir_ + "/" + name);
    f << content;
  }

  std::string dir_;
};

constexpr char kNodes[] = R"(UCLA nodes 1.0
# comment line

NumNodes : 4
NumTerminals : 1
  a 2 1
  b 3 1
  c 4 1
  p0 10 10 terminal
)";

constexpr char kNets[] = R"(UCLA nets 1.0

NumNets : 2
NumPins : 5
NetDegree : 3 n0
  a O : 0.5 0
  b I : -0.5 0
  c I
NetDegree : 2
  b O
  p0 I
)";

constexpr char kPl[] = R"(UCLA pl 1.0

a 10 20 : N
b 30 40 : N 2
c 0 0 : N
p0 100 100 : N /FIXED
)";

constexpr char kScl[] = R"(UCLA scl 1.0

NumRows : 2
CoreRow Horizontal
  Coordinate : 0
  Height : 12
  Sitewidth : 1
  SubrowOrigin : 0 NumSites : 100
End
CoreRow Horizontal
  Coordinate : 12
  Height : 12
  Sitewidth : 2
  SubrowOrigin : 5 NumSites : 50
End
)";

TEST_F(BookshelfTest, ParseNodes) {
  WriteFile("d.nodes", kNodes);
  netlist::Netlist nl;
  ASSERT_TRUE(ParseNodesFile(dir_ + "/d.nodes", 1e-6, &nl).ok());
  ASSERT_EQ(nl.NumCells(), 4);
  EXPECT_EQ(nl.cell(0).name, "a");
  EXPECT_DOUBLE_EQ(nl.cell(0).width, 2e-6);
  EXPECT_DOUBLE_EQ(nl.cell(1).height, 1e-6);
  EXPECT_FALSE(nl.cell(0).fixed);
  EXPECT_TRUE(nl.cell(3).fixed);
}

TEST_F(BookshelfTest, ParseNetsWithDirectionsAndOffsets) {
  WriteFile("d.nodes", kNodes);
  WriteFile("d.nets", kNets);
  netlist::Netlist nl;
  ASSERT_TRUE(ParseNodesFile(dir_ + "/d.nodes", 1e-6, &nl).ok());
  ASSERT_TRUE(ParseNetsFile(dir_ + "/d.nets", 1e-6, &nl).ok());
  ASSERT_TRUE(nl.Finalize());
  ASSERT_EQ(nl.NumNets(), 2);
  EXPECT_EQ(nl.net(0).name, "n0");
  EXPECT_EQ(nl.net(1).name, "net1");  // auto-named
  const auto pins = nl.NetPins(0);
  ASSERT_EQ(pins.size(), 3u);
  EXPECT_EQ(pins[0].dir, netlist::PinDir::kOutput);
  EXPECT_DOUBLE_EQ(pins[0].dx, 0.5e-6);
  EXPECT_EQ(pins[1].dir, netlist::PinDir::kInput);
  EXPECT_DOUBLE_EQ(pins[1].dx, -0.5e-6);
  EXPECT_EQ(nl.DriverCell(0), 0);
  EXPECT_EQ(nl.DriverCell(1), 1);
}

TEST_F(BookshelfTest, ControlWhitespaceLinesAreBlank) {
  // \v and \f split tokens like a space does, so a line of nothing else
  // is blank: no parser may ask it for a first token.
  WriteFile("d.nodes", kNodes);
  WriteFile("d.nets", std::string(kNets) + "\v\f\n \v\n");
  netlist::Netlist nl;
  ASSERT_TRUE(ParseNodesFile(dir_ + "/d.nodes", 1e-6, &nl).ok());
  ASSERT_TRUE(ParseNetsFile(dir_ + "/d.nets", 1e-6, &nl).ok());
  EXPECT_EQ(nl.NumNets(), 2);
  EXPECT_EQ(nl.NumPins(), 5);
}

TEST_F(BookshelfTest, ParsePlWithLayerColumn) {
  WriteFile("d.nodes", kNodes);
  WriteFile("d.nets", kNets);
  WriteFile("d.pl", kPl);
  netlist::Netlist nl;
  ASSERT_TRUE(ParseNodesFile(dir_ + "/d.nodes", 1e-6, &nl).ok());
  ASSERT_TRUE(ParseNetsFile(dir_ + "/d.nets", 1e-6, &nl).ok());
  ASSERT_TRUE(nl.Finalize());
  std::vector<double> x, y;
  std::vector<int> layer;
  ASSERT_TRUE(ParsePlFile(dir_ + "/d.pl", 1e-6, nl, &x, &y, &layer).ok());
  EXPECT_DOUBLE_EQ(x[0], 10e-6);
  EXPECT_DOUBLE_EQ(y[0], 20e-6);
  EXPECT_EQ(layer[0], 0);
  EXPECT_EQ(layer[1], 2);  // explicit layer column
  EXPECT_DOUBLE_EQ(x[3], 100e-6);
}

TEST_F(BookshelfTest, ParseScl) {
  WriteFile("d.scl", kScl);
  std::vector<BookshelfRow> rows;
  ASSERT_TRUE(ParseSclFile(dir_ + "/d.scl", &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].y, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].height, 12.0);
  EXPECT_DOUBLE_EQ(rows[0].width, 100.0);
  EXPECT_DOUBLE_EQ(rows[1].x, 5.0);
  EXPECT_DOUBLE_EQ(rows[1].width, 100.0);  // 50 sites * sitewidth 2
}

TEST_F(BookshelfTest, LoadAuxFullDesign) {
  WriteFile("d.nodes", kNodes);
  WriteFile("d.nets", kNets);
  WriteFile("d.pl", kPl);
  WriteFile("d.scl", kScl);
  WriteFile("d.aux", "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n");
  BookshelfDesign design;
  ASSERT_TRUE(LoadBookshelf(dir_ + "/d.aux", 1e-6, &design).ok());
  EXPECT_EQ(design.netlist.NumCells(), 4);
  EXPECT_EQ(design.netlist.NumNets(), 2);
  EXPECT_EQ(design.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(design.x[1], 30e-6);
}

TEST_F(BookshelfTest, MissingFileFails) {
  util::ScopedLogLevel quiet(util::LogLevel::kSilent);
  netlist::Netlist nl;
  const util::Status nodes = ParseNodesFile(dir_ + "/nope.nodes", 1e-6, &nl);
  EXPECT_EQ(nodes.code(), util::StatusCode::kIoError) << nodes.ToString();
  EXPECT_NE(nodes.message().find("nope.nodes"), std::string::npos);
  BookshelfDesign design;
  const util::Status aux = LoadBookshelf(dir_ + "/nope.aux", 1e-6, &design);
  EXPECT_EQ(aux.code(), util::StatusCode::kIoError) << aux.ToString();
}

TEST_F(BookshelfTest, AuxWithoutNodesFails) {
  util::ScopedLogLevel quiet(util::LogLevel::kSilent);
  WriteFile("d.aux", "RowBasedPlacement : only.pl\n");
  BookshelfDesign design;
  EXPECT_FALSE(LoadBookshelf(dir_ + "/d.aux", 1e-6, &design).ok());
}

TEST_F(BookshelfTest, UnknownCellInNetsFails) {
  util::ScopedLogLevel quiet(util::LogLevel::kSilent);
  WriteFile("d.nodes", "NumNodes : 1\nNumTerminals : 0\na 1 1\n");
  WriteFile("d.nets", "NumNets : 1\nNumPins : 1\nNetDegree : 1 n\n  ghost I\n");
  netlist::Netlist nl;
  ASSERT_TRUE(ParseNodesFile(dir_ + "/d.nodes", 1e-6, &nl).ok());
  const util::Status s = ParseNetsFile(dir_ + "/d.nets", 1e-6, &nl);
  EXPECT_EQ(s.code(), util::StatusCode::kParseError) << s.ToString();
  EXPECT_NE(s.message().find("ghost"), std::string::npos) << s.ToString();
}

TEST_F(BookshelfTest, WriteReadRoundTrip) {
  WriteFile("d.nodes", kNodes);
  WriteFile("d.nets", kNets);
  netlist::Netlist nl;
  ASSERT_TRUE(ParseNodesFile(dir_ + "/d.nodes", 1e-6, &nl).ok());
  ASSERT_TRUE(ParseNetsFile(dir_ + "/d.nets", 1e-6, &nl).ok());
  ASSERT_TRUE(nl.Finalize());

  std::vector<double> x = {1e-6, 2e-6, 3e-6, 4e-6};
  std::vector<double> y = {5e-6, 6e-6, 7e-6, 8e-6};
  std::vector<int> layer = {0, 1, 2, 3};
  ASSERT_TRUE(WritePlFile(dir_ + "/out.pl", nl, x, y, layer, 1e-6));

  std::vector<double> x2, y2;
  std::vector<int> layer2;
  ASSERT_TRUE(ParsePlFile(dir_ + "/out.pl", 1e-6, nl, &x2, &y2, &layer2).ok());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x2[i], x[i], 1e-12) << i;
    EXPECT_NEAR(y2[i], y[i], 1e-12) << i;
    EXPECT_EQ(layer2[i], layer[i]) << i;
  }
}

TEST_F(BookshelfTest, MalformedInputsDoNotCrash) {
  util::ScopedLogLevel quiet(util::LogLevel::kSilent);
  // A grab-bag of malformed files: parsers may reject them (false) or
  // salvage what they can (true), but must never crash.
  const char* bad_nodes[] = {
      "",
      "NumNodes : -5\n",
      "garbage line\n",
      "a 1\n",                       // too few columns
      "NumNodes : 1\n a width h\n",  // non-numeric dims (rejected)
  };
  for (const char* content : bad_nodes) {
    WriteFile("bad.nodes", content);
    netlist::Netlist nl;
    (void)ParseNodesFile(dir_ + "/bad.nodes", 1e-6, &nl);
  }

  const char* bad_nets[] = {
      "NetDegree : 2 n\n",               // pins missing entirely
      "stray_pin I\n",                   // pin before any net
      "NumPins : 99\nNetDegree : 1 n\n", // wrong counts
  };
  for (const char* content : bad_nets) {
    WriteFile("bad.nodes", "NumNodes : 1\nNumTerminals : 0\nstray_pin 1 1\n");
    WriteFile("bad.nets", content);
    netlist::Netlist nl;
    ASSERT_TRUE(ParseNodesFile(dir_ + "/bad.nodes", 1e-6, &nl).ok());
    (void)ParseNetsFile(dir_ + "/bad.nets", 1e-6, &nl);
  }

  // .pl with unknown cells and truncated rows.
  WriteFile("bad.pl", "ghost 1 2 : N\nshort\n");
  netlist::Netlist nl;
  nl.AddCell("a", 1e-6, 1e-6);
  ASSERT_TRUE(nl.Finalize());
  std::vector<double> x, y;
  std::vector<int> layer;
  EXPECT_TRUE(ParsePlFile(dir_ + "/bad.pl", 1e-6, nl, &x, &y, &layer).ok());

  // .scl with an unterminated CoreRow.
  WriteFile("bad.scl", "CoreRow Horizontal\n  Coordinate : 1\n");
  std::vector<BookshelfRow> rows;
  EXPECT_TRUE(ParseSclFile(dir_ + "/bad.scl", &rows).ok());
  EXPECT_TRUE(rows.empty());
}

TEST_F(BookshelfTest, RejectsInvalidNodeSizes) {
  // Each size must be a whole finite number: > 0 for a movable node, >= 0
  // for a terminal. The error names the file and the node.
  const char* bad_lines[] = {
      "a abc 1\n",  "a 1 abc\n",  "a 2x 1\n",   "a -3 1\n",
      "a 1 -3\n",   "a 0 1\n",    "a 1 0\n",    "a nan 1\n",
      "a 1 inf\n",  "a 1e400 1\n", "a 1e-320 1\n",
      "a -1 1 terminal\n", "a nan 1 terminal\n", "a 1e400 1 terminal\n",
  };
  for (const char* line : bad_lines) {
    WriteFile("bad.nodes", std::string("NumNodes : 1\n") + line);
    netlist::Netlist nl;
    const util::Status s = ParseNodesFile(dir_ + "/bad.nodes", 1e-6, &nl);
    EXPECT_EQ(s.code(), util::StatusCode::kParseError) << line;
    EXPECT_NE(s.message().find("bad.nodes"), std::string::npos) << line;
    EXPECT_NE(s.message().find("node a "), std::string::npos) << line;
  }
  // Zero-size terminals and plain decimal or exponent sizes are fine.
  WriteFile("ok.nodes", "NumNodes : 3\na 1.5 2e0\nb 3 1\np 0 0 terminal\n");
  netlist::Netlist nl;
  ASSERT_TRUE(ParseNodesFile(dir_ + "/ok.nodes", 1e-6, &nl).ok());
  ASSERT_EQ(nl.NumCells(), 3);
  EXPECT_DOUBLE_EQ(nl.cell(0).width, 1.5e-6);
  EXPECT_DOUBLE_EQ(nl.cell(0).height, 2e-6);
  EXPECT_DOUBLE_EQ(nl.cell(2).width, 0.0);
}

// Malformed numeric fields: each parser returns kParseError naming the file,
// the physical line (comments and blank lines count) and the bad token.
void ExpectFieldError(const util::Status& s, const std::string& where,
                      const std::string& token) {
  EXPECT_EQ(s.code(), util::StatusCode::kParseError) << s.ToString();
  EXPECT_NE(s.message().find(where), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("'" + token + "'"), std::string::npos)
      << s.message();
}

constexpr char kTwoNodes[] = "NumNodes : 2\na 1 1\nb 1 1\n";

TEST_F(BookshelfTest, RejectsMalformedNetDegree) {
  for (const char* degree : {"two", "2x", "-1", "99999999999", "1.5"}) {
    WriteFile("d.nodes", kTwoNodes);
    WriteFile("bad.nets", std::string("# nets\nNumNets : 1\nNetDegree : ") +
                              degree + " n0\n  a I\n  b I\n");
    netlist::Netlist nl;
    ASSERT_TRUE(ParseNodesFile(dir_ + "/d.nodes", 1e-6, &nl).ok());
    ExpectFieldError(ParseNetsFile(dir_ + "/bad.nets", 1e-6, &nl),
                     "bad.nets:3:", degree);
    // The same tokens as header counts.
    WriteFile("bad.nets", std::string("NumNets : ") + degree + "\n");
    ExpectFieldError(ParseNetsFile(dir_ + "/bad.nets", 1e-6, &nl),
                     "bad.nets:1:", degree);
    WriteFile("bad.nodes", std::string("NumNodes : ") + degree + "\na 1 1\n");
    netlist::Netlist header_nl;
    ExpectFieldError(ParseNodesFile(dir_ + "/bad.nodes", 1e-6, &header_nl),
                     "bad.nodes:1:", degree);
  }
}

TEST_F(BookshelfTest, RejectsMalformedPinOffsets) {
  const char* pins[][2] = {
      {"  a I : abc 0\n", "abc"}, {"  a I : 0.5 nan\n", "nan"},
      {"  a O : 1e999 0\n", "1e999"}, {"  a : 0 2y\n", "2y"}};
  for (const auto& [pin, token] : pins) {
    WriteFile("d.nodes", kTwoNodes);
    WriteFile("bad.nets",
              std::string("NetDegree : 2 n0\n  b I : 0 0\n") + pin);
    netlist::Netlist nl;
    ASSERT_TRUE(ParseNodesFile(dir_ + "/d.nodes", 1e-6, &nl).ok());
    ExpectFieldError(ParseNetsFile(dir_ + "/bad.nets", 1e-6, &nl),
                     "bad.nets:3:", token);
  }
}

TEST_F(BookshelfTest, RejectsMalformedPlCoordinates) {
  const char* rows[][2] = {{"b x1 2 : N\n", "x1"},
                           {"b 1 inf : N\n", "inf"},
                           {"b 1,5 2 : N\n", "1,5"},
                           {"b 1 -2e400 : N\n", "-2e400"}};
  for (const auto& [row, token] : rows) {
    netlist::Netlist nl;
    nl.AddCell("a", 1e-6, 1e-6);
    nl.AddCell("b", 1e-6, 1e-6);
    ASSERT_TRUE(nl.Finalize());
    WriteFile("bad.pl", std::string("UCLA pl 1.0\n\na 1 2 : N\n") + row);
    std::vector<double> x, y;
    std::vector<int> layer;
    ExpectFieldError(ParsePlFile(dir_ + "/bad.pl", 1e-6, nl, &x, &y, &layer),
                     "bad.pl:4:", token);
  }
}

TEST_F(BookshelfTest, RejectsMalformedPlLayer) {
  for (const char* token : {"top", "2.5", "1e1", "3x", "99999999999"}) {
    netlist::Netlist nl;
    nl.AddCell("a", 1e-6, 1e-6);
    ASSERT_TRUE(nl.Finalize());
    WriteFile("bad.pl", std::string("a 1 2 : N ") + token + "\n");
    std::vector<double> x, y;
    std::vector<int> layer;
    ExpectFieldError(ParsePlFile(dir_ + "/bad.pl", 1e-6, nl, &x, &y, &layer),
                     "bad.pl:1:", token);
  }
  // A flag in the layer's place is the plain Bookshelf form, not an error.
  netlist::Netlist nl;
  nl.AddCell("a", 1e-6, 1e-6);
  ASSERT_TRUE(nl.Finalize());
  WriteFile("ok.pl", "a 1 2 : N /FIXED\n");
  std::vector<double> x, y;
  std::vector<int> layer;
  ASSERT_TRUE(ParsePlFile(dir_ + "/ok.pl", 1e-6, nl, &x, &y, &layer).ok());
  EXPECT_EQ(layer[0], 0);
}

TEST_F(BookshelfTest, RejectsMalformedSclFields) {
  // Each field of a row in turn; Siteorient and friends stay ignored.
  const char* fields[][2] = {{"  Coordinate : zero\n", "zero"},
                             {"  Height : 12px\n", "12px"},
                             {"  Sitewidth : nan\n", "nan"},
                             {"  SubrowOrigin : ? NumSites : 10\n", "?"},
                             {"  SubrowOrigin : 0 NumSites : many\n", "many"}};
  for (const auto& [field, token] : fields) {
    WriteFile("bad.scl", std::string("NumRows : 1\nCoreRow Horizontal\n"
                                     "  Siteorient : N\n") +
                             field + "End\n");
    std::vector<BookshelfRow> rows;
    ExpectFieldError(ParseSclFile(dir_ + "/bad.scl", &rows), "bad.scl:4:",
                     token);
  }
  WriteFile("bad.scl", "NumRows : 1x\nCoreRow Horizontal\nEnd\n");
  std::vector<BookshelfRow> rows;
  ExpectFieldError(ParseSclFile(dir_ + "/bad.scl", &rows), "bad.scl:1:", "1x");
}

TEST_F(BookshelfTest, FullDesignExportRoundTrip) {
  // Generate a synthetic circuit, export it as a complete Bookshelf design,
  // re-load it, and check the netlist and placement survive.
  SyntheticSpec spec;
  spec.name = "exp";
  spec.num_cells = 120;
  spec.total_area_m2 = 120 * 4.9e-12;
  spec.seed = 8;
  const netlist::Netlist nl = Generate(spec);
  const place::Chip chip = *place::Chip::Build(nl, 4, 0.05, 0.25);
  place::Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    p.x[i] = (c % 9 + 0.5) * chip.width() / 9;
    p.y[i] = chip.RowCenterY(c % chip.num_rows());
    p.layer[i] = c % 4;
  }
  ASSERT_TRUE(WriteBookshelf(dir_, "exp", nl, 1e-6, &chip, &p));

  BookshelfDesign design;
  ASSERT_TRUE(LoadBookshelf(dir_ + "/exp.aux", 1e-6, &design).ok());
  ASSERT_EQ(design.netlist.NumCells(), nl.NumCells());
  ASSERT_EQ(design.netlist.NumNets(), nl.NumNets());
  ASSERT_EQ(design.netlist.NumPins(), nl.NumPins());
  EXPECT_EQ(design.rows.size(), static_cast<std::size_t>(chip.num_rows()));
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    EXPECT_EQ(design.netlist.cell(c).name, nl.cell(c).name);
    EXPECT_NEAR(design.netlist.cell(c).width, nl.cell(c).width,
                nl.cell(c).width * 1e-9);
    EXPECT_NEAR(design.x[i], p.x[i], 1e-11) << c;
    EXPECT_NEAR(design.y[i], p.y[i], 1e-11) << c;
    EXPECT_EQ(design.layer[i], p.layer[i]) << c;
  }
  // Drivers preserved through the direction column.
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    EXPECT_EQ(design.netlist.DriverCell(n), nl.DriverCell(n)) << n;
  }
}

TEST_F(BookshelfTest, FullDesignExportWithoutChipOrPlacement) {
  SyntheticSpec spec;
  spec.name = "bare";
  spec.num_cells = 40;
  spec.total_area_m2 = 40 * 4.9e-12;
  spec.seed = 9;
  const netlist::Netlist nl = Generate(spec);
  ASSERT_TRUE(WriteBookshelf(dir_, "bare", nl, 1e-6));
  BookshelfDesign design;
  ASSERT_TRUE(LoadBookshelf(dir_ + "/bare.aux", 1e-6, &design).ok());
  EXPECT_EQ(design.netlist.NumCells(), 40);
  EXPECT_TRUE(design.rows.empty());
  EXPECT_DOUBLE_EQ(design.x[0], 0.0);
}

}  // namespace
}  // namespace p3d::io
