// Seeded mutation fuzzing of the Bookshelf reader. A small design written
// by io::WriteBookshelf has one of its .nodes, .nets, .pl and .scl files
// mutated byte by byte, token by token and line by line, and LoadBookshelf
// must return OK or a kParseError every time: never crash, hang or fail any
// other way.
//
// Case k of a file derives its mutations from seed SeedBase() + k; the
// nightly CI job rolls P3D_FUZZ_SEED_BASE so coverage accumulates across
// runs, and a failure names the seed that reproduces it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/bookshelf.h"
#include "io/synthetic.h"
#include "place/chip.h"
#include "util/log.h"
#include "util/rng.h"

namespace p3d::io {
namespace {

constexpr int kCasesPerFile = 150;

std::uint64_t SeedBase() {
  const char* env = std::getenv("P3D_FUZZ_SEED_BASE");
  if (env == nullptr || env[0] == '\0') return 1;
  const unsigned long long v = std::strtoull(env, nullptr, 10);
  return v == 0 ? 1 : static_cast<std::uint64_t>(v);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

// Bytes and tokens a hostile file is made of: separators, signs, exponents,
// control characters (\v and \f are whitespace to a stream but not to a
// line trimmer), and numbers at and beyond every range the parsers check.
constexpr char kBytes[] = {'\0', '\t', '\n', '\v', '\f', '\r', ' ',  '#',
                           ':',  '-',  '+',  '.',  'e',  '/',  '0',  '9',
                           'x',  'O',  'I',  '\x7f', '\xff'};
const char* const kTokens[] = {
    "",           ":",          "#",          "-1",         "0",
    "-0",         "1e308",      "1e309",      "-1e309",     "1e-320",
    "nan",        "inf",        "-inf",       "0x10",       "2147483647",
    "2147483648", "-2147483649", "99999999999999999999",    "terminal",
    "NumNodes",   "NumNets",    "NumPins",    "NetDegree",  "CoreRow",
    "End",        "O",          "I",          "/FIXED",     "N"};
const char* const kLines[] = {
    "NumNodes : 2147483647", "NumTerminals : -1", "NumNets : 99999999999",
    "NetDegree : 2147483647 n", "NetDegree : 0", "NetDegree :",
    "NumPins : 3", "CoreRow Horizontal", "End", "Height : 1e309",
    "SubrowOrigin : 0 NumSites : -5", "  :  :  :", "\v", "\f\f",
    "UCLA nets 1.0"};

template <typename T, std::size_t N>
const T& Pick(util::Rng& rng, const T (&items)[N]) {
  return items[rng.NextBounded(N)];
}

/// One seeded mutation of `text`: a byte, token or line edit.
void Mutate(util::Rng& rng, std::string* text) {
  std::vector<std::string> lines = SplitLines(*text);
  const auto any = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.NextBounded(size));
  };
  switch (rng.NextBounded(9)) {
    case 0:  // overwrite a byte
      if (!text->empty()) (*text)[any(text->size())] = Pick(rng, kBytes);
      return;
    case 1:  // insert a byte
      text->insert(text->begin() + static_cast<std::ptrdiff_t>(
                                       any(text->size() + 1)),
                   Pick(rng, kBytes));
      return;
    case 2:  // delete a byte
      if (!text->empty()) text->erase(any(text->size()), 1);
      return;
    case 3:  // truncate
      text->resize(any(text->size() + 1));
      return;
    case 4:
    case 5: {  // replace, drop or duplicate a token of one line
      if (lines.empty()) return;
      std::string& line = lines[any(lines.size())];
      std::istringstream in(line);
      std::vector<std::string> tokens{std::istream_iterator<std::string>(in),
                                      std::istream_iterator<std::string>()};
      if (tokens.empty()) return;
      const std::size_t t = any(tokens.size());
      const int op = rng.NextInt(0, 2);
      if (op == 0) tokens[t] = Pick(rng, kTokens);
      if (op == 1) tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(t));
      if (op == 2) {
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                      tokens[t]);
      }
      line.clear();
      for (const std::string& tok : tokens) line += tok + ' ';
      break;
    }
    case 6:  // delete a line
      if (!lines.empty()) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(
                                        any(lines.size())));
      }
      break;
    case 7:  // duplicate or swap lines
      if (!lines.empty()) {
        const std::size_t a = any(lines.size());
        const std::size_t b = any(lines.size());
        if (rng.NextBool()) {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b),
                       lines[a]);
        } else {
          std::swap(lines[a], lines[b]);
        }
      }
      break;
    default:  // insert a hostile line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       any(lines.size() + 1)),
                   Pick(rng, kLines));
      break;
  }
  *text = JoinLines(lines);
}

class BookshelfFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(BookshelfFuzz, MutatedFileLoadsOrFailsWithParseError) {
  const std::string ext = GetParam();
  const std::string dir = ::testing::TempDir() + "p3d_bs_fuzz" +
                          ext.substr(1);
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
  SyntheticSpec spec;
  spec.name = "fuzz";
  spec.num_cells = 30;
  spec.num_pads = 4;
  spec.total_area_m2 = 30 * 4.9e-12;
  spec.seed = 3;
  const netlist::Netlist nl = Generate(spec);
  const place::Chip chip = *place::Chip::Build(nl, 2, 0.05, 0.25);
  place::Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    p.x[i] = (c % 7 + 0.5) * chip.width() / 7;
    p.y[i] = chip.RowCenterY(c % chip.num_rows());
    p.layer[i] = c % 2;
  }
  ASSERT_TRUE(WriteBookshelf(dir, "fuzz", nl, 1e-6, &chip, &p));
  const std::string path = dir + "/fuzz" + ext;
  const std::string original = ReadFile(path);
  ASSERT_FALSE(original.empty());
  BookshelfDesign clean;
  ASSERT_TRUE(LoadBookshelf(dir + "/fuzz.aux", 1e-6, &clean).ok());

  util::ScopedLogLevel quiet(util::LogLevel::kSilent);
  const auto start = std::chrono::steady_clock::now();
  int parse_errors = 0;
  for (int k = 0; k < kCasesPerFile; ++k) {
    const std::uint64_t seed = SeedBase() + static_cast<std::uint64_t>(k);
    util::Rng rng(seed);
    std::string text = original;
    for (int edits = rng.NextInt(1, 4); edits > 0; --edits) {
      Mutate(rng, &text);
    }
    WriteFile(path, text);
    BookshelfDesign design;
    const util::Status st = LoadBookshelf(dir + "/fuzz.aux", 1e-6, &design);
    if (!st.ok()) ++parse_errors;
    ASSERT_TRUE(st.ok() || st.code() == util::StatusCode::kParseError)
        << ext << " seed " << seed << ": " << st.ToString();
  }
  WriteFile(path, original);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // The mutations must reach the parsers' error paths, and quickly.
  EXPECT_GT(parse_errors, 0) << ext;
  EXPECT_LT(seconds, 5.0) << ext;
}

INSTANTIATE_TEST_SUITE_P(Files, BookshelfFuzz,
                         ::testing::Values(".nodes", ".nets", ".pl", ".scl"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param + 1);
                         });

}  // namespace
}  // namespace p3d::io
