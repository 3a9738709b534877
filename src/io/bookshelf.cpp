#include "io/bookshelf.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "util/log.h"

namespace p3d::io {
namespace {

// Strips comments (# to end of line) and leading/trailing whitespace.
std::string CleanLine(std::string line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const auto first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const auto last = line.find_last_not_of(" \t\r\n");
  return line.substr(first, last - first + 1);
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream iss(line);
  std::string tok;
  while (iss >> tok) tokens.push_back(tok);
  return tokens;
}

/// Reads the next non-empty, non-comment, non-header line. `line_no`, when
/// given, counts the physical lines read so far (so it ends on the line
/// returned).
bool NextDataLine(std::istream& in, std::string* out, int* line_no = nullptr) {
  std::string line;
  while (std::getline(in, line)) {
    if (line_no != nullptr) ++*line_no;
    line = CleanLine(line);
    if (line.empty()) continue;
    if (line.rfind("UCLA", 0) == 0) continue;  // format header
    *out = line;
    return true;
  }
  return false;
}

// Maps cell names to ids while parsing .nets / .pl.
std::unordered_map<std::string, std::int32_t> BuildNameIndex(
    const netlist::Netlist& nl) {
  std::unordered_map<std::string, std::int32_t> index;
  index.reserve(static_cast<std::size_t>(nl.NumCells()));
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    index.emplace(nl.cell(c).name, c);
  }
  return index;
}

/// Parses the whole of `tok` as a finite double (std::atof would accept
/// "abc" as 0 and "1e400" as inf).
bool ParseFiniteDouble(const std::string& tok, double* out) {
  char* end = nullptr;
  *out = std::strtod(tok.c_str(), &end);
  return !tok.empty() && end == tok.c_str() + tok.size() &&
         std::isfinite(*out);
}

/// Parses the whole of `tok` as a base-10 int (std::atoi would accept "abc"
/// as 0 and "3x" as 3, and overflow silently).
bool ParseInt(const std::string& tok, int* out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
  return !tok.empty() && ec == std::errc() && ptr == end;
}

/// The error for a malformed numeric field, naming the file and line.
util::Status BadField(const std::string& path, int line_no,
                      const std::string& field, const std::string& tok) {
  return util::ParseError("bookshelf: " + path + ":" +
                          std::to_string(line_no) + ": bad " + field + " '" +
                          tok + "'");
}

/// Parses a "KEY : COUNT" header line. Returns nullopt when `line` is not
/// that header; otherwise OK with `*value` set, or the error for a count
/// that is not a whole number >= 0.
std::optional<util::Status> ParseKeyCountLine(const std::string& line,
                                              const char* key,
                                              const std::string& path,
                                              int line_no, int* value) {
  const auto tokens = Tokenize(line);
  if (tokens.size() < 3 || tokens[0] != key || tokens[1] != ":") {
    return std::nullopt;
  }
  if (!ParseInt(tokens[2], value) || *value < 0) {
    return BadField(path, line_no, key, tokens[2]);
  }
  return util::Status::Ok();
}

std::string DirName(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

}  // namespace

util::Status ParseNodesFile(const std::string& path, double unit_m,
                            netlist::Netlist* nl) {
  std::ifstream in(path);
  if (!in) {
    return util::IoError("bookshelf: cannot open nodes file " + path);
  }
  std::string line;
  int num_nodes = -1, num_terminals = 0;
  int line_no = 0;
  while (NextDataLine(in, &line, &line_no)) {
    if (auto st = ParseKeyCountLine(line, "NumNodes", path, line_no,
                                    &num_nodes)) {
      if (!st->ok()) return *st;
      continue;
    }
    if (auto st = ParseKeyCountLine(line, "NumTerminals", path, line_no,
                                    &num_terminals)) {
      if (!st->ok()) return *st;
      continue;
    }
    const auto tokens = Tokenize(line);
    if (tokens.size() < 3) {
      return util::ParseError("bookshelf: bad nodes line in " + path + ": " +
                              line);
    }
    const bool terminal = tokens.size() >= 4 && tokens[3] == "terminal";
    const auto bad_size = [&](const std::string& tok, double* out) {
      double v = 0.0;
      if (!ParseFiniteDouble(tok, &v)) return true;
      *out = v * unit_m;
      return !std::isfinite(*out) || (terminal ? *out < 0.0 : *out <= 0.0);
    };
    double width = 0.0, height = 0.0;
    if (bad_size(tokens[1], &width) || bad_size(tokens[2], &height)) {
      return util::ParseError(
          "bookshelf: node " + tokens[0] + " in " + path + " has size '" +
          tokens[1] + " " + tokens[2] + "'; " +
          (terminal ? "terminals need finite sizes >= 0"
                    : "movable nodes need finite sizes > 0"));
    }
    nl->AddCell(tokens[0], width, height, terminal);
  }
  if (num_nodes >= 0 && nl->NumCells() != num_nodes) {
    util::LogWarn("bookshelf: NumNodes=%d but parsed %d cells", num_nodes,
                  nl->NumCells());
  }
  (void)num_terminals;
  return util::Status::Ok();
}

util::Status ParseNetsFile(const std::string& path, double unit_m,
                           netlist::Netlist* nl) {
  std::ifstream in(path);
  if (!in) {
    return util::IoError("bookshelf: cannot open nets file " + path);
  }
  const auto name_index = BuildNameIndex(*nl);
  std::string line;
  int expected_nets = -1, expected_pins = -1;
  std::int64_t pins_parsed = 0;
  std::int32_t pins_remaining = 0;
  int line_no = 0;
  while (NextDataLine(in, &line, &line_no)) {
    if (auto st = ParseKeyCountLine(line, "NumNets", path, line_no,
                                    &expected_nets)) {
      if (!st->ok()) return *st;
      continue;
    }
    if (auto st = ParseKeyCountLine(line, "NumPins", path, line_no,
                                    &expected_pins)) {
      if (!st->ok()) return *st;
      continue;
    }
    auto tokens = Tokenize(line);
    if (tokens[0] == "NetDegree") {
      // "NetDegree : d [name]"
      if (tokens.size() < 3) {
        return util::ParseError("bookshelf: bad NetDegree line in " + path +
                                ": " + line);
      }
      if (!ParseInt(tokens[2], &pins_remaining) || pins_remaining < 0) {
        return BadField(path, line_no, "NetDegree count", tokens[2]);
      }
      const std::string net_name =
          tokens.size() >= 4 ? tokens[3]
                             : "net" + std::to_string(nl->NumNets());
      nl->AddNet(net_name);
      continue;
    }
    // Pin line: "cellname I|O|B [: xoff yoff]"
    if (pins_remaining <= 0) {
      return util::ParseError("bookshelf: pin line outside a net in " + path +
                              ": " + line);
    }
    const auto it = name_index.find(tokens[0]);
    if (it == name_index.end()) {
      return util::ParseError("bookshelf: pin references unknown cell " +
                              tokens[0] + " in " + path);
    }
    netlist::PinDir dir = netlist::PinDir::kInput;
    std::size_t next = 1;
    if (tokens.size() > 1 && tokens[1].size() == 1 &&
        std::isalpha(static_cast<unsigned char>(tokens[1][0]))) {
      if (tokens[1] == "O") dir = netlist::PinDir::kOutput;
      next = 2;
    }
    double dx = 0.0, dy = 0.0;
    if (tokens.size() > next && tokens[next] == ":") {
      if (tokens.size() >= next + 3) {
        if (!ParseFiniteDouble(tokens[next + 1], &dx)) {
          return BadField(path, line_no, "pin x offset", tokens[next + 1]);
        }
        if (!ParseFiniteDouble(tokens[next + 2], &dy)) {
          return BadField(path, line_no, "pin y offset", tokens[next + 2]);
        }
        dx *= unit_m;
        dy *= unit_m;
      }
    }
    nl->AddPin(it->second, dir, dx, dy);
    --pins_remaining;
    ++pins_parsed;
  }
  if (expected_nets >= 0 && nl->NumNets() != expected_nets) {
    util::LogWarn("bookshelf: NumNets=%lld but parsed %d",
                  static_cast<long long>(expected_nets), nl->NumNets());
  }
  if (expected_pins >= 0 && pins_parsed != expected_pins) {
    util::LogWarn("bookshelf: NumPins=%lld but parsed %lld",
                  static_cast<long long>(expected_pins),
                  static_cast<long long>(pins_parsed));
  }
  return util::Status::Ok();
}

util::Status ParsePlFile(const std::string& path, double unit_m,
                         const netlist::Netlist& nl, std::vector<double>* x,
                         std::vector<double>* y, std::vector<int>* layer) {
  std::ifstream in(path);
  if (!in) {
    return util::IoError("bookshelf: cannot open pl file " + path);
  }
  const auto name_index = BuildNameIndex(nl);
  x->assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
  y->assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
  layer->assign(static_cast<std::size_t>(nl.NumCells()), 0);
  std::string line;
  int line_no = 0;
  while (NextDataLine(in, &line, &line_no)) {
    const auto tokens = Tokenize(line);
    if (tokens.size() < 3) continue;
    const auto it = name_index.find(tokens[0]);
    if (it == name_index.end()) {
      util::LogWarn("bookshelf: pl references unknown cell %s",
                    tokens[0].c_str());
      continue;
    }
    const std::size_t c = static_cast<std::size_t>(it->second);
    double cx = 0.0, cy = 0.0;
    if (!ParseFiniteDouble(tokens[1], &cx)) {
      return BadField(path, line_no, "x coordinate", tokens[1]);
    }
    if (!ParseFiniteDouble(tokens[2], &cy)) {
      return BadField(path, line_no, "y coordinate", tokens[2]);
    }
    (*x)[c] = cx * unit_m;
    (*y)[c] = cy * unit_m;
    // Optional ": orientation [layer] [/FIXED]" suffix.
    for (std::size_t i = 3; i + 1 < tokens.size(); ++i) {
      if (tokens[i] == ":" && i + 2 < tokens.size()) {
        const std::string& tok = tokens[i + 2];
        if (tok.starts_with('/')) break;  // a flag, no layer column
        if (!ParseInt(tok, &(*layer)[c])) {
          return BadField(path, line_no, "layer", tok);
        }
        break;
      }
    }
  }
  return util::Status::Ok();
}

util::Status ParseSclFile(const std::string& path,
                          std::vector<BookshelfRow>* rows) {
  std::ifstream in(path);
  if (!in) {
    return util::IoError("bookshelf: cannot open scl file " + path);
  }
  std::string line;
  BookshelfRow row;
  bool in_row = false;
  double sitewidth = 1.0;
  int num_rows = -1;
  int line_no = 0;
  while (NextDataLine(in, &line, &line_no)) {
    if (auto st = ParseKeyCountLine(line, "NumRows", path, line_no,
                                    &num_rows)) {
      if (!st->ok()) return *st;
      continue;
    }
    auto tokens = Tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "CoreRow") {
      in_row = true;
      row = BookshelfRow{};
      sitewidth = 1.0;
      continue;
    }
    if (!in_row) continue;
    if (tokens[0] == "End") {
      rows->push_back(row);
      in_row = false;
      continue;
    }
    if (tokens.size() >= 3 && tokens[1] == ":") {
      const std::string& key = tokens[0];
      double* field = key == "Coordinate"     ? &row.y
                      : key == "Height"       ? &row.height
                      : key == "Sitewidth"    ? &sitewidth
                      : key == "SubrowOrigin" ? &row.x
                                              : nullptr;
      if (field == nullptr) continue;  // Sitespacing, Siteorient, ...
      if (!ParseFiniteDouble(tokens[2], field)) {
        return BadField(path, line_no, key, tokens[2]);
      }
      if (key != "SubrowOrigin") continue;
      // "SubrowOrigin : x NumSites : n"
      for (std::size_t i = 3; i + 2 < tokens.size(); ++i) {
        if (tokens[i] == "NumSites" && tokens[i + 1] == ":") {
          double sites = 0.0;
          if (!ParseFiniteDouble(tokens[i + 2], &sites)) {
            return BadField(path, line_no, "NumSites", tokens[i + 2]);
          }
          row.width = sites * sitewidth;
        }
      }
    }
  }
  if (num_rows >= 0 && rows->size() != static_cast<std::size_t>(num_rows)) {
    util::LogWarn("bookshelf: NumRows=%d but parsed %zu rows", num_rows,
                  rows->size());
  }
  return util::Status::Ok();
}

util::Status LoadBookshelf(const std::string& aux_path, double unit_m,
                           BookshelfDesign* out) {
  std::ifstream in(aux_path);
  if (!in) {
    return util::IoError("bookshelf: cannot open aux file " + aux_path);
  }
  const std::string dir = DirName(aux_path);
  std::string nodes, nets, pl, scl;
  std::string line;
  while (NextDataLine(in, &line)) {
    for (const std::string& tok : Tokenize(line)) {
      if (tok.ends_with(".nodes")) nodes = dir + "/" + tok;
      else if (tok.ends_with(".nets")) nets = dir + "/" + tok;
      else if (tok.ends_with(".pl")) pl = dir + "/" + tok;
      else if (tok.ends_with(".scl")) scl = dir + "/" + tok;
    }
  }
  if (nodes.empty() || nets.empty()) {
    return util::ParseError("bookshelf: aux file " + aux_path +
                            " names no .nodes/.nets");
  }
  out->unit_m = unit_m;
  if (util::Status s = ParseNodesFile(nodes, unit_m, &out->netlist); !s.ok())
    return s;
  if (util::Status s = ParseNetsFile(nets, unit_m, &out->netlist); !s.ok())
    return s;
  if (!out->netlist.Finalize()) {
    return util::ParseError("bookshelf: design in " + aux_path +
                            " failed netlist finalization");
  }
  if (!pl.empty()) {
    if (util::Status s =
            ParsePlFile(pl, unit_m, out->netlist, &out->x, &out->y, &out->layer);
        !s.ok())
      return s;
  } else {
    out->x.assign(static_cast<std::size_t>(out->netlist.NumCells()), 0.0);
    out->y.assign(static_cast<std::size_t>(out->netlist.NumCells()), 0.0);
    out->layer.assign(static_cast<std::size_t>(out->netlist.NumCells()), 0);
  }
  if (!scl.empty()) {
    if (util::Status s = ParseSclFile(scl, &out->rows); !s.ok()) return s;
  }
  return util::Status::Ok();
}

bool WriteBookshelf(const std::string& dir, const std::string& base,
                    const netlist::Netlist& nl, double unit_m,
                    const place::Chip* chip,
                    const place::Placement* placement) {
  const std::string stem = dir + "/" + base;

  // --- .nodes ---------------------------------------------------------------
  {
    std::ofstream f(stem + ".nodes");
    if (!f) {
      util::LogError("bookshelf: cannot write %s.nodes", stem.c_str());
      return false;
    }
    f.precision(12);
    int terminals = 0;
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      if (nl.cell(c).fixed) ++terminals;
    }
    f << "UCLA nodes 1.0\n\nNumNodes : " << nl.NumCells()
      << "\nNumTerminals : " << terminals << "\n";
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      const auto& cell = nl.cell(c);
      f << '\t' << cell.name << '\t' << cell.width / unit_m << '\t'
        << cell.height / unit_m;
      if (cell.fixed) f << "\tterminal";
      f << '\n';
    }
    if (!f.good()) return false;
  }

  // --- .nets ----------------------------------------------------------------
  {
    std::ofstream f(stem + ".nets");
    if (!f) {
      util::LogError("bookshelf: cannot write %s.nets", stem.c_str());
      return false;
    }
    f.precision(12);
    f << "UCLA nets 1.0\n\nNumNets : " << nl.NumNets()
      << "\nNumPins : " << nl.NumPins() << "\n";
    for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
      f << "NetDegree : " << nl.net(n).num_pins << ' ' << nl.net(n).name
        << '\n';
      for (const netlist::Pin& pin : nl.NetPins(n)) {
        f << '\t' << nl.cell(pin.cell).name << ' '
          << (pin.dir == netlist::PinDir::kOutput ? 'O' : 'I') << " : "
          << pin.dx / unit_m << ' ' << pin.dy / unit_m << '\n';
      }
    }
    if (!f.good()) return false;
  }

  // --- .pl --------------------------------------------------------------------
  {
    std::vector<double> zeros;
    const std::vector<double>* x = placement ? &placement->x : nullptr;
    const std::vector<double>* y = placement ? &placement->y : nullptr;
    const std::vector<int>* layer = placement ? &placement->layer : nullptr;
    std::vector<double> zx, zy;
    std::vector<int> zl;
    if (!placement) {
      zx.assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
      zy.assign(static_cast<std::size_t>(nl.NumCells()), 0.0);
      zl.assign(static_cast<std::size_t>(nl.NumCells()), 0);
      x = &zx;
      y = &zy;
      layer = &zl;
    }
    if (!WritePlFile(stem + ".pl", nl, *x, *y, *layer, unit_m)) return false;
    (void)zeros;
  }

  // --- .scl (optional) ---------------------------------------------------------
  if (chip != nullptr) {
    std::ofstream f(stem + ".scl");
    if (!f) {
      util::LogError("bookshelf: cannot write %s.scl", stem.c_str());
      return false;
    }
    f.precision(12);
    f << "UCLA scl 1.0\n\nNumRows : " << chip->num_rows() << "\n";
    for (int r = 0; r < chip->num_rows(); ++r) {
      f << "CoreRow Horizontal\n"
        << "  Coordinate : " << chip->RowBottomY(r) / unit_m << "\n"
        << "  Height : " << chip->row_height() / unit_m << "\n"
        << "  Sitewidth : 1\n"
        << "  SubrowOrigin : 0 NumSites : " << chip->width() / unit_m << "\n"
        << "End\n";
    }
    if (!f.good()) return false;
  }

  // --- .aux --------------------------------------------------------------------
  {
    std::ofstream f(stem + ".aux");
    if (!f) {
      util::LogError("bookshelf: cannot write %s.aux", stem.c_str());
      return false;
    }
    f << "RowBasedPlacement : " << base << ".nodes " << base << ".nets "
      << base << ".pl";
    if (chip != nullptr) f << ' ' << base << ".scl";
    f << '\n';
    if (!f.good()) return false;
  }
  return true;
}

bool WritePlFile(const std::string& path, const netlist::Netlist& nl,
                 const std::vector<double>& x, const std::vector<double>& y,
                 const std::vector<int>& layer, double unit_m) {
  std::ofstream out(path);
  if (!out) {
    util::LogError("bookshelf: cannot write pl file %s", path.c_str());
    return false;
  }
  out.precision(12);
  out << "UCLA pl 1.0\n# placer3d 3D placement (layer index after orientation)\n\n";
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    out << nl.cell(c).name << '\t' << x[i] / unit_m << '\t' << y[i] / unit_m
        << "\t: N " << layer[i];
    if (nl.cell(c).fixed) out << " /FIXED";
    out << '\n';
  }
  return out.good();
}

}  // namespace p3d::io
