#include "rispp/isa/io.hpp"

#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"

namespace rispp::isa {

namespace {

/// One logical line: comment stripped, tokenized on whitespace.
struct Line {
  std::size_t number = 0;
  std::vector<std::string> tokens;
  bool empty() const { return tokens.empty(); }
  const std::string& head() const { return tokens.front(); }
};

std::vector<Line> tokenize(std::istream& in) {
  std::vector<Line> lines;
  std::string raw;
  std::size_t number = 0;
  while (std::getline(in, raw)) {
    ++number;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    Line line;
    line.number = number;
    std::istringstream ls(raw);
    std::string tok;
    while (ls >> tok) line.tokens.push_back(tok);
    if (!line.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

/// Splits "key=value"; throws on malformed input.
std::pair<std::string, std::string> split_kv(const Line& line,
                                             const std::string& tok) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= tok.size())
    throw ParseError(line.number, "expected key=value, got '" + tok + "'");
  return {tok.substr(0, eq), tok.substr(eq + 1)};
}

/// Reads `value` as a T under the one number rule (util/parse.hpp).
template <typename T>
T parse_num(const Line& line, const std::string& key,
            const std::string& value) {
  if (const auto v = util::parse_number<T>(value)) return *v;
  throw ParseError(line.number,
                   "invalid number for " + key + ": '" + value + "'");
}

AtomCatalog parse_catalog(const std::vector<Line>& lines, std::size_t& i) {
  if (i >= lines.size() || lines[i].head() != "catalog")
    throw ParseError(i < lines.size() ? lines[i].number : 0,
                     "expected 'catalog' section first");
  ++i;
  std::vector<AtomInfo> atoms;
  for (; i < lines.size(); ++i) {
    const auto& line = lines[i];
    if (line.head() == "end") {
      ++i;
      if (atoms.empty()) throw ParseError(line.number, "empty catalog");
      return AtomCatalog(std::move(atoms));
    }
    if (line.head() != "atom")
      throw ParseError(line.number, "expected 'atom' or 'end' in catalog");
    if (line.tokens.size() < 2)
      throw ParseError(line.number, "atom needs a name");
    AtomInfo info;
    info.name = line.tokens[1];
    info.hardware.name = info.name;
    info.rotatable = true;
    for (std::size_t t = 2; t < line.tokens.size(); ++t) {
      const auto& tok = line.tokens[t];
      if (tok == "rotatable") {
        info.rotatable = true;
      } else if (tok == "static") {
        info.rotatable = false;
      } else {
        const auto [key, value] = split_kv(line, tok);
        if (key == "slices")
          info.hardware.slices = parse_num<unsigned>(line, key, value);
        else if (key == "luts")
          info.hardware.luts = parse_num<unsigned>(line, key, value);
        else if (key == "bitstream")
          info.hardware.bitstream_bytes =
              parse_num<std::uint32_t>(line, key, value);
        else
          throw ParseError(line.number, "unknown atom attribute: " + key);
      }
    }
    atoms.push_back(std::move(info));
  }
  throw ParseError(lines.back().number, "catalog section not closed by 'end'");
}

SpecialInstruction parse_si(const std::vector<Line>& lines, std::size_t& i,
                            const AtomCatalog& catalog) {
  const auto& header = lines[i];
  if (header.tokens.size() < 3)
    throw ParseError(header.number, "si needs a name and software=<cycles>");
  const std::string name = header.tokens[1];
  std::optional<std::uint32_t> software;
  for (std::size_t t = 2; t < header.tokens.size(); ++t) {
    const auto [key, value] = split_kv(header, header.tokens[t]);
    if (key == "software")
      software = parse_num<std::uint32_t>(header, key, value);
    else
      throw ParseError(header.number, "unknown si attribute: " + key);
  }
  if (!software)
    throw ParseError(header.number, "si needs software=<cycles>");
  ++i;

  std::vector<MoleculeOption> options;
  for (; i < lines.size(); ++i) {
    const auto& line = lines[i];
    if (line.head() == "end") {
      ++i;
      if (options.empty())
        throw ParseError(line.number, "si '" + name + "' has no molecules");
      try {
        return SpecialInstruction(name, *software, std::move(options));
      } catch (const util::PreconditionError& e) {
        throw ParseError(header.number, "si '" + name + "': " + e.what());
      }
    }
    if (line.head() != "molecule")
      throw ParseError(line.number, "expected 'molecule' or 'end' in si");
    MoleculeOption opt;
    opt.atoms = catalog.zero();
    bool have_cycles = false;
    for (std::size_t t = 1; t < line.tokens.size(); ++t) {
      const auto [key, value] = split_kv(line, line.tokens[t]);
      if (key == "cycles") {
        opt.cycles = parse_num<std::uint32_t>(line, key, value);
        have_cycles = true;
      } else {
        if (!catalog.contains(key))
          throw ParseError(line.number, "unknown atom in molecule: " + key);
        opt.atoms.set(catalog.index_of(key),
                      parse_num<atom::Count>(line, key, value));
      }
    }
    if (!have_cycles)
      throw ParseError(line.number, "molecule needs cycles=<n>");
    options.push_back(std::move(opt));
  }
  throw ParseError(lines.back().number,
                   "si '" + name + "' not closed by 'end'");
}

}  // namespace

SiLibrary parse_si_library(std::istream& in) {
  const auto lines = tokenize(in);
  if (lines.empty()) throw ParseError(0, "empty library description");
  std::size_t i = 0;
  auto catalog = parse_catalog(lines, i);

  std::vector<SpecialInstruction> sis;
  while (i < lines.size()) {
    if (lines[i].head() != "si")
      throw ParseError(lines[i].number, "expected 'si' section");
    sis.push_back(parse_si(lines, i, catalog));
  }
  if (sis.empty()) throw ParseError(lines.back().number, "no si sections");
  try {
    return SiLibrary(std::move(catalog), std::move(sis));
  } catch (const util::PreconditionError& e) {
    throw ParseError(lines.back().number, e.what());
  }
}

SiLibrary parse_si_library(const std::string& text) {
  std::istringstream in(text);
  return parse_si_library(in);
}

void write_si_library(std::ostream& out, const SiLibrary& lib) {
  const auto& cat = lib.catalog();
  out << "catalog\n";
  for (const auto& a : cat.atoms()) {
    out << "  atom " << a.name << " slices=" << a.hardware.slices
        << " luts=" << a.hardware.luts
        << " bitstream=" << a.hardware.bitstream_bytes << " "
        << (a.rotatable ? "rotatable" : "static") << "\n";
  }
  out << "end\n";
  for (const auto& si : lib.sis()) {
    out << "\nsi " << si.name() << " software=" << si.software_cycles()
        << "\n";
    for (const auto& o : si.options()) {
      out << "  molecule cycles=" << o.cycles;
      for (std::size_t a = 0; a < cat.size(); ++a)
        if (o.atoms[a] > 0) out << " " << cat.at(a).name << "=" << o.atoms[a];
      out << "\n";
    }
    out << "end\n";
  }
}

std::string write_si_library(const SiLibrary& lib) {
  std::ostringstream os;
  write_si_library(os, lib);
  return os.str();
}

}  // namespace rispp::isa
