#include "extract/spice_deck.hpp"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bisram::extract {

namespace {
std::string net_name(const Extracted& ex, int net) {
  for (const auto& [name, id] : ex.port_net)
    if (id == net) return name;
  return strfmt("n%d", net);
}
}  // namespace

void write_spice_deck(std::ostream& os, const Extracted& ex,
                      const std::string& name, const tech::Tech& tech) {
  os << "* BISRAMGEN extracted netlist: " << name << " (" << tech.name
     << ")\n";
  os << ".subckt " << name;
  for (const auto& [port, _] : ex.port_net) os << ' ' << port;
  os << '\n';

  int m = 0;
  for (const auto& d : ex.devices) {
    os << 'M' << ++m << ' ' << net_name(ex, d.drain) << ' '
       << net_name(ex, d.gate) << ' ' << net_name(ex, d.source) << ' '
       << (d.type == spice::MosType::Nmos ? "gnd NMOS" : "vdd PMOS")
       << strfmt(" W=%.3fu L=%.3fu", d.w_um, d.l_um) << '\n';
  }
  int c = 0;
  for (int net = 0; net < ex.net_count; ++net) {
    const double cap = ex.net_cap_f[static_cast<std::size_t>(net)];
    if (cap < 1e-18) continue;
    os << 'C' << ++c << ' ' << net_name(ex, net) << " gnd"
       << strfmt(" %.4ff", cap * 1e15) << '\n';
  }
  os << ".ends " << name << '\n';
}

std::string to_spice_deck(const Extracted& ex, const std::string& name,
                          const tech::Tech& tech) {
  std::ostringstream ss;
  write_spice_deck(ss, ex, name, tech);
  return ss.str();
}

namespace {
/// Parses "12.34u" / "0.56f" style suffixed numbers.
double suffixed(const std::string& token) {
  double scale = 1.0;
  std::string num = token;
  if (!num.empty()) {
    switch (num.back()) {
      case 'u': scale = 1e-6; num.pop_back(); break;
      case 'n': scale = 1e-9; num.pop_back(); break;
      case 'p': scale = 1e-12; num.pop_back(); break;
      case 'f': scale = 1e-15; num.pop_back(); break;
      default: break;
    }
  }
  try {
    return std::stod(num) * scale;
  } catch (...) {
    throw SpecError("spice deck: bad number '" + token + "'");
  }
}
}  // namespace

DeckStats read_spice_deck(std::istream& is) {
  DeckStats stats;
  std::string line;
  bool in_subckt = false;
  while (std::getline(is, line)) {
    const std::string t = trim(line);
    if (t.empty() || t[0] == '*') continue;
    const auto tokens = split(t, " \t");
    const std::string head = to_lower(tokens[0]);

    if (head == ".subckt") {
      require(tokens.size() >= 2, "spice deck: .subckt without a name");
      stats.name = tokens[1];
      stats.terminals = static_cast<int>(tokens.size()) - 2;
      in_subckt = true;
      continue;
    }
    if (head == ".ends") {
      in_subckt = false;
      continue;
    }
    if (!in_subckt) continue;

    if (head[0] == 'm') {
      require(tokens.size() >= 7, "spice deck: short M card: " + t);
      stats.mosfets++;
      const std::string model = to_lower(tokens[5]);
      if (model == "nmos") stats.nmos++;
      else if (model == "pmos") stats.pmos++;
      else throw SpecError("spice deck: unknown model '" + tokens[5] + "'");
      for (std::size_t i = 6; i < tokens.size(); ++i) {
        const auto kv = split(tokens[i], "=");
        if (kv.size() == 2 && to_lower(kv[0]) == "w")
          stats.total_gate_width_um += suffixed(kv[1]) * 1e6;
      }
    } else if (head[0] == 'c') {
      require(tokens.size() >= 4, "spice deck: short C card: " + t);
      stats.capacitors++;
      stats.total_cap_f += suffixed(tokens[3]);
    } else {
      throw SpecError("spice deck: unsupported card: " + t);
    }
  }
  require(!stats.name.empty(), "spice deck: no .subckt found");
  return stats;
}

}  // namespace bisram::extract
