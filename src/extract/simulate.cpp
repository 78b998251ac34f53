#include "extract/simulate.hpp"

#include "util/strings.hpp"

namespace bisram::extract {

std::string node_name(const Extracted& ex, int net) {
  for (const auto& [name, id] : ex.port_net)
    if (id == net) return name == "gnd" ? "0" : name;
  return strfmt("n%d", net);
}

spice::Circuit to_circuit(const Extracted& ex, const tech::Tech& tech) {
  spice::Circuit ckt;
  for (const auto& d : ex.devices) {
    const tech::MosParams& p =
        d.type == spice::MosType::Nmos ? tech.elec.nmos : tech.elec.pmos;
    ckt.add_mosfet(d.type, node_name(ex, d.drain), node_name(ex, d.gate),
                   node_name(ex, d.source), d.w_um, d.l_um,
                   {p.vt0, p.kp, p.lambda_ch});
  }
  for (int net = 0; net < ex.net_count; ++net) {
    const std::string node = node_name(ex, net);
    if (node == "0") continue;
    // Wiring parasitics plus a small floor so internal storage nodes
    // integrate stably.
    const double cap =
        ex.net_cap_f[static_cast<std::size_t>(net)] + 0.2e-15;
    ckt.add_capacitor(node, "0", cap);
  }
  return ckt;
}

}  // namespace bisram::extract
