#include "sta/netlist.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <set>

#include "extract/simulate.hpp"
#include "spice/sizing.hpp"

namespace bisram::sta {

namespace {

constexpr double kLn2 = 0.6931471805599453;

// Matches the stability floor extract::to_circuit adds per net, so the
// STA loads exactly the circuit the transient engine integrates.
constexpr double kCapFloorF = 0.2e-15;

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }
};

/// Minimum-resistance channel path from `from` to any net in `targets`,
/// over the device set `devs` (indices into ex.devices). Returns the
/// Elmore sum along that path walked supply-to-`from` (upstream
/// resistance times node cap at every non-supply net), or a negative
/// value when no target is reachable. Deterministic: the priority queue
/// breaks resistance ties on net id.
double elmore_to_supply(const extract::Extracted& ex, const tech::Tech& tech,
                        const std::vector<double>& node_cap,
                        const std::vector<char>& is_supply,
                        const std::vector<int>& devs, int from,
                        const std::vector<char>& target) {
  std::map<int, double> dist;
  std::map<int, int> prev_dev;  // net -> device index used to reach it
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[from] = 0;
  pq.push({0.0, from});
  int hit = -1;
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    auto it = dist.find(u);
    if (it == dist.end() || d > it->second) continue;
    if (target[static_cast<std::size_t>(u)]) {
      hit = u;
      break;
    }
    for (int di : devs) {
      const extract::Device& dev = ex.devices[static_cast<std::size_t>(di)];
      int v = -1;
      if (dev.source == u)
        v = dev.drain;
      else if (dev.drain == u)
        v = dev.source;
      else
        continue;
      const double r =
          spice::device_on_resistance(tech, dev.type, dev.w_um);
      const double nd = d + r;
      auto dv = dist.find(v);
      if (dv == dist.end() || nd < dv->second) {
        dist[v] = nd;
        prev_dev[v] = di;
        pq.push({nd, v});
      }
    }
  }
  if (hit < 0) return -1.0;

  // Reconstruct the path supply -> from and accumulate the Elmore sum:
  // at each net, the total channel resistance between it and the supply
  // times the capacitance hanging on it.
  std::vector<int> path;  // nets from `hit` (supply) back to `from`
  for (int u = hit; u != from;) {
    path.push_back(u);
    const extract::Device& dev =
        ex.devices[static_cast<std::size_t>(prev_dev.at(u))];
    u = dev.source == u ? dev.drain : dev.source;
  }
  path.push_back(from);
  // path = [supply, ..., from]; walk it accumulating resistance.
  double acc_r = 0;
  double elmore = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const int u = path[i];
    const int pu = path[i - 1];
    // Resistance of the device between path[i-1] and path[i]: it is the
    // one recorded as reaching path[i-1] from path[i] during the search.
    const extract::Device& dev =
        ex.devices[static_cast<std::size_t>(prev_dev.at(pu))];
    acc_r += spice::device_on_resistance(tech, dev.type, dev.w_um);
    if (!is_supply[static_cast<std::size_t>(u)])
      elmore += acc_r * node_cap[static_cast<std::size_t>(u)];
  }
  return elmore;
}

}  // namespace

NetlistGraph from_extracted(const extract::Extracted& ex,
                            const geom::LayoutDB& db, const tech::Tech& tech,
                            const std::vector<std::string>& inputs,
                            const std::vector<std::string>& outputs) {
  NetlistGraph result;
  const int n = ex.net_count;

  // Supply nets: the vdd/gnd ports and everything wired to them.
  std::vector<char> is_vdd(static_cast<std::size_t>(n), 0);
  std::vector<char> is_gnd(static_cast<std::size_t>(n), 0);
  for (const auto& [name, net] : ex.port_net) {
    if (name == "vdd") is_vdd[static_cast<std::size_t>(net)] = 1;
    if (name == "gnd") is_gnd[static_cast<std::size_t>(net)] = 1;
  }
  std::vector<char> is_supply(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i)
    is_supply[static_cast<std::size_t>(i)] =
        is_vdd[static_cast<std::size_t>(i)] | is_gnd[static_cast<std::size_t>(i)];

  // Node capacitance per net: the circuit the transient engine sees.
  std::vector<double> node_cap(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i)
    node_cap[static_cast<std::size_t>(i)] =
        ex.net_cap_f[static_cast<std::size_t>(i)] + kCapFloorF;

  // Channel-connected components over non-supply nets.
  UnionFind uf(n);
  for (const extract::Device& d : ex.devices)
    if (!is_supply[static_cast<std::size_t>(d.source)] &&
        !is_supply[static_cast<std::size_t>(d.drain)])
      uf.unite(d.source, d.drain);

  // Group devices by the CCC they belong to (the CCC of their non-supply
  // channel terminal; a device bridging two supplies carries no timing).
  std::map<int, std::vector<int>> stage_devs;  // CCC root -> device indices
  for (std::size_t di = 0; di < ex.devices.size(); ++di) {
    const extract::Device& d = ex.devices[di];
    int member = -1;
    if (!is_supply[static_cast<std::size_t>(d.source)])
      member = d.source;
    else if (!is_supply[static_cast<std::size_t>(d.drain)])
      member = d.drain;
    if (member >= 0)
      stage_devs[uf.find(member)].push_back(static_cast<int>(di));
  }
  result.stage_count = static_cast<int>(stage_devs.size());

  // One graph node per non-supply net.
  result.net_node.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    if (is_supply[static_cast<std::size_t>(i)]) continue;
    result.net_node[static_cast<std::size_t>(i)] = result.graph.add_node(
        extract::node_name(ex, i), node_cap[static_cast<std::size_t>(i)]);
  }

  // Nets that gate at least one device: stage outputs that drive logic.
  std::vector<char> gates_something(static_cast<std::size_t>(n), 0);
  for (const extract::Device& d : ex.devices)
    gates_something[static_cast<std::size_t>(d.gate)] = 1;
  std::vector<char> is_output_port(static_cast<std::size_t>(n), 0);
  for (const std::string& name : outputs) {
    auto it = ex.port_net.find(name);
    require(it != ex.port_net.end(),
            "sta: output port '" + name + "' not found in extracted cell");
    is_output_port[static_cast<std::size_t>(it->second)] = 1;
  }

  // Per CCC (in canonical root order): every gate-input drives every
  // stage output with the worst-path Elmore delay. The arc order is a
  // pure function of the netlist, which makes loop breaking
  // deterministic.
  for (const auto& [root, devs] : stage_devs) {
    // Member nets of this CCC, sorted.
    std::set<int> members;
    for (int di : devs) {
      const extract::Device& d = ex.devices[static_cast<std::size_t>(di)];
      if (!is_supply[static_cast<std::size_t>(d.source)] &&
          uf.find(d.source) == root)
        members.insert(d.source);
      if (!is_supply[static_cast<std::size_t>(d.drain)] &&
          uf.find(d.drain) == root)
        members.insert(d.drain);
    }
    // Stage inputs: gate nets of member devices (supply-tied gates are
    // static biases, not timing inputs).
    std::set<int> stage_inputs;
    for (int di : devs) {
      const extract::Device& d = ex.devices[static_cast<std::size_t>(di)];
      if (!is_supply[static_cast<std::size_t>(d.gate)])
        stage_inputs.insert(d.gate);
    }
    // Stage outputs: member nets that gate logic elsewhere or are
    // requested output ports.
    std::vector<int> stage_outputs;
    for (int m : members)
      if (gates_something[static_cast<std::size_t>(m)] ||
          is_output_port[static_cast<std::size_t>(m)])
        stage_outputs.push_back(m);

    for (int o : stage_outputs) {
      // Worst of the pull-up and pull-down Elmore paths to a supply.
      const double up =
          elmore_to_supply(ex, tech, node_cap, is_supply, devs, o, is_vdd);
      const double down =
          elmore_to_supply(ex, tech, node_cap, is_supply, devs, o, is_gnd);
      const double elmore = std::max(up, down);
      if (elmore < 0) continue;  // floating structure (e.g. isolated pass)
      const double delay = kLn2 * elmore;
      // r chosen so the Gate arc reproduces `delay` against the node's
      // cap and carries the matching slew estimate.
      const double cap = result.graph.subtree_cap_f(
          result.net_node[static_cast<std::size_t>(o)]);
      const double r = delay / cap;
      for (int i : stage_inputs) {
        if (i == o) continue;
        const int from = result.net_node[static_cast<std::size_t>(i)];
        const int to = result.net_node[static_cast<std::size_t>(o)];
        // Provenance: the first member device this input gates.
        std::string tag;
        for (int di : devs) {
          const extract::Device& d = ex.devices[static_cast<std::size_t>(di)];
          if (d.gate == i) {
            tag = db.path_name(d.path);
            if (tag.empty()) tag = "<top>";
            break;
          }
        }
        if (result.graph.would_cycle(from, to)) {
          result.broken_loops.push_back(tag + ": " +
                                        result.graph.node(from).name + " -> " +
                                        result.graph.node(to).name);
          continue;
        }
        result.graph.add_gate(from, to, r, std::move(tag));
      }
    }
  }

  // Sources and endpoints.
  for (const std::string& name : inputs) {
    auto it = ex.port_net.find(name);
    require(it != ex.port_net.end(),
            "sta: input port '" + name + "' not found in extracted cell");
    const int node = result.net_node[static_cast<std::size_t>(it->second)];
    require(node >= 0, "sta: input port '" + name + "' is a supply net");
    result.graph.set_source(node);
  }
  for (const std::string& name : outputs) {
    const int node =
        result.net_node[static_cast<std::size_t>(ex.port_net.at(name))];
    require(node >= 0, "sta: output port '" + name + "' is a supply net");
    result.graph.set_endpoint(node);
  }
  return result;
}

}  // namespace bisram::sta
