#include "sta/graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/strings.hpp"

namespace bisram::sta {

namespace {

// 10-90% rise time of a single-pole RC response: t = RC * ln(9).
constexpr double kSlewPerTau = 2.1972245773362196;  // ln(9)

}  // namespace

int TimingGraph::add_node(std::string name, double cap_f) {
  const int id = static_cast<int>(nodes_.size());
  Node n;
  n.name = std::move(name);
  n.cap_f = cap_f;
  nodes_.push_back(std::move(n));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

int TimingGraph::add_source(std::string name, double cap_f) {
  const int id = add_node(std::move(name), cap_f);
  nodes_[static_cast<std::size_t>(id)].is_source = true;
  return id;
}

int TimingGraph::add_endpoint(std::string name, double cap_f) {
  const int id = add_node(std::move(name), cap_f);
  nodes_[static_cast<std::size_t>(id)].is_endpoint = true;
  return id;
}

void TimingGraph::set_endpoint(int node, bool on) {
  nodes_[static_cast<std::size_t>(node)].is_endpoint = on;
}

void TimingGraph::set_source(int node, bool on) {
  nodes_[static_cast<std::size_t>(node)].is_source = on;
}

void TimingGraph::add_cap(int node, double cap_f) {
  nodes_[static_cast<std::size_t>(node)].cap_f += cap_f;
}

int TimingGraph::add_arc(int from, int to, ArcKind kind, double r_ohm,
                         double delay_s, std::string tag) {
  ensure(from >= 0 && static_cast<std::size_t>(from) < nodes_.size() &&
             to >= 0 && static_cast<std::size_t>(to) < nodes_.size(),
         "sta: arc endpoints must be existing nodes");
  require(from != to, "sta: self-loop arc on node '" +
                          nodes_[static_cast<std::size_t>(from)].name + "'");
  const int id = static_cast<int>(arcs_.size());
  Arc a;
  a.from = from;
  a.to = to;
  a.kind = kind;
  a.r_ohm = r_ohm;
  a.delay_s = delay_s;
  a.tag = std::move(tag);
  arcs_.push_back(std::move(a));
  out_[static_cast<std::size_t>(from)].push_back(id);
  in_[static_cast<std::size_t>(to)].push_back(id);
  return id;
}

bool TimingGraph::would_cycle(int from, int to) const {
  if (from == to) return true;
  // DFS from `to` over existing arcs looking for `from`.
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<int> stack = {to};
  seen[static_cast<std::size_t>(to)] = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    if (u == from) return true;
    for (int aid : out_[static_cast<std::size_t>(u)]) {
      const int v = arcs_[static_cast<std::size_t>(aid)].to;
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        stack.push_back(v);
      }
    }
  }
  return false;
}

std::vector<int> TimingGraph::topo_order() const {
  // Kahn's algorithm with a FIFO worklist seeded in node-id order: the
  // order is a pure function of the graph, never of thread count.
  const std::size_t n = nodes_.size();
  std::vector<int> indeg(n, 0);
  for (const Arc& a : arcs_) ++indeg[static_cast<std::size_t>(a.to)];
  std::vector<int> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) order.push_back(static_cast<int>(i));
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int u = order[head];
    for (int aid : out_[static_cast<std::size_t>(u)]) {
      const int v = arcs_[static_cast<std::size_t>(aid)].to;
      if (--indeg[static_cast<std::size_t>(v)] == 0) order.push_back(v);
    }
  }
  if (order.size() != n) {
    // Name one node still on a cycle for the error message.
    for (std::size_t i = 0; i < n; ++i)
      if (indeg[i] > 0)
        throw SpecError("sta: timing graph has a cycle through node '" +
                        nodes_[i].name + "' (break the loop before analyze)");
  }
  return order;
}

double TimingGraph::subtree_cap_f(int node) const {
  // Sum node caps over the wire tree reachable from `node` via Wire arcs.
  double total = 0;
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<int> stack = {node};
  seen[static_cast<std::size_t>(node)] = 1;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    total += nodes_[static_cast<std::size_t>(u)].cap_f;
    for (int aid : out_[static_cast<std::size_t>(u)]) {
      const Arc& a = arcs_[static_cast<std::size_t>(aid)];
      if (a.kind != ArcKind::Wire) continue;
      if (!seen[static_cast<std::size_t>(a.to)]) {
        seen[static_cast<std::size_t>(a.to)] = 1;
        stack.push_back(a.to);
      }
    }
  }
  return total;
}

StaReport TimingGraph::analyze(const AnalyzeOptions& options) const {
  const std::size_t n = nodes_.size();
  const std::vector<int> order = topo_order();

  // Wire trees: at most one incoming wire arc per node, so the Elmore
  // C_sub recursion below is well defined.
  {
    std::vector<int> wire_in(n, 0);
    for (const Arc& a : arcs_)
      if (a.kind == ArcKind::Wire &&
          ++wire_in[static_cast<std::size_t>(a.to)] > 1)
        throw SpecError("sta: node '" + nodes_[static_cast<std::size_t>(a.to)].name +
                        "' has two incoming wire arcs (wire arcs must form "
                        "trees)");
  }

  // C_sub: capacitance at and below each node over its wire subtree.
  // Reverse topological accumulation — a node's wire children are later
  // in `order`, so walking `order` backwards sees them first.
  std::vector<double> c_sub(n, 0);
  for (std::size_t i = n; i-- > 0;) {
    const int u = order[i];
    double c = nodes_[static_cast<std::size_t>(u)].cap_f;
    for (int aid : out_[static_cast<std::size_t>(u)]) {
      const Arc& a = arcs_[static_cast<std::size_t>(aid)];
      if (a.kind == ArcKind::Wire) c += c_sub[static_cast<std::size_t>(a.to)];
    }
    c_sub[static_cast<std::size_t>(u)] = c;
  }

  // Per-arc delay, fixed by the graph alone (used by both passes).
  std::vector<double> arc_delay(arcs_.size(), 0);
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    const Arc& a = arcs_[i];
    switch (a.kind) {
      case ArcKind::Gate:
        arc_delay[i] = a.delay_s + a.r_ohm * c_sub[static_cast<std::size_t>(a.to)];
        break;
      case ArcKind::Wire:
        arc_delay[i] = a.r_ohm * c_sub[static_cast<std::size_t>(a.to)];
        break;
      case ArcKind::Delay:
        arc_delay[i] = a.delay_s;
        break;
    }
  }

  // Forward pass: arrival, slew, and the predecessor arc that set the
  // arrival. Nodes with no incoming arcs launch at t = 0 (sources by
  // definition; orphans behave as free-running inputs). Ties keep the
  // earliest arc id — insertion order, thread-independent.
  std::vector<double> arrival(n, 0);
  std::vector<double> slew(n, options.input_slew_s);
  std::vector<int> pred(n, -1);
  for (const int u : order) {
    const std::size_t su = static_cast<std::size_t>(u);
    for (int aid : in_[su]) {
      const Arc& a = arcs_[static_cast<std::size_t>(aid)];
      const double t = arrival[static_cast<std::size_t>(a.from)] +
                       arc_delay[static_cast<std::size_t>(aid)];
      if (pred[su] < 0 || t > arrival[su]) {
        arrival[su] = t;
        pred[su] = aid;
      }
    }
    if (pred[su] >= 0) {
      const Arc& a = arcs_[static_cast<std::size_t>(pred[su])];
      const double in_slew = slew[static_cast<std::size_t>(a.from)];
      const double tau =
          a.r_ohm * c_sub[su];  // zero for Delay arcs by construction
      switch (a.kind) {
        case ArcKind::Gate:
          // A switching stage re-launches the edge: its output slew is
          // set by its own RC, not the input edge.
          slew[su] = kSlewPerTau * tau;
          break;
        case ArcKind::Wire:
          // First-order degradation through a passive segment.
          slew[su] = std::sqrt(in_slew * in_slew +
                               kSlewPerTau * tau * (kSlewPerTau * tau));
          break;
        case ArcKind::Delay:
          slew[su] = in_slew;
          break;
      }
    }
  }

  // Endpoint set: flagged nodes, else every sink with at least one
  // incoming arc. Deterministic: node-id order.
  std::vector<int> endpoints;
  for (std::size_t i = 0; i < n; ++i)
    if (nodes_[i].is_endpoint) endpoints.push_back(static_cast<int>(i));
  if (endpoints.empty())
    for (std::size_t i = 0; i < n; ++i)
      if (out_[i].empty() && !in_[i].empty())
        endpoints.push_back(static_cast<int>(i));
  require(!endpoints.empty(), "sta: graph has no endpoints");

  double max_arrival = -std::numeric_limits<double>::infinity();
  for (int e : endpoints)
    max_arrival = std::max(max_arrival, arrival[static_cast<std::size_t>(e)]);

  const bool constrained = options.clock_period_s > 0;
  const double req_at_endpoint =
      constrained ? options.clock_period_s : max_arrival;

  // Backward pass: required time. Endpoints get the constraint; interior
  // required times tighten through every outgoing arc.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> required(n, kInf);
  for (int e : endpoints) required[static_cast<std::size_t>(e)] = req_at_endpoint;
  for (std::size_t i = n; i-- > 0;) {
    const int u = order[i];
    const std::size_t su = static_cast<std::size_t>(u);
    for (int aid : out_[su]) {
      const Arc& a = arcs_[static_cast<std::size_t>(aid)];
      required[su] =
          std::min(required[su], required[static_cast<std::size_t>(a.to)] -
                                     arc_delay[static_cast<std::size_t>(aid)]);
    }
  }

  StaReport report;
  report.clock_period_s = req_at_endpoint;
  report.constrained = constrained;
  report.node_count = n;
  report.arc_count = arcs_.size();
  report.endpoint_count = endpoints.size();
  report.max_arrival_s = max_arrival;

  // Endpoints in canonical (slack, name) order; the slack rows and the
  // worst-path traces are both built from these sorted ids.
  std::sort(endpoints.begin(), endpoints.end(), [&](int a, int b) {
    const double sa = req_at_endpoint - arrival[static_cast<std::size_t>(a)];
    const double sb = req_at_endpoint - arrival[static_cast<std::size_t>(b)];
    if (sa != sb) return sa < sb;
    const std::string& na = nodes_[static_cast<std::size_t>(a)].name;
    const std::string& nb = nodes_[static_cast<std::size_t>(b)].name;
    if (na != nb) return na < nb;
    return a < b;
  });
  report.endpoints.reserve(endpoints.size());
  for (const int e : endpoints) {
    const std::size_t se = static_cast<std::size_t>(e);
    EndpointSlack row;
    row.name = nodes_[se].name;
    row.arrival_s = arrival[se];
    row.slew_s = slew[se];
    row.required_s = req_at_endpoint;
    row.slack_s = req_at_endpoint - arrival[se];
    report.endpoints.push_back(std::move(row));
  }

  report.wns_s = report.endpoints.front().slack_s;
  for (const EndpointSlack& row : report.endpoints)
    if (row.slack_s < 0) report.tns_s += row.slack_s;

  // K worst paths: trace the predecessor chain of the K worst endpoints.
  const std::size_t k = std::min<std::size_t>(
      options.k_paths < 0 ? 0 : static_cast<std::size_t>(options.k_paths),
      report.endpoints.size());
  report.worst_paths.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const EndpointSlack& row = report.endpoints[i];
    CriticalPath& path = report.worst_paths[i];
    path.endpoint = row.name;
    path.arrival_s = row.arrival_s;
    path.required_s = row.required_s;
    path.slack_s = row.slack_s;
    // Walk the predecessor chain back to the launch node, then reverse
    // into source-to-endpoint order.
    std::vector<PathStep> rev;
    int u = endpoints[i];
    while (true) {
      const std::size_t su = static_cast<std::size_t>(u);
      PathStep step;
      step.node = nodes_[su].name;
      step.arrival_s = arrival[su];
      if (pred[su] < 0) {
        rev.push_back(std::move(step));
        break;
      }
      const Arc& a = arcs_[static_cast<std::size_t>(pred[su])];
      step.tag = a.tag;
      step.incr_s = arc_delay[static_cast<std::size_t>(pred[su])];
      rev.push_back(std::move(step));
      u = a.from;
    }
    path.steps.assign(rev.rbegin(), rev.rend());
  }

  return report;
}

std::string StaReport::render(std::size_t max_rows) const {
  std::string s;
  s += strfmt("STA: %zu nodes, %zu arcs, %zu endpoints\n", node_count,
              arc_count, endpoint_count);
  s += strfmt("  %s clock %.4f ns | WNS %+.4f ns | TNS %+.4f ns | "
              "max arrival %.4f ns\n",
              constrained ? "constrained:" : "unconstrained:",
              clock_period_s * 1e9, wns_s * 1e9, tns_s * 1e9,
              max_arrival_s * 1e9);
  const std::size_t rows = std::min(max_rows, endpoints.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const EndpointSlack& row = endpoints[i];
    s += strfmt("  %-28s arrival %8.4f ns  slew %7.4f ns  slack %+8.4f ns\n",
                row.name.c_str(), row.arrival_s * 1e9, row.slew_s * 1e9,
                row.slack_s * 1e9);
  }
  if (endpoints.size() > rows)
    s += strfmt("  ... %zu more endpoints\n", endpoints.size() - rows);
  for (const CriticalPath& path : worst_paths) {
    s += strfmt("  path to %s (slack %+.4f ns):\n", path.endpoint.c_str(),
                path.slack_s * 1e9);
    for (const PathStep& step : path.steps)
      s += strfmt("    %10.4f ns  +%8.4f ns  %-24s %s\n",
                  step.arrival_s * 1e9, step.incr_s * 1e9, step.node.c_str(),
                  step.tag.c_str());
  }
  return s;
}

}  // namespace bisram::sta
