#pragma once
// Extracted netlist -> timing graph. Recognizes channel-connected
// components (CCCs) in the transistor-level netlist the extractor
// produced from the LayoutDB, turns each CCC into gate-style timing arcs
// (every stage input to every stage output), and loads each net with the
// same parasitics the SPICE bridge (extract/simulate.hpp) gives the
// transient engine — so the STA and the reference simulator are solving
// the same circuit and tests can pin their agreement.
//
// Per-arc delay model: the minimum-resistance channel path from the
// output net to vdd (pull-up) and to gnd (pull-down) is found with
// Dijkstra over device on-resistances; the worse of the two paths is
// walked supply-to-output accumulating the Elmore sum (upstream R times
// node cap), and the result is scaled by ln 2 — the 50% crossing of a
// single-pole response — so the number is comparable to the engine's
// prop_delay measurements. Arc provenance is the instance path of the
// device the input gates (the extractor's LayoutDB path, same scheme DRC
// offenders carry).
//
// Feedback (cross-coupled latches: the 6T cell, the sense amp) would
// make the graph cyclic; like a production STA we break timing loops
// deterministically — arcs are added in canonical (net-id) order and an
// arc that would close a cycle is skipped and recorded in
// `broken_loops`.

#include <string>
#include <vector>

#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "sta/graph.hpp"

namespace bisram::sta {

/// A timing graph built from an extracted netlist.
struct NetlistGraph {
  TimingGraph graph;
  /// net id -> graph node id; -1 for supply nets (vdd/gnd), which carry
  /// no timing.
  std::vector<int> net_node;
  /// Provenance tags of arcs skipped to break feedback loops.
  std::vector<std::string> broken_loops;
  /// Channel-connected components found (diagnostic).
  int stage_count = 0;
};

/// Builds the timing graph for a cell extracted from `db`, which names
/// each arc's device. `inputs` port names become sources, `outputs`
/// become endpoints; both must exist in ex.port_net. Node names follow
/// extract::node_name ("gnd" is a supply, not a node).
NetlistGraph from_extracted(const extract::Extracted& ex,
                            const geom::LayoutDB& db, const tech::Tech& tech,
                            const std::vector<std::string>& inputs,
                            const std::vector<std::string>& outputs);

}  // namespace bisram::sta
