#pragma once
// Macrocell place-and-route, following the paper's heuristics:
//
//  * blocks are placed in decreasing order of area;
//  * candidate positions keep the growing floorplan "as rectangular as
//    possible" (the squareness term of the cost);
//  * port alignment: when a block's ports connect to an already-placed
//    block, candidates that bring those ports face-to-face are generated
//    and wirelength-scored — this "avoids the long computation involved
//    in trying out all 64 pairs of orientations";
//  * stretching: a post-pass slides blocks along their abutment edge to
//    zero out remaining port misalignment when no overlap results;
//  * connections between non-abutting ports are routed over-the-cell in
//    metal3 rather than through channels wherever possible.
//
// A classic left-edge channel router is provided for the control-signal
// channel between the TRPLA and the datapath generators.

#include <string>
#include <vector>

#include "geom/cell.hpp"
#include "tech/tech.hpp"

namespace bisram::pnr {

using geom::CellPtr;
using geom::Coord;
using geom::Rect;
using geom::Transform;

/// One macro to place.
struct Block {
  std::string name;
  CellPtr cell;
};

/// A logical connection: pins are (block index, port name).
struct Net {
  std::string name;
  std::vector<std::pair<int, std::string>> pins;
};

struct FloorplanOptions {
  double squareness_weight = 1.0;
  double wirelength_weight = 1e-6;  ///< per-DBU; bbox term dominates
  Coord spacing = 0;                ///< margin inserted between blocks
};

struct Placement {
  int block = 0;
  Transform transform;
};

struct FloorplanResult {
  std::vector<Placement> placements;  ///< one per block, block order
  Rect bbox;
  double rectangularity = 0;  ///< sum(block areas) / bbox area, <= 1
  double wirelength_dbu = 0;  ///< HPWL over all nets
};

/// Places the blocks. Throws on empty input.
FloorplanResult floorplan(const std::vector<Block>& blocks,
                          const std::vector<Net>& nets,
                          const FloorplanOptions& options = {});

/// Total remaining port misalignment of `plan` in DBU: for every
/// connected pin pair whose block outlines abut (outline gap <=
/// abut_reach) side-by-side, the offset of the two port centres along
/// the shared edge. Zero means every abutting connection lines up.
double port_misalignment(const std::vector<Block>& blocks,
                         const std::vector<Net>& nets,
                         const FloorplanResult& plan,
                         Coord abut_reach = geom::dbu(16));

struct StretchStats {
  int moves = 0;  ///< block translations applied
  double misalignment_before_dbu = 0;
  double misalignment_after_dbu = 0;
};

/// The paper's stretching post-pass: slides blocks along their abutment
/// edge to zero out remaining port misalignment, applying a slide only
/// when it introduces no block overlap and strictly reduces the total
/// misalignment (which also bounds the pass). Opt-in — callers that
/// want the seed placement untouched simply skip it. Returns the
/// adjusted plan with bbox/rectangularity/wirelength recomputed.
FloorplanResult stretch(const std::vector<Block>& blocks,
                        const std::vector<Net>& nets,
                        const FloorplanResult& plan,
                        Coord abut_reach = geom::dbu(16),
                        StretchStats* stats = nullptr);

/// One over-the-cell metal3 wire of build_top's routing.
struct RouteWire {
  Rect rect;
  int net = 0;  ///< index into build_top's `nets`
};

/// Statistics from build_top's over-the-cell metal3 routing. The wires
/// are checked against the placed blocks' own metal3 (no route shape
/// counts) by a walk of the block hierarchy, not a flatten.
struct RouteStats {
  int routed_spans = 0;  ///< pin-to-pin spans given an L-route
  int via_stacks = 0;
  std::vector<RouteWire> wires;  ///< every route wire, in drawing order
  double m3_length_dbu = 0;  ///< centreline length of the route wires
  /// Route wires overlapping block-internal metal3 with positive area —
  /// true over-the-cell conflicts, one per (wire, block shape) pair.
  /// conflict_paths names each pair's instance path ("BLOCK/inst/...",
  /// as LayoutDB::path_name would), wire by wire and, within a wire, in
  /// flatten preorder.
  int m3_conflicts = 0;
  std::vector<std::string> conflict_paths;
  /// Pairs of route wires of different nets that overlap with positive
  /// area: metal3 crossings the router does not avoid yet.
  int net_crossings = 0;
};

/// Builds the placed top-level cell and routes every non-abutting net
/// with an L-shaped over-the-cell metal3 wire (via stacks at the pins).
/// When `stats` is non-null, the tallies are filled in and the wires
/// checked against block metal3 and each other. The check descends only
/// into instances whose metal3 extent (one per master per call) overlaps
/// a wire, so it costs what the hierarchy under the wires costs.
CellPtr build_top(geom::Library& lib, const tech::Tech& t,
                  const std::string& name, const std::vector<Block>& blocks,
                  const std::vector<Net>& nets, const FloorplanResult& plan,
                  RouteStats* stats = nullptr);

// --- channel routing ---------------------------------------------------------

/// A pin entering a routing channel at position x; `net` groups pins.
struct ChannelPin {
  Coord x = 0;
  int net = 0;
};

struct ChannelSegment {
  int net = 0;
  int track = 0;
  Coord x0 = 0, x1 = 0;
};

struct ChannelRoute {
  std::vector<ChannelSegment> segments;  ///< one horizontal trunk per net
  int tracks = 0;
};

/// Left-edge channel routing: each net gets one horizontal trunk spanning
/// its pins, packed greedily into tracks. The track count equals the
/// channel density for pin sets without vertical constraints.
ChannelRoute left_edge_route(const std::vector<ChannelPin>& pins);

}  // namespace bisram::pnr
