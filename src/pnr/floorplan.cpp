#include "pnr/floorplan.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "util/error.hpp"

namespace bisram::pnr {

namespace {

/// Absolute rect of a block port under a placement.
Rect port_rect(const Block& block, const Transform& t,
               const std::string& port) {
  return t.apply(block.cell->port(port).rect);
}

/// Half-perimeter wirelength of one net under the current placements
/// (unplaced pins are skipped).
double net_hpwl(const Net& net, const std::vector<Block>& blocks,
                const std::map<int, Transform>& placed) {
  // Track min/max directly: pin centres are degenerate (zero-area)
  // rects, which Rect::united would treat as empty and drop.
  Coord min_x = 0, max_x = 0, min_y = 0, max_y = 0;
  bool any = false;
  for (const auto& [bi, port] : net.pins) {
    auto it = placed.find(bi);
    if (it == placed.end()) continue;
    const Rect r = port_rect(blocks[static_cast<std::size_t>(bi)], it->second,
                             port);
    const geom::Point c = r.center();
    if (!any) {
      min_x = max_x = c.x;
      min_y = max_y = c.y;
      any = true;
    } else {
      min_x = std::min(min_x, c.x);
      max_x = std::max(max_x, c.x);
      min_y = std::min(min_y, c.y);
      max_y = std::max(max_y, c.y);
    }
  }
  if (!any) return 0.0;
  return static_cast<double>((max_x - min_x) + (max_y - min_y));
}

double total_hpwl(const std::vector<Net>& nets,
                  const std::vector<Block>& blocks,
                  const std::map<int, Transform>& placed) {
  double sum = 0.0;
  for (const auto& net : nets) sum += net_hpwl(net, blocks, placed);
  return sum;
}

}  // namespace

FloorplanResult floorplan(const std::vector<Block>& blocks,
                          const std::vector<Net>& nets,
                          const FloorplanOptions& options) {
  require(!blocks.empty(), "floorplan: no blocks");

  // Each block's outline in its own frame, boxed once.
  std::vector<Rect> local_box;
  local_box.reserve(blocks.size());
  for (const auto& block : blocks) local_box.push_back(block.cell->bbox());

  // Decreasing-area order (the paper's first heuristic).
  std::vector<int> order(blocks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return local_box[static_cast<std::size_t>(a)].area() >
           local_box[static_cast<std::size_t>(b)].area();
  });

  std::map<int, Transform> placed;
  std::vector<Rect> outlines;
  Rect bbox{};

  auto overlaps_any = [&](const Rect& r) {
    for (const Rect& o : outlines)
      if (r.overlaps(o)) return true;
    return false;
  };

  for (std::size_t k = 0; k < order.size(); ++k) {
    const int bi = order[k];
    const Block& block = blocks[static_cast<std::size_t>(bi)];
    const Rect local = local_box[static_cast<std::size_t>(bi)];

    if (k == 0) {
      const Transform t = Transform::translate(-local.lo.x, -local.lo.y);
      placed[bi] = t;
      outlines.push_back(t.apply(local));
      bbox = outlines.back();
      continue;
    }

    // Candidate origins: to the right of and above the current bbox,
    // bottom- and left-aligned, plus port-aligned variants for every net
    // joining this block to a placed one.
    const Coord s = options.spacing;
    std::vector<geom::Point> candidates = {
        {bbox.hi.x + s - local.lo.x, bbox.lo.y - local.lo.y},
        {bbox.lo.x - local.lo.x, bbox.hi.y + s - local.lo.y},
        {bbox.hi.x + s - local.lo.x, bbox.hi.y - local.hi.y},
        {bbox.hi.x - local.hi.x, bbox.hi.y + s - local.lo.y},
    };
    for (const auto& net : nets) {
      for (const auto& [pa, porta] : net.pins) {
        if (pa != bi) continue;
        for (const auto& [pb, portb] : net.pins) {
          auto it = placed.find(pb);
          if (it == placed.end()) continue;
          const Rect target = port_rect(blocks[static_cast<std::size_t>(pb)],
                                        it->second, portb);
          const Rect mine = block.cell->port(porta).rect;
          // Right abutment with y alignment, and top abutment with x
          // alignment.
          candidates.push_back({bbox.hi.x + s - local.lo.x,
                                target.center().y - mine.center().y});
          candidates.push_back({target.center().x - mine.center().x,
                                bbox.hi.y + s - local.lo.y});
        }
      }
    }

    double best_cost = std::numeric_limits<double>::infinity();
    Transform best_t;
    Rect best_outline{};
    for (const auto& origin : candidates) {
      const Transform t = Transform::translate(origin.x, origin.y);
      const Rect outline = t.apply(local);
      if (overlaps_any(outline)) continue;
      const Rect nb = bbox.united(outline);
      const double w = static_cast<double>(nb.width());
      const double h = static_cast<double>(nb.height());
      const double squareness = std::max(w, h) / std::min(w, h) - 1.0;
      const double area_term = nb.area() / bbox.area() - 1.0;
      placed[bi] = t;
      const double wl = total_hpwl(nets, blocks, placed);
      placed.erase(bi);
      const double cost = options.squareness_weight * (squareness + area_term) +
                          options.wirelength_weight * wl;
      if (cost < best_cost) {
        best_cost = cost;
        best_t = t;
        best_outline = outline;
      }
    }
    ensure(best_cost < std::numeric_limits<double>::infinity(),
           "floorplan: no legal candidate for block " + block.name);
    placed[bi] = best_t;
    outlines.push_back(best_outline);
    bbox = bbox.united(best_outline);
  }

  FloorplanResult result;
  result.placements.reserve(blocks.size());
  double area_sum = 0.0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    result.placements.push_back({static_cast<int>(i),
                                 placed.at(static_cast<int>(i))});
    area_sum += local_box[i].area();
  }
  result.bbox = bbox;
  result.rectangularity = area_sum / bbox.area();
  result.wirelength_dbu = total_hpwl(nets, blocks, placed);
  return result;
}

namespace {

/// One abutting connected pin pair under a plan: blocks a and b sit
/// side by side (outline gap <= reach) and the net asks their ports to
/// line up along the shared edge.
struct AbutPair {
  int block_a = 0;
  int block_b = 0;
  bool slide_y = false;  ///< true: horizontal neighbors, align in y
  Coord offset = 0;      ///< port-centre offset along the edge (a - b)
};

/// Visits every abutting connected pin pair of `nets` under the given
/// outlines/placements, in net order then pin-pair order (deterministic).
template <typename Fn>
void for_each_abutting_pair(const std::vector<Block>& blocks,
                            const std::vector<Net>& nets,
                            const std::vector<Transform>& placements,
                            const std::vector<Rect>& outlines, Coord reach,
                            Fn&& fn) {
  for (const auto& net : nets) {
    for (std::size_t i = 0; i < net.pins.size(); ++i) {
      for (std::size_t j = i + 1; j < net.pins.size(); ++j) {
        const auto& [ba, porta] = net.pins[i];
        const auto& [bb, portb] = net.pins[j];
        if (ba == bb) continue;
        const Rect& oa = outlines[static_cast<std::size_t>(ba)];
        const Rect& ob = outlines[static_cast<std::size_t>(bb)];
        if (geom::rect_gap(oa, ob) > reach) continue;
        // Side-by-side when the outlines share a span on exactly one
        // axis; diagonal neighbors have no common edge to slide along.
        const bool share_y = oa.lo.y < ob.hi.y && ob.lo.y < oa.hi.y;
        const bool share_x = oa.lo.x < ob.hi.x && ob.lo.x < oa.hi.x;
        if (share_y == share_x) continue;
        const Rect ra = port_rect(blocks[static_cast<std::size_t>(ba)],
                                  placements[static_cast<std::size_t>(ba)],
                                  porta);
        const Rect rb = port_rect(blocks[static_cast<std::size_t>(bb)],
                                  placements[static_cast<std::size_t>(bb)],
                                  portb);
        AbutPair pair;
        pair.block_a = ba;
        pair.block_b = bb;
        pair.slide_y = share_y;  // horizontal neighbors slide vertically
        pair.offset = share_y ? ra.center().y - rb.center().y
                              : ra.center().x - rb.center().x;
        fn(pair);
      }
    }
  }
}

std::vector<Transform> placement_transforms(const FloorplanResult& plan,
                                            std::size_t nblocks) {
  std::vector<Transform> ts(nblocks);
  for (const auto& p : plan.placements)
    ts[static_cast<std::size_t>(p.block)] = p.transform;
  return ts;
}

std::vector<Rect> placement_outlines(const std::vector<Block>& blocks,
                                     const std::vector<Transform>& ts) {
  std::vector<Rect> outlines;
  outlines.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i)
    outlines.push_back(ts[i].apply(blocks[i].cell->bbox()));
  return outlines;
}

double misalignment_of(const std::vector<Block>& blocks,
                       const std::vector<Net>& nets,
                       const std::vector<Transform>& ts,
                       const std::vector<Rect>& outlines, Coord reach) {
  double sum = 0.0;
  for_each_abutting_pair(blocks, nets, ts, outlines, reach,
                         [&](const AbutPair& p) {
                           sum += static_cast<double>(
                               p.offset < 0 ? -p.offset : p.offset);
                         });
  return sum;
}

}  // namespace

double port_misalignment(const std::vector<Block>& blocks,
                         const std::vector<Net>& nets,
                         const FloorplanResult& plan, Coord abut_reach) {
  const auto ts = placement_transforms(plan, blocks.size());
  return misalignment_of(blocks, nets, ts, placement_outlines(blocks, ts),
                         abut_reach);
}

FloorplanResult stretch(const std::vector<Block>& blocks,
                        const std::vector<Net>& nets,
                        const FloorplanResult& plan, Coord abut_reach,
                        StretchStats* stats) {
  auto ts = placement_transforms(plan, blocks.size());
  auto outlines = placement_outlines(blocks, ts);

  StretchStats local;
  local.misalignment_before_dbu =
      misalignment_of(blocks, nets, ts, outlines, abut_reach);
  double current = local.misalignment_before_dbu;

  // Greedy passes: slide the pair's second block along the shared edge to
  // zero its offset, keeping a move only when no outlines overlap and the
  // total misalignment strictly drops (integer coordinates, so the strict
  // drop bounds the loop). Repeat until a pass applies nothing.
  bool changed = true;
  while (changed && current > 0.0) {
    changed = false;
    // Collect this pass's candidates first: applying a move invalidates
    // the outlines the visitor iterates over.
    std::vector<AbutPair> pairs;
    for_each_abutting_pair(blocks, nets, ts, outlines, abut_reach,
                           [&](const AbutPair& p) { pairs.push_back(p); });
    for (const AbutPair& p : pairs) {
      if (p.offset == 0) continue;
      const auto bi = static_cast<std::size_t>(p.block_b);
      const Coord dx = p.slide_y ? 0 : p.offset;
      const Coord dy = p.slide_y ? p.offset : 0;
      const Transform moved = Transform::translate(dx, dy).compose(ts[bi]);
      const Rect outline = moved.apply(blocks[bi].cell->bbox());
      bool collides = false;
      for (std::size_t o = 0; o < outlines.size(); ++o)
        if (o != bi && outline.overlaps(outlines[o])) collides = true;
      if (collides) continue;
      const Transform prev_t = ts[bi];
      const Rect prev_o = outlines[bi];
      ts[bi] = moved;
      outlines[bi] = outline;
      const double next =
          misalignment_of(blocks, nets, ts, outlines, abut_reach);
      if (next < current) {
        current = next;
        ++local.moves;
        changed = true;
      } else {
        ts[bi] = prev_t;
        outlines[bi] = prev_o;
      }
    }
  }

  FloorplanResult out;
  out.placements.reserve(blocks.size());
  Rect bbox{};
  double area_sum = 0.0;
  std::map<int, Transform> placed;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    out.placements.push_back({static_cast<int>(i), ts[i]});
    bbox = bbox.united(outlines[i]);
    area_sum += blocks[i].cell->bbox().area();
    placed[static_cast<int>(i)] = ts[i];
  }
  out.bbox = bbox;
  out.rectangularity = area_sum / bbox.area();
  out.wirelength_dbu = total_hpwl(nets, blocks, placed);

  local.misalignment_after_dbu = current;
  if (stats) *stats = local;
  return out;
}

namespace {

/// Draws a via stack from `layer` up to metal3 at the given point.
void via_stack_to_m3(geom::Cell& top, const tech::Tech& t, geom::Layer layer,
                     geom::Point at) {
  using geom::Layer;
  auto pad = [&](Layer l, Coord size) {
    top.add_shape(l, Rect::ltrb(at.x - size, at.y - size, at.x + size,
                                at.y + size));
  };
  const Coord cut1 = t.via1_size / 2;
  const Coord cut2 = t.via2_size / 2;
  const Coord pad1 = cut1 + t.via1_encl;
  const Coord pad2 = cut2 + t.via2_encl;
  if (layer == Layer::Poly) {
    const Coord cutc = t.contact_size / 2;
    pad(Layer::Poly, cutc + t.contact_encl_poly);
    pad(Layer::Contact, cutc);
    pad(Layer::Metal1, cutc + t.contact_encl_m1);
    layer = Layer::Metal1;
  }
  if (layer == Layer::Metal1) {
    pad(Layer::Metal1, pad1);
    pad(Layer::Via1, cut1);
    pad(Layer::Metal2, pad1);
    layer = Layer::Metal2;
  }
  if (layer == Layer::Metal2) {
    pad(Layer::Metal2, pad2);
    pad(Layer::Via2, cut2);
    // The metal3 landing must also satisfy metal3's (wide) minimum width.
    pad(Layer::Metal3,
        std::max(pad2, t.rule(Layer::Metal3).min_width / 2 + 1));
  }
}

/// Short straight wire on `layer` connecting a port point to the via
/// stack in the halo (minimum width of that layer).
void draw_bridge(geom::Cell& top, const tech::Tech& t, geom::Layer layer,
                 geom::Point a, geom::Point b) {
  const Coord w = t.rule(layer).min_width;
  top.add_shape(layer, Rect::ltrb(std::min(a.x, b.x) - w / 2,
                                  std::min(a.y, b.y) - w / 2,
                                  std::max(a.x, b.x) + w / 2,
                                  std::max(a.y, b.y) + w / 2));
}

/// Finds the block metal3 under one route wire in flatten preorder (a
/// cell's own shapes, then each instance's subtree in order), the order
/// a flat database would number the shapes in. It descends only into
/// instances whose metal3 extent overlaps the wire with positive area,
/// and builds an instance path only for a hit.
struct M3ConflictWalk {
  const Rect& wire;
  geom::MasterMemo<Rect>& m3_extent;
  RouteStats& stats;
  std::vector<const std::string*> path;

  void shapes(const geom::Cell& cell, const Transform& t) {
    for (const auto& s : cell.shapes()) {
      if (s.layer != geom::Layer::Metal3 || !wire.overlaps(t.apply(s.rect)))
        continue;
      std::string p;
      for (const std::string* seg : path) {
        if (!p.empty()) p += '/';
        p += *seg;
      }
      ++stats.m3_conflicts;
      stats.conflict_paths.push_back(std::move(p));
    }
  }

  void instances(const geom::Cell& cell, const Transform& t) {
    for (const auto& inst : cell.instances()) {
      const Rect& extent = m3_extent(*inst.cell);
      if (extent.empty()) continue;  // no metal3 below
      const Transform ct = t.compose(inst.transform);
      if (!wire.overlaps(ct.apply(extent))) continue;
      path.push_back(&inst.name);
      shapes(*inst.cell, ct);
      instances(*inst.cell, ct);
      path.pop_back();
    }
  }
};

}  // namespace

CellPtr build_top(geom::Library& lib, const tech::Tech& t,
                  const std::string& name, const std::vector<Block>& blocks,
                  const std::vector<Net>& nets, const FloorplanResult& plan,
                  RouteStats* stats) {
  auto top = lib.create(name);
  std::vector<Rect> outlines;
  for (const auto& p : plan.placements) {
    const auto& block = blocks[static_cast<std::size_t>(p.block)];
    top->add_instance(block.name, block.cell, p.transform);
    outlines.push_back(p.transform.apply(block.cell->bbox()));
  }

  if (stats) *stats = RouteStats{};

  const Coord w3 = t.rule(geom::Layer::Metal3).min_width;
  int net_ordinal = 0;
  for (std::size_t ni = 0; ni < nets.size(); ++ni) {
    const Net& net = nets[ni];
    if (net.pins.size() < 2) continue;
    // Stagger taps per net so two nets sharing a port (or adjacent ports)
    // do not drop their via stacks on top of each other.
    const Coord stagger = geom::dbu(8.0 * net_ordinal++);
    // Collect absolute pin rects and their owning block outlines.
    std::vector<std::tuple<Rect, geom::Layer, Rect>> pins;
    for (const auto& [bi, port] : net.pins) {
      const auto& block = blocks[static_cast<std::size_t>(bi)];
      const auto& pr = block.cell->port(port);
      pins.push_back(
          {plan.placements[static_cast<std::size_t>(bi)].transform.apply(
               pr.rect),
           pr.layer, outlines[static_cast<std::size_t>(bi)]});
    }
    // Pin tap: pick a point on the port (edge buses carry their first
    // wire 4 lambda from the corner), then push the via stack just
    // *outside* the block outline, into the floorplan halo, so the
    // stack's landing pads cannot collide with block-internal wiring. A
    // short port-layer bridge connects the port to the stack.
    const Coord four = geom::dbu(4);
    const Coord push = geom::dbu(6);
    auto tap = [&](const Rect& r, geom::Layer layer,
                   const Rect& outline) -> geom::Point {
      geom::Point on_port = r.center();
      if (r.width() > 4 * r.height())
        on_port = {std::min(r.lo.x + four + stagger, r.hi.x - four),
                   r.center().y};
      else if (r.height() > 4 * r.width())
        on_port = {r.center().x,
                   std::min(r.lo.y + four + stagger, r.hi.y - four)};
      // Outward direction: toward the nearest outline edge.
      const Coord d_left = on_port.x - outline.lo.x;
      const Coord d_right = outline.hi.x - on_port.x;
      const Coord d_bot = on_port.y - outline.lo.y;
      const Coord d_top = outline.hi.y - on_port.y;
      const Coord dmin = std::min({d_left, d_right, d_bot, d_top});
      geom::Point outside = on_port;
      if (dmin == d_left) outside.x = outline.lo.x - push;
      else if (dmin == d_right) outside.x = outline.hi.x + push;
      else if (dmin == d_bot) outside.y = outline.lo.y - push;
      else outside.y = outline.hi.y + push;
      // Bridge on the port's own layer from the port to the stack.
      draw_bridge(*top, t, layer, on_port, outside);
      return outside;
    };
    // Chain pins: route pin i to pin i+1 unless they abut (or face each
    // other across the floorplan halo, where a production tool would
    // stretch the blocks into contact — the paper's stretching
    // heuristic).
    const Coord abut_reach = geom::dbu(16);
    for (std::size_t i = 0; i + 1 < pins.size(); ++i) {
      const auto& [ra, la, oa] = pins[i];
      const auto& [rb, lbl, ob] = pins[i + 1];
      if (geom::rect_gap(ra, rb) <= abut_reach) continue;
      const geom::Point a = tap(ra, la, oa);
      const geom::Point b = tap(rb, lbl, ob);
      via_stack_to_m3(*top, t, la, a);
      via_stack_to_m3(*top, t, lbl, b);
      // L route on metal3 (over-the-cell).
      const geom::Point corner{b.x, a.y};
      auto add_wire = [&](geom::Point p0, geom::Point p1) {
        if (p0.x == p1.x && p0.y == p1.y) return;
        const Rect wire = Rect::ltrb(std::min(p0.x, p1.x) - w3 / 2,
                                     std::min(p0.y, p1.y) - w3 / 2,
                                     std::max(p0.x, p1.x) + w3 / 2,
                                     std::max(p0.y, p1.y) + w3 / 2);
        top->add_shape(geom::Layer::Metal3, wire);
        if (stats) {
          stats->m3_length_dbu += static_cast<double>(
              std::max(std::max(p0.x, p1.x) - std::min(p0.x, p1.x),
                       std::max(p0.y, p1.y) - std::min(p0.y, p1.y)));
          stats->wires.push_back({wire, static_cast<int>(ni)});
        }
      };
      add_wire(a, corner);
      add_wire(corner, b);
      if (stats) {
        ++stats->routed_spans;
        stats->via_stacks += 2;
      }
    }
  }

  if (stats) {
    // A route wire overlapping block-internal metal3 with positive area
    // is a genuine over-the-cell conflict. The walk starts at the block
    // instances, so the route's own shapes on `top` are never compared.
    geom::MasterMemo<Rect> m3_extent(
        [](const geom::Cell& c, geom::MasterMemo<Rect>& memo) {
          Rect e{};  // empty
          for (const auto& s : c.shapes())
            if (s.layer == geom::Layer::Metal3) e = e.united(s.rect);
          for (const auto& inst : c.instances())
            e = e.united(inst.transform.apply(memo(*inst.cell)));
          return e;
        });
    for (const RouteWire& w : stats->wires)
      M3ConflictWalk{w.rect, m3_extent, *stats, {}}.instances(*top, {});
    for (std::size_t i = 0; i < stats->wires.size(); ++i)
      for (std::size_t j = i + 1; j < stats->wires.size(); ++j)
        if (stats->wires[i].net != stats->wires[j].net &&
            stats->wires[i].rect.overlaps(stats->wires[j].rect))
          ++stats->net_crossings;
  }
  return top;
}

ChannelRoute left_edge_route(const std::vector<ChannelPin>& pins) {
  // Interval per net.
  std::map<int, std::pair<Coord, Coord>> spans;
  for (const auto& pin : pins) {
    auto it = spans.find(pin.net);
    if (it == spans.end()) {
      spans[pin.net] = {pin.x, pin.x};
    } else {
      it->second.first = std::min(it->second.first, pin.x);
      it->second.second = std::max(it->second.second, pin.x);
    }
  }
  struct Interval {
    int net;
    Coord lo, hi;
  };
  std::vector<Interval> intervals;
  for (const auto& [net, span] : spans)
    intervals.push_back({net, span.first, span.second});
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });

  ChannelRoute route;
  std::vector<Coord> track_end;  // rightmost occupied x per track
  for (const auto& iv : intervals) {
    int track = -1;
    for (std::size_t tr = 0; tr < track_end.size(); ++tr) {
      if (track_end[tr] < iv.lo) {
        track = static_cast<int>(tr);
        break;
      }
    }
    if (track < 0) {
      track = static_cast<int>(track_end.size());
      track_end.push_back(std::numeric_limits<Coord>::min());
    }
    track_end[static_cast<std::size_t>(track)] = iv.hi;
    route.segments.push_back({iv.net, track, iv.lo, iv.hi});
  }
  route.tracks = static_cast<int>(track_end.size());
  return route;
}

}  // namespace bisram::pnr
