// Tests for the macrocell floorplanner, the stretching post-pass, the
// over-the-cell route check, and the left-edge channel router.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>

#include "core/compiler.hpp"
#include "geom/layout_db.hpp"
#include "oracle_flatten.hpp"
#include "pnr/floorplan.hpp"
#include "tech/tech.hpp"
#include "util/error.hpp"
#include "verify/signoff.hpp"

namespace bisram::pnr {
namespace {

using geom::Layer;
using geom::Rect;

CellPtr make_block(geom::Library& lib, const std::string& name, Coord w,
                   Coord h, Coord port_y = -1) {
  auto cell = lib.create(name);
  cell->add_shape(Layer::Metal1, Rect::ltrb(0, 0, w, h));
  if (port_y >= 0)
    cell->add_port("p", Layer::Metal1,
                   Rect::ltrb(w - 10, port_y, w, port_y + 10));
  return cell;
}

TEST(Floorplan, SingleBlock) {
  geom::Library lib;
  const std::vector<Block> blocks = {{"a", make_block(lib, "a", 100, 50)}};
  const auto plan = floorplan(blocks, {});
  EXPECT_EQ(plan.placements.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.rectangularity, 1.0);
}

TEST(Floorplan, NoOverlapsManyBlocks) {
  geom::Library lib;
  std::vector<Block> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back({"b" + std::to_string(i),
                      make_block(lib, "b" + std::to_string(i),
                                 100 + i * 37, 60 + (i * 53) % 90)});
  }
  const auto plan = floorplan(blocks, {});
  std::vector<Rect> outlines;
  for (const auto& p : plan.placements) {
    outlines.push_back(p.transform.apply(
        blocks[static_cast<std::size_t>(p.block)].cell->bbox()));
  }
  for (std::size_t i = 0; i < outlines.size(); ++i)
    for (std::size_t j = i + 1; j < outlines.size(); ++j)
      EXPECT_FALSE(outlines[i].overlaps(outlines[j])) << i << " vs " << j;
  EXPECT_GT(plan.rectangularity, 0.5);
}

TEST(Floorplan, KeepsResultRoughlySquare) {
  // Many equal blocks should tile into something much squarer than a
  // single row.
  geom::Library lib;
  std::vector<Block> blocks;
  for (int i = 0; i < 9; ++i)
    blocks.push_back({"s" + std::to_string(i),
                      make_block(lib, "s" + std::to_string(i), 100, 100)});
  const auto plan = floorplan(blocks, {});
  const double aspect = static_cast<double>(plan.bbox.width()) /
                        static_cast<double>(plan.bbox.height());
  EXPECT_GT(aspect, 1.0 / 3.0);
  EXPECT_LT(aspect, 3.0);
}

TEST(Floorplan, PortAlignmentPullsConnectedBlocksTogether) {
  geom::Library lib;
  auto a = lib.create("blk_a");
  a->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 200, 200));
  a->add_port("out", Layer::Metal1, Rect::ltrb(190, 120, 200, 140));
  auto b = lib.create("blk_b");
  b->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 100, 40));
  b->add_port("in", Layer::Metal1, Rect::ltrb(0, 10, 10, 30));

  const std::vector<Block> blocks = {{"a", a}, {"b", b}};
  const std::vector<Net> nets = {{"n", {{0, "out"}, {1, "in"}}}};
  FloorplanOptions opt;
  opt.wirelength_weight = 1e-2;  // make alignment matter
  const auto plan = floorplan(blocks, nets, opt);
  // b's port should land opposite a's port (y centres aligned).
  const Rect pa = plan.placements[0].transform.apply(a->port("out").rect);
  const Rect pb = plan.placements[1].transform.apply(b->port("in").rect);
  EXPECT_EQ(pa.center().y, pb.center().y);
  EXPECT_LE(std::abs(pb.lo.x - pa.hi.x), 10);
}

TEST(Floorplan, DecreasingAreaOrderIsUsed) {
  // The largest block anchors at the origin.
  geom::Library lib;
  const std::vector<Block> blocks = {
      {"small", make_block(lib, "small", 50, 50)},
      {"large", make_block(lib, "large", 300, 300)},
  };
  const auto plan = floorplan(blocks, {});
  const Rect large_outline = plan.placements[1].transform.apply(
      blocks[1].cell->bbox());
  EXPECT_EQ(large_outline.lo.x, 0);
  EXPECT_EQ(large_outline.lo.y, 0);
}

TEST(Floorplan, EmptyInputThrows) {
  EXPECT_THROW(floorplan({}, {}), Error);
}

TEST(BuildTop, RoutesNonAbuttingNetsOnMetal3) {
  geom::Library lib;
  const auto& t = tech::cda_07();
  // Ports on opposite outer edges, far beyond the abutment reach, so the
  // net must be routed over-the-cell.
  auto a = lib.create("blk_a");
  a->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2000, 2000));
  a->add_port("p", Layer::Metal1, Rect::ltrb(0, 900, 60, 960));
  auto b = lib.create("blk_b");
  b->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 800, 800));
  b->add_port("p", Layer::Metal1, Rect::ltrb(740, 100, 800, 160));
  const std::vector<Block> blocks = {{"a", a}, {"b", b}};
  const std::vector<Net> nets = {{"n", {{0, "p"}, {1, "p"}}}};
  const auto plan = floorplan(blocks, nets);
  const auto top = build_top(lib, t, "top", blocks, nets, plan);
  EXPECT_EQ(top->instances().size(), 2u);
  // Expect at least one metal3 shape (the over-the-cell route) and vias.
  double m3_area = 0;
  for (const auto& s : top->shapes())
    if (s.layer == Layer::Metal3) m3_area += s.rect.area();
  EXPECT_GT(m3_area, 0.0);
}

// --- over-the-cell route check ---------------------------------------------

/// The route check on a flat copy, as build_top once ran it: flatten the
/// placed blocks (the top's instances, none of its route shapes) into a
/// LayoutDB, then query its Metal3 index with each wire. build_top's
/// hierarchy walk must report the same count and the same paths in the
/// same order.
struct FlatRouteCheck {
  int m3_conflicts = 0;
  std::vector<std::string> conflict_paths;
};

FlatRouteCheck flat_route_check(const geom::Cell& top,
                                const RouteStats& stats) {
  geom::Cell blocks_only("blocks_only");
  for (const auto& inst : top.instances())
    blocks_only.add_instance(inst.name, inst.cell, inst.transform);
  const geom::LayoutDB db(blocks_only);
  const auto& m3 = db.rects(Layer::Metal3);
  FlatRouteCheck out;
  for (const RouteWire& w : stats.wires)
    db.for_each_in(Layer::Metal3, w.rect, [&](std::uint32_t id) {
      if (!w.rect.overlaps(m3[id])) return;
      ++out.m3_conflicts;
      out.conflict_paths.push_back(db.shape_path(Layer::Metal3, id));
    });
  return out;
}

void expect_matches_flat_check(const geom::Cell& top, const RouteStats& stats,
                               const std::string& what) {
  const FlatRouteCheck flat = flat_route_check(top, stats);
  EXPECT_EQ(stats.m3_conflicts, flat.m3_conflicts) << what;
  EXPECT_EQ(stats.conflict_paths, flat.conflict_paths) << what;
}

/// A block with one metal1 port on its boundary: `port` in the block's
/// own frame, the block a 400 x 400 DBU metal1 square.
CellPtr port_block(geom::Library& lib, const std::string& name,
                   const Rect& port) {
  auto cell = lib.create(name);
  cell->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 400, 400));
  cell->add_port("p", Layer::Metal1, port);
  return cell;
}

/// A leaf with two metal3 shapes placed asymmetrically, so each of the
/// eight orientations puts them somewhere else, over a metal1 plate the
/// check must ignore.
CellPtr m3_leaf(geom::Library& lib) {
  auto cell = lib.create("m3_leaf");
  cell->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 120, 90));
  cell->add_shape(Layer::Metal3, Rect::ltrb(0, 0, 40, 30));
  cell->add_shape(Layer::Metal3, Rect::ltrb(60, 45, 115, 85));
  return cell;
}

/// Eight leaves, one per orientation, plus a metal3 strap of the row's
/// own, so hits come from two hierarchy levels.
CellPtr m3_row(geom::Library& lib, const CellPtr& leaf) {
  auto cell = lib.create("m3_row");
  for (int o = 0; o < 8; ++o)
    cell->add_instance("leaf" + std::to_string(o), leaf,
                       geom::Transform(static_cast<geom::Orient>(o),
                                       {130 * o + 120, 120}));
  cell->add_shape(Layer::Metal3, Rect::ltrb(0, 240, 1100, 260));
  return cell;
}

/// Four rows in four orientations, plus a metal3 spine of the sheet's
/// own.
CellPtr m3_sheet(geom::Library& lib, const CellPtr& row) {
  auto cell = lib.create("m3_sheet");
  cell->add_shape(Layer::Metal3, Rect::ltrb(500, 0, 530, 1300));
  const geom::Orient orients[] = {geom::Orient::R0, geom::Orient::MX,
                                  geom::Orient::R180, geom::Orient::MY};
  for (int k = 0; k < 4; ++k)
    cell->add_instance("row" + std::to_string(k), row,
                       geom::Transform(orients[k], {k % 2 ? 1100 : 0,
                                                    300 * k + 150}));
  return cell;
}

/// An L-route from block SRC (port on its right edge) to block DST (port
/// on its bottom edge): taps at (460, 200) and (3200, 1540), so the
/// wires run along y = 200 from x 460 to 3200, then up x = 3200.
struct RouteFixture {
  geom::Library lib;
  std::vector<Block> blocks;
  std::vector<Net> nets;
  FloorplanResult plan;

  RouteFixture() {
    blocks = {{"SRC", port_block(lib, "src", Rect::ltrb(380, 180, 400, 220))},
              {"DST", port_block(lib, "dst", Rect::ltrb(180, 0, 220, 20))}};
    nets = {{"n", {{0, "p"}, {1, "p"}}}};
    plan.placements = {{0, geom::Transform::translate(0, 0)},
                       {1, geom::Transform::translate(3000, 1600)}};
  }
};

TEST(RouteCheck, LRouteHasTheDesignedWires) {
  RouteFixture f;
  RouteStats stats;
  build_top(f.lib, tech::cda_07(), "top", f.blocks, f.nets, f.plan, &stats);
  EXPECT_EQ(stats.routed_spans, 1);
  EXPECT_EQ(stats.via_stacks, 2);
  ASSERT_EQ(stats.wires.size(), 2u);
  EXPECT_EQ(stats.wires[0].rect, Rect::ltrb(435, 175, 3225, 225));
  EXPECT_EQ(stats.wires[1].rect, Rect::ltrb(3175, 175, 3225, 1565));
  EXPECT_EQ(stats.wires[0].net, 0);
  EXPECT_EQ(stats.wires[1].net, 0);
  EXPECT_EQ(stats.m3_conflicts, 0);
  // The two legs of one net overlap at the corner; that is no crossing.
  EXPECT_EQ(stats.net_crossings, 0);
}

TEST(RouteCheck, HierarchyWalkMatchesFlatCheckUnderEveryOrientation) {
  // Sweep a nested metal3 sheet (leaf -> row -> sheet, every level
  // carrying metal3, leaves in all 8 orientations) under the L-route in
  // all 8 orientations of its own and at 48 offsets around the corner.
  RouteFixture f;
  const CellPtr sheet = m3_sheet(f.lib, m3_row(f.lib, m3_leaf(f.lib)));
  f.blocks.push_back({"SHEET", sheet});
  f.plan.placements.push_back({2, geom::Transform{}});
  int placements = 0, fired = 0, conflicts = 0;
  int by_depth[3] = {0, 0, 0};  // hits on sheet, row and leaf shapes
  std::uint64_t lcg = 0x5eed;
  for (int o = 0; o < 8; ++o) {
    for (Coord dx : {2000, 2400, 2800, 3200, 3600, 4000}) {
      for (Coord dy : {-1200, -600, 0, 600, 1200, 1800, 2400, 5000}) {
        // A seeded jitter keeps the sheet off a lattice aligned with the
        // wires' edges.
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const Coord jx = static_cast<Coord>((lcg >> 33) % 97);
        const Coord jy = static_cast<Coord>((lcg >> 45) % 89);
        f.plan.placements[2].transform = geom::Transform(
            static_cast<geom::Orient>(o), {dx + jx, dy + jy});
        RouteStats stats;
        const auto top =
            build_top(f.lib, tech::cda_07(), "top" + std::to_string(placements),
                      f.blocks, f.nets, f.plan, &stats);
        const std::string what = "orient " + std::to_string(o) + " at (" +
                                 std::to_string(dx + jx) + ", " +
                                 std::to_string(dy + jy) + ")";
        expect_matches_flat_check(*top, stats, what);
        ++placements;
        if (stats.m3_conflicts > 0) ++fired;
        conflicts += stats.m3_conflicts;
        for (const auto& path : stats.conflict_paths) {
          EXPECT_EQ(path.rfind("SHEET", 0), 0u) << what << ": " << path;
          const auto depth = std::count(path.begin(), path.end(), '/');
          if (depth < 3) ++by_depth[depth];
        }
      }
    }
  }
  // The sweep exercises both outcomes, with several hits per firing
  // placement; the totals are pinned so both checks cannot drift
  // together.
  EXPECT_EQ(placements, 384);
  EXPECT_EQ(fired, 170);
  EXPECT_EQ(conflicts, 617);
  EXPECT_EQ(by_depth[0] + by_depth[1] + by_depth[2], conflicts);
  for (int d = 0; d < 3; ++d) EXPECT_GT(by_depth[d], 0) << "depth " << d;
}

TEST(RouteCheck, CountsCrossingsBetweenDistinctNetsOnly) {
  // A second net routed straight up x = 1500 (LO's port on its top edge,
  // HI's on its bottom edge, both taps on one vertical) crosses the
  // first net's horizontal leg once. A third net runs up x = 2300 and
  // stops at y = 175, where its wire only touches that leg's bottom
  // edge: no positive-area overlap, no crossing.
  RouteFixture f;
  const Rect top_port = Rect::ltrb(180, 380, 220, 400);
  const Rect bottom_port = Rect::ltrb(180, 0, 220, 20);
  f.blocks.push_back({"LO", port_block(f.lib, "lo", top_port)});
  f.blocks.push_back({"HI", port_block(f.lib, "hi", bottom_port)});
  f.blocks.push_back({"T1", port_block(f.lib, "t1", top_port)});
  f.blocks.push_back({"T2", port_block(f.lib, "t2", bottom_port)});
  f.nets.push_back({"up", {{2, "p"}, {3, "p"}}});
  f.nets.push_back({"touch", {{4, "p"}, {5, "p"}}});
  f.plan.placements.push_back({2, geom::Transform::translate(1300, -1200)});
  f.plan.placements.push_back({3, geom::Transform::translate(1300, 900)});
  f.plan.placements.push_back({4, geom::Transform::translate(2100, -1200)});
  f.plan.placements.push_back({5, geom::Transform::translate(2100, 210)});
  RouteStats stats;
  build_top(f.lib, tech::cda_07(), "top", f.blocks, f.nets, f.plan, &stats);
  ASSERT_EQ(stats.wires.size(), 4u);
  EXPECT_EQ(stats.wires[2].rect, Rect::ltrb(1475, -765, 1525, 865));
  EXPECT_EQ(stats.wires[2].net, 1);
  EXPECT_EQ(stats.wires[3].rect, Rect::ltrb(2275, -765, 2325, 175));
  EXPECT_EQ(stats.wires[3].net, 2);
  EXPECT_EQ(stats.net_crossings, 1);
  EXPECT_EQ(stats.m3_conflicts, 0);
}

/// Specs of the generated macros the route check is pinned on.
core::RamSpec small_spec() {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 8;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.gate_size = 2.0;
  spec.strap_interval = 16;
  return spec;
}

core::RamSpec quickstart_spec() {
  core::RamSpec spec = small_spec();
  spec.words = 1024;
  spec.bpw = 16;
  spec.strap_interval = 32;
  return spec;
}

/// The Fig. 6 organisation (bpw 128, bpc 8, 4 spare rows) at 128 words.
core::RamSpec fig6_slice_spec() {
  core::RamSpec spec;
  spec.words = 128;
  spec.bpw = 128;
  spec.bpc = 8;
  spec.spare_rows = 4;
  spec.strap_interval = 32;
  spec.gate_size = 2.0;
  spec.technology = "cda.7u3m1p";
  spec.max_passes = 2;
  return spec;
}

core::Assembled assemble(const core::RamSpec& spec) {
  core::Compiler session;
  return session.assemble(spec, session.resolve_tech(spec));
}

TEST(RouteCheck, GeneratedMacrosRouteClearOfBlockMetal3) {
  // README and Generated::route promise m3_conflicts == 0 on generated
  // macros. The distinct-net crossings are pinned as they stand: the
  // router does not avoid them yet (DESIGN.md §5a).
  const struct {
    const char* name;
    core::RamSpec spec;
    int net_crossings;
  } cases[] = {{"quickstart", quickstart_spec(), 8},
               {"fig6 128-word slice", fig6_slice_spec(), 5}};
  for (const auto& c : cases) {
    const core::Assembled a = assemble(c.spec);
    EXPECT_EQ(a.route.m3_conflicts, 0) << c.name;
    EXPECT_TRUE(a.route.conflict_paths.empty()) << c.name;
    EXPECT_GT(a.route.routed_spans, 0) << c.name;
    EXPECT_EQ(a.route.net_crossings, c.net_crossings) << c.name;
    expect_matches_flat_check(*a.top, a.route, c.name);
  }
}

TEST(RouteCheck, SignoffPublishesTheCountsOutsideItsVerdict) {
  verify::SignoffOptions opt;
  opt.run_drc = false;
  opt.run_erc_lvs = false;
  opt.run_timing = false;
  const verify::SignoffReport rep =
      verify::run_signoff(quickstart_spec(), opt);
  EXPECT_EQ(rep.m3_conflicts, 0);
  EXPECT_EQ(rep.net_crossings, 8);
  // Crossings are reported, not gated: the macro still signs off clean.
  EXPECT_TRUE(rep.clean());
  EXPECT_NE(rep.render().find("route: 0 block-metal3 conflict(s), 8 "
                              "distinct-net crossing(s)"),
            std::string::npos);
  EXPECT_NE(
      rep.json().find("\"route\":{\"m3_conflicts\":0,\"net_crossings\":8}"),
      std::string::npos);
}

TEST(CellQueries, BboxAndFlatShapeCountMatchTheFlattenOracle) {
  // Cell::bbox() and flat_shape_count() evaluate each master once; the
  // answers must equal a plain flatten's, for every cell of the library
  // (masters shared across levels included).
  for (const auto& spec : {small_spec(), quickstart_spec()}) {
    const core::Assembled a = assemble(spec);
    for (const CellPtr& cell : a.library->cells()) {
      const auto flat = oracle::flatten_by_layer(*cell);
      Rect box{};
      std::size_t count = 0;
      for (const auto& layer : flat) {
        for (const Rect& r : layer) box = box.united(r);
        count += layer.size();
      }
      EXPECT_EQ(cell->bbox(), box) << cell->name();
      EXPECT_EQ(cell->flat_shape_count(), count) << cell->name();
    }
  }
}

TEST(ChannelRouter, TrackCountEqualsDensity) {
  // Three nets: a:[0,100], b:[50,150], c:[120,200].
  // Density 2 (a and b overlap; b and c overlap; a and c do not).
  const std::vector<ChannelPin> pins = {
      {0, 1}, {100, 1}, {50, 2}, {150, 2}, {120, 3}, {200, 3},
  };
  const auto route = left_edge_route(pins);
  EXPECT_EQ(route.tracks, 2);
  ASSERT_EQ(route.segments.size(), 3u);
  // Net c reuses net a's track.
  int track_a = -1, track_c = -1;
  for (const auto& s : route.segments) {
    if (s.net == 1) track_a = s.track;
    if (s.net == 3) track_c = s.track;
  }
  EXPECT_EQ(track_a, track_c);
}

TEST(ChannelRouter, DisjointNetsShareOneTrack) {
  std::vector<ChannelPin> pins;
  for (int i = 0; i < 10; ++i) {
    pins.push_back({i * 100, i});
    pins.push_back({i * 100 + 50, i});
  }
  EXPECT_EQ(left_edge_route(pins).tracks, 1);
}

TEST(ChannelRouter, FullyOverlappingNetsEachGetATrack) {
  std::vector<ChannelPin> pins;
  for (int i = 0; i < 5; ++i) {
    pins.push_back({0 - i, i});
    pins.push_back({1000 + i, i});
  }
  EXPECT_EQ(left_edge_route(pins).tracks, 5);
}

TEST(ChannelRouter, SegmentsSpanTheirPins) {
  const std::vector<ChannelPin> pins = {{10, 7}, {300, 7}, {150, 7}};
  const auto route = left_edge_route(pins);
  ASSERT_EQ(route.segments.size(), 1u);
  EXPECT_EQ(route.segments[0].x0, 10);
  EXPECT_EQ(route.segments[0].x1, 300);
}

/// Channel density: the maximum number of net trunks crossing any x.
/// Trunk intervals are closed, matching the router's strict track-reuse
/// rule (a track frees up only strictly past its last occupant).
int channel_density(const std::vector<ChannelPin>& pins) {
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
  std::map<Coord, int> delta;  // +1 at lo, -1 just past hi
  for (const auto& [net, span] : spans) {
    ++delta[span.first];
    --delta[span.second + 1];
  }
  int depth = 0, density = 0;
  for (const auto& [x, d] : delta) density = std::max(density, depth += d);
  return density;
}

/// A reproducible jumble of net intervals (no global RNG state).
std::vector<ChannelPin> lcg_pins(int nets, std::uint64_t seed) {
  std::vector<ChannelPin> pins;
  std::uint64_t s = seed;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<Coord>(s >> 40);
  };
  for (int net = 0; net < nets; ++net) {
    const Coord lo = next() % 5000;
    pins.push_back({lo, net});
    pins.push_back({lo + 1 + next() % 900, net});
  }
  std::sort(pins.begin(), pins.end(),
            [](const ChannelPin& a, const ChannelPin& b) {
              return a.x < b.x;
            });
  return pins;
}

TEST(ChannelRouter, TrackCountEqualsDensityOnSortedPinSets) {
  // The left-edge algorithm is optimal for channels without vertical
  // constraints: track count == channel density, on any pin set.
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    const auto pins = lcg_pins(48, seed);
    EXPECT_EQ(left_edge_route(pins).tracks, channel_density(pins))
        << "seed " << seed;
  }
}

TEST(ChannelRouter, TrunksSharingATrackNeverOverlap) {
  // The negative case guarding the greedy packer: two trunks assigned to
  // the same track must be strictly disjoint, or the nets would short.
  const auto pins = lcg_pins(48, 7);
  const auto route = left_edge_route(pins);
  for (std::size_t i = 0; i < route.segments.size(); ++i) {
    for (std::size_t j = i + 1; j < route.segments.size(); ++j) {
      const auto& a = route.segments[i];
      const auto& b = route.segments[j];
      if (a.track != b.track) continue;
      EXPECT_TRUE(a.x1 < b.x0 || b.x1 < a.x0)
          << "nets " << a.net << " and " << b.net << " share track "
          << a.track << " with overlapping trunks";
    }
  }
}

// --- stretching post-pass ---------------------------------------------------

/// Two blocks abutting side by side with vertically misaligned ports,
/// hand-placed so the test controls the exact offset (110 DBU).
struct StretchFixture {
  geom::Library lib;
  std::vector<Block> blocks;
  std::vector<Net> nets;
  FloorplanResult plan;

  StretchFixture() {
    auto a = lib.create("sf_a");
    a->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 200, 200));
    a->add_port("out", Layer::Metal1, Rect::ltrb(190, 120, 200, 140));
    auto b = lib.create("sf_b");
    b->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 100, 40));
    b->add_port("in", Layer::Metal1, Rect::ltrb(0, 10, 10, 30));
    blocks = {{"a", a}, {"b", b}};
    nets = {{"n", {{0, "out"}, {1, "in"}}}};
    plan.placements = {{0, geom::Transform::translate(0, 0)},
                       {1, geom::Transform::translate(200, 0)}};
    plan.bbox = Rect::ltrb(0, 0, 300, 200);
  }
};

TEST(Stretch, DrivesPortMisalignmentToZero) {
  StretchFixture f;
  // a's port centre sits at y 130, b's at y 20: off by 110.
  EXPECT_DOUBLE_EQ(port_misalignment(f.blocks, f.nets, f.plan), 110.0);
  StretchStats stats;
  const auto stretched = stretch(f.blocks, f.nets, f.plan, geom::dbu(16),
                                 &stats);
  EXPECT_DOUBLE_EQ(stats.misalignment_before_dbu, 110.0);
  EXPECT_DOUBLE_EQ(stats.misalignment_after_dbu, 0.0);
  EXPECT_GE(stats.moves, 1);
  EXPECT_DOUBLE_EQ(port_misalignment(f.blocks, f.nets, stretched), 0.0);
  // The slid port pair actually lines up.
  const Rect pa = stretched.placements[0].transform.apply(
      f.blocks[0].cell->port("out").rect);
  const Rect pb = stretched.placements[1].transform.apply(
      f.blocks[1].cell->port("in").rect);
  EXPECT_EQ(pa.center().y, pb.center().y);
}

TEST(Stretch, RefusesSlidesThatWouldOverlap) {
  StretchFixture f;
  // A third block parked right where b would land if it slid up to
  // align: the pass must leave the misalignment rather than overlap.
  auto c = f.lib.create("sf_c");
  c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 100, 100));
  f.blocks.push_back({"c", c});
  f.plan.placements.push_back({2, geom::Transform::translate(200, 60)});
  StretchStats stats;
  const auto stretched = stretch(f.blocks, f.nets, f.plan, geom::dbu(16),
                                 &stats);
  EXPECT_EQ(stats.moves, 0);
  EXPECT_DOUBLE_EQ(stats.misalignment_after_dbu,
                   stats.misalignment_before_dbu);
  std::vector<Rect> outlines;
  for (const auto& p : stretched.placements)
    outlines.push_back(p.transform.apply(
        f.blocks[static_cast<std::size_t>(p.block)].cell->bbox()));
  for (std::size_t i = 0; i < outlines.size(); ++i)
    for (std::size_t j = i + 1; j < outlines.size(); ++j)
      EXPECT_FALSE(outlines[i].overlaps(outlines[j])) << i << " vs " << j;
}

TEST(Stretch, NeverIntroducesOverlapOnRealPlans) {
  // Stretch a genuine floorplanner result and re-check the floorplan
  // no-overlap invariant plus monotone misalignment.
  geom::Library lib;
  std::vector<Block> blocks;
  std::vector<Net> nets;
  for (int i = 0; i < 6; ++i) {
    auto cell = lib.create("rb" + std::to_string(i));
    const Coord w = 120 + i * 41, h = 70 + (i * 67) % 110;
    cell->add_shape(Layer::Metal1, Rect::ltrb(0, 0, w, h));
    cell->add_port("l", Layer::Metal1, Rect::ltrb(0, 10, 10, 30));
    cell->add_port("r", Layer::Metal1, Rect::ltrb(w - 10, h - 30, w, h - 10));
    blocks.push_back({"rb" + std::to_string(i), cell});
    if (i > 0)
      nets.push_back({"n" + std::to_string(i), {{i - 1, "r"}, {i, "l"}}});
  }
  const auto plan = floorplan(blocks, nets);
  StretchStats stats;
  const auto stretched = stretch(blocks, nets, plan, geom::dbu(16), &stats);
  EXPECT_LE(stats.misalignment_after_dbu, stats.misalignment_before_dbu);
  std::vector<Rect> outlines;
  for (const auto& p : stretched.placements)
    outlines.push_back(p.transform.apply(
        blocks[static_cast<std::size_t>(p.block)].cell->bbox()));
  for (std::size_t i = 0; i < outlines.size(); ++i)
    for (std::size_t j = i + 1; j < outlines.size(); ++j)
      EXPECT_FALSE(outlines[i].overlaps(outlines[j])) << i << " vs " << j;
}

}  // namespace
}  // namespace bisram::pnr
