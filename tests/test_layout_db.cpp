// Tests for the shared spatial layout database (geom/layout_db.hpp):
// the TileIndex bucketing/query contracts (each id once, ids_in
// ascending), the flatten-order (against the test-side flatten oracle),
// flatten guards, thread-count invariance and provenance guarantees of
// LayoutDB, and the derived geometry queries (areas, bbox, transistor
// census).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/bisramgen.hpp"
#include "geom/layout_db.hpp"
#include "oracle_flatten.hpp"
#include "tech/tech.hpp"
#include "util/diag.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace bisram::geom {
namespace {

std::vector<Rect> lcg_rects(int n, std::uint64_t seed) {
  std::vector<Rect> rects;
  std::uint64_t s = seed;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<Coord>(s >> 40);
  };
  for (int i = 0; i < n; ++i) {
    const Coord x = next() % 1000, y = next() % 1000;
    rects.push_back(Rect::ltrb(x, y, x + 1 + next() % 120,
                               y + 1 + next() % 120));
  }
  return rects;
}

/// for_each_in on `w` against a brute-force scan of `rects`: every
/// intersecting id reported exactly once (in tile order, so the list is
/// checked unsorted for duplicates), and ids_in the same set ascending.
void expect_query(const TileIndex& idx, const std::vector<Rect>& rects,
                  const Rect& w, const std::string& tag) {
  std::vector<std::uint32_t> expect;
  for (std::uint32_t i = 0; i < rects.size(); ++i)
    if (rects[i].intersects(w)) expect.push_back(i);
  std::vector<std::uint32_t> seen;
  idx.for_each_in(w, [&](std::uint32_t id) { seen.push_back(id); });
  std::vector<std::uint32_t> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << tag << ": an id reported twice";
  ASSERT_EQ(sorted, expect) << tag;
  ASSERT_EQ(idx.ids_in(w), expect) << tag;
}

TEST(TileIndex, StraddlingRectLandsInEveryTileItTouches) {
  // One rect spanning a 3x2 block of 10-DBU tiles plus one single-tile
  // rect pinning the grid origin.
  const std::vector<Rect> rects = {Rect::ltrb(0, 0, 5, 5),
                                   Rect::ltrb(2, 2, 25, 15)};
  const TileIndex idx(rects, 10);
  int tiles_with_1 = 0;
  for (int ty = 0; ty < idx.tile_rows(); ++ty)
    for (int tx = 0; tx < idx.tile_cols(); ++tx)
      for (std::uint32_t id : idx.bucket(tx, ty))
        if (id == 1) ++tiles_with_1;
  EXPECT_EQ(tiles_with_1, 6);  // 3 columns x 2 rows
  // Queries dedup the straddler back to one visit.
  EXPECT_EQ(idx.ids_in(Rect::ltrb(0, 0, 30, 20)),
            (std::vector<std::uint32_t>{0, 1}));
}

TEST(TileIndex, QueriesMatchLinearScanInIdOrder) {
  const auto rects = lcg_rects(300, 5);
  const std::vector<Rect> windows = {
      Rect::ltrb(0, 0, 100, 100), Rect::ltrb(500, 200, 900, 800),
      Rect::ltrb(37, 411, 38, 412), Rect::ltrb(-50, -50, 2000, 2000)};
  // The id-order guarantee must hold for *any* tile size; that is what
  // makes every consumer's output independent of the tiling.
  for (Coord tile : {7, 64, 333, 5000}) {
    const TileIndex idx(rects, tile);
    for (const Rect& w : windows) {
      std::vector<std::uint32_t> expect;
      for (std::uint32_t i = 0; i < rects.size(); ++i)
        if (rects[i].intersects(w)) expect.push_back(i);
      EXPECT_EQ(idx.ids_in(w), expect) << "tile " << tile;
    }
  }
}

TEST(TileIndex, IndexesDegenerateRects) {
  // Zero-width rects (a gate-clamped diffusion split is one) must be
  // bucketed and findable like any other rect.
  const std::vector<Rect> rects = {Rect::ltrb(40, 0, 40, 30),
                                   Rect::ltrb(0, 0, 10, 10)};
  const TileIndex idx(rects, 16);
  EXPECT_EQ(idx.ids_in(Rect::ltrb(35, 5, 45, 6)),
            std::vector<std::uint32_t>{0});
}

TEST(TileIndex, EmptySet) {
  const std::vector<Rect> rects;
  const TileIndex idx(rects, 16);
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(idx.ids_in(Rect::ltrb(0, 0, 100, 100)).empty());
}

TEST(TileIndex, RectsExactlyOnTileBoundaries) {
  // Edges and corners landing exactly on tile-grid lines: each rect must
  // still be registered in every tile it touches (edge-touching counts),
  // and a boundary-line window must see all of them exactly once.
  const std::vector<Rect> rects = {
      Rect::ltrb(0, 0, 10, 10),     // exactly tile (0,0)
      Rect::ltrb(10, 0, 20, 10),    // shares the x=10 grid line
      Rect::ltrb(0, 10, 20, 20),    // shares the y=10 grid line, 2 tiles wide
      Rect::ltrb(10, 10, 10, 10),   // degenerate point on a grid corner
  };
  const TileIndex idx(rects, 10);
  // The x=10 line window touches every rect (edge contact included).
  EXPECT_EQ(idx.ids_in(Rect::ltrb(10, 0, 10, 20)),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
  // The grid-corner point window likewise.
  EXPECT_EQ(idx.ids_in(Rect::ltrb(10, 10, 10, 10)),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(TileIndex, WindowsStraddlingAndOutsideTheIndexBbox) {
  const auto rects = lcg_rects(50, 23);
  const TileIndex idx(rects, 32);
  const Rect b = idx.bounds();
  // Windows half inside / fully outside / surrounding the indexed bbox.
  const std::vector<Rect> windows = {
      Rect::ltrb(b.lo.x - 500, b.lo.y - 500, b.lo.x + 10, b.lo.y + 10),
      Rect::ltrb(b.hi.x - 10, b.hi.y - 10, b.hi.x + 500, b.hi.y + 500),
      Rect::ltrb(b.hi.x + 100, b.hi.y + 100, b.hi.x + 200, b.hi.y + 200),
      Rect::ltrb(b.lo.x - 100, b.lo.y - 100, b.hi.x + 100, b.hi.y + 100),
  };
  for (const Rect& w : windows) {
    std::vector<std::uint32_t> expect;
    for (std::uint32_t i = 0; i < rects.size(); ++i)
      if (rects[i].intersects(w)) expect.push_back(i);
    EXPECT_EQ(idx.ids_in(w), expect);
  }
  EXPECT_TRUE(idx.ids_in(windows[2]).empty());
}

TEST(TileIndex, PropertyQueryEqualsBruteForceWithDegenerates) {
  // Property sweep: a mixed set with zero-width, zero-height and point
  // rects must answer every window exactly like a brute-force scan, at
  // every tile size.
  std::vector<Rect> rects = lcg_rects(150, 77);
  std::uint64_t s = 99;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<Coord>(s >> 40);
  };
  for (int i = 0; i < 50; ++i) {
    const Coord x = next() % 1000, y = next() % 1000;
    switch (i % 3) {
      case 0: rects.push_back(Rect::ltrb(x, y, x, y + 20)); break;  // no width
      case 1: rects.push_back(Rect::ltrb(x, y, x + 20, y)); break;  // no height
      default: rects.push_back(Rect::ltrb(x, y, x, y)); break;      // point
    }
  }
  // Windows from a point up to dozens of tiles a side at the 9-DBU
  // tile, half of them degenerate, some reaching past the grid into the
  // clamped edge tiles.
  const auto window = [&](Coord lo, Coord span, Coord reach) {
    const Coord x = next() % span + lo, y = next() % span + lo;
    switch (next() % 4) {
      case 0: return Rect::ltrb(x, y, x, y + next() % reach);  // no width
      case 1: return Rect::ltrb(x, y, x, y);                   // point
      default: return Rect::ltrb(x, y, x + next() % reach, y + next() % reach);
    }
  };
  for (Coord tile : {9, 100, 4000}) {
    const TileIndex idx(rects, tile);
    for (int round = 0; round < 40; ++round) {
      expect_query(idx, rects, window(-100, 1200, 300),
                   strfmt("tile %lld round %d", static_cast<long long>(tile),
                          round));
      if (HasFatalFailure()) return;
    }
  }

  // The same property across seeded splices of a live index: removals,
  // insertions, ids shifting both ways, degenerate rects, rects far
  // outside the grid laid at construction, and the set emptied and
  // refilled. bounds() must stay the exact extent.
  const auto random_rect = [&] {
    const Coord x = next() % 5000 - 2000, y = next() % 5000 - 2000;
    switch (next() % 4) {
      case 0: return Rect::ltrb(x, y, x, y + next() % 40);  // no width
      case 1: return Rect::ltrb(x, y, x, y);                // point
      default:
        return Rect::ltrb(x, y, x + 1 + next() % 150, y + 1 + next() % 150);
    }
  };
  for (Coord tile : {9, 100, 4000}) {
    std::vector<Rect> live = rects;
    TileIndex idx(live, tile);
    for (int round = 0; round < 60; ++round) {
      const auto n = static_cast<std::uint32_t>(live.size());
      ShapeSplice sp;
      if (round == 20) {
        sp = {0, n, 0};  // empty the set ...
      } else if (round == 21) {
        sp = {0, 0, 30};  // ... and refill it
      } else {
        sp.begin = static_cast<std::uint32_t>(next() % (n + 1));
        sp.old_end = sp.begin + static_cast<std::uint32_t>(
                                    next() % (std::min<std::uint32_t>(
                                                  n - sp.begin, 25) + 1));
        sp.new_end = sp.begin + static_cast<std::uint32_t>(next() % 25);
      }
      const std::vector<Rect> old(live.begin() + sp.begin,
                                  live.begin() + sp.old_end);
      sp.resize_slots(live);
      for (std::uint32_t id = sp.begin; id < sp.new_end; ++id)
        live[id] = random_rect();
      idx.splice(sp, old);
      const std::string tag =
          "tile " + std::to_string(tile) + " splice " + std::to_string(round);
      ASSERT_EQ(idx.size(), live.size()) << tag;
      Rect extent{};
      for (std::size_t i = 0; i < live.size(); ++i)
        extent = i == 0 ? live[0]
                        : Rect{{std::min(extent.lo.x, live[i].lo.x),
                                std::min(extent.lo.y, live[i].lo.y)},
                               {std::max(extent.hi.x, live[i].hi.x),
                                std::max(extent.hi.y, live[i].hi.y)}};
      ASSERT_TRUE(idx.bounds() == extent) << tag;
      for (int q = 0; q < 12; ++q) {
        expect_query(idx, live, window(-2500, 6000, 1500),
                     strfmt("%s window %d", tag.c_str(), q));
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// Every bucket of `idx` against a fresh build over the same rects and
/// grid.
void expect_fresh_buckets(const TileIndex& idx,
                          const std::vector<Rect>& rects) {
  const TileIndex fresh(rects, idx.tile(), idx.grid());
  ASSERT_EQ(idx.size(), rects.size());
  ASSERT_EQ(idx.tile_cols(), fresh.tile_cols());
  ASSERT_EQ(idx.tile_rows(), fresh.tile_rows());
  EXPECT_TRUE(idx.bounds() == fresh.bounds());
  for (int ty = 0; ty < idx.tile_rows(); ++ty)
    for (int tx = 0; tx < idx.tile_cols(); ++tx)
      ASSERT_TRUE(std::ranges::equal(idx.bucket(tx, ty), fresh.bucket(tx, ty)))
          << "tile (" << tx << ", " << ty << ")";
}

/// Replaces live[begin, old_end) by `fresh` and splices `idx` to match.
void splice_live(std::vector<Rect>& live, TileIndex& idx, std::uint32_t begin,
                 std::uint32_t old_end, const std::vector<Rect>& fresh) {
  const ShapeSplice sp{begin, old_end,
                       begin + static_cast<std::uint32_t>(fresh.size())};
  const std::vector<Rect> old(live.begin() + begin, live.begin() + old_end);
  sp.resize_slots(live);
  std::copy(fresh.begin(), fresh.end(), live.begin() + begin);
  idx.splice(sp, old);
}

TEST(TileIndex, SplicesMatchAFreshBuildBucketForBucket) {
  // A 5 x 4 grid of 10-DBU tiles: corner pins (ids 0 and 22), one 4-DBU
  // square inside every tile (ids 1-20, row by row) and a straddler over
  // three columns and two rows (id 21).
  std::vector<Rect> live = {Rect::ltrb(0, 0, 1, 1)};
  for (Coord r = 0; r < 4; ++r)
    for (Coord c = 0; c < 5; ++c)
      live.push_back(Rect::xywh(10 * c + 3, 10 * r + 3, 4, 4));
  live.push_back(Rect::ltrb(8, 8, 22, 12));
  live.push_back(Rect::ltrb(48, 38, 49, 39));
  TileIndex idx(live, 10);
  ASSERT_EQ(idx.tile_cols(), 5);
  ASSERT_EQ(idx.tile_rows(), 4);
  expect_fresh_buckets(idx, live);

  {
    SCOPED_TRACE("every bucket keeps its size and every row its storage");
    std::vector<const std::uint32_t*> rows;
    for (int ty = 0; ty < idx.tile_rows(); ++ty)
      rows.push_back(idx.bucket(0, ty).data());
    splice_live(live, idx, 5, 8,
                {Rect::xywh(44, 4, 4, 4), Rect::xywh(4, 14, 4, 4),
                 Rect::xywh(14, 14, 4, 4)});
    expect_fresh_buckets(idx, live);
    for (int ty = 0; ty < idx.tile_rows(); ++ty)
      EXPECT_EQ(idx.bucket(0, ty).data(), rows[static_cast<std::size_t>(ty)])
          << "row " << ty << " moved to new storage";
  }
  {
    SCOPED_TRACE("buckets grow and shrink in two rows, ids shift by +1");
    // Row 2 column 1 loses its square; row 3 columns 1 and 2 gain one
    // each, and the ids past the splice move up by one in every row.
    splice_live(live, idx, 12, 13,
                {Rect::xywh(13, 33, 2, 2), Rect::xywh(23, 33, 2, 2)});
    expect_fresh_buckets(idx, live);
  }
  {
    SCOPED_TRACE("ids shift by -3");
    // Row 0 loses three squares; rows 1-3 only renumber.
    splice_live(live, idx, 2, 5, {});
    expect_fresh_buckets(idx, live);
  }
  {
    SCOPED_TRACE("a row keeps its sizes while its ids shift by +1");
    // Square 1 is nudged within its tile and a new square enters row 3:
    // row 0 keeps its sizes and its storage, the straddler's id in it
    // moving up by one like the ids of every other row.
    const std::uint32_t* row0 = idx.bucket(0, 0).data();
    splice_live(live, idx, 1, 2,
                {Rect::xywh(4, 4, 4, 4), Rect::xywh(43, 33, 2, 2)});
    expect_fresh_buckets(idx, live);
    EXPECT_EQ(idx.bucket(0, 0).data(), row0);
  }
  {
    SCOPED_TRACE("a rect moves into a clamped edge tile");
    const Rect far = Rect::xywh(200, 15, 4, 4);
    splice_live(live, idx, 6, 7, {far});
    expect_fresh_buckets(idx, live);
    const auto edge = idx.bucket(idx.tile_cols() - 1, 1);
    EXPECT_TRUE(std::find(edge.begin(), edge.end(), 6u) != edge.end());
    EXPECT_EQ(idx.ids_in(far), std::vector<std::uint32_t>{6});
    EXPECT_EQ(idx.bounds().hi.x, far.hi.x);
  }
}

TEST(LayoutDB, EmptyLayerQueriesAreEmpty) {
  Library lib;
  auto c = lib.create("one_layer");
  c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 10, 10));
  const LayoutDB db(*c);
  EXPECT_TRUE(db.rects(Layer::Metal3).empty());
  EXPECT_TRUE(db.path_ids(Layer::Metal3).empty());
  EXPECT_TRUE(db.index(Layer::Metal3).empty());
  EXPECT_TRUE(db.index(Layer::Metal3).ids_in(Rect::ltrb(0, 0, 100, 100))
                  .empty());
  EXPECT_TRUE(db.layer_bbox(Layer::Metal3).empty());
  int calls = 0;
  db.for_each_in(Layer::Metal3, Rect::ltrb(-1000, -1000, 1000, 1000),
                 [&](std::uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(LayoutDB, FlattenRefusesPathologicallyDeepHierarchies) {
  // A linear chain one deeper than the guard. The bounded-recursion
  // contract: a stable DiagError instead of a stack overflow.
  Library lib;
  auto cur = lib.create("chain0");
  cur->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2, 2));
  for (int i = 1; i <= kMaxFlattenDepth + 1; ++i) {
    auto next = lib.create("chain" + std::to_string(i));
    next->add_instance("c", cur, Transform::translate(1, 1));
    cur = next;
  }
  try {
    const LayoutDB db(*cur);
    FAIL() << "expected DiagError";
  } catch (const DiagError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, "layout-flatten-too-deep");
  }
}

TEST(LayoutDB, FlattenRefusesSelfReferentialHierarchies) {
  // A cell instantiating itself recurses forever without the guard; the
  // depth cap turns it into the same stable refusal. The self-instance
  // holds a non-owning aliasing pointer: an owning one would be a
  // shared_ptr cycle that keeps the cell alive past the library.
  Library lib;
  auto c = lib.create("ouroboros");
  c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2, 2));
  c->add_instance("self", CellPtr(CellPtr(), c.get()),
                  Transform::translate(4, 4));
  try {
    const LayoutDB db(*c);
    FAIL() << "expected DiagError";
  } catch (const DiagError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, "layout-flatten-too-deep");
  }
}

TEST(LayoutDB, FlattenRefusesTooManyInstancesBeforeAllocating) {
  // A 27-level chain in which every cell places the next one twice: 2^28
  // path nodes, four times the guard. The census counts them per master
  // before anything is allocated, so the refusal comes at once (a
  // flattener that grew its columns first would reach ~4 GB).
  Library lib;
  auto cur = lib.create("pair0");
  cur->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 2, 2));
  for (int i = 1; i <= 27; ++i) {
    auto next = lib.create(strfmt("pair%d", i));
    next->add_instance("a", cur, Transform{});
    next->add_instance("b", cur, Transform::translate(4, 0));
    cur = next;
  }
  try {
    const LayoutDB db(*cur);
    FAIL() << "expected DiagError";
  } catch (const DiagError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, "layout-flatten-too-many-instances");
  }
}

/// A 16-word slice of the Fig. 6 organisation (bpw 128, bpc 8, 4 spare
/// rows; 463,038 shapes): past the size from which the flatten fills
/// its columns on the pool.
const core::Generated& pooled_slice() {
  static const core::Generated* g = [] {
    core::RamSpec spec;
    spec.words = 16;
    spec.bpw = 128;
    spec.bpc = 8;
    spec.spare_rows = 4;
    spec.strap_interval = 32;
    spec.gate_size = 2.0;
    return new core::Generated(core::generate(spec));
  }();
  return *g;
}

/// Column by column: rects and path ids per layer, the path-node tree
/// and the content hash.
void expect_same_flatten(const LayoutDB& got, const LayoutDB& want,
                         const std::string& tag) {
  for (Layer l : all_layers()) {
    ASSERT_TRUE(got.rects(l) == want.rects(l)) << tag << " " << layer_name(l);
    ASSERT_TRUE(got.path_ids(l) == want.path_ids(l))
        << tag << " " << layer_name(l);
  }
  ASSERT_TRUE(got.path_parents() == want.path_parents()) << tag;
  ASSERT_TRUE(got.path_names() == want.path_names()) << tag;
  ASSERT_TRUE(got.path_locals() == want.path_locals()) << tag;
  ASSERT_TRUE(got.path_sub_ends() == want.path_sub_ends()) << tag;
  EXPECT_EQ(got.content_hash(), want.content_hash()) << tag;
}

/// Restores the campaign pool width on exit.
class PoolWidth {
 public:
  explicit PoolWidth(int n) : prev_(set_campaign_threads(n)) {}
  ~PoolWidth() { set_campaign_threads(prev_); }
  PoolWidth(const PoolWidth&) = delete;
  PoolWidth& operator=(const PoolWidth&) = delete;

 private:
  int prev_;
};

TEST(LayoutDB, FlattenIsThreadCountInvariant) {
  const Cell& top = *pooled_slice().top;
  const auto flatten_at = [&](int threads) {
    const PoolWidth width(threads);
    return std::make_unique<LayoutDB>(top, 720);
  };
  const auto serial = flatten_at(1);
  ASSERT_GT(serial->shape_count(), std::size_t{1} << 16);
  ASSERT_EQ(serial->shape_count(), top.flat_shape_count());
  for (int threads : {2, 8}) {
    expect_same_flatten(*flatten_at(threads), *serial,
                        strfmt("%d threads", threads));
    if (HasFatalFailure()) return;
  }
}

TEST(LayoutDB, PooledAddMatchesAFreshFlatten) {
  // A second copy of the whole array, added under the top cell past its
  // last instance: a subtree over the pooled line, filled straight into
  // the spliced columns.
  const Cell& top = *pooled_slice().top;
  const Instance* array = nullptr;
  for (const Instance& inst : top.instances())
    if (inst.name == "RAMARRAY") array = &inst;
  ASSERT_NE(array, nullptr);
  ASSERT_GT(array->cell->flat_shape_count(), std::size_t{1} << 16);
  const Transform placed = Transform::translate(0, top.bbox().height() + 100);

  LayoutDB db(top, 720);
  CellEdit add;
  add.kind = CellEdit::Kind::Add;
  add.name = "RAMARRAY_COPY";
  add.cell = array->cell;
  add.transform = placed;
  db.apply(add);

  Cell edited(top.name());
  for (const Shape& s : top.shapes()) edited.add_shape(s.layer, s.rect);
  for (const Port& p : top.ports()) edited.add_port(p.name, p.layer, p.rect);
  for (const Instance& inst : top.instances())
    edited.add_instance(inst.name, inst.cell, inst.transform);
  edited.add_instance(add.name, add.cell, placed);
  expect_same_flatten(db, LayoutDB(edited, 720), "add");
}

/// A two-level hierarchy with shapes at every level, for the flatten
/// and provenance tests.
struct Hier {
  Library lib;
  std::shared_ptr<Cell> grand, child, top;

  Hier() {
    grand = lib.create("grand");
    grand->add_shape(Layer::Poly, Rect::ltrb(0, 0, 4, 20));
    child = lib.create("child");
    child->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 30, 8));
    child->add_instance("g0", grand, Transform::translate(5, 0));
    child->add_instance("g1", grand, Transform::translate(15, 0));
    top = lib.create("hier_top");
    top->add_shape(Layer::Metal2, Rect::ltrb(0, 0, 100, 10));
    top->add_instance("u0", child, Transform::translate(0, 20));
    top->add_instance("u1", child, Transform::translate(50, 20));
    top->add_port("a", Layer::Metal2, Rect::ltrb(0, 0, 10, 10));
  }
};

TEST(LayoutDB, FlattenOrderMatchesFlattenByLayer) {
  const Hier h;
  const LayoutDB db(*h.top);
  const auto by_layer = oracle::flatten_by_layer(*h.top);
  std::size_t total = 0;
  for (std::size_t l = 0; l < by_layer.size(); ++l) {
    const auto layer = static_cast<Layer>(l);
    EXPECT_EQ(db.rects(layer), by_layer[l]) << layer_name(layer);
    total += by_layer[l].size();
  }
  EXPECT_EQ(db.shape_count(), total);
  EXPECT_EQ(db.shape_count(), h.top->flat_shape_count());
}

TEST(LayoutDB, ProvenanceNamesTheProducingInstance) {
  const Hier h;
  const LayoutDB db(*h.top);
  // Top-owned shapes carry the empty path.
  EXPECT_EQ(db.shape_path(Layer::Metal2, 0), "");
  // The child's own metal1, once per instance, in flatten order.
  ASSERT_EQ(db.path_ids(Layer::Metal1).size(), 2u);
  EXPECT_EQ(db.shape_path(Layer::Metal1, 0), "u0");
  EXPECT_EQ(db.shape_path(Layer::Metal1, 1), "u1");
  // The grandchild poly reports the full two-segment path.
  ASSERT_EQ(db.path_ids(Layer::Poly).size(), 4u);
  EXPECT_EQ(db.shape_path(Layer::Poly, 0), "u0/g0");
  EXPECT_EQ(db.shape_path(Layer::Poly, 1), "u0/g1");
  EXPECT_EQ(db.shape_path(Layer::Poly, 2), "u1/g0");
  EXPECT_EQ(db.shape_path(Layer::Poly, 3), "u1/g1");
  // One node per flattened instance plus the top: 2 children x (1 + 2).
  EXPECT_EQ(db.path_count(), 7u);
}

TEST(LayoutDB, CopiesTopPorts) {
  const Hier h;
  const LayoutDB db(*h.top);
  ASSERT_EQ(db.ports().size(), 1u);
  EXPECT_EQ(db.ports()[0].name, "a");
  EXPECT_EQ(db.ports()[0].rect, Rect::ltrb(0, 0, 10, 10));
}

TEST(LayoutDB, AreasAndBbox) {
  Library lib;
  auto c = lib.create("areas");
  c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 10, 10));
  c->add_shape(Layer::Metal1, Rect::ltrb(5, 0, 15, 10));  // overlaps by 50
  c->add_shape(Layer::Metal2, Rect::ltrb(100, 100, 110, 110));
  const LayoutDB db(*c);
  EXPECT_DOUBLE_EQ(db.layer_area(Layer::Metal1), 200.0);
  EXPECT_DOUBLE_EQ(db.layer_union_area(Layer::Metal1), 150.0);
  EXPECT_EQ(db.layer_bbox(Layer::Metal1), Rect::ltrb(0, 0, 15, 10));
  EXPECT_EQ(db.bbox(), Rect::ltrb(0, 0, 110, 110));
  EXPECT_DOUBLE_EQ(db.layer_area(Layer::Metal3), 0.0);
}

TEST(LayoutDB, TransistorCensusMatchesCellOnRealLeafCells) {
  Library lib;
  const tech::Tech& t = tech::cda_07();
  for (const CellPtr& cell :
       {cells::sram_cell_6t(lib, t), cells::precharge_cell(lib, t, 2),
        cells::column_mux_cell(lib, t, 2)}) {
    // Cell::transistor_census() itself runs through LayoutDB now; pin
    // the absolute counts so a regression in either path shows up.
    EXPECT_EQ(LayoutDB(*cell).transistor_census(),
              cell->transistor_census())
        << cell->name();
  }
  EXPECT_EQ(cells::sram_cell_6t(lib, t)->transistor_census(), 6u);
}

TEST(LayoutDB, PooledIndexBuildEqualsADirectBuild) {
  // 32 rows of 64 SRAM cells: past the size from which build_indexes
  // builds each layer on a pool worker (the CI TSan leg runs this at
  // pool widths 1, 2 and 8).
  Library lib;
  const tech::Tech& t = tech::cda_07();
  const CellPtr bit = cells::sram_cell_6t(lib, t);
  auto row = lib.create("row");
  for (int i = 0; i < 64; ++i)
    row->add_instance(strfmt("b%d", i), bit,
                      Transform::translate(i * bit->bbox().width(), 0));
  auto top = lib.create("array");
  for (int j = 0; j < 32; ++j)
    top->add_instance(strfmt("r%d", j), row,
                      Transform::translate(0, j * bit->bbox().height()));
  const LayoutDB db(*top, 360);
  ASSERT_GT(db.shape_count(), std::size_t{1} << 16);
  for (Layer l : all_layers()) {
    const TileIndex& idx = db.index(l);
    const TileIndex direct(db.rects(l), db.tile_size());
    ASSERT_EQ(idx.tile_cols(), direct.tile_cols());
    ASSERT_EQ(idx.tile_rows(), direct.tile_rows());
    for (int ty = 0; ty < idx.tile_rows(); ++ty)
      for (int tx = 0; tx < idx.tile_cols(); ++tx)
        ASSERT_TRUE(std::ranges::equal(idx.bucket(tx, ty),
                                       direct.bucket(tx, ty)))
            << "layer " << static_cast<int>(l) << " tile (" << tx << ", "
            << ty << ")";
  }
}

TEST(LayoutDB, QueriesAreTileSizeInvariant) {
  Library lib;
  const tech::Tech& t = tech::cda_07();
  const CellPtr cell = cells::sram_cell_6t(lib, t);
  const LayoutDB fine(*cell, 8);
  const LayoutDB coarse(*cell, 100000);
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    EXPECT_EQ(fine.rects(layer), coarse.rects(layer));
    const Rect w = fine.bbox();
    EXPECT_EQ(fine.index(layer).empty() ? std::vector<std::uint32_t>{}
                                        : fine.index(layer).ids_in(w),
              coarse.index(layer).empty() ? std::vector<std::uint32_t>{}
                                          : coarse.index(layer).ids_in(w));
  }
  EXPECT_EQ(fine.transistor_census(), coarse.transistor_census());
}

}  // namespace
}  // namespace bisram::geom
