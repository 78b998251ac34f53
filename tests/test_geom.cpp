// Unit tests for the layout geometry kernel.

#include <gtest/gtest.h>

#include "geom/cell.hpp"
#include "geom/geometry.hpp"
#include "geom/layout_db.hpp"
#include "geom/writers.hpp"
#include "util/error.hpp"

namespace bisram::geom {
namespace {

TEST(Rect, Constructors) {
  const Rect r = Rect::ltrb(10, 20, 0, 5);
  EXPECT_EQ(r.lo.x, 0);
  EXPECT_EQ(r.lo.y, 5);
  EXPECT_EQ(r.hi.x, 10);
  EXPECT_EQ(r.hi.y, 20);
  EXPECT_EQ(r.width(), 10);
  EXPECT_EQ(r.height(), 15);
  EXPECT_DOUBLE_EQ(r.area(), 150.0);
  const Rect q = Rect::xywh(1, 2, 3, 4);
  EXPECT_EQ(q.hi.x, 4);
  EXPECT_EQ(q.hi.y, 6);
}

TEST(Rect, IntersectionAndUnion) {
  const Rect a = Rect::ltrb(0, 0, 10, 10);
  const Rect b = Rect::ltrb(5, 5, 15, 15);
  EXPECT_TRUE(a.overlaps(b));
  const Rect x = a.intersection(b);
  EXPECT_EQ(x, Rect::ltrb(5, 5, 10, 10));
  const Rect u = a.united(b);
  EXPECT_EQ(u, Rect::ltrb(0, 0, 15, 15));
  const Rect far = Rect::ltrb(20, 20, 30, 30);
  EXPECT_TRUE(a.intersection(far).empty());
  EXPECT_FALSE(a.overlaps(far));
}

TEST(Rect, TouchingIsNotOverlap) {
  const Rect a = Rect::ltrb(0, 0, 10, 10);
  const Rect b = Rect::ltrb(10, 0, 20, 10);
  EXPECT_TRUE(a.intersects(b));   // edges touch
  EXPECT_FALSE(a.overlaps(b));    // no interior overlap
}

TEST(Rect, Gap) {
  const Rect a = Rect::ltrb(0, 0, 10, 10);
  EXPECT_EQ(rect_gap(a, Rect::ltrb(13, 0, 20, 10)), 3);
  EXPECT_EQ(rect_gap(a, Rect::ltrb(0, 14, 10, 20)), 4);
  // Diagonal separation: governed by the larger axis gap.
  EXPECT_EQ(rect_gap(a, Rect::ltrb(12, 15, 20, 20)), 5);
  EXPECT_EQ(rect_gap(a, Rect::ltrb(5, 5, 8, 8)), 0);
}

TEST(Transform, AllOrientationsPreserveArea) {
  const Rect r = Rect::ltrb(1, 2, 5, 9);
  for (int i = 0; i < 8; ++i) {
    const Transform t(static_cast<Orient>(i), {100, 200});
    const Rect m = t.apply(r);
    EXPECT_DOUBLE_EQ(m.area(), r.area()) << orient_name(static_cast<Orient>(i));
  }
}

TEST(Transform, R90RotatesCCW) {
  const Transform t(Orient::R90, {0, 0});
  const Point p = t.apply(Point{1, 0});
  EXPECT_EQ(p.x, 0);
  EXPECT_EQ(p.y, 1);
}

TEST(Transform, MirrorX) {
  const Transform t(Orient::MX, {0, 0});
  const Point p = t.apply(Point{3, 4});
  EXPECT_EQ(p.x, 3);
  EXPECT_EQ(p.y, -4);
}

TEST(Transform, ComposeMatchesSequentialApplication) {
  const Transform outer(Orient::R90, {10, 0});
  const Transform inner(Orient::MX, {3, 4});
  const Transform both = outer.compose(inner);
  for (Coord x = -2; x <= 2; ++x) {
    for (Coord y = -2; y <= 2; ++y) {
      const Point p{x, y};
      const Point seq = outer.apply(inner.apply(p));
      const Point comp = both.apply(p);
      EXPECT_EQ(seq, comp);
    }
  }
}

TEST(Transform, ComposeIsClosedOverAllPairs) {
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      const Transform a(static_cast<Orient>(i), {1, 2});
      const Transform b(static_cast<Orient>(j), {3, 4});
      EXPECT_NO_THROW(a.compose(b));
    }
  }
}

TEST(Cell, BboxAndPorts) {
  Cell c("leaf");
  c.add_shape(Layer::Metal1, Rect::ltrb(0, 0, 10, 4));
  c.add_shape(Layer::Poly, Rect::ltrb(2, -3, 4, 8));
  c.add_port("a", Layer::Metal1, Rect::ltrb(0, 0, 2, 4));
  EXPECT_EQ(c.bbox(), Rect::ltrb(0, -3, 10, 8));
  EXPECT_EQ(c.port("a").layer, Layer::Metal1);
  EXPECT_FALSE(c.find_port("zz").has_value());
  EXPECT_THROW(c.port("zz"), Error);
}

TEST(Cell, HierarchicalFlatten) {
  auto leaf = std::make_shared<Cell>("leaf");
  leaf->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 4, 2));

  Cell top("top");
  top.add_instance("i0", leaf, Transform::translate(0, 0));
  top.add_instance("i1", leaf, Transform::translate(10, 0));
  top.add_instance("i2", leaf, Transform(Orient::R90, {30, 0}));

  EXPECT_EQ(top.flat_shape_count(), 3u);
  const LayoutDB db(top);
  EXPECT_EQ(db.rects(Layer::Metal1).size(), 3u);  // every shape, on metal1
  // i2 rotated: rect (0,0,4,2) under R90 -> (-2,0,0,4) then +30 x.
  EXPECT_EQ(db.layer_bbox(Layer::Metal1), Rect::ltrb(0, 0, 30, 4));
  EXPECT_EQ(top.bbox(), db.bbox());
}

TEST(Cell, LayerAreaSumsFlattened) {
  auto leaf = std::make_shared<Cell>("leaf");
  leaf->add_shape(Layer::Metal2, Rect::ltrb(0, 0, 5, 2));
  Cell top("top");
  for (int i = 0; i < 4; ++i)
    top.add_instance("i" + std::to_string(i), leaf,
                     Transform::translate(i * 10, 0));
  const LayoutDB db(top);
  EXPECT_DOUBLE_EQ(db.layer_area(Layer::Metal2), 40.0);
  EXPECT_DOUBLE_EQ(db.layer_area(Layer::Metal1), 0.0);
}

TEST(Cell, TransistorCensusCountsGates) {
  Cell c("inv");
  // NMOS: poly crossing fully over ndiff.
  c.add_shape(Layer::NDiff, Rect::ltrb(0, 0, 10, 4));
  c.add_shape(Layer::Poly, Rect::ltrb(4, -2, 6, 6));
  // PMOS: poly crossing pdiff.
  c.add_shape(Layer::PDiff, Rect::ltrb(0, 10, 10, 16));
  c.add_shape(Layer::Poly, Rect::ltrb(4, 8, 6, 18));
  // A poly wire that merely touches diffusion edge-on is not a gate.
  c.add_shape(Layer::Poly, Rect::ltrb(0, 3, 2, 5));
  EXPECT_EQ(c.transistor_census(), 2u);
}

TEST(Cell, RejectsEmptyShapes) {
  Cell c("bad");
  EXPECT_THROW(c.add_shape(Layer::Metal1, Rect{}), Error);
}

TEST(Library, CreateAndLookup) {
  Library lib;
  auto c = lib.create("cell_a");
  c->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 1, 1));
  EXPECT_TRUE(lib.contains("cell_a"));
  EXPECT_EQ(lib.get("cell_a")->name(), "cell_a");
  EXPECT_THROW(lib.create("cell_a"), Error);
  EXPECT_THROW(lib.get("missing"), Error);
  EXPECT_EQ(lib.size(), 1u);
}

TEST(Writers, SvgContainsRects) {
  Cell c("top");
  c.add_shape(Layer::Metal1, Rect::ltrb(0, 0, 100, 50));
  c.add_shape(Layer::Poly, Rect::ltrb(10, 10, 20, 40));
  const std::string svg = to_svg(c, 200);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Writers, CifHasDefinitionsAndCalls) {
  auto leaf = std::make_shared<Cell>("leaf");
  leaf->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 4, 2));
  Cell top("top");
  top.add_instance("i0", leaf, Transform::translate(10, 20));
  const std::string cif = to_cif(top, 350.0);
  EXPECT_NE(cif.find("DS 1"), std::string::npos);  // leaf defined first
  EXPECT_NE(cif.find("DS 2"), std::string::npos);
  EXPECT_NE(cif.find("L CMF;"), std::string::npos);
  EXPECT_NE(cif.find("C 1"), std::string::npos);  // instance call
  EXPECT_NE(cif.find("E\n"), std::string::npos);
}

TEST(Layers, NamesAndPredicates) {
  EXPECT_EQ(layer_name(Layer::Metal1), "metal1");
  EXPECT_EQ(layer_cif_code(Layer::Poly), "CPG");
  EXPECT_TRUE(is_conducting(Layer::Metal3));
  EXPECT_FALSE(is_conducting(Layer::NWell));
  EXPECT_TRUE(is_via(Layer::Contact));
  EXPECT_FALSE(is_via(Layer::Metal2));
}

TEST(Coords, DbuRoundTrip) {
  EXPECT_EQ(dbu(3.0), 30);
  EXPECT_EQ(dbu(1.5), 15);
  EXPECT_DOUBLE_EQ(to_lambda(dbu(2.5)), 2.5);
}

}  // namespace
}  // namespace bisram::geom
