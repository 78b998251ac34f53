// Round-trip and mutation tests: CIF write/read, SPICE-deck write/read,
// and DRC mutation checks (inject known violations into a clean cell and
// confirm the checker reports exactly the planted rule class).

#include <gtest/gtest.h>

#include <sstream>

#include "cells/leaf_cells.hpp"
#include "drc/drc.hpp"
#include "extract/spice_deck.hpp"
#include "geom/cif_reader.hpp"
#include "geom/layout_db.hpp"
#include "geom/writers.hpp"
#include "util/error.hpp"

namespace bisram {
namespace {

using geom::Layer;
using geom::Rect;

TEST(CifRoundTrip, HierarchyShapesAndTransformsSurvive) {
  auto leaf = std::make_shared<geom::Cell>("leaf");
  leaf->add_shape(Layer::Metal1, Rect::ltrb(0, 0, 40, 20));
  leaf->add_shape(Layer::Poly, Rect::ltrb(4, -6, 8, 26));

  geom::Cell top("top");
  top.add_instance("a", leaf, geom::Transform::translate(0, 0));
  top.add_instance("b", leaf, geom::Transform(geom::Orient::MX, {100, 60}));
  top.add_instance("c", leaf, geom::Transform(geom::Orient::R90, {-40, 10}));
  top.add_shape(Layer::Metal3, Rect::ltrb(-10, -10, 150, -2));

  const std::string cif = geom::to_cif(top, 350.0);
  const geom::CifDesign back = geom::read_cif_string(cif);
  ASSERT_NE(back.top, nullptr);
  EXPECT_DOUBLE_EQ(back.lambda_nm, 350.0);
  EXPECT_EQ(back.top->name(), "top");
  EXPECT_EQ(back.top->instances().size(), 3u);
  EXPECT_EQ(back.top->shapes().size(), 1u);
  EXPECT_EQ(back.top->bbox(), top.bbox());
  EXPECT_EQ(back.top->flat_shape_count(), top.flat_shape_count());
  // Per-layer flattened geometry identical.
  const geom::LayoutDB a(top);
  const geom::LayoutDB b(*back.top);
  for (Layer l : geom::all_layers()) {
    auto sa = a.rects(l);
    auto sb = b.rects(l);
    auto key = [](const Rect& r) {
      return std::make_tuple(r.lo.x, r.lo.y, r.hi.x, r.hi.y);
    };
    std::sort(sa.begin(), sa.end(),
              [&](const Rect& x, const Rect& y) { return key(x) < key(y); });
    std::sort(sb.begin(), sb.end(),
              [&](const Rect& x, const Rect& y) { return key(x) < key(y); });
    EXPECT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < std::min(sa.size(), sb.size()); ++i)
      EXPECT_EQ(sa[i], sb[i]);
  }
}

TEST(CifRoundTrip, GeneratedSramCellSurvives) {
  geom::Library lib;
  const auto& t = tech::cda_07();
  const auto cell = cells::sram_cell_6t(lib, t);
  geom::Cell wrapper("wrap");
  wrapper.add_instance("bit", cell, geom::Transform::translate(0, 0));
  const geom::CifDesign back =
      geom::read_cif_string(geom::to_cif(wrapper, t.lambda_um * 1000.0));
  EXPECT_EQ(back.top->flat_shape_count(), wrapper.flat_shape_count());
  // The re-imported geometry is still DRC-clean and extracts to 6 gates.
  EXPECT_TRUE(drc::check(*back.top, t).empty());
  EXPECT_EQ(back.top->transistor_census(), 6u);
}

TEST(CifRoundTrip, ReaderRejectsGarbage) {
  EXPECT_THROW(geom::read_cif_string("HELLO;"), SpecError);
  EXPECT_THROW(geom::read_cif_string("DS 1 35 100;\nB 1 2 3 4;\nDF;\nE\n"),
               SpecError);  // no top call
  EXPECT_THROW(geom::read_cif_string("C 5;\nE\n"), SpecError);  // undefined
}

TEST(SpiceDeck, SramCellDeckRoundTrips) {
  geom::Library lib;
  const auto& t = tech::cda_07();
  const auto cell = cells::sram_cell_6t(lib, t);
  const auto ex = extract::extract(*cell, t);
  const std::string deck = extract::to_spice_deck(ex, "sram6t", t);
  EXPECT_NE(deck.find(".subckt sram6t"), std::string::npos);
  EXPECT_NE(deck.find("NMOS"), std::string::npos);

  std::istringstream is(deck);
  const auto stats = extract::read_spice_deck(is);
  EXPECT_EQ(stats.name, "sram6t");
  EXPECT_EQ(stats.mosfets, 6);
  EXPECT_EQ(stats.nmos, 4);
  EXPECT_EQ(stats.pmos, 2);
  EXPECT_EQ(stats.terminals, 5);  // bl blb wl gnd vdd
  EXPECT_GT(stats.capacitors, 0);
  EXPECT_GT(stats.total_cap_f, 0.0);
  EXPECT_GT(stats.total_gate_width_um, 6 * 0.7);  // >= 6 gates of >=1 um
}

TEST(SpiceDeck, ReaderRejectsMalformedCards) {
  std::istringstream a("no subckt here");
  EXPECT_THROW(extract::read_spice_deck(a), SpecError);
  std::istringstream b(".subckt x a b\nM1 a b\n.ends\n");
  EXPECT_THROW(extract::read_spice_deck(b), SpecError);
  std::istringstream c(".subckt x a\nM1 a a a gnd FETMODEL W=1u L=1u\n.ends\n");
  EXPECT_THROW(extract::read_spice_deck(c), SpecError);
}

// --- DRC mutation tests -------------------------------------------------

geom::Cell clean_cell(const tech::Tech& t) {
  geom::Cell c("victim");
  c.add_shape(Layer::Metal1, Rect::ltrb(0, 0, geom::dbu(30), geom::dbu(3)));
  c.add_shape(Layer::Metal1,
              Rect::ltrb(0, geom::dbu(10), geom::dbu(30), geom::dbu(13)));
  (void)t;
  return c;
}

TEST(DrcMutation, CleanBaseline) {
  const auto& t = tech::cda_07();
  EXPECT_TRUE(drc::check(clean_cell(t), t).empty());
}

TEST(DrcMutation, PlantedMinWidthIsCaught) {
  const auto& t = tech::cda_07();
  auto c = clean_cell(t);
  c.add_shape(Layer::Metal1,
              Rect::ltrb(geom::dbu(40), 0, geom::dbu(41.5), geom::dbu(20)));
  const auto v = drc::check(c, t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, drc::RuleKind::MinWidth);
  EXPECT_EQ(v[0].layer, Layer::Metal1);
}

TEST(DrcMutation, PlantedMinSpaceIsCaught) {
  const auto& t = tech::cda_07();
  auto c = clean_cell(t);
  // 1 lambda under the metal1 spacing of 2.
  c.add_shape(Layer::Metal1,
              Rect::ltrb(0, geom::dbu(4), geom::dbu(30), geom::dbu(7)));
  const auto v = drc::check(c, t);
  ASSERT_GE(v.size(), 1u);
  for (const auto& viol : v) EXPECT_EQ(viol.kind, drc::RuleKind::MinSpace);
}

TEST(DrcMutation, PlantedNakedViaIsCaught) {
  const auto& t = tech::cda_07();
  auto c = clean_cell(t);
  // Via1 cut with no metal2 above it (metal1 landing exists).
  c.add_shape(Layer::Via1, Rect::ltrb(geom::dbu(10), geom::dbu(0.5),
                                      geom::dbu(12), geom::dbu(2.5)));
  const auto v = drc::check(c, t);
  ASSERT_GE(v.size(), 1u);
  EXPECT_EQ(v[0].kind, drc::RuleKind::ViaEnclosure);
}

TEST(DrcMutation, PlantedWellGapIsCaught) {
  const auto& t = tech::cda_07();
  auto c = clean_cell(t);
  // p-diffusion with no n-well at all.
  c.add_shape(Layer::PDiff, Rect::ltrb(geom::dbu(50), 0, geom::dbu(56),
                                       geom::dbu(6)));
  const auto v = drc::check(c, t);
  bool found = false;
  for (const auto& viol : v)
    if (viol.kind == drc::RuleKind::WellCoverage) found = true;
  EXPECT_TRUE(found);
}

TEST(DrcMutation, MaxViolationCapRespected) {
  const auto& t = tech::cda_07();
  geom::Cell c("noisy");
  // A comb of sub-minimum-width slivers.
  for (int i = 0; i < 50; ++i)
    c.add_shape(Layer::Metal1,
                Rect::ltrb(geom::dbu(i * 10.0), 0, geom::dbu(i * 10.0 + 1.0),
                           geom::dbu(20)));
  drc::DrcOptions opt;
  opt.max_violations = 10;
  EXPECT_EQ(drc::check(c, t, opt).size(), 10u);
}

}  // namespace
}  // namespace bisram
