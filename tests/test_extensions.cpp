// Tests for the extension utilities: rectangle-union area, spare
// allocation, cost break-even, and the extended march library.

#include <gtest/gtest.h>

#include "geom/cell.hpp"
#include "geom/layout_db.hpp"
#include "march/analysis.hpp"
#include "models/cost.hpp"
#include "models/yield.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bisram {
namespace {

using geom::Rect;

TEST(UnionArea, BasicCases) {
  EXPECT_DOUBLE_EQ(geom::union_area({}), 0.0);
  EXPECT_DOUBLE_EQ(geom::union_area({Rect::ltrb(0, 0, 10, 10)}), 100.0);
  // Disjoint.
  EXPECT_DOUBLE_EQ(
      geom::union_area({Rect::ltrb(0, 0, 10, 10), Rect::ltrb(20, 0, 30, 10)}),
      200.0);
  // Fully nested.
  EXPECT_DOUBLE_EQ(
      geom::union_area({Rect::ltrb(0, 0, 10, 10), Rect::ltrb(2, 2, 5, 5)}),
      100.0);
  // Half overlap.
  EXPECT_DOUBLE_EQ(
      geom::union_area({Rect::ltrb(0, 0, 10, 10), Rect::ltrb(5, 0, 15, 10)}),
      150.0);
  // Cross shape.
  EXPECT_DOUBLE_EQ(
      geom::union_area({Rect::ltrb(0, 4, 12, 8), Rect::ltrb(4, 0, 8, 12)}),
      12 * 4 + 4 * 12 - 4 * 4);
}

TEST(UnionArea, MatchesMonteCarloOnRandomSets) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Rect> rects;
    for (int i = 0; i < 25; ++i) {
      const geom::Coord x = static_cast<geom::Coord>(rng.below(80));
      const geom::Coord y = static_cast<geom::Coord>(rng.below(80));
      rects.push_back(Rect::xywh(x, y, 1 + static_cast<geom::Coord>(rng.below(30)),
                                 1 + static_cast<geom::Coord>(rng.below(30))));
    }
    const double exact = geom::union_area(rects);
    // Monte-Carlo estimate over the 120x120 arena.
    int hits = 0;
    const int samples = 200000;
    for (int s = 0; s < samples; ++s) {
      const double px = rng.uniform() * 120.0;
      const double py = rng.uniform() * 120.0;
      for (const Rect& r : rects) {
        if (px >= r.lo.x && px < r.hi.x && py >= r.lo.y && py < r.hi.y) {
          ++hits;
          break;
        }
      }
    }
    const double mc = 120.0 * 120.0 * hits / samples;
    EXPECT_NEAR(exact, mc, 0.05 * 120 * 120) << "trial " << trial;
  }
}

TEST(UnionArea, CellLayerUnionBelowRawSum) {
  geom::Cell c("overlapping");
  c.add_shape(geom::Layer::Metal1, Rect::ltrb(0, 0, 100, 30));
  c.add_shape(geom::Layer::Metal1, Rect::ltrb(50, 0, 150, 30));
  const geom::LayoutDB db(c);
  EXPECT_DOUBLE_EQ(db.layer_area(geom::Layer::Metal1), 100 * 30 + 100 * 30);
  EXPECT_DOUBLE_EQ(db.layer_union_area(geom::Layer::Metal1), 150 * 30);
}

TEST(SpareAllocation, PicksSmallestSufficientCount) {
  sim::RamGeometry g{4096, 4, 4, 0};
  // Mild defect pressure: four rows suffice.
  EXPECT_EQ(models::min_spare_rows_for_yield(g, 5.0, 2.0, 0.8), 4);
  // Heavier pressure: more rows needed (4-row yield falls below the
  // target while 8 or 16 still clear it).
  const double m_heavy = 25.0;
  const double y4 =
      models::bisr_yield({4096, 4, 4, 4}, m_heavy, 2.0, 1.05);
  const int heavy = models::min_spare_rows_for_yield(g, m_heavy, 2.0,
                                                     y4 + 0.05);
  EXPECT_GT(heavy, 4);
  // Impossible target.
  EXPECT_EQ(models::min_spare_rows_for_yield(g, 4000.0, 2.0, 0.9), -1);
  EXPECT_THROW(models::min_spare_rows_for_yield(g, 1.0, 2.0, 1.5), Error);
}

TEST(CostBreakeven, LowYieldChipsPayImmediately) {
  const auto ss = models::find_cpu("TI-SuperSPARC");
  ASSERT_TRUE(ss.has_value());
  const double d = models::breakeven_defect_density(*ss);
  // A 256 mm^2 die benefits from BISR at any realistic density.
  EXPECT_GE(d, 0.0);
  EXPECT_LT(d, 0.3);
}

TEST(CostBreakeven, UnsupportedChipsNeverPay) {
  const auto dx = models::find_cpu("Intel386DX");  // two metals, no BISR
  ASSERT_TRUE(dx.has_value());
  EXPECT_LT(models::breakeven_defect_density(*dx), 0.0);
}

TEST(MarchLibrary, ExtendedTestsParseWithTextbookLengths) {
  EXPECT_EQ(march::march_a().ops_per_address(), 15u);
  EXPECT_EQ(march::march_b().ops_per_address(), 17u);
  EXPECT_EQ(march::pmovi().ops_per_address(), 13u);
  EXPECT_EQ(march::march_lr().ops_per_address(), 14u);
}

TEST(MarchLibrary, ExtendedTestsAnalysisVerdicts) {
  // March B: SAF/TF/CFid per the textbook — and, as the textbook also
  // says, *not* all state-coupling faults (March C's niche).
  const auto b = march::analyze(march::march_b());
  EXPECT_TRUE(b.detects_saf);
  EXPECT_TRUE(b.detects_tf);
  EXPECT_TRUE(b.detects_cfid);
  EXPECT_FALSE(b.detects_cfst);
  // PMOVI's read-after-every-write catches stuck-open faults.
  const auto p = march::analyze(march::pmovi());
  EXPECT_TRUE(p.detects_saf);
  EXPECT_TRUE(p.detects_sof);
  // March LR covers the unlinked coupling set.
  const auto lr = march::analyze(march::march_lr());
  EXPECT_TRUE(lr.detects_saf);
  EXPECT_TRUE(lr.detects_cfst);
}

}  // namespace
}  // namespace bisram
