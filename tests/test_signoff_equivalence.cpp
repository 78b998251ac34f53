// The refactor contract of the shared LayoutDB (geom/layout_db.hpp):
// signoff results — DRC violations, extracted netlists, LVS verdicts,
// written SVG/CIF bytes — are bit-identical whichever path produces
// them, for any worker-thread count and any tile size. DRC and
// extraction reports are pinned by digest at every BISRAM_THREADS
// value, and drc::check is cross-checked against the seed checker
// (check_reference below, the pre-LayoutDB scan kept here as an
// oracle) as a set, since the seed scan may report the same spacing
// pair more than once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/bisramgen.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "extract/lvs.hpp"
#include "geom/layout_db.hpp"
#include "geom/writers.hpp"
#include "oracle_flatten.hpp"
#include "scoped_env.hpp"

namespace bisram {
namespace {

using geom::Coord;
using geom::Layer;
using geom::Rect;

/// The README quickstart macro (16 Kb), kept small enough for tier-1
/// and the TSan leg.
core::RamSpec quickstart_spec() {
  core::RamSpec spec;
  spec.words = 1024;
  spec.bpw = 16;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.gate_size = 2.0;
  spec.strap_interval = 32;
  return spec;
}

/// The layout_export example module (4 Kb) — small enough to run the
/// quadratic reference checker against.
core::RamSpec small_spec() {
  core::RamSpec spec = quickstart_spec();
  spec.words = 64;
  spec.bpw = 8;
  spec.strap_interval = 16;
  return spec;
}

const core::Generated& small_macro() {
  static const core::Generated g = core::generate(small_spec());
  return g;
}

const core::Generated& quickstart_macro() {
  static const core::Generated g = core::generate(quickstart_spec());
  return g;
}

/// The small macro's deck with every min-width/min-space rule and the
/// contact, via1 and well enclosures raised by one lambda. All four
/// rule kinds then fire (80,948 violations), across many scan chunks
/// and far past the default max_violations.
tech::Tech raised_deck() {
  tech::Tech t = small_spec().resolved_technology();
  const Coord lambda = geom::dbu(1.0);
  for (tech::LayerRule& r : t.layer) {
    if (r.min_width > 0) r.min_width += lambda;
    if (r.min_space > 0) r.min_space += lambda;
  }
  t.contact_encl_diff += lambda;
  t.contact_encl_poly += lambda;
  t.contact_encl_m1 += lambda;
  t.via1_encl += lambda;
  t.well_encl_diff += lambda;
  return t;
}

drc::DrcOptions uncapped() {
  drc::DrcOptions opt;
  opt.max_violations = std::numeric_limits<std::size_t>::max();
  return opt;
}

// --- the seed checker, kept as the DRC oracle ---------------------------------
//
// The pre-LayoutDB serial checker: one private flatten per call, a
// spatial hash per layer, first-found violation order, no provenance
// and no cap. It reports geometry only (empty notes and paths); the
// tests compare it with drc::check as a set of geometric keys.

/// Spatial hash over rect lists so spacing checks stay near-linear.
class Buckets {
 public:
  Buckets(const std::vector<Rect>& rects, Coord cell_size)
      : rects_(rects), size_(std::max<Coord>(cell_size, 1)) {
    for (std::size_t i = 0; i < rects.size(); ++i) insert(i);
  }

  template <typename Fn>
  void neighbors(std::size_t i, Coord margin, Fn&& fn) const {
    const Rect r = rects_[i].expanded(margin);
    for (Coord gx = floor_div(r.lo.x); gx <= floor_div(r.hi.x); ++gx) {
      for (Coord gy = floor_div(r.lo.y); gy <= floor_div(r.hi.y); ++gy) {
        auto it = grid_.find(key(gx, gy));
        if (it == grid_.end()) continue;
        for (std::size_t j : it->second)
          if (j > i) fn(j);
      }
    }
  }

 private:
  Coord floor_div(Coord v) const {
    return v >= 0 ? v / size_ : -((-v + size_ - 1) / size_);
  }
  static std::uint64_t key(Coord x, Coord y) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) << 32) |
           static_cast<std::uint32_t>(y);
  }
  void insert(std::size_t i) {
    const Rect& r = rects_[i];
    for (Coord gx = floor_div(r.lo.x); gx <= floor_div(r.hi.x); ++gx)
      for (Coord gy = floor_div(r.lo.y); gy <= floor_div(r.hi.y); ++gy)
        grid_[key(gx, gy)].push_back(i);
  }

  const std::vector<Rect>& rects_;
  Coord size_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> grid_;
};

bool enclosed_by_any(const Rect& need, const std::vector<Rect>& candidates) {
  for (const Rect& c : candidates) {
    if (c.lo.x <= need.lo.x && c.lo.y <= need.lo.y && c.hi.x >= need.hi.x &&
        c.hi.y >= need.hi.y)
      return true;
  }
  return false;
}

std::vector<drc::Violation> check_reference(const geom::Cell& top,
                                            const tech::Tech& tech) {
  using drc::RuleKind;
  std::vector<drc::Violation> out;
  const auto by_layer = oracle::flatten_by_layer(top);
  auto layer_rects = [&](Layer l) -> const std::vector<Rect>& {
    return by_layer[static_cast<std::size_t>(l)];
  };
  auto flag = [&](RuleKind kind, Layer layer, const Rect& a, const Rect& b) {
    out.push_back({kind, layer, a, b, "", "", ""});
  };

  // --- width and spacing per layer ----------------------------------------
  for (Layer layer : geom::all_layers()) {
    const auto& rule = tech.rule(layer);
    const auto& rects = layer_rects(layer);
    if (rects.empty()) continue;

    if (rule.min_width > 0) {
      for (const Rect& r : rects)
        if (std::min(r.width(), r.height()) < rule.min_width)
          flag(RuleKind::MinWidth, layer, r, {});
    }

    if (rule.min_space > 0) {
      Buckets buckets(rects, rule.min_space * 8);
      std::vector<std::size_t> comp(rects.size());
      for (std::size_t i = 0; i < comp.size(); ++i) comp[i] = i;
      std::function<std::size_t(std::size_t)> find =
          [&](std::size_t x) -> std::size_t {
        while (comp[x] != x) {
          comp[x] = comp[comp[x]];
          x = comp[x];
        }
        return x;
      };
      for (std::size_t i = 0; i < rects.size(); ++i) {
        buckets.neighbors(i, 0, [&](std::size_t j) {
          if (rects[i].intersects(rects[j])) comp[find(i)] = find(j);
        });
      }
      for (std::size_t i = 0; i < rects.size(); ++i) {
        buckets.neighbors(i, rule.min_space, [&](std::size_t j) {
          if (find(i) == find(j)) return;  // same merged polygon
          const Rect& a = rects[i];
          const Rect& b = rects[j];
          if (geom::rect_gap(a, b) < rule.min_space)
            flag(RuleKind::MinSpace, layer, a, b);
        });
      }
    }
  }

  // --- via enclosures -------------------------------------------------------
  const struct {
    Layer via;
    std::vector<Layer> lower;
    Layer upper;
    Coord encl_lower;
    Coord encl_upper;
  } via_rules[] = {
      {Layer::Contact,
       {Layer::NDiff, Layer::PDiff, Layer::Poly},
       Layer::Metal1,
       std::min(tech.contact_encl_diff, tech.contact_encl_poly),
       tech.contact_encl_m1},
      {Layer::Via1, {Layer::Metal1}, Layer::Metal2, tech.via1_encl,
       tech.via1_encl},
      {Layer::Via2, {Layer::Metal2}, Layer::Metal3, tech.via2_encl,
       tech.via2_encl},
  };
  for (const auto& vr : via_rules) {
    for (const Rect& via : layer_rects(vr.via)) {
      bool landed = false;
      for (Layer lower : vr.lower)
        if (enclosed_by_any(via.expanded(vr.encl_lower), layer_rects(lower)))
          landed = true;
      if (!landed) flag(RuleKind::ViaEnclosure, vr.via, via, {});
      if (!enclosed_by_any(via.expanded(vr.encl_upper), layer_rects(vr.upper)))
        flag(RuleKind::ViaEnclosure, vr.via, via, {});
    }
  }

  // --- wells must enclose p-diffusion ---------------------------------------
  for (const Rect& pd : layer_rects(Layer::PDiff))
    if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                         layer_rects(Layer::NWell)))
      flag(RuleKind::WellCoverage, Layer::PDiff, pd, {});
  return out;
}

/// Geometry-only identity of a violation — the note and provenance are
/// formatting; the seed checker never filled paths.
using VioKey = std::tuple<int, int, Coord, Coord, Coord, Coord, Coord,
                          Coord, Coord, Coord>;

VioKey key_of(const drc::Violation& v) {
  return {static_cast<int>(v.kind), static_cast<int>(v.layer),
          v.a.lo.x,  v.a.lo.y,      v.a.hi.x,  v.a.hi.y,
          v.b.lo.x,  v.b.lo.y,      v.b.hi.x,  v.b.hi.y};
}

std::vector<VioKey> sorted_key_set(const std::vector<drc::Violation>& vios) {
  std::vector<VioKey> keys;
  for (const auto& v : vios) keys.push_back(key_of(v));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

void expect_identical(const std::vector<drc::Violation>& a,
                      const std::vector<drc::Violation>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(key_of(a[i]), key_of(b[i])) << what << " #" << i;
    EXPECT_EQ(a[i].note, b[i].note) << what << " #" << i;
    EXPECT_EQ(a[i].path_a, b[i].path_a) << what << " #" << i;
    EXPECT_EQ(a[i].path_b, b[i].path_b) << what << " #" << i;
  }
}

TEST(SignoffEquivalence, DrcMatchesSeedCheckerOnSmallMacro) {
  const auto& g = small_macro();
  // As sets: the seed scan can emit a MinSpace pair once per shared
  // hash bucket; drc::check reports each pair exactly once.
  for (const tech::Tech& t : {small_spec().resolved_technology(),
                              raised_deck()}) {
    const geom::LayoutDB db(*g.top, drc::tile_size_for(t));
    const auto found = drc::check(db, t, uncapped());
    EXPECT_EQ(sorted_key_set(found),
              sorted_key_set(check_reference(*g.top, t)))
        << found.size() << " violations";
  }
}

/// FNV-1a over everything a DRC report holds: the count and every
/// Violation field.
std::uint64_t digest(const std::vector<drc::Violation>& vios) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 0x100000001b3ull;
    }
  };
  auto mix_str = [&](const std::string& s) {
    const std::uint64_t n = s.size();
    mix(&n, sizeof n);
    mix(s.data(), s.size());
  };
  auto mix_rect = [&](const Rect& r) {
    mix(&r.lo.x, sizeof r.lo.x);
    mix(&r.lo.y, sizeof r.lo.y);
    mix(&r.hi.x, sizeof r.hi.x);
    mix(&r.hi.y, sizeof r.hi.y);
  };
  const std::uint64_t n = vios.size();
  mix(&n, sizeof n);
  for (const drc::Violation& v : vios) {
    const int kind = static_cast<int>(v.kind);
    const int layer = static_cast<int>(v.layer);
    mix(&kind, sizeof kind);
    mix(&layer, sizeof layer);
    mix_rect(v.a);
    mix_rect(v.b);
    mix_str(v.note);
    mix_str(v.path_a);
    mix_str(v.path_b);
  }
  return h;
}

TEST(SignoffEquivalence, DrcIsThreadCountInvariant) {
  // Digests pinned from the tiled checker this core replaced. The small
  // and quickstart macros are clean under their own decks (the digest
  // pins the empty report); the raised deck fires every rule kind on
  // tens of thousands of shapes, capped and uncapped.
  const tech::Tech small_t = small_spec().resolved_technology();
  const tech::Tech quick_t = quickstart_spec().resolved_technology();
  const tech::Tech raised_t = raised_deck();
  const geom::LayoutDB small_db(*small_macro().top,
                                drc::tile_size_for(small_t));
  const geom::LayoutDB quick_db(*quickstart_macro().top,
                                drc::tile_size_for(quick_t));
  const geom::LayoutDB raised_db(*small_macro().top,
                                 drc::tile_size_for(raised_t));
  const struct {
    const char* name;
    const geom::LayoutDB& db;
    const tech::Tech& t;
    drc::DrcOptions opt;
    std::uint64_t want;
  } cases[] = {
      {"small", small_db, small_t, {}, 0xa8c7f832281a39c5ull},
      {"quickstart", quick_db, quick_t, {}, 0xa8c7f832281a39c5ull},
      {"raised capped", raised_db, raised_t, {}, 0x7b49a36e925a1ce9ull},
      {"raised uncapped", raised_db, raised_t, uncapped(),
       0xf449a3d531b8a9cfull},
  };
  for (const char* threads : {"1", "2", "8"}) {
    const ScopedEnv env("BISRAM_THREADS", threads);
    for (const auto& c : cases) {
      const std::string tag =
          std::string(c.name) + " BISRAM_THREADS=" + threads;
      EXPECT_EQ(digest(drc::check(c.db, c.t, c.opt)), c.want) << tag;
      const drc::IncrementalDrc inc(c.db, c.t, c.opt);
      EXPECT_EQ(digest(inc.report()), c.want) << tag << " incremental";
    }
  }
}

TEST(SignoffEquivalence, DrcIsTileSizeInvariant) {
  const auto& g = small_macro();
  for (const tech::Tech& t : {small_spec().resolved_technology(),
                              raised_deck()}) {
    const geom::LayoutDB fine(*g.top, drc::tile_size_for(t) / 4);
    const geom::LayoutDB coarse(*g.top, drc::tile_size_for(t) * 4);
    expect_identical(drc::check(fine, t, uncapped()),
                     drc::check(coarse, t, uncapped()),
                     "fine vs coarse tiles");
  }
}

TEST(SignoffEquivalence, ExtractedNetlistIdenticalAcrossPathsAndTiles) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  const extract::Extracted via_cell = extract::extract(*g.top, t);
  const geom::LayoutDB coarse(*g.top, geom::LayoutDB::kDefaultTile * 8);
  const extract::Extracted via_db = extract::extract(coarse, t);
  ASSERT_EQ(via_cell.devices.size(), via_db.devices.size());
  for (std::size_t i = 0; i < via_cell.devices.size(); ++i) {
    const auto& a = via_cell.devices[i];
    const auto& b = via_db.devices[i];
    EXPECT_EQ(a.type, b.type) << i;
    EXPECT_EQ(a.gate, b.gate) << i;
    EXPECT_EQ(a.source, b.source) << i;
    EXPECT_EQ(a.drain, b.drain) << i;
    EXPECT_EQ(a.w_um, b.w_um) << i;  // bitwise
    EXPECT_EQ(a.l_um, b.l_um) << i;
    EXPECT_EQ(a.path, b.path) << i;
  }
  EXPECT_EQ(via_cell.net_count, via_db.net_count);
  EXPECT_EQ(via_cell.port_net, via_db.port_net);
  EXPECT_EQ(via_cell.net_cap_f, via_db.net_cap_f);  // bitwise
}

/// FNV-1a over everything an extraction of `db` reports: the net count,
/// every Device field (the path as its name), the port map and the
/// capacitance bits.
std::uint64_t digest(const extract::Extracted& ex, const geom::LayoutDB& db) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 0x100000001b3ull;
    }
  };
  auto mix_str = [&](const std::string& s) {
    const std::uint64_t n = s.size();
    mix(&n, sizeof n);
    mix(s.data(), s.size());
  };
  mix(&ex.net_count, sizeof ex.net_count);
  for (const extract::Device& d : ex.devices) {
    const int type = static_cast<int>(d.type);
    mix(&type, sizeof type);
    mix(&d.gate, sizeof d.gate);
    mix(&d.source, sizeof d.source);
    mix(&d.drain, sizeof d.drain);
    mix(&d.w_um, sizeof d.w_um);
    mix(&d.l_um, sizeof d.l_um);
    mix_str(db.path_name(d.path));
  }
  for (const auto& [name, net] : ex.port_net) {
    mix_str(name);
    mix(&net, sizeof net);
  }
  for (double c : ex.net_cap_f) mix(&c, sizeof c);
  return h;
}

TEST(SignoffEquivalence, ExtractIsThreadCountInvariant) {
  // Digests pinned from the serial extractor; the quickstart macro spans
  // several split and edge-discovery chunks, so the pooled path runs.
  const struct {
    const char* name;
    const core::Generated& g;
    tech::Tech t;
    std::uint64_t want;
  } cases[] = {
      {"small", small_macro(), small_spec().resolved_technology(),
       0xd5261ac249063b87ull},
      {"quickstart", quickstart_macro(),
       quickstart_spec().resolved_technology(), 0x73c628f84d36e8dcull},
  };
  for (const char* threads : {"1", "2", "8"}) {
    const ScopedEnv env("BISRAM_THREADS", threads);
    for (const auto& c : cases) {
      const std::string tag =
          std::string(c.name) + " BISRAM_THREADS=" + threads;
      const geom::LayoutDB db(*c.g.top, drc::tile_size_for(c.t));
      EXPECT_EQ(digest(extract::extract(db, c.t), db), c.want) << tag;
      const extract::IncrementalExtract inc(db, c.t);
      EXPECT_EQ(digest(inc.result(), db), c.want) << tag << " incremental";
    }
  }
}

TEST(SignoffEquivalence, LvsVerdictsStableAcrossTileSizes) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  const struct {
    geom::CellPtr cell;
    extract::Schematic golden;
  } entries[] = {
      {cells::sram_cell_6t(lib, t), extract::sram6t_schematic()},
      {cells::precharge_cell(lib, t, 2), extract::precharge_schematic()},
      {cells::column_mux_cell(lib, t, 2), extract::column_mux_schematic()},
  };
  for (const auto& e : entries) {
    for (Coord tile : {Coord{8}, geom::LayoutDB::kDefaultTile,
                       Coord{100000}}) {
      const geom::LayoutDB db(*e.cell, tile);
      const extract::LvsResult r =
          extract::compare(extract::extract(db, t), e.golden);
      EXPECT_TRUE(r.match)
          << e.cell->name() << " tile " << tile << ": " << r.detail;
    }
  }
}

TEST(SignoffEquivalence, SvgBytesIdenticalAcrossOverloads) {
  const auto& g = small_macro();
  std::ostringstream via_cell, via_db_fine, via_db_coarse;
  geom::write_svg(via_cell, *g.top, 1200);
  const geom::LayoutDB fine(*g.top, 64);
  const geom::LayoutDB coarse(*g.top, 1 << 20);
  geom::write_svg(via_db_fine, fine, 1200);
  geom::write_svg(via_db_coarse, coarse, 1200);
  EXPECT_EQ(via_cell.str(), via_db_fine.str());
  EXPECT_EQ(via_cell.str(), via_db_coarse.str());
}

TEST(SignoffEquivalence, CifBytesDeterministic) {
  const auto& g = small_macro();
  const tech::Tech& t = small_spec().resolved_technology();
  std::ostringstream first, again;
  geom::write_cif(first, *g.top, t.lambda_um * 1000.0);
  geom::write_cif(again, *g.top, t.lambda_um * 1000.0);
  EXPECT_EQ(first.str(), again.str());
  EXPECT_FALSE(first.str().empty());
}

}  // namespace
}  // namespace bisram
