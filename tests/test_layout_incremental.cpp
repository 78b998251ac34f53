// Incremental LayoutDB maintenance and incremental signoff, proven
// against full-rebuild oracles: after every edit kind (Move, Remove,
// Replace, Add), across tile sizes and along a seeded 300-edit stream,
//
//   * LayoutDB::apply is bit-identical (shapes, ids, provenance,
//     content hash; along the stream also bounding boxes, every tile
//     bucket and indexed queries) to flattening edited_cell (below) from
//     scratch;
//   * drc::IncrementalDrc::report equals drc::check on the fresh
//     flatten;
//   * extract::IncrementalExtract::result equals extract::extract.
//
// The CI sanitizer legs run this suite at BISRAM_THREADS 1/2/8. The
// full scans (drc::check, extract::extract and the incremental engines'
// initial scans) and the updates both run their passes on the campaign
// pool, so the equality also pins thread-invariance; on a Fig. 6 slice
// whose edits span several chunks of every update pass, one test also
// replays its edits at pool widths 1, 2 and 8 itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/bisramgen.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bisram {
namespace {

using geom::CellEdit;
using geom::LayoutDB;

core::RamSpec small_spec() {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 8;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.strap_interval = 16;
  return spec;
}

struct Macro {
  geom::CellPtr top;
  tech::Tech tech;
};

const Macro& small_macro() {
  static const Macro* m = [] {
    const core::RamSpec spec = small_spec();
    const core::Generated g = core::generate(spec);
    return new Macro{g.top, spec.resolved_technology()};
  }();
  return *m;
}

/// The full-rebuild oracle: the hierarchy `top` with `edit` applied,
/// built by cloning the ancestor chain down to the edited instance and
/// swapping in the edit. A fresh LayoutDB of it is what apply() must
/// reproduce bit for bit.
std::shared_ptr<geom::Cell> edited_cell(const geom::Cell& top,
                                        const CellEdit& e) {
  std::vector<std::string> segs;
  if (!e.path.empty()) {
    std::size_t pos = 0;
    for (;;) {
      const std::size_t slash = e.path.find('/', pos);
      const std::size_t end =
          slash == std::string::npos ? e.path.size() : slash;
      segs.emplace_back(e.path, pos, end - pos);
      if (slash == std::string::npos) break;
      pos = slash + 1;
    }
  }
  const bool add = e.kind == CellEdit::Kind::Add;
  require(add || !segs.empty(),
          "edited_cell: cannot edit the top cell itself");
  // Depth of the cell that owns the edited Instance entry.
  const std::size_t limit = add ? segs.size() : segs.size() - 1;

  const std::function<std::shared_ptr<geom::Cell>(const geom::Cell&,
                                                  std::size_t)>
      clone = [&](const geom::Cell& cell,
                  std::size_t d) -> std::shared_ptr<geom::Cell> {
    auto out = std::make_shared<geom::Cell>(cell.name());
    for (const auto& s : cell.shapes()) out->add_shape(s.layer, s.rect);
    for (const auto& p : cell.ports()) out->add_port(p.name, p.layer, p.rect);
    bool hit = false;
    for (const auto& inst : cell.instances()) {
      if (!hit && d < limit && inst.name == segs[d]) {
        hit = true;
        out->add_instance(inst.name, clone(*inst.cell, d + 1), inst.transform);
      } else if (!hit && d == limit && !add && inst.name == segs[d]) {
        hit = true;
        if (e.kind == CellEdit::Kind::Replace)
          out->add_instance(inst.name, e.cell, inst.transform);
        else if (e.kind == CellEdit::Kind::Move)
          out->add_instance(inst.name, inst.cell, e.transform);
        // Remove: drop the instance.
      } else {
        out->add_instance(inst.name, inst.cell, inst.transform);
      }
    }
    if (d == limit && add)
      out->add_instance(e.name, e.cell, e.transform);
    else
      require(hit, "edited_cell: no instance '" + segs[d] + "' on path '" +
                       e.path + "'");
    return out;
  };
  return clone(top, 0);
}

void expect_same_db(const LayoutDB& got, const LayoutDB& want,
                    const std::string& tag) {
  ASSERT_EQ(got.shape_count(), want.shape_count()) << tag;
  ASSERT_EQ(got.path_count(), want.path_count()) << tag;
  for (geom::Layer l : geom::all_layers()) {
    const auto& a = got.rects(l);
    const auto& b = want.rects(l);
    const auto& pa = got.path_ids(l);
    const auto& pb = want.path_ids(l);
    ASSERT_EQ(a.size(), b.size()) << tag << " layer " << static_cast<int>(l);
    ASSERT_EQ(pa.size(), a.size()) << tag << " layer " << static_cast<int>(l);
    ASSERT_EQ(pb.size(), b.size()) << tag << " layer " << static_cast<int>(l);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(a[i] == b[i])
          << tag << " layer " << static_cast<int>(l) << " shape " << i;
      ASSERT_EQ(pa[i], pb[i])
          << tag << " layer " << static_cast<int>(l) << " shape " << i;
    }
  }
  for (std::uint32_t n = 0; n < want.path_count(); ++n)
    ASSERT_EQ(got.path_name(n), want.path_name(n)) << tag << " node " << n;
  EXPECT_EQ(got.content_hash(), want.content_hash()) << tag;
}

void expect_same_violations(const std::vector<drc::Violation>& got,
                            const std::vector<drc::Violation>& want,
                            const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const drc::Violation& a = got[i];
    const drc::Violation& b = want[i];
    ASSERT_TRUE(a.kind == b.kind && a.layer == b.layer && a.a == b.a &&
                a.b == b.b && a.note == b.note && a.path_a == b.path_a &&
                a.path_b == b.path_b)
        << tag << " violation " << i << ": " << drc::describe(a) << " vs "
        << drc::describe(b);
  }
}

void expect_same_extraction(const extract::Extracted& got,
                            const extract::Extracted& want,
                            const std::string& tag) {
  EXPECT_EQ(got.net_count, want.net_count) << tag;
  EXPECT_TRUE(got.port_net == want.port_net) << tag;
  EXPECT_TRUE(got.net_cap_f == want.net_cap_f) << tag;
  ASSERT_EQ(got.devices.size(), want.devices.size()) << tag;
  for (std::size_t i = 0; i < got.devices.size(); ++i) {
    const extract::Device& a = got.devices[i];
    const extract::Device& b = want.devices[i];
    ASSERT_TRUE(a.type == b.type && a.gate == b.gate && a.source == b.source &&
                a.drain == b.drain && a.w_um == b.w_um && a.l_um == b.l_um &&
                a.path == b.path)
        << tag << " device " << i;
  }
}

/// The canonical four-kind edit sequence the suite replays. Each edit
/// targets a different subtree so the sequence exercises splices in the
/// middle, at the front, and past the end of the per-layer shape ranges.
std::vector<CellEdit> edit_sequence(const tech::Tech& t, geom::Library& lib) {
  std::vector<CellEdit> edits;
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Move;
    e.path = "RAMARRAY/row3";
    e.transform = geom::Transform::translate(40, -20);
    edits.push_back(e);
  }
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Remove;
    e.path = "ROWDEC/dec5";
    edits.push_back(e);
  }
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Replace;
    e.path = "RAMARRAY/row2";
    e.cell = cells::sram_cell_6t(lib, t);
    edits.push_back(e);
  }
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Add;
    e.path = "";  // top cell
    e.name = "spareCell";
    e.cell = cells::precharge_cell(lib, t, 2.0);
    e.transform = geom::Transform::translate(-400, -400);
    edits.push_back(e);
  }
  return edits;
}

const char* kEditTags[] = {"move", "remove", "replace", "add"};

bool contains_rect(const geom::Rect& outer, const geom::Rect& inner) {
  return outer.lo.x <= inner.lo.x && outer.lo.y <= inner.lo.y &&
         outer.hi.x >= inner.hi.x && outer.hi.y >= inner.hi.y;
}

/// Replays the edit sequence on a database tiled at `tile`, checking
/// apply() against the edited_cell + fresh-flatten oracle and the
/// incremental DRC/extract engines against the full scans after every
/// step.
void replay_at_tile(geom::Coord tile) {
  const Macro& m = small_macro();
  const tech::Tech& t = m.tech;
  const std::string tile_tag = "tile=" + std::to_string(tile);

  LayoutDB db(*m.top, tile);
  drc::IncrementalDrc inc_drc(db, t);
  extract::IncrementalExtract inc_ext(db, t);
  expect_same_violations(inc_drc.report(), drc::check(db, t),
                         tile_tag + " init");
  expect_same_extraction(inc_ext.result(), extract::extract(db, t),
                         tile_tag + " init");

  geom::Library lib;
  geom::CellPtr cur = m.top;
  std::size_t step = 0;
  for (const CellEdit& e : edit_sequence(t, lib)) {
    const std::string tag = tile_tag + " " + kEditTags[step++];
    const geom::EditResult res = db.apply(e);
    cur = edited_cell(*cur, e);
    const LayoutDB fresh(*cur, tile);
    expect_same_db(db, fresh, tag);
    inc_drc.update(res);
    inc_ext.update(res);
    expect_same_violations(inc_drc.report(), drc::check(fresh, t), tag);
    expect_same_extraction(inc_ext.result(), extract::extract(fresh, t), tag);
  }
}

TEST(LayoutIncremental, EditSequenceMatchesOraclesAtSignoffTile) {
  replay_at_tile(drc::tile_size_for(small_macro().tech));
}

TEST(LayoutIncremental, EditSequenceMatchesOraclesAtDefaultTile) {
  replay_at_tile(LayoutDB::kDefaultTile);
}

TEST(LayoutIncremental, EditSequenceMatchesOraclesAtCoarseTile) {
  replay_at_tile(4 * drc::tile_size_for(small_macro().tech));
}

/// A seeded edit stream over the small macro: the kinds a designer
/// makes (bit, row and decoder moves; decoder removal and restore; bit
/// replaces, count-preserving or not), Adds over existing geometry
/// (where an old gate can overhang the new diffusion), Adds outside
/// every layer's bbox (beyond the tile grid the database was built
/// with) and removals of earlier Adds (so the bbox also shrinks). It
/// mirrors the hierarchy, so every edit addresses a live instance, and
/// moves displace an instance a few DBU from its original placement.
class EditStream {
 public:
  EditStream(const geom::Cell& top, const tech::Tech& t, std::uint64_t seed)
      : rng_(seed), bbox_(top.bbox()) {
    const geom::Instance& array = child(top, "RAMARRAY");
    for (const geom::Instance& row : array.cell->instances())
      rows_.push_back({"RAMARRAY/" + row.name, row.transform, row.cell});
    const geom::Cell& row_cell = *array.cell->instances().front().cell;
    for (const geom::Instance& b : row_cell.instances())
      if (b.name.rfind("b", 0) == 0)
        bits_.push_back({b.name, b.transform, b.cell});
    for (const geom::Instance& d : child(top, "ROWDEC").cell->instances())
      decoders_.push_back({"ROWDEC/" + d.name, d.transform, d.cell});
    leaves_ = {cells::sram_cell_6t(lib_, t), cells::precharge_cell(lib_, t, 2.0),
               cells::cam_cell(lib_, t)};
  }

  CellEdit next(std::string* kind) {
    CellEdit e;
    switch (rng_.below(8)) {
      case 0: {
        const Placed& b = bits_[rng_.below(bits_.size())];
        e = move(rows_[rng_.below(rows_.size())].path + "/" + b.path, b.local);
        *kind = "move bit";
        break;
      }
      case 1: {
        const Placed& r = rows_[rng_.below(rows_.size())];
        e = move(r.path, r.local);
        *kind = "move row";
        break;
      }
      case 2: {
        const Placed& d = decoders_[rng_.below(decoders_.size())];
        e = move(d.path, d.local);
        *kind = "move decoder";
        break;
      }
      case 3:
        if (removed_) {
          e.kind = CellEdit::Kind::Add;
          e.path = "ROWDEC";
          e.name = removed_->path.substr(e.path.size() + 1);
          e.cell = removed_->cell;
          e.transform = removed_->local;
          decoders_.push_back(*removed_);
          removed_.reset();
          *kind = "restore decoder";
        } else {
          const std::size_t k = rng_.below(decoders_.size());
          e.kind = CellEdit::Kind::Remove;
          e.path = decoders_[k].path;
          removed_ = decoders_[k];
          decoders_.erase(decoders_.begin() + static_cast<std::ptrdiff_t>(k));
          *kind = "remove decoder";
        }
        break;
      case 4: {
        // The fresh 6T cell keeps every layer's shape count; the other
        // leaves change it, so ids past the splice shift.
        e.kind = CellEdit::Kind::Replace;
        e.path = rows_[rng_.below(rows_.size())].path + "/" +
                 bits_[rng_.below(bits_.size())].path;
        e.cell = leaves_[rng_.below(leaves_.size())];
        *kind = "replace bit";
        break;
      }
      case 5:
        e = add(geom::Transform::translate(
            bbox_.lo.x + static_cast<geom::Coord>(rng_.below(
                             static_cast<std::uint64_t>(bbox_.width()))),
            bbox_.lo.y + static_cast<geom::Coord>(rng_.below(
                             static_cast<std::uint64_t>(bbox_.height())))));
        *kind = "add over";
        break;
      case 6: {
        // Clear of the macro on a random side, by more than any leaf.
        constexpr geom::Coord kGap = 2000;
        const auto along = [&](geom::Coord lo, geom::Coord hi) {
          return lo + static_cast<geom::Coord>(
                          rng_.below(static_cast<std::uint64_t>(hi - lo)));
        };
        const std::uint64_t side = rng_.below(4);
        const geom::Coord x =
            side == 0 ? bbox_.hi.x + kGap
            : side == 1 ? bbox_.lo.x - 2 * kGap
                        : along(bbox_.lo.x - kGap, bbox_.hi.x + kGap);
        const geom::Coord y =
            side == 2 ? bbox_.hi.y + kGap
            : side == 3 ? bbox_.lo.y - 2 * kGap
                        : along(bbox_.lo.y - kGap, bbox_.hi.y + kGap);
        e = add(geom::Transform::translate(x, y));
        *kind = "add outside";
        break;
      }
      default:
        if (added_.empty()) return next(kind);
        {
          const std::size_t k = rng_.below(added_.size());
          e.kind = CellEdit::Kind::Remove;
          e.path = added_[k];
          added_.erase(added_.begin() + static_cast<std::ptrdiff_t>(k));
          *kind = "remove add";
        }
        break;
    }
    return e;
  }

 private:
  struct Placed {
    std::string path;
    geom::Transform local;
    geom::CellPtr cell;
  };

  static const geom::Instance& child(const geom::Cell& c,
                                     const std::string& name) {
    for (const geom::Instance& i : c.instances())
      if (i.name == name) return i;
    throw Error("EditStream: no instance " + name + " in " + c.name());
  }

  /// A Move of `path` to its original placement displaced by a nonzero
  /// step of up to 8 DBU.
  CellEdit move(const std::string& path, const geom::Transform& local) {
    const auto step = [&] {
      return static_cast<geom::Coord>(rng_.below(8)) * 2 - 8;  // -8..6
    };
    geom::Coord dx = step(), dy = step();
    if (dx == 0 && dy == 0) dx = 8;
    CellEdit e;
    e.kind = CellEdit::Kind::Move;
    e.path = path;
    e.transform = geom::Transform::translate(dx, dy).compose(local);
    return e;
  }

  CellEdit add(const geom::Transform& at) {
    CellEdit e;
    e.kind = CellEdit::Kind::Add;
    e.path = "";
    e.name = "streamAdd" + std::to_string(adds_++);
    e.cell = leaves_[rng_.below(leaves_.size())];
    e.transform = at;
    added_.push_back(e.name);
    return e;
  }

  Rng rng_;
  geom::Rect bbox_;
  geom::Library lib_;
  std::vector<geom::CellPtr> leaves_;
  std::vector<Placed> rows_;
  std::vector<Placed> bits_;  ///< bit instances of the row cell
  std::vector<Placed> decoders_;  ///< live decoders
  std::optional<Placed> removed_;  ///< the decoder taken out, if any
  std::vector<std::string> added_;  ///< live top-level Adds
  int adds_ = 0;
};

/// Every bucket of `got`'s spliced index for `l` against a TileIndex
/// built from scratch over got's rects on the same grid.
void expect_same_buckets(const LayoutDB& got, geom::Layer l,
                         const std::string& tag) {
  const geom::TileIndex& idx = got.index(l);
  if (idx.tile_rows() == 0) {  // no grid yet: the layer never had shapes
    EXPECT_TRUE(got.rects(l).empty()) << tag;
    return;
  }
  const geom::TileIndex rebuilt(got.rects(l), got.tile_size(), idx.grid());
  ASSERT_EQ(idx.tile_cols(), rebuilt.tile_cols()) << tag;
  ASSERT_EQ(idx.tile_rows(), rebuilt.tile_rows()) << tag;
  for (int ty = 0; ty < idx.tile_rows(); ++ty)
    for (int tx = 0; tx < idx.tile_cols(); ++tx)
      ASSERT_TRUE(std::ranges::equal(idx.bucket(tx, ty),
                                     rebuilt.bucket(tx, ty)))
          << tag << " layer " << static_cast<int>(l) << " tile (" << tx
          << ", " << ty << ")";
}

/// bbox(), every layer_bbox(), the buckets and indexed queries of `got`
/// against the fresh flatten and a TileIndex built from scratch over
/// got's rects, on windows sampled in and around the layout.
void expect_same_geometry_queries(const LayoutDB& got, const LayoutDB& fresh,
                                  Rng& rng, const std::string& tag) {
  EXPECT_TRUE(got.bbox() == fresh.bbox()) << tag;
  const geom::Rect b = fresh.bbox().expanded(300);
  const auto coord = [&](geom::Coord lo, geom::Coord hi) {
    return lo + static_cast<geom::Coord>(
                    rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (geom::Layer l : geom::all_layers()) {
    EXPECT_TRUE(got.layer_bbox(l) == fresh.layer_bbox(l))
        << tag << " layer " << static_cast<int>(l);
    expect_same_buckets(got, l, tag);
    const geom::TileIndex rebuilt(got.rects(l), got.tile_size());
    for (int w = 0; w < 4; ++w) {
      const geom::Coord x = coord(b.lo.x, b.hi.x), y = coord(b.lo.y, b.hi.y);
      const geom::Rect win =
          geom::Rect::ltrb(x, y, x + coord(0, 400), y + coord(0, 400));
      ASSERT_EQ(got.index(l).ids_in(win), rebuilt.ids_in(win))
          << tag << " layer " << static_cast<int>(l) << " window " << w;
    }
  }
}

/// Runs `edits` stream edits on two databases of the small macro, one
/// tiled at the signoff tile and one four times coarser. After every
/// edit each database is checked against a fresh flatten of
/// edited_cell at its own tile and its queries against a rebuilt index;
/// both incremental DRC (uncapped) and extraction engines are checked
/// against one full scan of the fresh flatten (the full scans are
/// tile-size invariant). Stops at the first failure.
void replay_stream(int edits, std::uint64_t seed) {
  const Macro& m = small_macro();
  const tech::Tech& t = m.tech;
  drc::DrcOptions uncapped;
  uncapped.max_violations = static_cast<std::size_t>(-1);
  const geom::Coord signoff = drc::tile_size_for(t);

  struct Tracked {
    geom::Coord tile;
    std::unique_ptr<LayoutDB> db;
    std::unique_ptr<drc::IncrementalDrc> drc;
    std::unique_ptr<extract::IncrementalExtract> ext;
  };
  std::vector<Tracked> tracked;
  for (geom::Coord tile : {signoff, 4 * signoff}) {
    Tracked k{tile, std::make_unique<LayoutDB>(*m.top, tile), nullptr,
              nullptr};
    k.drc = std::make_unique<drc::IncrementalDrc>(*k.db, t, uncapped);
    k.ext = std::make_unique<extract::IncrementalExtract>(*k.db, t);
    tracked.push_back(std::move(k));
  }
  EditStream stream(*m.top, t, seed);
  Rng probe(seed + 1);
  geom::CellPtr cur = m.top;
  for (int n = 0; n < edits; ++n) {
    std::string kind;
    const CellEdit e = stream.next(&kind);
    const std::string at = "edit " + std::to_string(n) + " (" + kind + " '" +
                           e.path + (e.name.empty() ? "" : "/" + e.name) +
                           "')";
    cur = edited_cell(*cur, e);
    std::vector<drc::Violation> want_drc;
    extract::Extracted want_ext;
    for (Tracked& k : tracked) {
      const std::string tag = "tile=" + std::to_string(k.tile) + " " + at;
      const geom::EditResult res = k.db->apply(e);
      const LayoutDB fresh(*cur, k.tile);
      expect_same_db(*k.db, fresh, tag);
      expect_same_geometry_queries(*k.db, fresh, probe, tag);
      if (k.tile == signoff) {
        want_drc = drc::check(fresh, t, uncapped);
        want_ext = extract::extract(fresh, t);
      }
      k.drc->update(res);
      k.ext->update(res);
      expect_same_violations(k.drc->report(), want_drc, tag);
      expect_same_extraction(k.ext->result(), want_ext, tag);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LayoutIncremental, LongEditStreamMatchesOraclesAtSignoffAndCoarseTile) {
  replay_stream(300, 2024);
}

/// A 16-word slice of the Fig. 6 organisation (bpw 128, bpc 8, 4 spare
/// rows; 463,038 shapes). Its rows hold 1,024 bit cells, so one row move
/// re-splits thousands of diffusion shapes and re-emits tens of
/// thousands of pieces and DRC checks: several pool chunks of every
/// update pass.
const Macro& fig6_slice() {
  static const Macro* m = [] {
    core::RamSpec spec;
    spec.words = 16;
    spec.bpw = 128;
    spec.bpc = 8;
    spec.spare_rows = 4;
    spec.strap_interval = 32;
    spec.gate_size = 2.0;
    spec.technology = "cda.7u3m1p";
    const core::Generated g = core::generate(spec);
    return new Macro{g.top, spec.resolved_technology()};
  }();
  return *m;
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

TEST(LayoutIncremental, MultiChunkEditsMatchFullScansAtEveryPoolWidth) {
  const Macro& m = fig6_slice();
  const tech::Tech& t = m.tech;
  const geom::Coord tile = drc::tile_size_for(t);
  drc::DrcOptions uncapped;
  uncapped.max_violations = static_cast<std::size_t>(-1);

  // A short seeded list: a row move, a decoder removed and restored, an
  // Add over the array and a bit move.
  const auto child = [](const geom::Cell& c, const std::string& name) {
    for (const geom::Instance& i : c.instances())
      if (i.name == name) return &i;
    throw Error("no instance " + name + " in " + c.name());
  };
  const geom::Cell& array = *child(*m.top, "RAMARRAY")->cell;
  const geom::Cell& rowdec = *child(*m.top, "ROWDEC")->cell;
  Rng rng(2317);
  const auto pick = [&](const geom::Cell& c) {
    return &c.instances()[rng.below(c.instances().size())];
  };
  geom::Library lib;
  std::vector<CellEdit> edits;
  {
    const geom::Instance* row = pick(array);
    CellEdit e;
    e.kind = CellEdit::Kind::Move;
    e.path = "RAMARRAY/" + row->name;
    e.transform = geom::Transform::translate(6, -4).compose(row->transform);
    edits.push_back(e);
  }
  const geom::Instance* dec = pick(rowdec);
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Remove;
    e.path = "ROWDEC/" + dec->name;
    edits.push_back(e);
  }
  {
    const geom::Rect box = array.bbox();
    CellEdit e;
    e.kind = CellEdit::Kind::Add;
    e.path = "";
    e.name = "camOverArray";
    e.cell = cells::cam_cell(lib, t);
    e.transform = geom::Transform::translate(
        box.lo.x + static_cast<geom::Coord>(
                       rng.below(static_cast<std::uint64_t>(box.width()))),
        box.lo.y + static_cast<geom::Coord>(
                       rng.below(static_cast<std::uint64_t>(box.height()))));
    edits.push_back(e);
  }
  {
    CellEdit e;
    e.kind = CellEdit::Kind::Add;
    e.path = "ROWDEC";
    e.name = dec->name;
    e.cell = dec->cell;
    e.transform = dec->transform;
    edits.push_back(e);
  }
  {
    const geom::Instance* row = pick(array);
    const geom::Instance* bit = pick(*row->cell);
    CellEdit e;
    e.kind = CellEdit::Kind::Move;
    e.path = "RAMARRAY/" + row->name + "/" + bit->name;
    e.transform = geom::Transform::translate(-2, 8).compose(bit->transform);
    edits.push_back(e);
  }

  // The full scans after every edit (thread-count invariant, pinned in
  // test_signoff_equivalence).
  std::vector<std::vector<drc::Violation>> want_drc;
  std::vector<extract::Extracted> want_ext;
  {
    LayoutDB db(*m.top, tile);
    ASSERT_EQ(db.shape_count(), 463038u);
    for (const CellEdit& e : edits) {
      db.apply(e);
      want_drc.push_back(drc::check(db, t, uncapped));
      want_ext.push_back(extract::extract(db, t));
    }
  }
  for (int threads : {1, 2, 8}) {
    const PoolWidth width(threads);
    LayoutDB db(*m.top, tile);
    drc::IncrementalDrc inc_drc(db, t, uncapped);
    extract::IncrementalExtract inc_ext(db, t);
    for (std::size_t i = 0; i < edits.size(); ++i) {
      const std::string tag = "threads=" + std::to_string(threads) +
                              " edit " + std::to_string(i) + " (" +
                              edits[i].path + ")";
      const geom::EditResult res = db.apply(edits[i]);
      inc_drc.update(res);
      inc_ext.update(res);
      expect_same_violations(inc_drc.report(), want_drc[i], tag);
      expect_same_extraction(inc_ext.result(), want_ext[i], tag);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(LayoutIncremental, AddedRowIsWalkedOnThePool) {
  // A copy of the first row laid 3 DBU right of it: thousands of new
  // shapes per layer, so DRC relabels them on the pool, with nothing
  // removed and so no old bbox to seed the walk. The copy touches and
  // crowds the row it overlaps, which merges polygons and adds spacing
  // records on both sides.
  const Macro& m = fig6_slice();
  const tech::Tech& t = m.tech;
  const geom::Coord tile = drc::tile_size_for(t);
  drc::DrcOptions uncapped;
  uncapped.max_violations = static_cast<std::size_t>(-1);
  const geom::Instance* row = nullptr;
  for (const geom::Instance& i : m.top->instances())
    if (i.name == "RAMARRAY") row = &i.cell->instances().front();
  ASSERT_NE(row, nullptr);
  CellEdit e;
  e.kind = CellEdit::Kind::Add;
  e.path = "RAMARRAY";
  e.name = "rowCopy";
  e.cell = row->cell;
  e.transform = geom::Transform::translate(3, 0).compose(row->transform);

  std::vector<drc::Violation> want_drc;
  extract::Extracted want_ext;
  {
    LayoutDB db(*m.top, tile);
    db.apply(e);
    want_drc = drc::check(db, t, uncapped);
    want_ext = extract::extract(db, t);
  }
  for (int threads : {1, 2, 8}) {
    const PoolWidth width(threads);
    LayoutDB db(*m.top, tile);
    drc::IncrementalDrc inc_drc(db, t, uncapped);
    extract::IncrementalExtract inc_ext(db, t);
    const geom::EditResult res = db.apply(e);
    ASSERT_GT(res.splice_of(geom::Layer::Metal1).new_end -
                  res.splice_of(geom::Layer::Metal1).begin,
              1024u);
    inc_drc.update(res);
    inc_ext.update(res);
    const std::string tag = "threads=" + std::to_string(threads);
    expect_same_violations(inc_drc.report(), want_drc, tag);
    expect_same_extraction(inc_ext.result(), want_ext, tag);
  }
}

TEST(LayoutIncremental, CappedDrcReportMatchesFullCheckPastTheCap) {
  // Bit cells and rows of a Fig. 6 slice nudged a few DBU crowd their
  // neighbours: a bit move adds a few spacing records and a row move
  // thousands, so the records climb past DrcOptions' default cap of
  // 1,000. After every edit the capped incremental report (rects, notes
  // and instance paths) must equal drc::check's at the defaults, which
  // orders every record the checker holds and returns the first 1,000.
  const Macro& m = fig6_slice();
  const tech::Tech& t = m.tech;
  const std::size_t cap = drc::DrcOptions{}.max_violations;
  const geom::Cell* array = nullptr;
  for (const geom::Instance& i : m.top->instances())
    if (i.name == "RAMARRAY") array = i.cell.get();
  ASSERT_NE(array, nullptr);
  const auto& rows = array->instances();
  const auto& bits = rows.front().cell->instances();
  LayoutDB db(*m.top, drc::tile_size_for(t));
  drc::IncrementalDrc inc(db, t);
  Rng rng(3011);
  const auto nudge = [&](const geom::Transform& at) {
    const auto step = [&] {
      return static_cast<geom::Coord>(rng.below(8)) * 2 - 8;  // -8..6
    };
    geom::Coord dx = step(), dy = step();
    if (dx == 0 && dy == 0) dx = 8;
    return geom::Transform::translate(dx, dy).compose(at);
  };
  int below_cap = 0, at_cap = 0;
  for (int n = 0; at_cap < 3; ++n) {
    ASSERT_LT(n, 12) << "the records never passed the cap";
    // Four bit moves, then a row move every other edit.
    const bool row_move = n >= 4 && n % 2 == 0;
    const geom::Instance& row = rows[rng.below(rows.size())];
    CellEdit e;
    e.kind = CellEdit::Kind::Move;
    if (row_move) {
      e.path = "RAMARRAY/" + row.name;
      e.transform = nudge(row.transform);
    } else {
      const geom::Instance& bit = bits[rng.below(bits.size())];
      e.path = "RAMARRAY/" + row.name + "/" + bit.name;
      e.transform = nudge(bit.transform);
    }
    inc.update(db.apply(e));
    const std::vector<drc::Violation> want = drc::check(db, t);
    expect_same_violations(inc.report(), want,
                           "edit " + std::to_string(n) + " " + e.path);
    if (::testing::Test::HasFailure()) return;
    (want.size() < cap ? below_cap : at_cap) += 1;
  }
  EXPECT_GT(below_cap, 0);
  drc::DrcOptions uncapped;
  uncapped.max_violations = static_cast<std::size_t>(-1);
  EXPECT_GT(drc::check(db, t, uncapped).size(), cap);
}

/// A hand-made layout whose nets the cases below split, merge and
/// renumber. Piece order follows instance order:
///   pre         a floating Metal1 rect (a net no device or port reaches)
///   fet         an NMOS: NDiff crossed by a poly gate, a contact and a
///               Metal1 pad on each side
///   wireA       Metal1 from the drain pad to the bridge
///   bridge      Metal1 joining wireA and wireB
///   wireB       Metal1 under the port OUT
///   c0, c1, c2  a floating Metal1 chain, c0 its least piece
///   f0, f1, f2  floating Metal1 rects of distinct lengths (and so
///               distinct capacitances), minted last in that order
geom::CellPtr toy_layout() {
  using geom::Layer;
  using geom::Rect;
  const auto leaf = [](const std::string& name, Layer layer, Rect r) {
    auto c = std::make_shared<geom::Cell>(name);
    c->add_shape(layer, r);
    return c;
  };
  auto fet = std::make_shared<geom::Cell>("fet");
  fet->add_shape(Layer::NDiff, Rect::ltrb(0, 0, 100, 40));
  fet->add_shape(Layer::Poly, Rect::ltrb(40, -20, 60, 60));
  fet->add_shape(Layer::Contact, Rect::ltrb(10, 15, 20, 25));
  fet->add_shape(Layer::Contact, Rect::ltrb(80, 15, 90, 25));
  fet->add_shape(Layer::Metal1, Rect::ltrb(5, 10, 25, 30));
  fet->add_shape(Layer::Metal1, Rect::ltrb(75, 10, 95, 30));

  auto top = std::make_shared<geom::Cell>("toy");
  const geom::Transform here;
  top->add_instance("pre", leaf("pre", Layer::Metal1,
                                Rect::ltrb(-300, 200, -250, 210)),
                    here);
  top->add_instance("fet", fet, here);
  top->add_instance("wireA",
                    leaf("wireA", Layer::Metal1, Rect::ltrb(90, 10, 300, 30)),
                    here);
  top->add_instance("bridge",
                    leaf("bridge", Layer::Metal1, Rect::ltrb(290, 10, 410, 30)),
                    here);
  top->add_instance("wireB",
                    leaf("wireB", Layer::Metal1, Rect::ltrb(400, 10, 500, 30)),
                    here);
  for (int k = 0; k < 3; ++k)
    top->add_instance(
        "c" + std::to_string(k),
        leaf("c", Layer::Metal1, Rect::ltrb(50 * k, 300, 50 * k + 60, 310)),
        here);
  for (int k = 0; k < 3; ++k)
    top->add_instance("f" + std::to_string(k),
                      leaf("f", Layer::Metal1,
                           Rect::ltrb(100 * k, 400, 100 * k + 30 + 20 * k,
                                      410)),
                      here);
  top->add_port("OUT", Layer::Metal1, Rect::ltrb(480, 15, 490, 25));
  return top;
}

/// Applies `edits` to `top` (the toy layout unless given) at pool widths
/// 1, 2 and 8 and checks both incremental engines against full scans
/// after every edit. Returns the pool-width-1 netlists, the initial one
/// first.
std::vector<extract::Extracted> replay_toy(
    const std::vector<CellEdit>& edits,
    const geom::CellPtr& top = toy_layout()) {
  const tech::Tech& t = small_macro().tech;
  drc::DrcOptions uncapped;
  uncapped.max_violations = static_cast<std::size_t>(-1);
  std::vector<extract::Extracted> seen;
  for (int threads : {1, 2, 8}) {
    const PoolWidth width(threads);
    LayoutDB db(*top, drc::tile_size_for(t));
    drc::IncrementalDrc inc_drc(db, t, uncapped);
    extract::IncrementalExtract inc_ext(db, t);
    if (threads == 1) seen.push_back(inc_ext.result());
    for (std::size_t i = 0; i < edits.size(); ++i) {
      const std::string tag = "threads=" + std::to_string(threads) + " edit " +
                              std::to_string(i);
      const geom::EditResult res = db.apply(edits[i]);
      inc_drc.update(res);
      inc_ext.update(res);
      expect_same_violations(inc_drc.report(), drc::check(db, t, uncapped),
                             tag);
      expect_same_extraction(inc_ext.result(), extract::extract(db, t), tag);
      if (threads == 1) seen.push_back(inc_ext.result());
    }
  }
  return seen;
}

CellEdit remove_edit(const std::string& path) {
  CellEdit e;
  e.kind = CellEdit::Kind::Remove;
  e.path = path;
  return e;
}

TEST(LayoutIncremental, RemovingTheBridgeSplitsANet) {
  const auto seen = replay_toy({remove_edit("bridge")});
  // The drain net loses wireB, which the port now reaches on its own.
  EXPECT_EQ(seen[1].net_count, seen[0].net_count + 1);
  EXPECT_NE(seen[1].port_net.at("OUT"), seen[1].devices[0].drain);
}

TEST(LayoutIncremental, AddingAMetal1RectMergesTwoNets) {
  CellEdit e;
  e.kind = CellEdit::Kind::Add;
  e.path = "";
  e.name = "join";
  auto join = std::make_shared<geom::Cell>("join");
  join->add_shape(geom::Layer::Metal1, geom::Rect::ltrb(20, 400, 110, 410));
  e.cell = join;
  const auto seen = replay_toy({e});
  EXPECT_EQ(seen[1].net_count, seen[0].net_count - 1);  // f0 and f1 join
}

TEST(LayoutIncremental, RemovingAComponentsLeastPieceKeepsTheRest) {
  const auto seen = replay_toy({remove_edit("c0"), remove_edit("c2")});
  EXPECT_EQ(seen[1].net_count, seen[0].net_count);  // c1 and c2 stay joined
  EXPECT_EQ(seen[2].net_count, seen[0].net_count);
}

TEST(LayoutIncremental, UnreachedNetsAreMintedByLeastWiredPiece) {
  // Taking c1 out leaves c0 and c2 apart: two nets no device or port
  // reaches, numbered between the kept ones around them (pre before,
  // f0-f2 after).
  const auto seen = replay_toy({remove_edit("c1")});
  EXPECT_EQ(seen[1].net_count, seen[0].net_count + 1);
  const auto& was = seen[0].net_cap_f;
  const auto& now = seen[1].net_cap_f;
  for (int k = 1; k <= 3; ++k)  // f2, f1, f0: one id further, same sum
    EXPECT_EQ(now[now.size() - static_cast<std::size_t>(k)],
              was[was.size() - static_cast<std::size_t>(k)]);
}

TEST(LayoutIncremental, MoveShiftsUntouchedNetIdsAndKeepsTheirCapacitance) {
  // Lifting the bridge clear of both wires splits the drain net: wireB
  // becomes the port's own net and the bridge a floating one minted
  // before the chain, so the untouched floating nets after it move two
  // ids up with their sums unchanged.
  CellEdit e;
  e.kind = CellEdit::Kind::Move;
  e.path = "bridge";
  e.transform = geom::Transform::translate(0, 100);
  const auto seen = replay_toy({e});
  ASSERT_EQ(seen[1].net_count, seen[0].net_count + 2);
  const auto& was = seen[0].net_cap_f;
  const auto& now = seen[1].net_cap_f;
  for (std::size_t k = 1; k <= 4; ++k)  // f2, f1, f0 and the chain
    EXPECT_EQ(now[now.size() - k], was[was.size() - k]);
}

/// A hand-made layout for the renumbering cases below, in piece order:
///   dA, dB, dC  NDiff stripes 200 DBU apart, each with a contact and a
///               Metal1 pad at either end
///   gate        a poly gate across dA
///   gateC       a poly gate across dC
///   strap       Metal2 from over dC's right pad to the port OUT
///   via         the Via1 joining dC's right pad to the strap
///   far         a floating Metal1 rect far from the rest
/// dB, which no gate crosses, and `far` are the nets minted after the
/// port, in that order.
geom::CellPtr stripes_layout() {
  using geom::Layer;
  using geom::Rect;
  const auto leaf = [](const std::string& name, Layer layer, Rect r) {
    auto c = std::make_shared<geom::Cell>(name);
    c->add_shape(layer, r);
    return c;
  };
  auto stripe = std::make_shared<geom::Cell>("stripe");
  stripe->add_shape(Layer::NDiff, Rect::ltrb(0, 0, 100, 40));
  stripe->add_shape(Layer::Contact, Rect::ltrb(10, 15, 20, 25));
  stripe->add_shape(Layer::Contact, Rect::ltrb(80, 15, 90, 25));
  stripe->add_shape(Layer::Metal1, Rect::ltrb(5, 10, 25, 30));
  stripe->add_shape(Layer::Metal1, Rect::ltrb(75, 10, 95, 30));

  auto top = std::make_shared<geom::Cell>("stripes");
  for (int k = 0; k < 3; ++k)
    top->add_instance(std::string("d") + "ABC"[k], stripe,
                      geom::Transform::translate(200 * k, 0));
  const geom::Transform here;
  top->add_instance("gate", leaf("gate", Layer::Poly,
                                 Rect::ltrb(40, -20, 60, 60)),
                    here);
  top->add_instance("gateC", leaf("gateC", Layer::Poly,
                                  Rect::ltrb(440, -20, 460, 60)),
                    here);
  top->add_instance("strap", leaf("strap", Layer::Metal2,
                                  Rect::ltrb(470, 10, 700, 30)),
                    here);
  top->add_instance("via", leaf("via", Layer::Via1,
                                Rect::ltrb(480, 15, 490, 25)),
                    here);
  top->add_instance("far", leaf("far", Layer::Metal1,
                                Rect::ltrb(-900, -900, -850, -890)),
                    here);
  top->add_port("OUT", Layer::Metal2, Rect::ltrb(680, 15, 690, 25));
  return top;
}

CellEdit move_edit(const std::string& path, geom::Coord dx, geom::Coord dy) {
  CellEdit e;
  e.kind = CellEdit::Kind::Move;
  e.path = path;
  e.transform = geom::Transform::translate(dx, dy);
  return e;
}

TEST(LayoutIncremental, CountKeepingMoveThatResplitsShiftsDiffusionPieces) {
  // Moving the gate keeps every shape count, but each move re-splits a
  // stripe. Off every stripe, dA loses its gate, so every piece past dA
  // moves down one id; onto dB, every piece past dB moves up one id;
  // back onto dA, dA and dB trade a segment and the rest keep their ids.
  const auto seen = replay_toy({move_edit("gate", 0, 300),
                                move_edit("gate", 200, 0),
                                move_edit("gate", 0, 0)},
                               stripes_layout());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].devices.size(), 2u);  // dA and dC
  EXPECT_EQ(seen[1].devices.size(), 1u);  // dC
  EXPECT_EQ(seen[2].devices.size(), 2u);  // dB and dC
  EXPECT_EQ(seen[3].devices.size(), 2u);
  // Off every stripe, dA's two nets become one and the gate floats.
  EXPECT_EQ(seen[1].net_count, seen[0].net_count - 1);
  EXPECT_EQ(seen[2].net_count, seen[0].net_count);
  EXPECT_EQ(seen[3].net_count, seen[0].net_count);
  for (const auto& x : seen)  // `far` is the last net throughout
    EXPECT_EQ(x.net_cap_f.back(), seen[0].net_cap_f.back());
}

TEST(LayoutIncremental, AddShiftsEveryLaterBlockAndKeepsADistantNet) {
  // A stripe added at the top level lands at the end of the NDiff block,
  // so every Poly, Metal1, Metal2, Contact and Via1 piece moves up. It is
  // a net no device or port reaches, whose least wired piece precedes
  // `far`'s: `far` stays the last net minted, with its capacitance bits.
  // Removing the via next re-unites dC's drain from its moved edges.
  CellEdit e;
  e.kind = CellEdit::Kind::Add;
  e.path = "";
  e.name = "stripeD";
  auto stripe = std::make_shared<geom::Cell>("stripeD");
  stripe->add_shape(geom::Layer::NDiff, geom::Rect::ltrb(0, 0, 100, 40));
  stripe->add_shape(geom::Layer::Contact, geom::Rect::ltrb(10, 15, 20, 25));
  stripe->add_shape(geom::Layer::Metal1, geom::Rect::ltrb(5, 10, 25, 30));
  e.cell = stripe;
  e.transform = geom::Transform::translate(-600, 600);
  const auto seen = replay_toy({e, remove_edit("via")}, stripes_layout());
  ASSERT_EQ(seen[1].net_count, seen[0].net_count + 1);
  EXPECT_EQ(seen[2].net_count, seen[1].net_count + 1);
  EXPECT_EQ(seen[1].net_cap_f.back(), seen[0].net_cap_f.back());
  for (int k = 0; k < seen[0].net_count - 1; ++k)
    EXPECT_EQ(seen[1].net_cap_f[static_cast<std::size_t>(k)],
              seen[0].net_cap_f[static_cast<std::size_t>(k)])
        << "net " << k;
}

TEST(LayoutIncremental, RemovingTheOnlyViaSplitsANetAcrossLayers) {
  // The via is the one link between dC's right pad (Metal1) and the
  // strap (Metal2): without it the port's net is the strap alone.
  const auto seen = replay_toy({remove_edit("via")}, stripes_layout());
  EXPECT_EQ(seen[0].port_net.at("OUT"), seen[0].devices.back().drain);
  EXPECT_EQ(seen[1].net_count, seen[0].net_count + 1);
  EXPECT_NE(seen[1].port_net.at("OUT"), seen[1].devices.back().drain);
}

TEST(LayoutIncremental, AddOverAnExistingGateMatchesFullExtract) {
  // A CAM cell added so that its first NDiff stripe starts at x = 93,
  // under an old gate poly spanning x 90-110: the gate overhangs the new
  // diffusion's left end. The split once turned that cut into a sliver
  // at x 90-93, outside the diffusion, which the full extract saw and
  // the incremental engine's per-shape queries missed (one net more).
  // The sliver also touched the old transistor's diffusion left of the
  // gate and merged the two nets; clamped, the cut leaves a zero-length
  // segment inside the gate and the nets stay apart.
  const Macro& m = small_macro();
  LayoutDB db(*m.top, drc::tile_size_for(m.tech));
  extract::IncrementalExtract inc(db, m.tech);
  geom::Library lib;
  CellEdit e;
  e.kind = CellEdit::Kind::Add;
  e.path = "";
  e.name = "camOverGate";
  e.cell = cells::cam_cell(lib, m.tech);
  e.transform = geom::Transform::translate(78, 20);
  const geom::EditResult res = db.apply(e);

  // The case needs an old gate crossing a new diffusion over its end.
  bool overhang = false;
  const geom::ShapeSplice& sp = res.splice_of(geom::Layer::NDiff);
  for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) {
    const geom::Rect& d = db.rects(geom::Layer::NDiff)[k];
    for (std::uint32_t p : db.index(geom::Layer::Poly).ids_in(d)) {
      const geom::Rect& g = db.rects(geom::Layer::Poly)[p];
      overhang = overhang || (g.lo.x < d.lo.x && g.hi.x > d.lo.x &&
                              g.lo.y <= d.lo.y && g.hi.y >= d.hi.y);
    }
  }
  ASSERT_TRUE(overhang);

  inc.update(res);
  expect_same_extraction(inc.result(), extract::extract(db, m.tech),
                         "CAM cell over a gate");
  EXPECT_EQ(inc.result().net_count, 3243);  // 3242 with the sliver
}

TEST(SplitDiffusion, SegmentsStayInsideTheDiffusion) {
  // Vertical gates, out of order: one over the left end, one inside, one
  // overlapping that, one past the right end.
  const geom::Rect diff = geom::Rect::ltrb(100, 0, 200, 40);
  std::vector<geom::Rect> gates = {
      geom::Rect::ltrb(190, -10, 210, 50), geom::Rect::ltrb(140, -10, 150, 50),
      geom::Rect::ltrb(90, -10, 103, 50), geom::Rect::ltrb(145, -10, 160, 50)};
  const std::vector<geom::Rect> segs = extract::split_diffusion(diff, gates);
  ASSERT_EQ(segs.size(), gates.size() + 1);
  for (const geom::Rect& s : segs) EXPECT_TRUE(contains_rect(diff, s));
  const geom::Coord xs[][2] = {
      {100, 100}, {103, 140}, {150, 150}, {160, 190}, {200, 200}};
  for (std::size_t k = 0; k < segs.size(); ++k) {
    EXPECT_EQ(segs[k].lo.x, xs[k][0]) << k;
    EXPECT_EQ(segs[k].hi.x, xs[k][1]) << k;
  }
  EXPECT_EQ(gates[0].lo.x, 90);  // sorted along the stripe in place

  // A horizontal gate over the top end splits along y.
  const geom::Rect tall = geom::Rect::ltrb(0, 100, 40, 200);
  std::vector<geom::Rect> top = {geom::Rect::ltrb(-10, 190, 50, 205)};
  const std::vector<geom::Rect> ys = extract::split_diffusion(tall, top);
  ASSERT_EQ(ys.size(), 2u);
  EXPECT_TRUE(ys[0] == geom::Rect::ltrb(0, 100, 40, 190));
  EXPECT_TRUE(ys[1] == geom::Rect::ltrb(0, 200, 40, 200));

  std::vector<geom::Rect> none;
  EXPECT_EQ(extract::split_diffusion(diff, none),
            std::vector<geom::Rect>{diff});
}

TEST(LayoutIncremental, ApplyRejectsBadEdits) {
  const Macro& m = small_macro();
  LayoutDB db(*m.top);
  CellEdit e;
  e.kind = CellEdit::Kind::Move;
  e.path = "RAMARRAY/no_such_instance";
  e.transform = geom::Transform::translate(1, 1);
  EXPECT_THROW(db.apply(e), Error);

  CellEdit add;
  add.kind = CellEdit::Kind::Add;
  add.path = "";
  add.name = "orphan";  // no cell attached
  EXPECT_THROW(db.apply(add), Error);
}

TEST(ShapeSpliceTest, RemapIsMonotoneAndMarksRemovals) {
  geom::ShapeSplice s;
  s.begin = 10;
  s.old_end = 20;
  s.new_end = 14;
  EXPECT_EQ(s.delta(), -6);
  EXPECT_EQ(s.remap(9), 9u);  // before the splice: unchanged
  for (std::uint32_t id = 10; id < 20; ++id)
    EXPECT_EQ(s.remap(id), geom::ShapeSplice::kRemoved);
  EXPECT_EQ(s.remap(20), 14u);  // after: shifted by delta
  EXPECT_EQ(s.remap(100), 94u);

  // Survivors never land inside the inserted range [begin, new_end).
  EXPECT_GE(s.remap(20), s.new_end);
}

TEST(EditResultTest, DirtyRectsCoverRemovedAndInsertedGeometry) {
  const Macro& m = small_macro();
  LayoutDB db(*m.top, drc::tile_size_for(m.tech));
  CellEdit e;
  e.kind = CellEdit::Kind::Move;
  e.path = "RAMARRAY/row3";
  e.transform = geom::Transform::translate(40, -20);
  const geom::EditResult res = db.apply(e);

  bool any_layer = false;
  for (geom::Layer l : geom::all_layers()) {
    if (!res.touches(l)) continue;
    any_layer = true;
    const auto dirty = res.dirty_rects(l);
    ASSERT_FALSE(dirty.empty()) << static_cast<int>(l);
    // Every inserted shape of the splice lies inside some dirty rect.
    const geom::ShapeSplice& sp = res.splice_of(l);
    for (std::uint32_t id = sp.begin; id < sp.new_end; ++id) {
      bool covered = false;
      for (const geom::Rect& d : dirty)
        covered = covered || contains_rect(d, db.rects(l)[id]);
      EXPECT_TRUE(covered) << "layer " << static_cast<int>(l) << " id " << id;
    }
  }
  EXPECT_TRUE(any_layer);
  EXPECT_FALSE(res.dirty_bbox().empty());
}

}  // namespace
}  // namespace bisram
