#include "drc/drc.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <tuple>

#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace bisram::drc {

using geom::Coord;
using geom::Layer;
using geom::LayoutDB;
using geom::Rect;
using geom::ShapeSplice;
using geom::TileIndex;

namespace {

/// Shape ids per pool chunk of the full scan's parallel phases. Fixed,
/// so the chunk layout depends on the layout alone; a leaf cell fits in
/// one chunk and runs serially without touching the pool.
constexpr std::int64_t kScanChunk = 1024;

/// Runs scan(i, part) for every shape id i in [0, n) on util/parallel,
/// in fixed kScanChunk-sized chunks, and appends the per-chunk lists to
/// `out` in chunk order: the list one ascending serial scan would build,
/// at any thread count.
template <typename T, typename Scan>
void scan_ids(std::size_t n, std::vector<T>& out, Scan&& scan) {
  const auto total = static_cast<std::int64_t>(n);
  const std::int64_t chunks = (total + kScanChunk - 1) / kScanChunk;
  std::vector<std::vector<T>> parts(static_cast<std::size_t>(chunks));
  parallel_for(chunks, 1, [&](std::int64_t c) {
    auto& part = parts[static_cast<std::size_t>(c)];
    const auto lo = static_cast<std::uint32_t>(c * kScanChunk);
    const auto hi =
        static_cast<std::uint32_t>(std::min(total, (c + 1) * kScanChunk));
    for (std::uint32_t i = lo; i < hi; ++i) scan(i, part);
  });
  for (auto& part : parts)
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
}

int kind_rank(RuleKind k) {
  switch (k) {
    case RuleKind::MinWidth: return 0;
    case RuleKind::MinSpace: return 1;
    case RuleKind::ViaEnclosure: return 2;
    case RuleKind::WellCoverage: return 3;
  }
  return 4;
}

/// Canonical report order: rule phase, then layer, then coordinates.
bool canon_less(const Violation& x, const Violation& y) {
  const auto key = [](const Violation& v) {
    return std::make_tuple(kind_rank(v.kind), static_cast<int>(v.layer),
                           v.a.lo.y, v.a.lo.x, v.a.hi.y, v.a.hi.x, v.b.lo.y,
                           v.b.lo.x, v.b.hi.y, v.b.hi.x);
  };
  return key(x) < key(y);
}

/// True when some rect of `idx` encloses `need`. An enclosing rect
/// necessarily intersects `need`, so querying the window `need` sees
/// every candidate.
bool enclosed_by_any(const Rect& need, const TileIndex& idx,
                     const std::vector<Rect>& rects) {
  bool found = false;
  idx.for_each_in(need, [&](std::uint32_t id) {
    const Rect& c = rects[id];
    if (c.lo.x <= need.lo.x && c.lo.y <= need.lo.y && c.hi.x >= need.hi.x &&
        c.hi.y >= need.hi.y)
      found = true;
  });
  return found;
}

std::string space_note(Coord gap, Coord min_space) {
  return strfmt("gap %.1f < %.1f lambda", geom::to_lambda(gap),
                geom::to_lambda(min_space));
}

struct ViaRule {
  Layer via;
  std::vector<Layer> lower;  // any of these may provide the landing
  Layer upper;
  Coord encl_lower;
  Coord encl_upper;
};

std::vector<ViaRule> via_rules_for(const tech::Tech& tech) {
  return {
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
}

// --- the checker core --------------------------------------------------------
//
// Every violation is kept (untruncated) as a record tagged with
// (phase, emitter, seq), where
//
//   * phase is the rule scan that produced it: width of layer l is 2l,
//     spacing of layer l is 2l+1, via rule vi is 2*kLayerCount+vi, well
//     coverage comes last;
//   * emitter is the shape id the record was found from, and seq orders
//     one emitter's records (the spacing partner id; 0 = lower /
//     1 = upper for via enclosure).
//
// The triple is unique per record. report() sorts by it and then
// stable-sorts by the canonical (rule phase, layer, coordinates) key, so
// records with equal canonical keys keep (phase, emitter, seq) order and
// the report is a function of the database's contents alone: the same
// at any thread count, chunk size and tile size.
//
// The full scan runs the per-shape work (touching pairs, width and
// spacing records, via enclosure, well coverage) on util/parallel in
// fixed chunks of shape ids, joined in chunk order; the union-find and
// the component labels are serial. An edit then only has to (a)
// drop/renumber records through the shape-id splice and (b) re-emit
// records for shapes whose predicate could have changed, through the
// same per-shape functions; everything else provably still holds
// (surviving shapes keep their rects, and their instance paths are
// unaffected by an edit in a disjoint subtree).

struct Checker {
  struct Rec {
    int phase;
    std::uint32_t emitter;
    std::uint32_t seq;
    Violation v;
  };
  using Recs = std::vector<Rec>;
  /// Spacing state for one layer: the touching pairs (i < j, packed
  /// i<<32|j) the component merge is built from, and each shape's
  /// canonical component label — the smallest member id of its
  /// component. Labels are unique per component (a label is a member),
  /// so a shape pair's same-component predicate can only flip if one
  /// endpoint's label changes; and a splice remaps labels of untouched
  /// components monotonically, so "label != remapped old label" is an
  /// exact change detector.
  struct SpaceCache {
    std::vector<std::uint64_t> edges;
    std::vector<std::uint32_t> label;
  };

  const LayoutDB* db;
  tech::Tech tech;
  DrcOptions opt;
  std::vector<ViaRule> via_rules;
  Recs recs;
  std::array<SpaceCache, geom::kLayerCount> space;

  Checker(const LayoutDB& layout, const tech::Tech& t, const DrcOptions& o)
      : db(&layout), tech(t), opt(o), via_rules(via_rules_for(t)) {
    full_scan();
  }

  static std::uint64_t pack(std::uint32_t i, std::uint32_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }

  int width_phase(Layer l) const { return 2 * static_cast<int>(l); }
  int space_phase(Layer l) const { return 2 * static_cast<int>(l) + 1; }
  int via_phase(std::size_t vi) const {
    return 2 * geom::kLayerCount + static_cast<int>(vi);
  }
  int well_phase() const {
    return 2 * geom::kLayerCount + static_cast<int>(via_rules.size());
  }

  /// Collapsed root table from an edge list. Root identities depend on
  /// the union order, but only same-root comparisons and per-component
  /// minima are used, and those do not.
  static std::vector<std::uint32_t> roots_of(
      std::size_t n, const std::vector<std::uint64_t>& edges) {
    std::vector<std::uint32_t> parent(n);
    for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
    auto find = [&](std::uint32_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (std::uint64_t e : edges) {
      const auto a = find(static_cast<std::uint32_t>(e >> 32));
      const auto b = find(static_cast<std::uint32_t>(e));
      if (a != b) parent[a] = b;
    }
    for (std::uint32_t i = 0; i < n; ++i) parent[i] = find(i);
    return parent;
  }

  /// label[i] = smallest shape id in i's component.
  static std::vector<std::uint32_t> labels_of(
      const std::vector<std::uint32_t>& root) {
    std::vector<std::uint32_t> first(root.size(), ShapeSplice::kRemoved);
    std::vector<std::uint32_t> label(root.size());
    for (std::uint32_t i = 0; i < root.size(); ++i) {
      if (first[root[i]] == ShapeSplice::kRemoved) first[root[i]] = i;
      label[i] = first[root[i]];
    }
    return label;
  }

  // --- per-shape rules -------------------------------------------------------
  // `rescanned(j)` tells a pair rule whether partner j is visited by the
  // same pass; such a pair is found from both ends and kept from the
  // lower id's visit only.

  void scan_width(Layer layer, std::uint32_t k, Recs& out) const {
    const Rect& r = db->rects(layer)[k];
    if (std::min(r.width(), r.height()) < tech.rule(layer).min_width)
      out.push_back({width_phase(layer), k, 0,
                     {RuleKind::MinWidth, layer, r, {}, "",
                      db->shape_path(layer, k), {}}});
  }

  /// Touching pairs (the component-merge edges) of shape k.
  template <typename Rescanned>
  void scan_touching(Layer layer, std::uint32_t k, Rescanned&& rescanned,
                     std::vector<std::uint64_t>& out) const {
    db->index(layer).for_each_in(db->rects(layer)[k], [&](std::uint32_t j) {
      if (j == k || (j < k && rescanned(j))) return;
      out.push_back(pack(std::min(j, k), std::max(j, k)));
    });
  }

  /// Spacing records between shape k and every closer-than-min_space
  /// shape of another merged polygon (`root` is the component table).
  /// Merging touching rects first lets two rects of one polygon sit
  /// close (a contact pad bridged to a gate by a stub); it also skips
  /// true same-polygon notches, the approximation drc.hpp documents.
  template <typename Rescanned>
  void scan_space(Layer layer, std::uint32_t k,
                  const std::vector<std::uint32_t>& root,
                  Rescanned&& rescanned, Recs& out) const {
    const Coord min_space = tech.rule(layer).min_space;
    const auto& rects = db->rects(layer);
    db->index(layer).for_each_in(
        rects[k].expanded(min_space), [&](std::uint32_t j) {
          if (j == k || root[j] == root[k] || (j < k && rescanned(j))) return;
          const Coord gap = geom::rect_gap(rects[k], rects[j]);
          if (gap >= min_space) return;
          const std::uint32_t lo = std::min(j, k), hi = std::max(j, k);
          out.push_back({space_phase(layer), lo, hi,
                         {RuleKind::MinSpace, layer, rects[lo], rects[hi],
                          space_note(gap, min_space),
                          db->shape_path(layer, lo),
                          db->shape_path(layer, hi)}});
        });
  }

  void scan_via(std::size_t vi, std::uint32_t i, Recs& out) const {
    const ViaRule& vr = via_rules[vi];
    const Rect& via = db->rects(vr.via)[i];
    bool landed = false;
    for (Layer lower : vr.lower)
      if (enclosed_by_any(via.expanded(vr.encl_lower), db->index(lower),
                          db->rects(lower)))
        landed = true;
    if (!landed)
      out.push_back({via_phase(vi), i, 0,
                     {RuleKind::ViaEnclosure, vr.via, via, {},
                      "missing lower-layer enclosure",
                      db->shape_path(vr.via, i), {}}});
    if (!enclosed_by_any(via.expanded(vr.encl_upper), db->index(vr.upper),
                         db->rects(vr.upper)))
      out.push_back({via_phase(vi), i, 1,
                     {RuleKind::ViaEnclosure, vr.via, via, {},
                      "missing upper-layer enclosure",
                      db->shape_path(vr.via, i), {}}});
  }

  void scan_well(std::uint32_t i, Recs& out) const {
    const Rect& pd = db->rects(Layer::PDiff)[i];
    if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                         db->index(Layer::NWell), db->rects(Layer::NWell)))
      out.push_back({well_phase(), i, 0,
                     {RuleKind::WellCoverage, Layer::PDiff, pd, {},
                      "pdiff not enclosed by nwell",
                      db->shape_path(Layer::PDiff, i), {}}});
  }

  // --- full scan -------------------------------------------------------------

  void full_scan() {
    const auto every = [](std::uint32_t) { return true; };
    for (Layer layer : geom::all_layers()) {
      const auto& rule = tech.rule(layer);
      const std::size_t n = db->rects(layer).size();
      if (n == 0) continue;
      if (rule.min_width > 0)
        scan_ids(n, recs, [&](std::uint32_t i, Recs& out) {
          scan_width(layer, i, out);
        });
      if (rule.min_space > 0) {
        auto& sc = space[static_cast<std::size_t>(layer)];
        scan_ids(n, sc.edges,
                 [&](std::uint32_t i, std::vector<std::uint64_t>& out) {
                   scan_touching(layer, i, every, out);
                 });
        const auto root = roots_of(n, sc.edges);
        sc.label = labels_of(root);
        scan_ids(n, recs, [&](std::uint32_t i, Recs& out) {
          scan_space(layer, i, root, every, out);
        });
      }
    }
    for (std::size_t vi = 0; vi < via_rules.size(); ++vi)
      scan_ids(db->rects(via_rules[vi].via).size(), recs,
               [&](std::uint32_t i, Recs& out) { scan_via(vi, i, out); });
    scan_ids(db->rects(Layer::PDiff).size(), recs,
             [&](std::uint32_t i, Recs& out) { scan_well(i, out); });
  }

  // --- incremental update ----------------------------------------------------

  /// Drops phase-`phase` records whose emitter (and, when
  /// `remap_seq`, partner) was removed or is in `affected`, renumbering
  /// the survivors through the splice.
  void filter_phase(int phase, const ShapeSplice& sp,
                    const std::vector<char>& affected, bool remap_seq) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < recs.size(); ++r) {
      Rec rec = std::move(recs[r]);
      if (rec.phase == phase) {
        const std::uint32_t e = sp.remap(rec.emitter);
        if (e == ShapeSplice::kRemoved || affected[e]) continue;
        rec.emitter = e;
        if (remap_seq) {
          const std::uint32_t s = sp.remap(rec.seq);
          if (s == ShapeSplice::kRemoved || affected[s]) continue;
          rec.seq = s;
        }
      }
      recs[w++] = std::move(rec);
    }
    recs.resize(w);
  }

  void update_layer(Layer layer, const geom::EditResult& edit) {
    const auto& rule = tech.rule(layer);
    const ShapeSplice& sp = edit.splice_of(layer);
    const std::size_t n = db->rects(layer).size();
    const std::vector<char> none(n + 1, 0);

    if (rule.min_width > 0) {
      filter_phase(width_phase(layer), sp, none, false);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
        scan_width(layer, k, recs);
    }
    if (rule.min_space == 0) return;

    auto& sc = space[static_cast<std::size_t>(layer)];

    // 1. Carry surviving edges across the splice (a monotone remap, so
    //    the i<j packing is preserved).
    std::vector<std::uint64_t> edges;
    edges.reserve(sc.edges.size());
    for (std::uint64_t e : sc.edges) {
      const std::uint32_t a = sp.remap(static_cast<std::uint32_t>(e >> 32));
      const std::uint32_t b = sp.remap(static_cast<std::uint32_t>(e));
      if (a == ShapeSplice::kRemoved || b == ShapeSplice::kRemoved) continue;
      edges.push_back(pack(a, b));
    }
    // 2. Discover the inserted shapes' edges.
    const auto is_new = [&](std::uint32_t id) {
      return id >= sp.begin && id < sp.new_end;
    };
    for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
      scan_touching(layer, k, is_new, edges);

    // 3. Rebuild the partition and labels; a shape is affected when it
    //    is new or its component label changed (exactly the shapes
    //    whose same-component predicate can have flipped).
    const auto root = roots_of(n, edges);
    auto label = labels_of(root);
    std::vector<char> affected(n + 1, 0);
    for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) affected[k] = 1;
    for (std::uint32_t o = 0; o < sc.label.size(); ++o) {
      const std::uint32_t m = sp.remap(o);
      if (m == ShapeSplice::kRemoved) continue;
      if (sp.remap(sc.label[o]) != label[m]) affected[m] = 1;
    }
    sc.edges = std::move(edges);
    sc.label = std::move(label);

    // 4. Splice the surviving spacing records and rescan the affected
    //    shapes.
    filter_phase(space_phase(layer), sp, affected, true);
    const auto is_affected = [&](std::uint32_t id) { return affected[id] != 0; };
    for (std::uint32_t k = 0; k < n; ++k)
      if (affected[k]) scan_space(layer, k, root, is_affected, recs);
  }

  /// Ids of `idx` whose rect intersects any dirty rect expanded by
  /// `reach` (Minkowski: r.expanded(reach) hits the dirty region iff r
  /// hits the region expanded by reach), OR'd into `affected`.
  static void mark_dirty(const TileIndex& idx, const std::vector<Rect>& dirty,
                         Coord reach, std::vector<char>& affected) {
    for (const Rect& d : dirty)
      idx.for_each_in(d.expanded(reach),
                      [&](std::uint32_t id) { affected[id] = 1; });
  }

  void update(const geom::EditResult& edit) {
    for (Layer layer : geom::all_layers())
      if (edit.touches(layer)) update_layer(layer, edit);

    for (std::size_t vi = 0; vi < via_rules.size(); ++vi) {
      const ViaRule& vr = via_rules[vi];
      const ShapeSplice& sp = edit.splice_of(vr.via);
      std::vector<Rect> lower_dirty, upper_dirty;
      for (Layer lower : vr.lower)
        for (const Rect& d : edit.dirty_rects(lower)) lower_dirty.push_back(d);
      for (const Rect& d : edit.dirty_rects(vr.upper)) upper_dirty.push_back(d);
      if (sp.empty() && lower_dirty.empty() && upper_dirty.empty()) continue;

      const auto& via_idx = db->index(vr.via);
      std::vector<char> affected(db->rects(vr.via).size() + 1, 0);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) affected[k] = 1;
      mark_dirty(via_idx, lower_dirty, vr.encl_lower, affected);
      mark_dirty(via_idx, upper_dirty, vr.encl_upper, affected);

      filter_phase(via_phase(vi), sp, affected, false);
      for (std::uint32_t i = 0; i < db->rects(vr.via).size(); ++i)
        if (affected[i]) scan_via(vi, i, recs);
    }

    {
      const ShapeSplice& sp = edit.splice_of(Layer::PDiff);
      const auto nwell_dirty = edit.dirty_rects(Layer::NWell);
      if (!sp.empty() || !nwell_dirty.empty()) {
        const auto& pdiff_idx = db->index(Layer::PDiff);
        std::vector<char> affected(db->rects(Layer::PDiff).size() + 1, 0);
        for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) affected[k] = 1;
        mark_dirty(pdiff_idx, nwell_dirty, tech.well_encl_diff, affected);
        filter_phase(well_phase(), sp, affected, false);
        for (std::uint32_t i = 0; i < db->rects(Layer::PDiff).size(); ++i)
          if (affected[i]) scan_well(i, recs);
      }
    }
  }

  std::vector<Violation> report() const {
    std::vector<const Rec*> order;
    order.reserve(recs.size());
    for (const Rec& r : recs) order.push_back(&r);
    std::sort(order.begin(), order.end(), [](const Rec* x, const Rec* y) {
      return std::make_tuple(x->phase, x->emitter, x->seq) <
             std::make_tuple(y->phase, y->emitter, y->seq);
    });
    std::vector<Violation> out;
    out.reserve(order.size());
    for (const Rec* r : order) out.push_back(r->v);
    std::stable_sort(out.begin(), out.end(), canon_less);
    if (out.size() > opt.max_violations) out.resize(opt.max_violations);
    return out;
  }
};

}  // namespace

geom::Coord max_interaction_distance(const tech::Tech& tech) {
  Coord d = 1;
  for (Layer layer : geom::all_layers())
    d = std::max(d, tech.rule(layer).min_space);
  for (Coord e : {tech.contact_encl_diff, tech.contact_encl_poly,
                  tech.contact_encl_m1, tech.via1_encl, tech.via2_encl,
                  tech.well_encl_diff, tech.well_space})
    d = std::max(d, e);
  return d;
}

geom::Coord tile_size_for(const tech::Tech& tech) {
  // 8x the reach keeps bucket fan-out low (the seed hash used the same
  // multiple) while every rule still only consults adjacent tiles.
  return max_interaction_distance(tech) * 8;
}

std::vector<Violation> check(const geom::LayoutDB& db, const tech::Tech& tech,
                             const DrcOptions& options) {
  return Checker(db, tech, options).report();
}

std::vector<Violation> check(const geom::Cell& top, const tech::Tech& tech,
                             const DrcOptions& options) {
  return check(geom::LayoutDB(top, tile_size_for(tech)), tech, options);
}

// --- incremental checker -----------------------------------------------------

struct IncrementalDrc::Impl : Checker {
  using Checker::Checker;
};

IncrementalDrc::IncrementalDrc(const geom::LayoutDB& db, const tech::Tech& tech,
                               const DrcOptions& options)
    : impl_(std::make_unique<Impl>(db, tech, options)) {}

IncrementalDrc::~IncrementalDrc() = default;

void IncrementalDrc::update(const geom::EditResult& edit) {
  impl_->update(edit);
}

std::vector<Violation> IncrementalDrc::report() const { return impl_->report(); }

std::string describe(const Violation& v) {
  const char* kind = "?";
  switch (v.kind) {
    case RuleKind::MinWidth: kind = "min-width"; break;
    case RuleKind::MinSpace: kind = "min-space"; break;
    case RuleKind::ViaEnclosure: kind = "via-enclosure"; break;
    case RuleKind::WellCoverage: kind = "well-coverage"; break;
  }
  std::string line =
      strfmt("%s on %s at (%.1f,%.1f)-(%.1f,%.1f) %s", kind,
             std::string(geom::layer_name(v.layer)).c_str(),
             geom::to_lambda(v.a.lo.x), geom::to_lambda(v.a.lo.y),
             geom::to_lambda(v.a.hi.x), geom::to_lambda(v.a.hi.y),
             v.note.c_str());
  if (!v.path_a.empty()) line += strfmt(" [in %s]", v.path_a.c_str());
  return line;
}

}  // namespace bisram::drc
