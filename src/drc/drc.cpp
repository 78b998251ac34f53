#include "drc/drc.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <tuple>
#include <utility>

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

/// Runs scan(i, part) for every i in [0, n) — a shape id, or a position
/// in a sorted id list — on util/parallel, in fixed kScanChunk-sized
/// chunks, and appends the per-chunk lists to `out` in chunk order: the
/// list one ascending serial scan would build, at any thread count.
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
//     coverage comes last; the checker keeps one record list per phase;
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
// fixed chunks of shape ids, joined in chunk order; the union-find over
// the touching pairs and the component labels are serial. An edit then
// only has to (a) drop/renumber the records of the phases it can reach
// through the shape-id splice, (b) relabel the merged polygons it
// touched (relabel() below, a serial walk) and (c) re-emit records for
// the shapes whose predicate could have changed, through the same
// per-shape functions and the same chunked scan over the sorted list of
// those shapes; everything else provably still holds (surviving shapes
// keep their rects, and their instance paths are unaffected by an edit
// in a disjoint subtree).

struct Checker {
  struct Rec {
    std::uint32_t emitter;
    std::uint32_t seq;
    Violation v;
  };
  using Recs = std::vector<Rec>;
  /// Marks a shape the current relabel() walk has reached.
  static constexpr std::uint32_t kVisited = ShapeSplice::kRemoved - 1;

  const LayoutDB* db;
  tech::Tech tech;
  DrcOptions opt;
  std::vector<ViaRule> via_rules;
  std::vector<Recs> recs;  // [phase]
  /// Per layer with a spacing rule: each shape's canonical component
  /// label, the smallest member id of its merged polygon. Labels are
  /// unique per component (a label is a member), so a shape pair's
  /// same-polygon predicate can only flip if one endpoint's label
  /// changes; and a splice remaps the labels of untouched components
  /// monotonically, so "label != remapped old label" is an exact change
  /// detector.
  std::array<std::vector<std::uint32_t>, geom::kLayerCount> label;

  Checker(const LayoutDB& layout, const tech::Tech& t, const DrcOptions& o)
      : db(&layout), tech(t), opt(o), via_rules(via_rules_for(t)) {
    recs.resize(static_cast<std::size_t>(well_phase()) + 1);
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
  Recs& list(int phase) { return recs[static_cast<std::size_t>(phase)]; }

  /// label[i] = smallest shape id in i's component, from the touching
  /// pairs. Root identities depend on the union order, but only the
  /// per-component minima are kept, and those do not.
  static std::vector<std::uint32_t> labels_of(
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
    std::vector<std::uint32_t> first(n, ShapeSplice::kRemoved);
    std::vector<std::uint32_t> out(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t root = find(i);
      if (first[root] == ShapeSplice::kRemoved) first[root] = i;
      out[i] = first[root];
    }
    return out;
  }

  // --- per-shape rules -------------------------------------------------------
  // `rescanned(j)` tells a pair rule whether partner j is visited by the
  // same pass; such a pair is found from both ends and kept from the
  // lower id's visit only.

  void scan_width(Layer layer, std::uint32_t k, Recs& out) const {
    const Rect& r = db->rects(layer)[k];
    if (std::min(r.width(), r.height()) < tech.rule(layer).min_width)
      out.push_back({k, 0,
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
  /// shape of another merged polygon (`lab` holds the component labels).
  /// Merging touching rects first lets two rects of one polygon sit
  /// close (a contact pad bridged to a gate by a stub); it also skips
  /// true same-polygon notches, the approximation drc.hpp documents.
  template <typename Rescanned>
  void scan_space(Layer layer, std::uint32_t k,
                  const std::vector<std::uint32_t>& lab,
                  Rescanned&& rescanned, Recs& out) const {
    const Coord min_space = tech.rule(layer).min_space;
    const auto& rects = db->rects(layer);
    db->index(layer).for_each_in(
        rects[k].expanded(min_space), [&](std::uint32_t j) {
          if (j == k || lab[j] == lab[k] || (j < k && rescanned(j))) return;
          const Coord gap = geom::rect_gap(rects[k], rects[j]);
          if (gap >= min_space) return;
          const std::uint32_t lo = std::min(j, k), hi = std::max(j, k);
          out.push_back({lo, hi,
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
      out.push_back({i, 0,
                     {RuleKind::ViaEnclosure, vr.via, via, {},
                      "missing lower-layer enclosure",
                      db->shape_path(vr.via, i), {}}});
    if (!enclosed_by_any(via.expanded(vr.encl_upper), db->index(vr.upper),
                         db->rects(vr.upper)))
      out.push_back({i, 1,
                     {RuleKind::ViaEnclosure, vr.via, via, {},
                      "missing upper-layer enclosure",
                      db->shape_path(vr.via, i), {}}});
  }

  void scan_well(std::uint32_t i, Recs& out) const {
    const Rect& pd = db->rects(Layer::PDiff)[i];
    if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                         db->index(Layer::NWell), db->rects(Layer::NWell)))
      out.push_back({i, 0,
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
        scan_ids(n, list(width_phase(layer)), [&](std::uint32_t i, Recs& out) {
          scan_width(layer, i, out);
        });
      if (rule.min_space > 0) {
        std::vector<std::uint64_t> edges;
        scan_ids(n, edges,
                 [&](std::uint32_t i, std::vector<std::uint64_t>& out) {
                   scan_touching(layer, i, every, out);
                 });
        auto& lab = label[static_cast<std::size_t>(layer)];
        lab = labels_of(n, edges);
        scan_ids(n, list(space_phase(layer)), [&](std::uint32_t i, Recs& out) {
          scan_space(layer, i, lab, every, out);
        });
      }
    }
    for (std::size_t vi = 0; vi < via_rules.size(); ++vi)
      scan_ids(db->rects(via_rules[vi].via).size(), list(via_phase(vi)),
               [&](std::uint32_t i, Recs& out) { scan_via(vi, i, out); });
    scan_ids(db->rects(Layer::PDiff).size(), list(well_phase()),
             [&](std::uint32_t i, Recs& out) { scan_well(i, out); });
  }

  // --- incremental update ----------------------------------------------------

  /// Drops the phase's records whose emitter (and, when `remap_seq`,
  /// partner) was removed or is in `affected` (sorted), renumbering the
  /// survivors through the splice in place.
  void filter_phase(int phase, const ShapeSplice& sp,
                    const std::vector<std::uint32_t>& affected,
                    bool remap_seq) {
    const auto hit = [&](std::uint32_t id) {
      return id == ShapeSplice::kRemoved ||
             std::binary_search(affected.begin(), affected.end(), id);
    };
    Recs& rs = list(phase);
    std::size_t w = 0;
    for (std::size_t r = 0; r < rs.size(); ++r) {
      const std::uint32_t e = sp.remap(rs[r].emitter);
      const std::uint32_t s = remap_seq ? sp.remap(rs[r].seq) : rs[r].seq;
      if (hit(e) || (remap_seq && hit(s))) continue;
      rs[r].emitter = e;
      rs[r].seq = s;
      if (w != r) rs[w] = std::move(rs[r]);
      ++w;
    }
    rs.erase(rs.begin() + static_cast<std::ptrdiff_t>(w), rs.end());
  }

  /// Carries `layer`'s component labels across the edit and returns the
  /// shapes whose label changed, new shapes included, in ascending order.
  ///
  /// Only the polygons of the inserted shapes and of the survivors that
  /// touch the layer's old_bbox are re-walked (through the layer index,
  /// with scan_touching's predicate), and each gets its minimum member
  /// id. No other polygon can have changed: a survivor's polygon changes
  /// only if it gained an inserted shape, which is walked from, or lost
  /// a removed one. In the second case every remaining part of the old
  /// polygon still holds a survivor that touched a removed rect (the old
  /// polygon was connected, and survivors keep their rects), and that
  /// survivor intersects old_bbox. Every other polygon keeps its
  /// members, and the monotone splice keeps its minimum the minimum.
  std::vector<std::uint32_t> relabel(Layer layer,
                                     const geom::EditResult& edit) {
    const auto li = static_cast<std::size_t>(layer);
    const ShapeSplice& sp = edit.splice_of(layer);
    const auto& rects = db->rects(layer);
    const TileIndex& idx = db->index(layer);
    auto& lab = label[li];

    // Splice the labels; a survivor's prior label is its old label
    // through the splice (kRemoved when that shape is gone). The stored
    // labels are remapped in place only when ids shift.
    sp.resize_slots(lab);
    const bool shifted = sp.delta() != 0;
    if (shifted)
      for (std::uint32_t& l : lab) l = sp.remap(l);
    std::fill(lab.begin() + sp.begin, lab.begin() + sp.new_end,
              ShapeSplice::kRemoved);
    const auto prior = [&](std::uint32_t m) {
      return shifted ? lab[m] : sp.remap(lab[m]);
    };

    // Walk each seed's polygon once; `walked` lists (shape, prior label)
    // in walk order, `ends` closes each polygon.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> walked;
    std::vector<std::size_t> ends;
    const auto reach = [&](std::uint32_t j) {
      if (lab[j] == kVisited) return;
      walked.emplace_back(j, prior(j));
      lab[j] = kVisited;
    };
    const auto walk = [&](std::uint32_t seed) {
      if (lab[seed] == kVisited) return;
      reach(seed);
      for (std::size_t q = ends.empty() ? 0 : ends.back(); q < walked.size();
           ++q)
        idx.for_each_in(rects[walked[q].first], reach);
      ends.push_back(walked.size());
    };
    for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) walk(k);
    if (!edit.old_bbox[li].empty()) idx.for_each_in(edit.old_bbox[li], walk);

    std::vector<std::uint32_t> affected;
    std::size_t first = 0;
    for (std::size_t end : ends) {
      std::uint32_t least = walked[first].first;
      for (std::size_t q = first; q < end; ++q)
        least = std::min(least, walked[q].first);
      for (std::size_t q = first; q < end; ++q) {
        lab[walked[q].first] = least;
        if (walked[q].second != least) affected.push_back(walked[q].first);
      }
      first = end;
    }
    std::sort(affected.begin(), affected.end());
    return affected;
  }

  void update_layer(Layer layer, const geom::EditResult& edit) {
    const auto& rule = tech.rule(layer);
    const ShapeSplice& sp = edit.splice_of(layer);

    if (rule.min_width > 0) {
      filter_phase(width_phase(layer), sp, {}, false);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
        scan_width(layer, k, list(width_phase(layer)));
    }
    if (rule.min_space == 0) return;

    // A shape is affected when it is new or its polygon label changed:
    // exactly the shapes whose same-polygon predicate can have flipped.
    const auto affected = relabel(layer, edit);
    filter_phase(space_phase(layer), sp, affected, true);
    const auto in_affected = [&](std::uint32_t id) {
      return std::binary_search(affected.begin(), affected.end(), id);
    };
    const auto& lab = label[static_cast<std::size_t>(layer)];
    scan_ids(affected.size(), list(space_phase(layer)),
             [&](std::uint32_t q, Recs& out) {
               scan_space(layer, affected[q], lab, in_affected, out);
             });
  }

  /// Sorted ids of `idx` whose rect is new in `sp` or intersects the
  /// bounding box of the dirty rects expanded by their reach (Minkowski:
  /// r.expanded(reach) hits a dirty rect iff r hits the rect expanded by
  /// reach). The box may take in a few shapes no dirty rect reaches;
  /// re-checking those re-emits their records unchanged.
  static std::vector<std::uint32_t> dirty_ids(
      const TileIndex& idx, const ShapeSplice& sp,
      const std::vector<std::pair<Rect, Coord>>& dirty) {
    Rect box{};
    for (const auto& [d, reach] : dirty) box = box.united(d.expanded(reach));
    std::vector<std::uint32_t> ids;
    if (!box.empty()) ids = idx.ids_in(box);
    // The new ids form one run; merge it into the ascending query ids.
    const auto at = std::lower_bound(ids.begin(), ids.end(), sp.begin);
    const auto past = std::lower_bound(at, ids.end(), sp.new_end);
    std::vector<std::uint32_t> out(ids.begin(), at);
    for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) out.push_back(k);
    out.insert(out.end(), past, ids.end());
    return out;
  }

  void update(const geom::EditResult& edit) {
    for (Layer layer : geom::all_layers())
      if (edit.touches(layer)) update_layer(layer, edit);

    for (std::size_t vi = 0; vi < via_rules.size(); ++vi) {
      const ViaRule& vr = via_rules[vi];
      const ShapeSplice& sp = edit.splice_of(vr.via);
      std::vector<std::pair<Rect, Coord>> dirty;
      for (Layer lower : vr.lower)
        for (const Rect& d : edit.dirty_rects(lower))
          dirty.emplace_back(d, vr.encl_lower);
      for (const Rect& d : edit.dirty_rects(vr.upper))
        dirty.emplace_back(d, vr.encl_upper);
      if (sp.empty() && dirty.empty()) continue;
      const auto affected = dirty_ids(db->index(vr.via), sp, dirty);
      filter_phase(via_phase(vi), sp, affected, false);
      scan_ids(affected.size(), list(via_phase(vi)),
               [&](std::uint32_t q, Recs& out) {
                 scan_via(vi, affected[q], out);
               });
    }

    const ShapeSplice& sp = edit.splice_of(Layer::PDiff);
    std::vector<std::pair<Rect, Coord>> dirty;
    for (const Rect& d : edit.dirty_rects(Layer::NWell))
      dirty.emplace_back(d, tech.well_encl_diff);
    if (sp.empty() && dirty.empty()) return;
    const auto affected = dirty_ids(db->index(Layer::PDiff), sp, dirty);
    filter_phase(well_phase(), sp, affected, false);
    scan_ids(affected.size(), list(well_phase()),
             [&](std::uint32_t q, Recs& out) { scan_well(affected[q], out); });
  }

  std::vector<Violation> report() const {
    std::vector<const Rec*> order;
    std::vector<Violation> out;
    for (const Recs& rs : recs) {
      order.clear();
      for (const Rec& r : rs) order.push_back(&r);
      std::sort(order.begin(), order.end(), [](const Rec* x, const Rec* y) {
        return std::tie(x->emitter, x->seq) < std::tie(y->emitter, y->seq);
      });
      for (const Rec* r : order) out.push_back(r->v);
    }
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
