#include "drc/drc.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
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
/// in a sorted id list — through parallel_collect in kScanChunk-sized
/// chunks: `out` gets the list one ascending serial scan would append, at
/// any thread count.
template <typename T, typename Scan>
void scan_ids(std::size_t n, std::vector<T>& out, Scan&& scan) {
  parallel_collect(static_cast<std::int64_t>(n), kScanChunk, out,
                   [&](std::int64_t lo, std::int64_t hi, std::vector<T>& part) {
                     for (auto i = static_cast<std::uint32_t>(lo); i < hi; ++i)
                       scan(i, part);
                   });
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
// Every violation is kept (untruncated) as a record of two ids, (emitter,
// seq), in the list of its phase:
//
//   * phase is the rule scan that produced it: width of layer l is 2l,
//     spacing of layer l is 2l+1, via rule vi is 2*kLayerCount+vi, well
//     coverage comes last; the phase gives the rule kind and the layer;
//   * emitter is the shape id the record was found from, and seq orders
//     one emitter's records (the spacing partner id; 0 = lower /
//     1 = upper for via enclosure).
//
// The triple (phase, emitter, seq) is unique per record and names
// everything a Violation holds: its rects are the emitter's (and, for
// spacing, the partner's) in the database, and its note and instance
// paths follow from those. report() orders the records by the canonical
// (rule phase, layer, coordinates) key read from the database, breaking
// ties by (phase, emitter, seq), and builds a Violation only for each
// record it returns. So the report is a function of the database's
// contents alone: the same at any thread count, chunk size and tile
// size.
//
// The full scan runs the per-shape work (touching pairs, width and
// spacing records, via enclosure, well coverage) on util/parallel in
// fixed chunks of shape ids. Records are joined in chunk order
// (parallel_collect). Touching pairs are united as they are found, in
// the shared lock-free UnionFind, whose flattened labels are each
// polygon's least shape id at any thread count. An edit then
// only has to (a) drop/renumber the records of the phases it can reach
// through the shape-id splice, (b) relabel the merged polygons it
// touched (relabel() below: a walk on this thread while it stays within
// one chunk, frontier by frontier on the pool past that, uniting in the
// same UnionFind) and (c) re-emit records for
// the shapes whose predicate could have changed, through the same
// per-shape functions and the same chunked scan over the sorted list of
// those shapes; everything else provably still holds (surviving shapes
// keep their rects, and their instance paths are unaffected by an edit
// in a disjoint subtree).

struct Checker {
  struct Rec {
    std::uint32_t emitter;
    std::uint32_t seq;
  };
  using Recs = std::vector<Rec>;
  /// Marks a shape the current relabel() walk has reached.
  static constexpr std::uint32_t kVisited = ShapeSplice::kRemoved - 1;
  /// An unclaimed slot of pooled_walk().
  static constexpr std::uint32_t kFree = ShapeSplice::kRemoved;

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
  /// pooled_walk()'s claim and UnionFind slots, one per shape of the
  /// largest layer walked so far (layers are walked one at a time).
  std::vector<std::uint32_t> claim;
  /// filter_phase()'s flags, one per shape of the largest layer filtered
  /// so far; all clear between calls.
  std::vector<char> marked;

  Checker(const LayoutDB& layout, const tech::Tech& t, const DrcOptions& o)
      : db(&layout), tech(t), opt(o), via_rules(via_rules_for(t)) {
    recs.resize(static_cast<std::size_t>(well_phase()) + 1);
    full_scan();
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

  // --- per-shape rules -------------------------------------------------------
  // `rescanned(j)` tells a pair rule whether partner j is visited by the
  // same pass; such a pair is found from both ends and kept from the
  // lower id's visit only.

  void scan_width(Layer layer, std::uint32_t k, Recs& out) const {
    const Rect& r = db->rects(layer)[k];
    if (std::min(r.width(), r.height()) < tech.rule(layer).min_width)
      out.push_back({k, 0});
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
          if (geom::rect_gap(rects[k], rects[j]) >= min_space) return;
          out.push_back({std::min(j, k), std::max(j, k)});
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
    if (!landed) out.push_back({i, 0});
    if (!enclosed_by_any(via.expanded(vr.encl_upper), db->index(vr.upper),
                         db->rects(vr.upper)))
      out.push_back({i, 1});
  }

  void scan_well(std::uint32_t i, Recs& out) const {
    const Rect& pd = db->rects(Layer::PDiff)[i];
    if (!enclosed_by_any(pd.expanded(tech.well_encl_diff),
                         db->index(Layer::NWell), db->rects(Layer::NWell)))
      out.push_back({i, 0});
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
        // Component labels: every touching pair united from its lower id
        // as the scan finds it, then each shape labelled with its
        // polygon's least id.
        auto& lab = label[static_cast<std::size_t>(layer)];
        const UnionFind uf(lab);
        uf.reset(n);
        const auto& rects = db->rects(layer);
        const TileIndex& idx = db->index(layer);
        parallel_for(static_cast<std::int64_t>(n), kScanChunk,
                     [&](std::int64_t i) {
                       const auto k = static_cast<std::uint32_t>(i);
                       idx.for_each_in(rects[k], [&](std::uint32_t j) {
                         if (j > k) uf.unite(k, j);
                       });
                     });
        uf.flatten();
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
  /// partner) was removed or is in `affected`, renumbering the survivors
  /// through the splice in place. `affected` is flagged in `marked` for
  /// the pass, so a record costs a lookup per id.
  void filter_phase(int phase, const ShapeSplice& sp,
                    const std::vector<std::uint32_t>& affected,
                    bool remap_seq) {
    const std::size_t n = db->rects(rule_of(phase).second).size();
    if (marked.size() < n) marked.resize(n, 0);
    for (const std::uint32_t id : affected) marked[id] = 1;
    const auto hit = [&](std::uint32_t id) {
      return id == ShapeSplice::kRemoved || marked[id] != 0;
    };
    Recs& rs = list(phase);
    std::size_t w = 0;
    for (const Rec& r : rs) {
      const std::uint32_t e = sp.remap(r.emitter);
      const std::uint32_t s = remap_seq ? sp.remap(r.seq) : r.seq;
      if (hit(e) || (remap_seq && hit(s))) continue;
      rs[w++] = {e, s};
    }
    rs.resize(w);
    for (const std::uint32_t id : affected) marked[id] = 0;
  }

  /// Carries `layer`'s component labels across the edit and returns the
  /// shapes whose label changed, new shapes included, in ascending order.
  ///
  /// Only the polygons of the inserted shapes and of the survivors that
  /// touch the layer's old_bbox (the seeds) are re-walked (through the
  /// layer index, touching as in the full scan), and each gets its
  /// minimum member id. No other polygon can have changed: a survivor's
  /// polygon changes only if it gained an inserted shape, which is
  /// walked from, or lost a removed one. In the second case every
  /// remaining part of the old polygon still holds a survivor that
  /// touched a removed rect (the old polygon was connected, and
  /// survivors keep their rects), and that survivor intersects old_bbox.
  /// Every other polygon keeps its members, and the monotone splice
  /// keeps its minimum the minimum.
  ///
  /// The walk goes one polygon at a time on this thread while it stays
  /// narrow. Once the seeds, or one polygon's queue of reached but
  /// unexpanded shapes, outgrow one kScanChunk, it is redone on the pool
  /// by pooled_walk(), which expands a whole frontier at a time: a row
  /// move seeds tens of thousands of shapes, while a long chain-shaped
  /// polygon (a rail a small edit touches) has narrow frontiers that
  /// the pool could not share out.
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
    const auto prior = [&](std::uint32_t stored) {
      return shifted ? stored : sp.remap(stored);
    };
    std::vector<std::uint32_t> seeds(sp.new_end - sp.begin);
    std::iota(seeds.begin(), seeds.end(), sp.begin);
    if (!edit.old_bbox[li].empty())
      idx.for_each_in(edit.old_bbox[li],
                      [&](std::uint32_t j) { seeds.push_back(j); });
    if (seeds.size() > kScanChunk) return pooled_walk(layer, seeds, prior);

    // Walk each seed's polygon once; `walked` lists (shape, stored
    // label) in walk order, `ends` closes each polygon.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> walked;
    std::vector<std::size_t> ends;
    const auto reach = [&](std::uint32_t j) {
      if (lab[j] == kVisited) return;
      walked.emplace_back(j, lab[j]);
      lab[j] = kVisited;
    };
    for (const std::uint32_t seed : seeds) {
      if (lab[seed] == kVisited) continue;
      reach(seed);
      for (std::size_t q = ends.empty() ? 0 : ends.back(); q < walked.size();
           ++q) {
        idx.for_each_in(rects[walked[q].first], reach);
        if (walked.size() - q > kScanChunk) {
          for (const auto& [j, stored] : walked) lab[j] = stored;
          return pooled_walk(layer, seeds, prior);
        }
      }
      ends.push_back(walked.size());
    }

    std::vector<std::uint32_t> affected;
    std::size_t first = 0;
    for (std::size_t end : ends) {
      std::uint32_t least = walked[first].first;
      for (std::size_t q = first; q < end; ++q)
        least = std::min(least, walked[q].first);
      for (std::size_t q = first; q < end; ++q) {
        lab[walked[q].first] = least;
        if (prior(walked[q].second) != least)
          affected.push_back(walked[q].first);
      }
      first = end;
    }
    std::sort(affected.begin(), affected.end());
    return affected;
  }

  /// relabel()'s walk on the pool, frontier by frontier from every seed
  /// at once. A frontier's shapes are split into kScanChunk chunks
  /// (parallel_collect); each claims the unvisited shapes touching its
  /// own by CAS on their `claim` slot, which makes the slot a UnionFind
  /// root, and unites each touching pair from its lower id. So every
  /// polygon walked ends as one component rooted at its least id, at any
  /// thread count. The claim slots hold kFree between walks.
  template <typename Prior>
  std::vector<std::uint32_t> pooled_walk(
      Layer layer, const std::vector<std::uint32_t>& seeds, Prior&& prior) {
    const auto li = static_cast<std::size_t>(layer);
    const auto& rects = db->rects(layer);
    const TileIndex& idx = db->index(layer);
    auto& lab = label[li];
    if (claim.size() < rects.size()) claim.resize(rects.size(), kFree);
    const UnionFind uf(claim);
    using Claimed = std::pair<std::uint32_t, std::uint32_t>;  // shape, label
    const auto try_claim = [&](std::uint32_t j, std::vector<Claimed>& out) {
      std::uint32_t free = kFree;
      if (std::atomic_ref(claim[j]).compare_exchange_strong(
              free, j, std::memory_order_relaxed))
        out.emplace_back(j, lab[j]);
    };

    std::vector<Claimed> walked, frontier, next;
    scan_ids(seeds.size(), frontier, [&](std::uint32_t q, auto& part) {
      try_claim(seeds[q], part);
    });
    while (!frontier.empty()) {
      walked.insert(walked.end(), frontier.begin(), frontier.end());
      next.clear();
      scan_ids(frontier.size(), next, [&](std::uint32_t q, auto& part) {
        const std::uint32_t k = frontier[q].first;
        idx.for_each_in(rects[k], [&](std::uint32_t j) {
          if (j == k) return;
          try_claim(j, part);
          if (j > k) uf.unite(k, j);
        });
      });
      frontier.swap(next);
    }

    std::vector<std::uint32_t> affected;
    scan_ids(walked.size(), affected, [&](std::uint32_t q, auto& part) {
      const auto [j, stored] = walked[q];
      lab[j] = uf.find(j);
      if (prior(stored) != lab[j]) part.push_back(j);
    });
    parallel_for(static_cast<std::int64_t>(walked.size()), kScanChunk,
                 [&](std::int64_t q) {
                   claim[walked[static_cast<std::size_t>(q)].first] = kFree;
                 });
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

  /// The rule kind and layer of a phase's records.
  std::pair<RuleKind, Layer> rule_of(int phase) const {
    if (phase >= well_phase()) return {RuleKind::WellCoverage, Layer::PDiff};
    if (phase >= via_phase(0))
      return {RuleKind::ViaEnclosure,
              via_rules[static_cast<std::size_t>(phase - via_phase(0))].via};
    const auto layer = static_cast<Layer>(phase / 2);
    return {phase % 2 == 0 ? RuleKind::MinWidth : RuleKind::MinSpace, layer};
  }

  /// The Violation a record stands for, built from the database.
  Violation violation(int phase, const Rec& r) const {
    const auto [kind, layer] = rule_of(phase);
    const auto& rects = db->rects(layer);
    Violation v{kind, layer, rects[r.emitter], {}, "",
                db->shape_path(layer, r.emitter), {}};
    switch (kind) {
      case RuleKind::MinWidth: break;
      case RuleKind::MinSpace:
        v.b = rects[r.seq];
        v.note = space_note(geom::rect_gap(v.a, v.b), tech.rule(layer).min_space);
        v.path_b = db->shape_path(layer, r.seq);
        break;
      case RuleKind::ViaEnclosure:
        v.note = r.seq == 0 ? "missing lower-layer enclosure"
                            : "missing upper-layer enclosure";
        break;
      case RuleKind::WellCoverage: v.note = "pdiff not enclosed by nwell"; break;
    }
    return v;
  }

  std::vector<Violation> report() const {
    // Each record's canonical key: rule rank, layer and coordinates, then
    // its (phase, emitter, seq) ids, which are unique.
    struct Key {
      int rank;
      Layer layer;
      Rect a, b;
      int phase;
      Rec rec;
      auto tie() const {
        return std::tie(rank, layer, a.lo.y, a.lo.x, a.hi.y, a.hi.x, b.lo.y,
                        b.lo.x, b.hi.y, b.hi.x, phase, rec.emitter, rec.seq);
      }
    };
    std::vector<Key> keys;
    for (int phase = 0; phase <= well_phase(); ++phase) {
      const auto [kind, layer] = rule_of(phase);
      const auto& rects = db->rects(layer);
      for (const Rec& r : recs[static_cast<std::size_t>(phase)])
        keys.push_back({kind_rank(kind), layer, rects[r.emitter],
                        kind == RuleKind::MinSpace ? rects[r.seq] : Rect{},
                        phase, r});
    }
    const auto less = [](const Key& x, const Key& y) { return x.tie() < y.tie(); };
    const std::size_t n = std::min(keys.size(), opt.max_violations);
    if (n < keys.size())
      std::nth_element(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(n),
                       keys.end(), less);
    std::sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(n), less);
    std::vector<Violation> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(violation(keys[i].phase, keys[i].rec));
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
  // 4x the reach: a spacing window around a shape up to twice the reach
  // wide still covers at most 2 x 2 tiles, and a non-empty Metal1
  // bucket of the Fig. 6 slice holds 12 shapes on average instead of 37
  // at 8x (Poly 7 instead of 22, Contact 5 instead of 16), so each
  // query tests far fewer candidates.
  return max_interaction_distance(tech) * 4;
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
