#include "geom/layout_db.hpp"

#include <algorithm>
#include <string_view>

#include "util/checkpoint.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"

namespace bisram::geom {

// --- TileIndex ---------------------------------------------------------------

namespace {

/// Folds `r` into `b` by hand rather than with Rect::united, which
/// ignores degenerate rects: the index takes any rect, zero-width and
/// point rects included, and its bounds must cover every one of them.
void fold(Rect& b, const Rect& r) {
  b.lo.x = std::min(b.lo.x, r.lo.x);
  b.lo.y = std::min(b.lo.y, r.lo.y);
  b.hi.x = std::max(b.hi.x, r.hi.x);
  b.hi.y = std::max(b.hi.y, r.hi.y);
}

Rect fold_all(const std::vector<Rect>& rects) {
  if (rects.empty()) return Rect{};
  Rect b = rects[0];
  for (const Rect& r : rects) fold(b, r);
  return b;
}

/// True when `r` reaches an edge of `b` (so removing it may shrink b).
bool on_edge(const Rect& b, const Rect& r) {
  return r.lo.x == b.lo.x || r.lo.y == b.lo.y || r.hi.x == b.hi.x ||
         r.hi.y == b.hi.y;
}

}  // namespace

TileIndex::TileIndex(const std::vector<Rect>& rects, Coord tile)
    : rects_(&rects), count_(rects.size()), tile_(std::max<Coord>(tile, 1)) {
  if (count_ == 0) return;
  bounds_ = grid_ = fold_all(rects);
  cols_ = static_cast<int>((grid_.width()) / tile_ + 1);
  rows_ = static_cast<int>((grid_.height()) / tile_ + 1);
  buckets_.resize(static_cast<std::size_t>(cols_) *
                  static_cast<std::size_t>(rows_));
  for (std::uint32_t i = 0; i < count_; ++i)
    for_each_tile(rects[i], [i](std::vector<std::uint32_t>& b) {
      b.push_back(i);
    });
}

template <typename Fn>
void TileIndex::for_each_tile(const Rect& r, Fn&& fn) {
  const int x0 = tx_of(r.lo.x), x1 = tx_of(r.hi.x);
  const int y0 = ty_of(r.lo.y), y1 = ty_of(r.hi.y);
  for (int ty = y0; ty <= y1; ++ty)
    for (int tx = x0; tx <= x1; ++tx)
      fn(buckets_[static_cast<std::size_t>(ty) *
                      static_cast<std::size_t>(cols_) +
                  static_cast<std::size_t>(tx)]);
}

const std::vector<std::uint32_t>& TileIndex::bucket(int tx, int ty) const {
  static const std::vector<std::uint32_t> kEmpty;
  if (count_ == 0 || tx < 0 || ty < 0 || tx >= cols_ || ty >= rows_)
    return kEmpty;
  return buckets_[static_cast<std::size_t>(ty) *
                      static_cast<std::size_t>(cols_) +
                  static_cast<std::size_t>(tx)];
}

std::vector<std::uint32_t> TileIndex::ids_in(const Rect& window) const {
  std::vector<std::uint32_t> out;
  for_each_in(window, [&](std::uint32_t id) { out.push_back(id); });
  return out;
}

void TileIndex::splice(const ShapeSplice& sp, std::span<const Rect> old) {
  const std::vector<Rect>& rects = *rects_;
  const std::size_t was = count_;
  count_ = rects.size();
  if (buckets_.empty()) {
    // Empty since construction: nothing to drop or shift, and the new
    // ids are the whole set.
    *this = TileIndex(rects, tile_);
    return;
  }
  // Within a bucket the ids below sp.begin come first, then the ids from
  // sp.old_end on; the invalidated ids sit between them and the new ids
  // take their place, so every step keeps each bucket ascending.
  for (const Rect& r : old)
    for_each_tile(r, [&](std::vector<std::uint32_t>& b) {
      const auto lo = std::lower_bound(b.begin(), b.end(), sp.begin);
      b.erase(lo, std::lower_bound(lo, b.end(), sp.old_end));
    });
  if (const std::int64_t delta = sp.delta(); delta != 0)
    for (auto& b : buckets_)
      for (auto it = b.rbegin(); it != b.rend() && *it >= sp.old_end; ++it)
        *it = static_cast<std::uint32_t>(*it + delta);
  // The new ids, gathered per tile (tile << 32 | id, sorted) so that each
  // touched bucket takes its run of ids with one insert.
  std::vector<std::uint64_t> placed;
  for (std::uint32_t id = sp.begin; id < sp.new_end; ++id)
    for_each_tile(rects[id], [&](std::vector<std::uint32_t>& b) {
      const auto t = static_cast<std::uint64_t>(&b - buckets_.data());
      placed.push_back(t << 32 | id);
    });
  std::sort(placed.begin(), placed.end());
  for (std::size_t i = 0; i < placed.size();) {
    const std::uint64_t t = placed[i] >> 32;
    std::size_t j = i;
    while (j < placed.size() && placed[j] >> 32 == t) ++j;
    auto& b = buckets_[static_cast<std::size_t>(t)];
    const auto at = b.insert(std::lower_bound(b.begin(), b.end(), sp.begin),
                             j - i, 0);
    for (std::size_t k = i; k < j; ++k)
      at[static_cast<std::ptrdiff_t>(k - i)] =
          static_cast<std::uint32_t>(placed[k]);
    i = j;
  }
  // Exact bounds: a removal can only shrink them when a removed rect
  // reached an edge; otherwise the new rects just widen them.
  bool refold = false;
  for (const Rect& r : old) refold = refold || on_edge(bounds_, r);
  if (refold) {
    bounds_ = fold_all(rects);
  } else {
    if (was == 0 && count_ != 0) bounds_ = rects[sp.begin];  // refilled
    for (std::uint32_t id = sp.begin; id < sp.new_end; ++id)
      fold(bounds_, rects[id]);
  }
}

// --- EditResult --------------------------------------------------------------

std::vector<Rect> EditResult::dirty_rects(Layer l) const {
  const auto li = static_cast<std::size_t>(l);
  std::vector<Rect> out;
  if (!old_bbox[li].empty()) out.push_back(old_bbox[li]);
  if (!new_bbox[li].empty()) out.push_back(new_bbox[li]);
  return out;
}

Rect EditResult::dirty_bbox() const {
  Rect r{};
  for (std::size_t l = 0; l < static_cast<std::size_t>(kLayerCount); ++l)
    r = r.united(old_bbox[l]).united(new_bbox[l]);
  return r;
}

// --- LayoutDB ----------------------------------------------------------------

namespace {

[[noreturn]] void flatten_fail(const std::string& where, std::string code,
                               std::string message) {
  throw DiagError({{Severity::Error, std::move(code), std::move(message),
                    where, 0, 0}});
}

/// The first shape of a layer whose path id is >= `node` (a layer's
/// path ids are non-decreasing, see LayoutDB::path_ids).
std::size_t path_lower_bound(const std::vector<std::uint32_t>& ids,
                             std::uint32_t node) {
  return static_cast<std::size_t>(
      std::lower_bound(ids.begin(), ids.end(), node) - ids.begin());
}

/// The one recursive flattener. Visits a cell's own shapes first, then
/// each instance depth-first — the order every consumer's output
/// depends on — appending one path node per instance, numbered from
/// `base` (the id the first node of `parent` gets), and pushing each
/// shape's rect and node onto its layer's two columns. The constructor
/// runs it over the whole hierarchy with base 0; apply() runs it over an
/// edited subtree in the post-edit numbering. Hierarchies deeper than kMaxFlattenDepth or
/// with more than `budget` nodes are refused with stable DiagError
/// codes instead of overflowing the stack.
struct Flattener {
  const std::string& top;
  std::uint32_t base;
  std::size_t budget;
  std::vector<std::uint32_t>& parent;
  std::vector<std::string>& name;
  std::vector<Transform>& local;
  std::array<std::vector<Rect>, kLayerCount>& rects;
  std::array<std::vector<std::uint32_t>, kLayerCount>& paths;

  void run(const Cell& cell, const Transform& t, std::uint32_t node,
           int depth) {
    if (depth > kMaxFlattenDepth)
      flatten_fail(top, "layout-flatten-too-deep",
                   "hierarchy nested deeper than " +
                       std::to_string(kMaxFlattenDepth) +
                       " levels (instance cycle?) at cell '" + cell.name() +
                       "'");
    for (const auto& s : cell.shapes()) {
      const auto l = static_cast<std::size_t>(s.layer);
      rects[l].push_back(t.apply(s.rect));
      paths[l].push_back(node);
    }
    for (const auto& inst : cell.instances()) {
      if (parent.size() >= budget)
        flatten_fail(top, "layout-flatten-too-many-instances",
                     "flatten exceeds " +
                         std::to_string(kMaxFlattenInstances) +
                         " instances at cell '" + cell.name() + "'");
      const auto child = base + static_cast<std::uint32_t>(parent.size());
      parent.push_back(node);
      name.push_back(inst.name);
      local.push_back(inst.transform);
      run(*inst.cell, t.compose(inst.transform), child, depth + 1);
    }
  }
};

}  // namespace

LayoutDB::LayoutDB(const Cell& top, Coord tile_size)
    : top_name_(top.name()),
      ports_(top.ports()),
      tile_(std::max<Coord>(tile_size, 1)) {
  path_parent_.push_back(0);
  path_name_.emplace_back();  // node 0: the top cell, empty path
  path_local_.emplace_back();
  Flattener flat{top_name_, 0, kMaxFlattenInstances, path_parent_,
                 path_name_, path_local_, rects_, path_ids_};
  flat.run(top, Transform{}, 0, 0);
  rebuild_sub_ends();
  build_indexes();
}

void LayoutDB::build_indexes() {
  for (std::size_t l = 0; l < rects_.size(); ++l)
    index_[l] = TileIndex(rects_[l], tile_);
}

Rect LayoutDB::bbox() const {
  Rect b{};
  for (const TileIndex& ix : index_)
    if (!ix.empty()) b = b.united(ix.bounds());
  return b;
}

void LayoutDB::rebuild_sub_ends() {
  const std::size_t n = path_parent_.size();
  path_sub_end_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    path_sub_end_[i] = static_cast<std::uint32_t>(i + 1);
  // Preorder numbering: node i extends the subtree of every ancestor.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::uint32_t a = path_parent_[i];;) {
      path_sub_end_[a] = static_cast<std::uint32_t>(i + 1);
      if (a == 0) break;
      a = path_parent_[a];
    }
  }
}

Transform LayoutDB::abs_transform(std::uint32_t node) const {
  std::vector<std::uint32_t> chain;
  for (std::uint32_t n = node; n != 0; n = path_parent_[n])
    chain.push_back(n);
  Transform t{};
  for (auto it = chain.rbegin(); it != chain.rend(); ++it)
    t = t.compose(path_local_[*it]);
  return t;
}

std::size_t LayoutDB::shape_count() const {
  std::size_t n = 0;
  for (const auto& v : rects_) n += v.size();
  return n;
}

double LayoutDB::layer_area(Layer layer) const {
  double area = 0.0;
  for (const Rect& r : rects(layer)) area += r.area();
  return area;
}

double LayoutDB::layer_union_area(Layer layer) const {
  return union_area(rects(layer));
}

std::size_t LayoutDB::transistor_census() const {
  const auto& poly_index = index(Layer::Poly);
  const auto& polys = rects(Layer::Poly);
  std::size_t count = 0;
  for (Layer diff : {Layer::NDiff, Layer::PDiff}) {
    for (const Rect& d : rects(diff)) {
      poly_index.for_each_in(d, [&](std::uint32_t pid) {
        const Rect& p = polys[pid];
        const Rect x = p.intersection(d);
        if (!x.empty() && ((p.lo.y <= d.lo.y && p.hi.y >= d.hi.y) ||
                           (p.lo.x <= d.lo.x && p.hi.x >= d.hi.x)))
          ++count;
      });
    }
  }
  return count;
}

std::string LayoutDB::path_name(std::uint32_t id) const {
  ensure(id < path_parent_.size(), "LayoutDB::path_name: bad path id");
  std::vector<const std::string*> segs;
  for (std::uint32_t n = id; n != 0; n = path_parent_[n])
    segs.push_back(&path_name_[n]);
  std::string out;
  for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
    if (!out.empty()) out += '/';
    out += **it;
  }
  return out;
}

std::uint32_t LayoutDB::node_of(const std::string& path) const {
  if (path.empty()) return 0;
  std::uint32_t cur = 0;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t slash = path.find('/', pos);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    const std::string_view seg(path.data() + pos, end - pos);
    bool found = false;
    // Children of `cur` are adjacent subtrees in the preorder numbering:
    // the first child is cur+1, each next sibling starts where the
    // previous subtree ends. First name match wins (flatten order).
    for (std::uint32_t c = cur + 1; c < path_sub_end_[cur];
         c = path_sub_end_[c]) {
      if (path_name_[c] == seg) {
        cur = c;
        found = true;
        break;
      }
    }
    if (!found)
      throw Error("LayoutDB: no instance '" + std::string(seg) +
                  "' on path '" + path + "' in " + top_name_);
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  return cur;
}

EditResult LayoutDB::apply(const CellEdit& e) {
  EditResult res{};

  const auto depth_of = [&](std::uint32_t node) {
    int d = 0;
    for (std::uint32_t a = node; a != 0; a = path_parent_[a]) ++d;
    return d;
  };

  if (e.kind == CellEdit::Kind::Move) {
    // Moves change no ids at all: the subtree's shapes stay in place and
    // are re-placed by the delta transform new_abs ∘ old_abs⁻¹ — exactly
    // what a fresh flatten under the new placement would produce, since
    // rigid transforms compose exactly in integer DBU.
    const std::uint32_t n = node_of(e.path);
    require(n != 0, "LayoutDB::apply: cannot move the top cell");
    const std::uint32_t end = path_sub_end_[n];
    const Transform old_abs = abs_transform(n);
    const Transform new_abs =
        abs_transform(path_parent_[n]).compose(e.transform);
    path_local_[n] = e.transform;
    const Transform delta = new_abs.compose(old_abs.inverse());
    if (delta == Transform{}) return res;  // no-op move
    for (int li = 0; li < kLayerCount; ++li) {
      const auto l = static_cast<std::size_t>(li);
      auto& rv = rects_[l];
      const std::size_t lo = path_lower_bound(path_ids_[l], n);
      const std::size_t hi = path_lower_bound(path_ids_[l], end);
      if (lo == hi) continue;
      res.splice[l] = {static_cast<std::uint32_t>(lo),
                       static_cast<std::uint32_t>(hi),
                       static_cast<std::uint32_t>(hi)};
      const std::vector<Rect> old(rv.begin() + static_cast<std::ptrdiff_t>(lo),
                                  rv.begin() + static_cast<std::ptrdiff_t>(hi));
      Rect ob{}, nb{};
      for (std::size_t i = lo; i < hi; ++i) {
        ob = ob.united(rv[i]);
        rv[i] = delta.apply(rv[i]);
        nb = nb.united(rv[i]);
      }
      res.old_bbox[l] = ob;
      res.new_bbox[l] = nb;
      index_[l].splice(res.splice[l], old);
    }
    return res;
  }

  // Replace / Add / Remove: splice the node interval [rm_begin, rm_end)
  // out of the preorder numbering and (for Replace/Add) flatten the
  // replacement subtree directly in the post-edit numbering. `anchor`
  // is the parent of the spliced subtree.
  std::uint32_t rm_begin = 0, rm_end = 0, anchor = 0;
  std::vector<std::uint32_t> new_parent;
  std::vector<std::string> new_name;
  std::vector<Transform> new_local;
  std::array<std::vector<Rect>, kLayerCount> new_rects;
  std::array<std::vector<std::uint32_t>, kLayerCount> new_paths;

  switch (e.kind) {
    case CellEdit::Kind::Replace: {
      const std::uint32_t n = node_of(e.path);
      require(n != 0, "LayoutDB::apply: cannot replace the top cell");
      ensure(e.cell != nullptr, "LayoutDB::apply: Replace needs a cell");
      rm_begin = n;
      rm_end = path_sub_end_[n];
      anchor = path_parent_[n];
      new_parent.push_back(anchor);
      new_name.push_back(path_name_[n]);
      new_local.push_back(path_local_[n]);
      const std::size_t kept =
          path_parent_.size() - (rm_end - rm_begin);
      Flattener sub{top_name_, rm_begin, kMaxFlattenInstances - kept,
                    new_parent, new_name, new_local, new_rects, new_paths};
      sub.run(*e.cell, abs_transform(anchor).compose(path_local_[n]),
              rm_begin, depth_of(n));
      break;
    }
    case CellEdit::Kind::Add: {
      anchor = node_of(e.path);
      ensure(e.cell != nullptr, "LayoutDB::apply: Add needs a cell");
      require(!e.name.empty() && e.name.find('/') == std::string::npos,
              "LayoutDB::apply: Add needs a plain instance name");
      // The new instance becomes the anchor's last child, so in a fresh
      // flatten its subtree would start exactly where the anchor's ends.
      rm_begin = rm_end = path_sub_end_[anchor];
      new_parent.push_back(anchor);
      new_name.push_back(e.name);
      new_local.push_back(e.transform);
      Flattener sub{top_name_, rm_begin,
                    kMaxFlattenInstances - path_parent_.size(),
                    new_parent, new_name, new_local, new_rects, new_paths};
      sub.run(*e.cell, abs_transform(anchor).compose(e.transform), rm_begin,
              depth_of(anchor) + 1);
      break;
    }
    case CellEdit::Kind::Remove: {
      const std::uint32_t n = node_of(e.path);
      require(n != 0, "LayoutDB::apply: cannot remove the top cell");
      rm_begin = n;
      rm_end = path_sub_end_[n];
      anchor = path_parent_[n];
      break;
    }
    case CellEdit::Kind::Move:
      break;  // handled above
  }

  const std::size_t added = new_parent.size();
  const std::int64_t node_delta =
      static_cast<std::int64_t>(added) -
      (static_cast<std::int64_t>(rm_end) - rm_begin);
  const auto shifted = [node_delta](std::uint32_t id) {
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(id) +
                                      node_delta);
  };

  // Per-layer splice of both columns. Path-id renumbering of the shapes
  // after the splice happens on every layer; rects (hence the TileIndex)
  // change only on layers the edit actually touched.
  for (int li = 0; li < kLayerCount; ++li) {
    const auto l = static_cast<std::size_t>(li);
    auto& rv = rects_[l];
    auto& pv = path_ids_[l];
    const std::size_t lo = path_lower_bound(pv, rm_begin);
    const std::size_t hi = path_lower_bound(pv, rm_end);
    const auto& ins = new_rects[l];
    res.splice[l] = {static_cast<std::uint32_t>(lo),
                     static_cast<std::uint32_t>(hi),
                     static_cast<std::uint32_t>(lo + ins.size())};
    Rect ob{};
    for (std::size_t i = lo; i < hi; ++i) ob = ob.united(rv[i]);
    Rect nb{};
    for (const Rect& r : ins) nb = nb.united(r);
    res.old_bbox[l] = ob;
    res.new_bbox[l] = nb;
    if (node_delta != 0)
      for (std::size_t i = hi; i < pv.size(); ++i) pv[i] = shifted(pv[i]);
    if (res.splice[l].empty()) continue;
    const std::vector<Rect> old(rv.begin() + static_cast<std::ptrdiff_t>(lo),
                                rv.begin() + static_cast<std::ptrdiff_t>(hi));
    res.splice[l].resize_slots(rv);
    res.splice[l].resize_slots(pv);
    const auto at = static_cast<std::ptrdiff_t>(lo);
    std::copy(ins.begin(), ins.end(), rv.begin() + at);
    std::copy(new_paths[l].begin(), new_paths[l].end(), pv.begin() + at);
    index_[l].splice(res.splice[l], old);
  }

  // Node-array splice with the same renumbering. A node after the spliced
  // interval always has its parent either before rm_begin or inside the
  // shifted suffix — never inside the removed subtree — and its subtree
  // end shifts with it. Of the nodes before the interval only the
  // anchor's ancestor chain (anchor included) contains it.
  for (std::size_t i = rm_end; i < path_parent_.size(); ++i) {
    if (path_parent_[i] >= rm_end) path_parent_[i] = shifted(path_parent_[i]);
    path_sub_end_[i] = shifted(path_sub_end_[i]);
  }
  const ShapeSplice nodes{rm_begin, rm_end,
                          static_cast<std::uint32_t>(rm_begin + added)};
  nodes.resize_slots(path_parent_);
  nodes.resize_slots(path_name_);
  nodes.resize_slots(path_local_);
  nodes.resize_slots(path_sub_end_);
  for (std::size_t k = 0; k < added; ++k) {
    const std::size_t i = rm_begin + k;
    path_parent_[i] = new_parent[k];
    path_name_[i] = std::move(new_name[k]);
    path_local_[i] = new_local[k];
    path_sub_end_[i] = static_cast<std::uint32_t>(i + 1);
  }
  // Subtree ends inside the new subtree (preorder: node i extends every
  // ancestor up to the subtree root), then along the anchor chain.
  for (std::size_t i = rm_begin + 1; i < rm_begin + added; ++i)
    for (std::uint32_t a = path_parent_[i]; a >= rm_begin; a = path_parent_[a])
      path_sub_end_[a] = static_cast<std::uint32_t>(i + 1);
  for (std::uint32_t a = anchor;; a = path_parent_[a]) {
    path_sub_end_[a] = shifted(path_sub_end_[a]);
    if (a == 0) break;
  }
  return res;
}

std::uint64_t LayoutDB::content_hash() const {
  Fingerprint fp;
  fp.mix_str("bisram-layoutdb-v1");
  fp.mix_str(top_name_);
  fp.mix_i64(tile_);
  fp.mix(ports_.size());
  for (const Port& p : ports_) {
    fp.mix_str(p.name);
    fp.mix(static_cast<std::uint64_t>(p.layer));
    fp.mix_i64(p.rect.lo.x).mix_i64(p.rect.lo.y);
    fp.mix_i64(p.rect.hi.x).mix_i64(p.rect.hi.y);
  }
  fp.mix(path_parent_.size());
  for (std::size_t i = 0; i < path_parent_.size(); ++i) {
    fp.mix(path_parent_[i]);
    fp.mix_str(path_name_[i]);
    fp.mix(static_cast<std::uint64_t>(path_local_[i].orient()));
    fp.mix_i64(path_local_[i].offset().x).mix_i64(path_local_[i].offset().y);
  }
  for (std::size_t l = 0; l < rects_.size(); ++l) {
    const auto& rv = rects_[l];
    fp.mix(rv.size());
    for (std::size_t i = 0; i < rv.size(); ++i) {
      fp.mix_i64(rv[i].lo.x).mix_i64(rv[i].lo.y);
      fp.mix_i64(rv[i].hi.x).mix_i64(rv[i].hi.y);
      fp.mix(path_ids_[l][i]);
    }
  }
  return fp.value();
}

}  // namespace bisram::geom
