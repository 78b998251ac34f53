#include "geom/layout_db.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string_view>

#include "util/checkpoint.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

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
  bounds_ = fold_all(rects);
  lay(bounds_);
}

TileIndex::TileIndex(const std::vector<Rect>& rects, Coord tile,
                     const Rect& grid)
    : rects_(&rects), count_(rects.size()), tile_(std::max<Coord>(tile, 1)) {
  bounds_ = fold_all(rects);
  lay(grid);
}

void TileIndex::lay(const Rect& grid) {
  const std::vector<Rect>& rects = *rects_;
  grid_ = grid;
  cols_ = static_cast<int>(grid_.width() / tile_ + 1);
  const auto ncols = static_cast<std::size_t>(cols_);
  rows_.resize(static_cast<std::size_t>(grid_.height() / tile_ + 1));
  for (Row& row : rows_) row.off.assign(ncols + 1, 0);
  // Pass 1 counts bucket tx in off[tx + 1]; the prefix sum turns off[tx]
  // into the bucket's start.
  for (const Rect& r : rects) {
    const Span s = span_of(r);
    for (int ty = s.y0; ty <= s.y1; ++ty) {
      std::uint32_t* off = rows_[static_cast<std::size_t>(ty)].off.data();
      for (int tx = s.x0; tx <= s.x1; ++tx) ++off[tx + 1];
    }
  }
  for (Row& row : rows_) {
    for (std::size_t tx = 0; tx < ncols; ++tx) row.off[tx + 1] += row.off[tx];
    row.ids.resize(row.off[ncols]);
  }
  // Pass 2 places the ids in ascending order, off[tx] serving as bucket
  // tx's cursor; that leaves off[tx] at the bucket's end, the next
  // bucket's start, so the offsets move back up one place.
  for (std::uint32_t i = 0; i < count_; ++i) {
    const Span s = span_of(rects[i]);
    for (int ty = s.y0; ty <= s.y1; ++ty) {
      Row& row = rows_[static_cast<std::size_t>(ty)];
      for (int tx = s.x0; tx <= s.x1; ++tx)
        row.ids[row.off[static_cast<std::size_t>(tx)]++] = i;
    }
  }
  for (Row& row : rows_) {
    std::copy_backward(row.off.begin(), row.off.end() - 1, row.off.end());
    row.off[0] = 0;
  }
}

std::span<const std::uint32_t> TileIndex::bucket(int tx, int ty) const {
  if (count_ == 0 || tx < 0 || ty < 0 || tx >= cols_ || ty >= tile_rows())
    return {};
  const Row& row = rows_[static_cast<std::size_t>(ty)];
  const auto b = row.off[static_cast<std::size_t>(tx)];
  const auto e = row.off[static_cast<std::size_t>(tx) + 1];
  return {row.ids.data() + b, e - b};
}

std::vector<std::uint32_t> TileIndex::ids_in(const Rect& window) const {
  std::vector<std::uint32_t> out;
  for_each_in(window, [&](std::uint32_t id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

void TileIndex::splice(const ShapeSplice& sp, std::span<const Rect> old) {
  const std::vector<Rect>& rects = *rects_;
  const std::size_t was = count_;
  count_ = rects.size();
  if (rows_.empty()) {
    // Empty since construction: nothing to drop or shift, and the new
    // ids are the whole set.
    *this = TileIndex(rects, tile_);
    return;
  }
  // Each touched row's share of the splice, for the rows [y0, y1] the
  // old and new rects span (a per-edit array, not one per tile row): the
  // columns its rects touch, and its new ids, grouped by row in
  // ascending order (a counting sort: `first` starts each row's run,
  // `end` fills it).
  struct Share {
    int x0 = std::numeric_limits<int>::max(), x1 = -1;
    std::uint32_t first = 0, end = 0;
  };
  std::vector<Span> spans(sp.new_end - sp.begin);
  int y0 = std::numeric_limits<int>::max(), y1 = -1;
  for (const Rect& r : old) {
    const Span s = span_of(r);
    y0 = std::min(y0, s.y0);
    y1 = std::max(y1, s.y1);
  }
  for (std::uint32_t id = sp.begin; id < sp.new_end; ++id) {
    const Span& s = spans[id - sp.begin] = span_of(rects[id]);
    y0 = std::min(y0, s.y0);
    y1 = std::max(y1, s.y1);
  }
  std::vector<Share> share(
      y1 < y0 ? 0 : static_cast<std::size_t>(y1 - y0) + 1);
  const auto widen = [&](const Span& s) {
    for (int ty = s.y0; ty <= s.y1; ++ty) {
      Share& d = share[static_cast<std::size_t>(ty - y0)];
      d.x0 = std::min(d.x0, s.x0);
      d.x1 = std::max(d.x1, s.x1);
    }
  };
  for (const Rect& r : old) widen(span_of(r));
  for (const Span& s : spans) {
    widen(s);
    for (int ty = s.y0; ty <= s.y1; ++ty)
      ++share[static_cast<std::size_t>(ty - y0)].end;
  }
  std::uint32_t total = 0;
  for (Share& d : share) {
    d.first = total;
    total += d.end;
    d.end = d.first;
  }
  std::vector<std::uint32_t> entering(total);
  for (std::uint32_t id = sp.begin; id < sp.new_end; ++id) {
    const Span& s = spans[id - sp.begin];
    for (int ty = s.y0; ty <= s.y1; ++ty)
      entering[share[static_cast<std::size_t>(ty - y0)].end++] = id;
  }
  // Rows neither an old nor a new rect touches only shift their ids,
  // and only when some id lies past the invalidated run.
  const bool shifts = sp.delta() != 0 && sp.old_end < was;
  for (int ty = 0; ty < tile_rows(); ++ty) {
    Row& row = rows_[static_cast<std::size_t>(ty)];
    const Share* d = ty >= y0 && ty <= y1
                         ? &share[static_cast<std::size_t>(ty - y0)]
                         : nullptr;
    if (d != nullptr && d->x0 <= d->x1)
      splice_row(row, sp, d->x0, d->x1,
                 {entering.data() + d->first, entering.data() + d->end},
                 spans);
    else if (shifts)
      for (std::uint32_t& id : row.ids) id = shift(sp, id);
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

void TileIndex::splice_row(Row& row, const ShapeSplice& sp, int x0, int x1,
                           std::span<const std::uint32_t> entering,
                           std::span<const Span> spans) const {
  // Per column in play: the invalidated run [lo, hi) as positions in
  // row.ids (within a bucket the ids below sp.begin come first, then
  // the invalidated ids, then the ids from sp.old_end on) and how many
  // new ids enter. The new ids take the run's place, so every bucket
  // stays ascending.
  struct Cut {
    std::uint32_t lo, hi, adds;
  };
  const auto ux0 = static_cast<std::size_t>(x0);
  std::vector<Cut> cuts(static_cast<std::size_t>(x1 - x0) + 1);
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const std::uint32_t* ids = row.ids.data();
    const std::uint32_t* e = ids + row.off[ux0 + c + 1];
    const std::uint32_t* lo =
        std::lower_bound(ids + row.off[ux0 + c], e, sp.begin);
    const std::uint32_t* hi = std::lower_bound(lo, e, sp.old_end);
    cuts[c] = {static_cast<std::uint32_t>(lo - ids),
               static_cast<std::uint32_t>(hi - ids), 0};
  }
  for (std::uint32_t id : entering) {
    const Span& s = spans[id - sp.begin];
    for (int tx = s.x0; tx <= s.x1; ++tx)
      ++cuts[static_cast<std::size_t>(tx - x0)].adds;
  }
  // Ids past the invalidated runs move first: the cuts are positions, so
  // they stay valid, and the invalidated ids lie below sp.old_end.
  if (sp.delta() != 0)
    for (std::uint32_t& id : row.ids) id = shift(sp, id);
  // Re-lay the columns in play into `mid` and swap it in for their old
  // span: the buckets before them keep their place, the ones after move
  // by the change in size (none when no bucket changes size). at[c] is
  // column c's cursor for its new ids.
  std::vector<std::uint32_t> at(cuts.size());
  const std::uint32_t first = row.off[ux0];
  const std::uint32_t last = row.off[ux0 + cuts.size()];
  std::vector<std::uint32_t> mid;
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const std::uint32_t b = row.off[ux0 + c], e = row.off[ux0 + c + 1];
    const auto ids = row.ids.begin();
    row.off[ux0 + c] = first + static_cast<std::uint32_t>(mid.size());
    mid.insert(mid.end(), ids + b, ids + cuts[c].lo);
    at[c] = first + static_cast<std::uint32_t>(mid.size());
    mid.resize(mid.size() + cuts[c].adds);
    mid.insert(mid.end(), ids + cuts[c].hi, ids + e);
  }
  const auto grown = static_cast<std::uint32_t>(mid.size()) - (last - first);
  if (mid.size() > last - first)
    row.ids.insert(row.ids.begin() + last, grown, 0);
  else
    row.ids.erase(row.ids.begin() + first + mid.size(),
                  row.ids.begin() + last);
  std::copy(mid.begin(), mid.end(), row.ids.begin() + first);
  for (std::size_t tx = ux0 + cuts.size(); tx < row.off.size(); ++tx)
    row.off[tx] += grown;  // modulo 2^32 when the span shrank
  for (std::uint32_t id : entering) {
    const Span& s = spans[id - sp.begin];
    for (int tx = s.x0; tx <= s.x1; ++tx)
      row.ids[at[static_cast<std::size_t>(tx - x0)]++] = id;
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

/// Shapes per flatten task: a run of sibling instances.
constexpr std::uint64_t kGroupShapes = std::uint64_t{1} << 14;

/// What flattening one master writes below its own path node.
struct Count {
  std::array<std::uint64_t, kLayerCount> shapes{};  // per layer
  std::uint64_t total = 0;                          // on every layer
  std::uint64_t nodes = 0;   // path nodes: the instances of the subtree
  int levels = 0;            // instance levels
};

/// Sums counts in 64 bits, saturating far above every flatten guard, so
/// a combinatorial hierarchy's census cannot wrap.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return std::min(std::uint64_t{1} << 62, a + b);
}

/// One flatten's census: a Count per distinct master, taken on the
/// calling thread before anything is allocated. It refuses a hierarchy
/// nested deeper than kMaxFlattenDepth (an instance cycle recurses until
/// it is) and a flatten whose path nodes would exceed
/// kMaxFlattenInstances, with stable DiagError codes; otherwise it sizes
/// every column exactly and places every pooled fill task.
class Census {
 public:
  /// Counts `root`'s subtree, its root `depth` levels below the top
  /// cell, for a database keeping `kept` path nodes besides the subtree.
  Census(const std::string& top, const Cell& root, int depth,
         std::size_t kept)
      : memo_([&top, level = depth](const Cell& cell,
                                    MasterMemo<Count>& memo) mutable {
          // `level` is the nesting of the master being counted: each
          // master is counted once, at its first placement.
          if (level > kMaxFlattenDepth)
            flatten_fail(top, "layout-flatten-too-deep",
                         "hierarchy nested deeper than " +
                             std::to_string(kMaxFlattenDepth) +
                             " levels (instance cycle?) at cell '" +
                             cell.name() + "'");
          ++level;
          Count n;
          for (const Shape& s : cell.shapes())
            ++n.shapes[static_cast<std::size_t>(s.layer)];
          n.total = cell.shapes().size();
          for (const Instance& inst : cell.instances()) {
            const Count& k = memo(*inst.cell);
            for (std::size_t l = 0; l < n.shapes.size(); ++l)
              n.shapes[l] = sat_add(n.shapes[l], k.shapes[l]);
            n.total = sat_add(n.total, k.total);
            n.nodes = sat_add(n.nodes, sat_add(k.nodes, 1));
            n.levels = std::max(n.levels, k.levels + 1);
          }
          --level;
          return n;
        }),
        root_(&memo_(root)) {
    if (depth + root_->levels > kMaxFlattenDepth)
      flatten_fail(top, "layout-flatten-too-deep",
                   "hierarchy nested deeper than " +
                       std::to_string(kMaxFlattenDepth) + " levels at cell '" +
                       root.name() + "'");
    if (sat_add(kept + 1, root_->nodes) > kMaxFlattenInstances)
      flatten_fail(top, "layout-flatten-too-many-instances",
                   "flatten exceeds " + std::to_string(kMaxFlattenInstances) +
                       " instances at cell '" + root.name() + "'");
  }

  const Count& root() const { return *root_; }
  const Count& of(const Cell& cell) { return memo_(cell); }

 private:
  MasterMemo<Count> memo_;
  const Count* root_;
};

/// Where a fill writes next: a slot per layer and a path node.
struct Cursor {
  std::array<std::size_t, kLayerCount> at{};
  std::uint32_t node = 0;
};

/// The one flattener, for the constructor and apply() alike. It writes
/// into columns and path-node arrays its caller sized from the Census:
/// a cell's own shapes first, then each instance depth-first in
/// instance order, one preorder path node per instance. The subtree is
/// cut into tasks (a run of sibling instances of about kGroupShapes
/// shapes, started at cursors prefix-summed from the census) that run on
/// the pool, each writing its own slots; a subtree under kGroupShapes
/// shapes is one task, which parallel_for runs on the calling thread.
/// Every slot gets the same value at any thread count.
struct Flattener {
  std::vector<std::uint32_t>& parent;
  std::vector<std::string>& name;
  std::vector<Transform>& local;
  std::vector<std::uint32_t>& sub_end;
  std::array<std::vector<Rect>, kLayerCount>& rects;
  std::array<std::vector<std::uint32_t>, kLayerCount>& paths;

  /// Flattens `cell`, placed by `t`, as path node `node`, whose own
  /// entry the caller writes, from cursor `c`.
  void fill(const Cell& cell, const Transform& t, std::uint32_t node,
            Cursor c, Census& census) const {
    std::vector<Task> tasks;
    plan(cell, t, node, c, census, tasks);
    parallel_for(static_cast<std::int64_t>(tasks.size()), 1,
                 [&](std::int64_t i) {
                   const Task& k = tasks[static_cast<std::size_t>(i)];
                   Cursor at = k.at;
                   if (k.own) own(*k.cell, k.t, k.node, at);
                   for (std::size_t j = k.first; j < k.last; ++j)
                     instance(k.cell->instances()[j], k.t, k.node, at);
                 });
  }

 private:
  /// Instances [first, last) of `cell` (path node `node`, placed by `t`)
  /// from cursor `at`, and the cell's own shapes first when `own`.
  struct Task {
    const Cell* cell;
    Transform t;
    std::uint32_t node;
    bool own;
    std::size_t first, last;
    Cursor at;
  };

  void own(const Cell& cell, const Transform& t, std::uint32_t node,
           Cursor& c) const {
    for (const Shape& s : cell.shapes()) {
      const auto l = static_cast<std::size_t>(s.layer);
      rects[l][c.at[l]] = t.apply(s.rect);
      paths[l][c.at[l]++] = node;
    }
  }

  /// Writes the path node of instance `inst` of node `node` and returns
  /// its id.
  std::uint32_t enter(const Instance& inst, std::uint32_t node,
                      Cursor& c) const {
    const std::uint32_t child = c.node++;
    parent[child] = node;
    name[child] = inst.name;
    local[child] = inst.transform;
    return child;
  }
  /// Writes instance `inst` of node `node`, placed by `t`, and its whole
  /// subtree.
  void instance(const Instance& inst, const Transform& t, std::uint32_t node,
                Cursor& c) const {
    const std::uint32_t child = enter(inst, node, c);
    const Transform ct = t.compose(inst.transform);
    own(*inst.cell, ct, child, c);
    for (const Instance& sub : inst.cell->instances())
      instance(sub, ct, child, c);
    sub_end[child] = c.node;
  }

  /// Cuts `cell`'s flatten into tasks on the calling thread, advancing
  /// `c` past it: siblings gather into a task until it holds
  /// kGroupShapes shapes, and an instance larger than that is cut the
  /// same way one level down (its own path node written here).
  void plan(const Cell& cell, const Transform& t, std::uint32_t node,
            Cursor& c, Census& census, std::vector<Task>& tasks) const {
    Task group{&cell, t, node, true, 0, 0, c};
    std::uint64_t size = cell.shapes().size();
    for (const Shape& s : cell.shapes())
      ++c.at[static_cast<std::size_t>(s.layer)];
    const auto close = [&](std::size_t last, std::size_t next) {
      group.last = last;
      if (size > 0 || group.first < last) tasks.push_back(group);
      group = {&cell, t, node, false, next, next, c};
      size = 0;
    };
    const auto& insts = cell.instances();
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const Count& k = census.of(*insts[i].cell);
      if (k.total > kGroupShapes) {
        close(i, i);
        const std::uint32_t child = enter(insts[i], node, c);
        plan(*insts[i].cell, t.compose(insts[i].transform), child, c, census,
             tasks);
        sub_end[child] = c.node;
        close(i, i + 1);
        continue;
      }
      for (std::size_t l = 0; l < c.at.size(); ++l) c.at[l] += k.shapes[l];
      c.node += static_cast<std::uint32_t>(k.nodes + 1);
      size += k.total;
      if (size >= kGroupShapes) close(i + 1, i + 1);
    }
    close(insts.size(), insts.size());
  }
};

}  // namespace

LayoutDB::LayoutDB(const Cell& top, Coord tile_size)
    : top_name_(top.name()),
      ports_(top.ports()),
      tile_(std::max<Coord>(tile_size, 1)) {
  Census census(top_name_, top, 0, 0);
  const std::size_t nodes = census.root().nodes + 1;
  path_parent_.resize(nodes);  // node 0: the top cell, empty path
  path_name_.resize(nodes);
  path_local_.resize(nodes);
  path_sub_end_.resize(nodes);
  path_sub_end_[0] = static_cast<std::uint32_t>(nodes);
  for (std::size_t l = 0; l < rects_.size(); ++l) {
    rects_[l].resize(census.root().shapes[l]);
    path_ids_[l].resize(census.root().shapes[l]);
  }
  Flattener{path_parent_, path_name_, path_local_, path_sub_end_, rects_,
            path_ids_}
      .fill(top, Transform{}, 0, Cursor{{}, 1}, census);
  build_indexes();
}

void LayoutDB::build_indexes() {
  // One layer per pool worker, the largest layers claimed first.
  std::array<std::size_t, kLayerCount> order{};
  for (std::size_t l = 0; l < order.size(); ++l) order[l] = l;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rects_[a].size() > rects_[b].size();
                   });
  parallel_for(kLayerCount, 1, [&](std::int64_t i) {
    const std::size_t l = order[static_cast<std::size_t>(i)];
    index_[l] = TileIndex(rects_[l], tile_);
  });
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
  // replacement subtree straight into its slots in the post-edit
  // numbering, sized by its census. `anchor` is the parent of the
  // spliced subtree; the new root keeps `root_name` and `root_local`.
  std::uint32_t rm_begin = 0, rm_end = 0, anchor = 0;
  std::string root_name;
  Transform root_local;
  std::optional<Census> census;

  switch (e.kind) {
    case CellEdit::Kind::Replace: {
      const std::uint32_t n = node_of(e.path);
      require(n != 0, "LayoutDB::apply: cannot replace the top cell");
      ensure(e.cell != nullptr, "LayoutDB::apply: Replace needs a cell");
      rm_begin = n;
      rm_end = path_sub_end_[n];
      anchor = path_parent_[n];
      root_name = path_name_[n];
      root_local = path_local_[n];
      census.emplace(top_name_, *e.cell, depth_of(n),
                     path_parent_.size() - (rm_end - rm_begin));
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
      root_name = e.name;
      root_local = e.transform;
      census.emplace(top_name_, *e.cell, depth_of(anchor) + 1,
                     path_parent_.size());
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

  const std::size_t added = census ? census->root().nodes + 1 : 0;
  const std::int64_t node_delta =
      static_cast<std::int64_t>(added) -
      (static_cast<std::int64_t>(rm_end) - rm_begin);
  const auto shifted = [node_delta](std::uint32_t id) {
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(id) +
                                      node_delta);
  };

  // Per-layer splice of both columns: the removed run's slots become the
  // new subtree's. Path-id renumbering of the shapes after the splice
  // happens on every layer; rects (hence the TileIndex) change only on
  // layers the edit actually touched.
  std::array<std::vector<Rect>, kLayerCount> old;
  Cursor at{{}, rm_begin + 1};
  for (int li = 0; li < kLayerCount; ++li) {
    const auto l = static_cast<std::size_t>(li);
    auto& rv = rects_[l];
    auto& pv = path_ids_[l];
    const std::size_t lo = path_lower_bound(pv, rm_begin);
    const std::size_t hi = path_lower_bound(pv, rm_end);
    at.at[l] = lo;
    res.splice[l] = {static_cast<std::uint32_t>(lo),
                     static_cast<std::uint32_t>(hi),
                     static_cast<std::uint32_t>(
                         lo + (census ? census->root().shapes[l] : 0))};
    Rect ob{};
    for (std::size_t i = lo; i < hi; ++i) ob = ob.united(rv[i]);
    res.old_bbox[l] = ob;
    if (node_delta != 0)
      for (std::size_t i = hi; i < pv.size(); ++i) pv[i] = shifted(pv[i]);
    if (res.splice[l].empty()) continue;
    old[l].assign(rv.begin() + static_cast<std::ptrdiff_t>(lo),
                  rv.begin() + static_cast<std::ptrdiff_t>(hi));
    res.splice[l].resize_slots(rv);
    res.splice[l].resize_slots(pv);
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
  if (census) {
    path_parent_[rm_begin] = anchor;
    path_name_[rm_begin] = std::move(root_name);
    path_local_[rm_begin] = root_local;
    path_sub_end_[rm_begin] = nodes.new_end;
    Flattener{path_parent_, path_name_, path_local_, path_sub_end_, rects_,
              path_ids_}
        .fill(*e.cell, abs_transform(anchor).compose(root_local), rm_begin, at,
              *census);
  }
  for (std::uint32_t a = anchor;; a = path_parent_[a]) {
    path_sub_end_[a] = shifted(path_sub_end_[a]);
    if (a == 0) break;
  }

  for (std::size_t l = 0; l < rects_.size(); ++l) {
    const ShapeSplice& sp = res.splice[l];
    if (sp.empty()) continue;
    Rect nb{};
    for (std::uint32_t i = sp.begin; i < sp.new_end; ++i)
      nb = nb.united(rects_[l][i]);
    res.new_bbox[l] = nb;
    index_[l].splice(sp, old[l]);
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
