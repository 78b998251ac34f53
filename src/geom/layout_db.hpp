#pragma once
// The shared, spatially-indexed flat layout database.
//
// Before this existed, every geometry consumer — DRC, extraction, the
// SVG writer, the area reports — flattened the hierarchy on its own
// into ad-hoc per-layer rect vectors (DRC even kept a private spatial
// hash), so a full-macro signoff flattened the hierarchy three-plus
// times and ran its scans effectively pairwise. LayoutDB flattens the
// hierarchy exactly once into a per-layer, tile-bucketed spatial index
// and becomes the one artifact the whole signoff flow shares:
//
//     cells --(flatten once)--> LayoutDB --> { DRC, extract, LVS,
//                                              writers, pnr checks }
//
// Since the incremental/serialization refactor the database is no
// longer a per-run throwaway:
//
//   * apply(CellEdit) edits the flattened database in place — replace,
//     move, add or remove one instance subtree — re-flattening only the
//     edited subtree and splicing it into the per-layer rect and
//     path-id columns and tile indexes. The result is bit-identical
//     (rects, shape ids, provenance) to a fresh flatten of the edited
//     hierarchy; the returned EditResult carries the dirty region and
//     the shape-id splice map that drive the incremental DRC /
//     extraction re-verification.
//   * Every path node records its master, an index into a table of the
//     distinct masters the database keeps alive (a copy of the top cell
//     and every cell a Replace or Add brought), so the database still
//     describes a hierarchy after any edit.
//   * save_snapshot()/load_snapshot() persist that hierarchy, each
//     master once, in a versioned, CRC-protected binary file (format in
//     layout_snapshot.hpp); a reopen decodes it and flattens it with the
//     one flattener, which reproduces the edited database exactly.
//
// Contracts:
//   * Shape order. Per layer, shapes are stored in depth-first flatten
//     order: a cell's own shapes in insertion order, then each
//     instance's subtree in instance order. Extraction's net numbering
//     and the SVG writer's paint order are functions of that order.
//     One flattener produces it, for the constructor and for apply()
//     alike, so after an edit the shape order equals what a fresh
//     flatten of the edited hierarchy would produce. It takes a census
//     first (per distinct master: shapes per layer, path nodes and
//     levels below), which applies the flatten guards and sizes every
//     column and path-node array exactly on the calling thread; the fill
//     then writes each subtree at offsets prefix-summed from the census,
//     on the pool in sibling groups of about 16 k shapes (a subtree
//     smaller than one group stays on the calling thread).
//   * Tiling. Each layer with shapes gets a uniform tile grid over the
//     layer's bounding box at construction (or at the first edit that
//     gives an empty layer shapes); edits keep that grid, and shapes
//     beyond it sit in the clamped edge tiles. The tile edge is the
//     caller's choice — DRC sizes it at 4x the technology's maximum
//     interaction distance (the largest spacing/enclosure rule, see
//     drc::tile_size_for), so any rule check on a shape only ever needs
//     the shape's own tile and its neighbors. A shape straddling tiles
//     is registered in every tile it touches; a query reports it only
//     from the tile holding the low corner of its overlap with the
//     window, so each id once, with no merge. Each tile row stores its
//     buckets back to back in one id array beside an offsets array
//     (TileIndex), filled by a two-pass counting sort; build_indexes()
//     builds each layer on a pool worker of its own, at the end of the
//     flatten. An edit's splice re-lays only the tile rows its old and
//     new rects touch, and in them only the columns they touch (the
//     rest of the row moves by the change in size, if any); every other
//     row only renumbers the ids past the splice, when the edit changes
//     the layer's shape count.
//   * Determinism. for_each_in reports each shape id once, in tile
//     order (a function of the rects and the grid, never of the thread
//     count); ids_in reports them ascending. DRC and extraction use no
//     order of for_each_in: where an answer depends on order (the gates
//     of a diffusion split, a port's first piece) they sort or take the
//     least id. So everything built on top is reproducible bit-for-bit
//     and independent of the tile size.
//   * Provenance. Every shape carries the instance path that produced
//     it ("ROWDEC/dec3/inv" style, segments joined with '/'; shapes
//     owned by the top cell itself have an empty path). Paths are kept
//     as a compact parent-pointer tree — one node per flattened
//     instance, not per shape; a shape stores only its node's id — and
//     materialized on demand, so a DRC/ERC violation or an extracted
//     device can name the instance that produced it without the
//     database paying a per-shape string.
//   * Bounded flatten. The census refuses self-referential or
//     pathologically deep hierarchies (kMaxFlattenDepth) and runaway
//     instance counts (kMaxFlattenInstances, counted in 64 bits) with
//     stable DiagError codes before anything is allocated, instead of a
//     stack overflow (same bounded-recursion policy as the JSON parser's
//     depth cap). LayoutDB::census() runs it alone, so a caller can size
//     a flatten without performing it.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/cell.hpp"
#include "geom/geometry.hpp"
#include "geom/layer.hpp"

namespace bisram {
class DiagEngine;
}

namespace bisram::geom {

/// Per-layer shape-id splice of one apply(): old ids [begin, old_end)
/// were invalidated (removed or rewritten) and replaced by new ids
/// [begin, new_end); ids >= old_end shifted by new_end - old_end.
struct ShapeSplice {
  static constexpr std::uint32_t kRemoved = 0xffffffffu;

  std::uint32_t begin = 0;
  std::uint32_t old_end = 0;
  std::uint32_t new_end = 0;

  bool empty() const { return begin == old_end && begin == new_end; }
  std::int64_t delta() const {
    return static_cast<std::int64_t>(new_end) -
           static_cast<std::int64_t>(old_end);
  }
  /// Maps a pre-edit shape id to its post-edit id; kRemoved for ids the
  /// edit invalidated (consumers treat those as deleted + re-added).
  std::uint32_t remap(std::uint32_t id) const {
    if (id < begin) return id;
    if (id < old_end) return kRemoved;
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(id) + delta());
  }
  /// Re-lays `v`, indexed by pre-edit ids, in the post-edit id layout:
  /// the slots [begin, old_end) become new_end - begin slots at [begin,
  /// new_end) and the tail moves by delta(), once (not at all when the
  /// counts match). The caller overwrites the new slots.
  template <typename T>
  void resize_slots(std::vector<T>& v) const {
    const auto at = v.begin() + static_cast<std::ptrdiff_t>(old_end);
    if (new_end > old_end)
      v.insert(at, new_end - old_end, T{});
    else
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(new_end), at);
  }
};

/// Generic tile-bucketed index over a rectangle set. LayoutDB holds one
/// per layer and keeps it current across edits with splice().
///
/// Each tile row keeps its buckets back to back in one id array, with
/// an array of tile_cols() + 1 offsets: bucket (tx, ty) is ids[off[tx],
/// off[tx + 1]) of row ty. A build fills them by a two-pass counting
/// sort (count every bucket, then place the ids in ascending order), so
/// each bucket is ascending and the index holds four bytes per tile and
/// per (shape, tile) registration, with no heap block per tile.
class TileIndex {
 public:
  TileIndex() = default;

  /// Indexes `rects` with uniform square tiles of edge `tile` (DBU,
  /// clamped to >= 1) laid over the set's bounding box. The rect vector
  /// must outlive the index (ids refer into it).
  TileIndex(const std::vector<Rect>& rects, Coord tile);
  /// The same with the tiles laid over `grid` instead; rects beyond it
  /// sit in the clamped edge tiles. Built over a spliced index's grid(),
  /// it holds the spliced index's buckets.
  TileIndex(const std::vector<Rect>& rects, Coord tile, const Rect& grid);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Coord tile() const { return tile_; }
  /// Exact bounding box of the indexed rects (degenerate ones included),
  /// also after splices; empty when there are none.
  const Rect& bounds() const { return bounds_; }
  /// The extent the tiles are laid over: the bounds at construction,
  /// kept by every splice.
  const Rect& grid() const { return grid_; }
  int tile_cols() const { return cols_; }
  int tile_rows() const { return static_cast<int>(rows_.size()); }

  /// Shape ids bucketed into tile (tx, ty), in ascending id order, each
  /// id possibly present in several tiles.
  std::span<const std::uint32_t> bucket(int tx, int ty) const;

  /// Calls fn(id) for every rect intersecting `window` (edge-touching
  /// counts, as Rect::intersects), each id exactly once, in tile order:
  /// the window's tile rows bottom up, each row's tiles left to right,
  /// each bucket ascending. A rect registered in several of the window's
  /// tiles is reported only from the one holding the low corner of its
  /// overlap with the window, (max(window.lo.x, r.lo.x), max(window.lo.y,
  /// r.lo.y)): past the window's first tile column (row) that is the
  /// tile whose low x (y) edge the rect's own low x (y) reaches.
  template <typename Fn>
  void for_each_in(const Rect& window, Fn&& fn) const;

  /// The ids for_each_in visits, in ascending order.
  std::vector<std::uint32_t> ids_in(const Rect& window) const;

  /// Follows one splice of the indexed rect vector, which the caller
  /// has already applied: the invalidated ids [sp.begin, sp.old_end),
  /// whose rects were `old`, leave the tiles those rects covered; ids
  /// from sp.old_end on shift by sp.delta(); the new ids [sp.begin,
  /// sp.new_end) enter the tiles of their rects. In a tile row an old or
  /// a new rect touches, only the columns they touch are re-laid (the
  /// rest of the row moves as one block by the change in size, if any);
  /// the other rows only renumber the ids past the splice, when
  /// delta() != 0. The tile grid stays the one laid at construction (a
  /// set empty until now gets its first grid here). A rect beyond the
  /// grid lands in the clamped edge tiles, which every query reaching
  /// past the grid consults, so queries answer exactly as a freshly
  /// built index would.
  void splice(const ShapeSplice& sp, std::span<const Rect> old);

 private:
  /// One tile row: bucket tx is ids[off[tx], off[tx + 1]).
  struct Row {
    std::vector<std::uint32_t> off;
    std::vector<std::uint32_t> ids;
  };
  /// The tile columns [x0, x1] and rows [y0, y1] a rect touches.
  struct Span {
    int x0, x1, y0, y1;
  };

  int tx_of(Coord x) const {
    return static_cast<int>((std::clamp(x, grid_.lo.x, grid_.hi.x) -
                             grid_.lo.x) / tile_);
  }
  int ty_of(Coord y) const {
    return static_cast<int>((std::clamp(y, grid_.lo.y, grid_.hi.y) -
                             grid_.lo.y) / tile_);
  }
  Span span_of(const Rect& r) const {
    return {tx_of(r.lo.x), tx_of(r.hi.x), ty_of(r.lo.y), ty_of(r.hi.y)};
  }
  /// Lays the tile grid over `grid` and fills every row.
  void lay(const Rect& grid);
  /// splice() on one row whose columns [x0, x1] an old or a new rect
  /// touches; `entering` lists the new ids touching the row, ascending,
  /// and spans[id - sp.begin] is the tile span of new id `id`.
  void splice_row(Row& row, const ShapeSplice& sp, int x0, int x1,
                  std::span<const std::uint32_t> entering,
                  std::span<const Span> spans) const;
  /// `id` renumbered past a splice: ids from sp.old_end on move by
  /// sp.delta(), modulo 2^32 (the sum is a valid id).
  static std::uint32_t shift(const ShapeSplice& sp, std::uint32_t id) {
    return id >= sp.old_end ? id + static_cast<std::uint32_t>(sp.delta())
                            : id;
  }
  const std::vector<Rect>* rects_ = nullptr;
  std::size_t count_ = 0;
  Coord tile_ = 1;
  Rect bounds_{};
  Rect grid_{};  // the construction-time extent the tiles are laid over
  int cols_ = 0;
  std::vector<Row> rows_;  // [ty]; empty until a grid is laid
};

template <typename Fn>
void TileIndex::for_each_in(const Rect& window, Fn&& fn) const {
  if (count_ == 0 || !window.intersects(bounds_)) return;
  const int x0 = tx_of(window.lo.x), x1 = tx_of(window.hi.x);
  const int y0 = ty_of(window.lo.y), y1 = ty_of(window.hi.y);
  // A tile past the window's first column (row) reports a rect only when
  // the rect starts at or past the tile's low x (y) edge, as the window
  // starts below it: the tile that holds the low corner of the overlap.
  // In the first column (row) the window's own low edge is that corner's
  // bound, so every rect passes.
  const std::vector<Rect>& rects = *rects_;
  constexpr Coord kAny = std::numeric_limits<Coord>::min();
  for (int ty = y0; ty <= y1; ++ty) {
    const Row& row = rows_[static_cast<std::size_t>(ty)];
    const std::uint32_t* ids = row.ids.data();
    const Coord ey = ty == y0 ? kAny : grid_.lo.y + ty * tile_;
    for (int tx = x0; tx <= x1; ++tx) {
      const Coord ex = tx == x0 ? kAny : grid_.lo.x + tx * tile_;
      const std::uint32_t e = row.off[static_cast<std::size_t>(tx) + 1];
      for (std::uint32_t k = row.off[static_cast<std::size_t>(tx)]; k < e;
           ++k) {
        const Rect& r = rects[ids[k]];
        if (r.lo.x >= ex && r.lo.y >= ey && r.intersects(window)) fn(ids[k]);
      }
    }
  }
}

/// What flattening a cell writes below its own path node: the census the
/// flattener takes, each distinct master once, before anything is
/// allocated. Counts are 64-bit and saturate far above every guard.
struct FlattenCount {
  std::array<std::uint64_t, kLayerCount> shapes{};  ///< per layer
  std::uint64_t total = 0;  ///< shapes on every layer
  std::uint64_t nodes = 0;  ///< path nodes: the instances of the subtree
  int levels = 0;           ///< instance levels below the cell
};

/// One edit to a flattened hierarchy, addressed by instance path.
struct CellEdit {
  enum class Kind {
    Replace,  ///< swap the instance's cell (placement unchanged)
    Move,     ///< re-place the instance (cell unchanged)
    Add,      ///< append a new instance as the last child of `path`
    Remove,   ///< delete the instance and its whole subtree
  };
  Kind kind = Kind::Replace;
  /// Instance path of the edited instance ("ARRAY/row3/c17"); for Add,
  /// the path of the *parent* instance ("" = the top cell itself).
  std::string path;
  std::string name;     ///< Add only: the new instance's name
  CellPtr cell;         ///< Replace/Add: the subtree's cell
  Transform transform;  ///< Move/Add: the local placement in the parent
};

/// What one apply() changed: the per-layer splice maps plus the dirty
/// region (bounding boxes of the removed and inserted shapes). The
/// incremental DRC / extraction passes re-verify only shapes near this
/// region; everything else is provably untouched.
struct EditResult {
  std::array<ShapeSplice, kLayerCount> splice;
  std::array<Rect, kLayerCount> old_bbox;  ///< empty when nothing removed
  std::array<Rect, kLayerCount> new_bbox;  ///< empty when nothing inserted

  const ShapeSplice& splice_of(Layer l) const {
    return splice[static_cast<std::size_t>(l)];
  }
  /// True when the edit touched `layer` at all.
  bool touches(Layer l) const { return !splice_of(l).empty(); }
  /// The layer's dirty rects (0, 1 or 2 of old/new bbox).
  std::vector<Rect> dirty_rects(Layer l) const;
  /// Union bounding box of the dirty region over every layer.
  Rect dirty_bbox() const;
};

class LayoutDB {
 public:
  /// Flattens `top` once and indexes every layer with tile edge
  /// `tile_size` (DBU; values < 1 are clamped to 1). Pick the tile from
  /// the largest interaction distance of the checks you plan to run —
  /// drc::tile_size_for(tech) for signoff — or kDefaultTile for
  /// geometry-only queries.
  explicit LayoutDB(const Cell& top, Coord tile_size = kDefaultTile);

  // The per-layer TileIndex holds a pointer into this object's rect
  // vectors, so a copied or moved database would index its donor's
  // memory. The database is shared by reference (or unique_ptr, as
  // load_snapshot returns).
  LayoutDB(const LayoutDB&) = delete;
  LayoutDB& operator=(const LayoutDB&) = delete;

  /// 16 lambda: comfortably above every rule in the scalable decks, so
  /// geometry-only users need not consult a Tech.
  static constexpr Coord kDefaultTile = 160;

  /// Flatten guards (see cell.hpp): deeper or larger hierarchies abort
  /// with "layout-flatten-too-deep" / "layout-flatten-too-many-instances"
  /// DiagErrors, raised from the census before anything is allocated.
  static constexpr int kMaxFlattenDepth = geom::kMaxFlattenDepth;
  static constexpr std::size_t kMaxFlattenInstances =
      geom::kMaxFlattenInstances;

  /// The flattener's census of `top`: LayoutDB(top) holds nodes + 1
  /// path nodes and shapes[l] shapes of layer l. It applies the flatten
  /// guards, throwing their DiagErrors, and allocates no column.
  static FlattenCount census(const Cell& top);

  const std::string& top_name() const { return masters_[0]->name(); }
  Coord tile_size() const { return tile_; }
  /// The top cell's ports (already in top coordinates). Lets extraction
  /// and pin-aware checks run entirely off the database.
  const std::vector<Port>& ports() const { return masters_[0]->ports(); }

  // --- shapes ---------------------------------------------------------------
  /// Absolute rects of `layer`'s flattened shapes in depth-first flatten
  /// order; shape id i is rects(layer)[i].
  const std::vector<Rect>& rects(Layer layer) const {
    return rects_[static_cast<std::size_t>(layer)];
  }
  /// Path-node id of each of `layer`'s shapes (0 = the top cell),
  /// parallel to rects(layer) and non-decreasing: a node's own shapes
  /// precede its descendants', and node ids are preorder.
  const std::vector<std::uint32_t>& path_ids(Layer layer) const {
    return path_ids_[static_cast<std::size_t>(layer)];
  }
  const TileIndex& index(Layer layer) const {
    return index_[static_cast<std::size_t>(layer)];
  }

  /// Total flattened shape count over all layers.
  std::size_t shape_count() const;

  // --- queries --------------------------------------------------------------
  /// fn(id) for every shape of `layer` intersecting `window`, each
  /// exactly once, in tile order (TileIndex::for_each_in).
  template <typename Fn>
  void for_each_in(Layer layer, const Rect& window, Fn&& fn) const {
    index(layer).for_each_in(window, std::forward<Fn>(fn));
  }

  /// Bounding box over every layer (empty Rect when no shapes), folded
  /// from the per-layer index bounds.
  Rect bbox() const;
  /// Bounding box of one layer.
  Rect layer_bbox(Layer layer) const {
    return index(layer).bounds();
  }

  /// Sum of shape areas on `layer` (overlaps counted multiply).
  double layer_area(Layer layer) const;
  /// Exact merged area of `layer` (overlaps counted once).
  double layer_union_area(Layer layer) const;

  /// Poly-over-diffusion crossing count (the structural transistor
  /// census Cell::transistor_census() reports), answered with indexed
  /// overlap queries instead of the historical all-pairs scan.
  std::size_t transistor_census() const;

  // --- provenance -----------------------------------------------------------
  /// Materializes the instance path of path-node `id`: '/'-joined
  /// instance names from the top cell down ("" for the top itself).
  std::string path_name(std::uint32_t id) const;
  /// Convenience: the path of shape `shape_id` on `layer`.
  std::string shape_path(Layer layer, std::uint32_t shape_id) const {
    return path_name(path_ids(layer)[shape_id]);
  }
  /// Number of path nodes (top + every flattened instance).
  std::size_t path_count() const { return path_parent_.size(); }
  /// The path-node tree column by column, indexed by node id: each
  /// node's parent (node 0, the top cell, is its own), instance name,
  /// placement in its parent, master (an index into masters()), and the
  /// end of its preorder subtree, which is the node interval [id,
  /// path_sub_ends()[id]).
  const std::vector<std::uint32_t>& path_parents() const {
    return path_parent_;
  }
  const std::vector<std::string>& path_names() const { return path_name_; }
  const std::vector<Transform>& path_locals() const { return path_local_; }
  const std::vector<std::uint32_t>& path_masters() const {
    return path_master_;
  }
  const std::vector<std::uint32_t>& path_sub_ends() const {
    return path_sub_end_;
  }
  /// The distinct masters the path nodes name; masters()[0] is the
  /// database's copy of the top cell. A node's own shapes are its
  /// master's; its children are its master's instances unless an edit
  /// changed them. Masters an edit left unplaced stay in the table.
  const std::vector<CellPtr>& masters() const { return masters_; }
  /// The path node of the instance at `path` ("A/b/c" syntax; "" = the
  /// top node, 0). Throws bisram::Error when no such instance exists.
  std::uint32_t node_of(const std::string& path) const;

  // --- incremental maintenance ----------------------------------------------
  /// Applies one edit in place: re-flattens only the edited subtree and
  /// splices it into the per-layer rect and path-id columns, renumbering
  /// path nodes and shape ids exactly as a fresh flatten of the edited
  /// hierarchy would. The tile index of each touched layer is spliced
  /// too (TileIndex::splice), never rebuilt; what remains linear in the
  /// layout is the id shift past the splice point, which costs nothing
  /// for Moves and count-preserving Replaces. bbox() and layer_bbox()
  /// stay the exact extents a fresh flatten reports. Throws
  /// bisram::Error for an unknown path, an edit addressing the top cell
  /// itself, or an Add whose name/cell is missing. The returned
  /// EditResult drives drc::IncrementalDrc and
  /// extract::IncrementalExtract.
  EditResult apply(const CellEdit& edit);

  /// Content fingerprint over the flat database (shapes, provenance
  /// tree, top name and ports, tile size; not the master table). Equal
  /// databases hash equal; the snapshot loader and the save/load
  /// round-trip tests key on this.
  std::uint64_t content_hash() const;

  // --- snapshots (format in layout_snapshot.{hpp,cpp}) ----------------------
  /// Writes the hierarchy the database describes, each master once, as
  /// a versioned, CRC-protected binary snapshot, atomically
  /// (util/checkpoint's publish_atomic). Throws bisram::Error on I/O
  /// failure.
  void save_snapshot(const std::string& path) const;

  /// Loads a snapshot: decodes its hierarchy and flattens it through
  /// LayoutDB(const Cell&, Coord), so the result equals the saved
  /// database, edits included. Follows the repo's parser convention
  /// (util/diag.hpp): with a DiagEngine it never throws — corrupt,
  /// truncated or version-skewed files yield stable "snapshot-*"
  /// diagnostics and a null result; without one it throws
  /// bisram::DiagError carrying the same diagnostics.
  static std::unique_ptr<LayoutDB> load_snapshot(const std::string& path,
                                                 DiagEngine* diag = nullptr);

 private:
  /// Builds every layer's TileIndex over its rects, one layer per pool
  /// worker (util/parallel), the largest layers first; the constructor
  /// ends with it, apply() splices instead.
  void build_indexes();
  /// The id of `cell` in the master table, appending it when new.
  std::uint32_t intern(const CellPtr& cell);
  /// Absolute transform of a path node (composition of local transforms
  /// from the top down).
  Transform abs_transform(std::uint32_t node) const;

  Coord tile_ = kDefaultTile;
  // The distinct masters, kept alive; masters_[0] is the top's copy.
  std::vector<CellPtr> masters_;
  std::unordered_map<const Cell*, std::uint32_t> master_id_;
  // The flat store: per layer, one rect and one path-node id per shape.
  std::array<std::vector<Rect>, kLayerCount> rects_;
  std::array<std::vector<std::uint32_t>, kLayerCount> path_ids_;
  std::array<TileIndex, kLayerCount> index_;
  // Parent-pointer path tree; node 0 is the top cell. Names, local
  // placements and master ids are stored by value (one node per
  // flattened instance, not per shape); path_sub_end_[n] is one past
  // the last node of n's subtree in the preorder numbering, so a
  // subtree is always the id interval [n, path_sub_end_[n]).
  std::vector<std::uint32_t> path_parent_;
  std::vector<std::string> path_name_;
  std::vector<Transform> path_local_;
  std::vector<std::uint32_t> path_master_;
  std::vector<std::uint32_t> path_sub_end_;
};

}  // namespace bisram::geom
