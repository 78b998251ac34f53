#pragma once
// Design-rule checker over the shared flat layout database: per-layer
// minimum width and spacing, via enclosure, and well coverage of
// diffusion. BISRAMGEN runs this after every cell/macro generation —
// design-rule independence is only credible if the generated geometry
// actually satisfies the deck it was generated from.
//
// The checker runs on geom::LayoutDB (one flatten, per-layer tile
// index). Each rule is written once, as a per-shape scan; a full check
// runs those scans on util/parallel's deterministic engine in fixed
// chunks of shape ids, joined in chunk order, and IncrementalDrc reruns
// them only for the shapes an edit can affect. Every finding is kept as
// (rule phase, emitting shape, sequence), which is unique, and the
// report orders the findings by canonical (rule phase, layer,
// coordinates) key, ties by that tag. The result is bit-identical for
// any BISRAM_THREADS value and independent of the database's tile size.
//
// Known approximation (inherited from the seed checker): same-layer
// spacing merges touching rectangles into connected components first,
// so two rects of one merged polygon may legitimately sit close
// (contact pad bridged to a gate by a stub). This also skips true
// same-polygon notches — an accepted approximation.

#include <memory>
#include <string>
#include <vector>

#include "geom/cell.hpp"
#include "geom/layout_db.hpp"
#include "tech/tech.hpp"

namespace bisram::drc {

enum class RuleKind {
  MinWidth,       ///< rectangle thinner than the layer's minimum width
  MinSpace,       ///< two disjoint rectangles closer than minimum spacing
  ViaEnclosure,   ///< via/contact not enclosed by its adjacent layers
  WellCoverage,   ///< pdiff outside nwell (or insufficient enclosure)
};

struct Violation {
  RuleKind kind;
  geom::Layer layer;
  geom::Rect a;
  geom::Rect b;  ///< second rect for spacing violations
  std::string note;
  /// Instance provenance from the LayoutDB: the hierarchical path of
  /// the cell instance that produced rect a (and b, for pair rules).
  /// Empty for shapes owned by the top cell.
  std::string path_a;
  std::string path_b;
};

struct DrcOptions {
  /// Stop after this many violations (keeps pathological runs bounded).
  std::size_t max_violations = 1000;
};

/// The technology's maximum interaction distance: the largest spacing /
/// enclosure reach any rule can look across. A LayoutDB tiled at (a
/// multiple of) this distance answers every rule query from a shape's
/// own tile and its ring of neighbors.
geom::Coord max_interaction_distance(const tech::Tech& tech);

/// The tile edge drc-grade LayoutDBs are built with: 4x
/// max_interaction_distance (360 DBU on the CDA decks). A query's cost
/// is the candidates its tiles hold, most of which fail the window
/// test: on the 128-word Fig. 6 slice a spacing query scans 24 Metal1,
/// 15 Poly and 7 Contact candidates at 4x against 56, 34 and 20 at 8x,
/// for the same hits. The compact bucket layout keeps the index small
/// enough to afford the 4x tile count (see geom::TileIndex).
geom::Coord tile_size_for(const tech::Tech& tech);

/// Checks a prebuilt layout database against `tech`'s rules. This is
/// the signoff entry point: build the LayoutDB once and share it with
/// extraction and the writers.
std::vector<Violation> check(const geom::LayoutDB& db, const tech::Tech& tech,
                             const DrcOptions& options = {});

/// Convenience: flattens `top` into a LayoutDB (tiled with
/// tile_size_for) and checks it.
std::vector<Violation> check(const geom::Cell& top, const tech::Tech& tech,
                             const DrcOptions& options = {});

/// Incremental re-check over an edited LayoutDB. Construct it once (it
/// runs check()'s full scan), then after every LayoutDB::apply feed the
/// returned EditResult to update(); report() is bit-identical to running
/// drc::check(db, tech, options) from scratch on the database's current
/// contents, but update() only re-runs the per-shape rules for shapes
/// the edit could have affected:
///
///   * min-width: only the inserted shapes (a surviving rect's width
///     cannot change).
///   * min-space: the checker keeps a canonical label per shape, the
///     smallest id of its merged polygon, spliced across the shape-id
///     renumbering. An edit re-walks, through the layer index, only the
///     polygons of the inserted shapes and of the survivors touching
///     the removed shapes' bounding box (no other polygon can have
///     changed), and re-verifies the inserted shapes plus every shape
///     whose label changed — exactly the shapes whose "same merged
///     polygon" predicate can have flipped.
///   * via enclosure / well coverage: vias (pdiffs) inside the bounding
///     box of the edit's dirty rects expanded by the rule's reach, found
///     by one indexed window query.
///
/// Records are kept per rule phase, so an edit renumbers and filters
/// only the phases of the layers it touched. A record is its two shape
/// ids (the emitting shape and a sequence: the spacing partner, or which
/// via enclosure failed); the phase gives the rule kind and layer, and
/// the database the rects, note and instance paths, which report()
/// reads only for the records it returns. The database must outlive
/// the checker, and every apply() on it must be fed to update() before
/// the next report(). The constructor's full scan and update()'s
/// spacing, via and well re-checks run on the campaign pool in fixed
/// chunks joined in chunk order. The relabel walk stays on the calling
/// thread while its seeds and each polygon's queue fit in one chunk
/// (most edits), and past that walks frontier by frontier on the pool,
/// claiming shapes by CAS and uniting touching pairs in util/parallel's
/// UnionFind, so a row move's walk uses every worker. report() is
/// serial. All are deterministic, so the report is bit-identical for
/// any BISRAM_THREADS value.
class IncrementalDrc {
 public:
  IncrementalDrc(const geom::LayoutDB& db, const tech::Tech& tech,
                 const DrcOptions& options = {});
  ~IncrementalDrc();
  IncrementalDrc(const IncrementalDrc&) = delete;
  IncrementalDrc& operator=(const IncrementalDrc&) = delete;

  /// Consumes the EditResult of one LayoutDB::apply on the tracked
  /// database (call once per apply, in order).
  void update(const geom::EditResult& edit);

  /// The full violation list for the database's current contents, in
  /// canonical order, truncated to DrcOptions::max_violations —
  /// bit-identical to drc::check. Orders every record by its canonical
  /// key and builds a Violation for the first max_violations alone.
  std::vector<Violation> report() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Human-readable one-line description of a violation (includes the
/// instance path when provenance is available).
std::string describe(const Violation& v);

}  // namespace bisram::drc
