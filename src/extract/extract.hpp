#pragma once
// Layout -> netlist extraction. BISRAMGEN extracts its generated leaf
// cells and simulates them (paper Fig. 1: "extract and simulate leaf
// cells ahead of time, thereby extrapolating timing, area and power
// guarantees"). The extractor recognizes MOS devices where poly crosses
// diffusion (splitting the diffusion into source/drain segments), builds
// net connectivity through contacts and vias, estimates per-net wiring
// capacitance from the technology's parasitic data, and maps cell ports
// to nets so tests can verify the topology of generated cells.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geom/cell.hpp"
#include "geom/layout_db.hpp"
#include "spice/netlist.hpp"
#include "tech/tech.hpp"

namespace bisram::extract {

/// One recognized transistor.
struct Device {
  spice::MosType type = spice::MosType::Nmos;
  int gate = -1;    ///< net ids
  int source = -1;  ///< (source/drain assignment is arbitrary; devices
  int drain = -1;   ///<  are symmetric)
  double w_um = 0;
  double l_um = 0;
  /// Path node (LayoutDB::path_ids) of the diffusion shape the channel
  /// was recognized on: 0 for shapes owned by the top cell.
  /// LayoutDB::path_name names the instance on demand.
  std::uint32_t path = 0;
};

/// Extraction result.
struct Extracted {
  int net_count = 0;
  std::vector<Device> devices;
  std::map<std::string, int> port_net;  ///< cell port name -> net id
  std::vector<double> net_cap_f;        ///< estimated wire cap per net

  /// Devices whose gate is on `net`.
  std::vector<Device> gated_by(int net) const;
  /// Devices with one S/D terminal on `net`.
  std::vector<Device> touching(int net) const;
  /// True when some device connects nets a and b through its channel.
  bool channel_between(int a, int b) const;
};

/// Extracts a prebuilt layout database (the signoff path: one LayoutDB
/// shared with DRC and the writers). Ports come from db.ports().
///
/// One core serves this call and IncrementalExtract, in three phases:
/// split every diffusion shape at its gates, discover the electrical
/// adjacency edges between pieces through the database's per-layer tile
/// indexes, then label the components and number the nets. Every pass
/// runs on util/parallel in fixed-size chunks (a leaf cell is one chunk
/// and stays on the calling thread): each shape's split lands in its
/// own slot, and each edge is united as it is found by a lock-free
/// union-find that links the larger root under the smaller, so every
/// piece's label is its component's least piece id whatever the
/// schedule. The labels, each piece's capacitance and the per-piece net
/// lookup are pool passes; net ids are minted serially in the
/// historical visit order (devices, ports, then capacitance in piece
/// order), and each net's capacitance is summed in piece order. So the
/// netlist is bit-identical at any BISRAM_THREADS and keeps the
/// historical flatten-and-scan numbering. A one-shot call keeps no
/// edge list.
Extracted extract(const geom::LayoutDB& db, const tech::Tech& tech);

/// Convenience: flattens `top` into a LayoutDB and extracts it.
Extracted extract(const geom::Cell& top, const tech::Tech& tech);

/// Splits diffusion `diff` at `gates`, the poly rects crossing it, as
/// extraction does: sorts `gates` along the stripe axis in place and
/// returns the gates.size() + 1 source/drain segments, segment k on the
/// near side of gates[k]. Each cut is clamped to [previous cut, end of
/// the diffusion], so every segment lies inside `diff`; a gate
/// overhanging the diffusion's end leaves a zero-length end segment.
std::vector<geom::Rect> split_diffusion(const geom::Rect& diff,
                                        std::vector<geom::Rect>& gates);

/// Incremental extraction over an edited LayoutDB. Construct it once
/// (a full extraction that additionally caches the expensive geometric
/// intermediates), then after every LayoutDB::apply feed the returned
/// EditResult to update(); result() is bit-identical to
/// extract::extract(db, tech) on the database's current contents.
///
/// Construction runs extract()'s core once and keeps its
/// intermediates: the edge list, and each piece's component root (its
/// least piece id) in a per-piece label whose root slot also holds the
/// component's net. What is cached and what is recomputed: the
/// diffusion split (gate recognition + segment pieces + device sites)
/// is kept per diffusion shape and recomputed only for shapes the edit
/// inserted or whose rect intersects the edit's dirty poly region. The
/// Device records stay in their slots up to the first entry whose record
/// count changed and shift past it; only inserted or recomputed shapes
/// rebuild their geometry, and the mint's pool pass rewrites every
/// record's nets and path node, which the edit may renumber. The
/// adjacency edges are kept globally and spliced across the piece-id
/// renumbering, with fresh edges discovered only around inserted pieces
/// by the same per-layer index queries.
///
/// The labels follow the edit component by component. A component that
/// lost no piece keeps its members, their order and their rects, so its
/// pieces take its renumbered root and its net keeps its capacitance
/// sum, bit for bit. Only two sets start over as their own roots: the
/// survivors of the components that lost a piece (removed, or re-split
/// at a dirty gate) and the new pieces. The edge splice renumbers every
/// kept edge but unites only the edges of those reset components, and
/// the new pieces' edges are united as they are found. Components whose
/// reach the edit may have cut (the gate net of a device that goes, the
/// net of a port that now resolves elsewhere) are reset too. One pooled
/// scan then lists, in piece order, the wired pieces of the components
/// that hold a reset or new piece, and only those are re-summed. Net
/// ids are minted in extract()'s visit order — devices, ports, then the
/// remaining components by least wired piece, merging the kept ones of
/// the last edit's list with the affected ones — since an edit can
/// shift every id. Every per-edit pass runs on util/parallel in fixed
/// chunks; the mint and the re-sums are serial. Beyond the one-shot
/// extraction's state, an update keeps a second label array (one uint32
/// per piece, the labels of the new layout while the old ones are
/// read), the ports' pieces and the least wired piece of each net minted
/// after the ports. The lists sized by what an edit touches are freed
/// with the update; the other buffers are reused across edits.
///
/// The database must outlive the extractor, and every apply() on it
/// must be fed to update() (once, in order). Deterministic and
/// thread-invariant.
class IncrementalExtract {
 public:
  IncrementalExtract(const geom::LayoutDB& db, const tech::Tech& tech);
  ~IncrementalExtract();
  IncrementalExtract(const IncrementalExtract&) = delete;
  IncrementalExtract& operator=(const IncrementalExtract&) = delete;

  /// Consumes the EditResult of one LayoutDB::apply on the tracked
  /// database and refreshes the extraction.
  void update(const geom::EditResult& edit);

  /// The current netlist (valid until the next update()).
  const Extracted& result() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bisram::extract
