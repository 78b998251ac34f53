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
/// record's nets and path node, which the edit may renumber.
///
/// The labels and the edges stay in place. An edit replaces a few runs
/// of piece ids (each layer's splice, and the segments of each surviving
/// diffusion shape it splits anew), so the survivors between two
/// replaced runs move by one offset: the labels move block by block and
/// each stored id takes its block's offset, from a table with one entry
/// per 1,024 ids. An edit that keeps every shape and segment count (a
/// move, or a replace by a same-shaped master) renumbers nothing.
///
/// The labels follow the edit component by component. A component that
/// lost no piece (removed, or re-split at a dirty gate), whose reach the
/// edit cannot have cut (the gate net of a device that goes, the net of a
/// port that now resolves elsewhere) and that no new piece touches keeps
/// its members, their order and their rects, so its pieces keep their
/// root and its net keeps its capacitance sum, bit for bit. The other
/// components are reset: one pooled scan over the labels, one check per
/// piece, starts their survivors as their own roots and lists them, and
/// one pooled scan over the edges, one check per edge, lists their
/// stored edges (dropping those that lost an end) to be united again
/// with the new pieces' edges. Only the listed pieces and the new ones
/// are flattened, tagged and re-summed. Net ids are minted in
/// extract()'s visit order — devices, ports, then the remaining
/// components by least wired piece, merging the kept ones of the last
/// edit's list with the affected ones — since an edit can shift every
/// id; a net tag that alternates from one numbering to the next tells a
/// kept root, still holding its pre-edit net, from one minted anew.
/// Every per-edit pass runs on util/parallel in fixed chunks; the mint
/// and the re-sums are serial. Beyond the one-shot extraction's state,
/// an update keeps the ports' pieces, the least wired piece of each net
/// minted after the ports and the renumbering table; the lists sized by
/// what an edit touches are freed with the update.
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
