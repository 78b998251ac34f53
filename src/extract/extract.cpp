#include "extract/extract.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace bisram::extract {

using geom::Layer;
using geom::LayoutDB;
using geom::Rect;

namespace {

/// True when `poly` fully crosses `diff` (a transistor gate).
bool crosses(const Rect& poly, const Rect& diff) {
  const Rect x = poly.intersection(diff);
  if (x.empty()) return false;
  const bool vertical = poly.lo.y <= diff.lo.y && poly.hi.y >= diff.hi.y;
  const bool horizontal = poly.lo.x <= diff.lo.x && poly.hi.x >= diff.hi.x;
  return vertical || horizontal;
}

}  // namespace

std::vector<Rect> split_diffusion(const Rect& diff, std::vector<Rect>& gates) {
  if (gates.empty()) return {diff};
  const bool split_x = gates[0].lo.y <= diff.lo.y;  // vertical gates
  std::sort(gates.begin(), gates.end(), [&](const Rect& a, const Rect& b) {
    return split_x ? a.lo.x < b.lo.x : a.lo.y < b.lo.y;
  });
  auto segment = [&](geom::Coord from, geom::Coord to) {
    return split_x ? Rect::ltrb(from, diff.lo.y, to, diff.hi.y)
                   : Rect::ltrb(diff.lo.x, from, diff.hi.x, to);
  };
  const geom::Coord end = split_x ? diff.hi.x : diff.hi.y;
  geom::Coord pos = split_x ? diff.lo.x : diff.lo.y;
  std::vector<Rect> segs;
  segs.reserve(gates.size() + 1);
  for (const Rect& g : gates) {
    const geom::Coord cut = std::clamp(split_x ? g.lo.x : g.lo.y, pos, end);
    segs.push_back(segment(pos, cut));
    pos = std::clamp(split_x ? g.hi.x : g.hi.y, pos, end);
  }
  segs.push_back(segment(pos, end));
  return segs;
}

std::vector<Device> Extracted::gated_by(int net) const {
  std::vector<Device> out;
  for (const auto& d : devices)
    if (d.gate == net) out.push_back(d);
  return out;
}

std::vector<Device> Extracted::touching(int net) const {
  std::vector<Device> out;
  for (const auto& d : devices)
    if (d.source == net || d.drain == net) out.push_back(d);
  return out;
}

bool Extracted::channel_between(int a, int b) const {
  for (const auto& d : devices)
    if ((d.source == a && d.drain == b) || (d.source == b && d.drain == a))
      return true;
  return false;
}

// --- the extraction core ------------------------------------------------------
//
// Pieces are the conducting rects nets are built from: every diffusion
// shape's split segments — NDiff shapes in shape order, then PDiff —
// followed by the shapes of the plain layers {Poly, M1, M2, M3, Contact,
// Via1, Via2}, in that order. A piece id is its position in this
// sequence. An edit replaces a few runs of ids (each layer's splice, and
// the segments of each surviving diffusion shape it splits anew) and
// keeps the survivors' order, so the survivors between two replaced runs
// all move by one offset: an update renumbers them block by block, and
// an edit that keeps every count moves none.
//
// Three phases: split every diffusion shape (one entry per shape),
// discover the electrical adjacency edges (each chunk of pieces lists
// its own, concatenated in chunk order), then label the components and
// number the nets. Every pass over pieces, entries, edges or device
// records runs on util/parallel in fixed chunks, and the edge lists are
// joined in chunk order (parallel_collect). The labelling is the
// lock-free UnionFind of util/parallel, which DRC uses too, so a piece's
// label is its component's least piece id whatever the schedule. Net ids
// are then minted serially in the historical visit order (devices,
// ports, then the remaining components by least wired piece), and each
// net's capacitance is summed in piece order, so the netlist is
// bit-identical at any thread count.
//
// An update keeps its labels and its edge list in place. Every
// component that lost no piece and that no new piece touches keeps its
// members, its root and its net's capacitance sum, bit for bit; its
// labels change only where its ids move. The survivors of the other
// components and the new pieces start as their own roots, and only they
// are re-united (from the stored edges and the new pieces' ones),
// flattened, tagged and re-summed.

namespace {

/// Layers whose shapes are pieces as they stand, in piece-id order.
constexpr Layer kPlain[] = {Layer::Poly,    Layer::Metal1, Layer::Metal2,
                            Layer::Metal3,  Layer::Contact, Layer::Via1,
                            Layer::Via2};
constexpr std::size_t kPlainCount = sizeof(kPlain) / sizeof(kPlain[0]);

int plain_slot(Layer l) {
  for (std::size_t t = 0; t < kPlainCount; ++t)
    if (kPlain[t] == l) return static_cast<int>(t);
  return -1;
}

/// Layers a piece on `l` electrically merges with: same-layer shapes on
/// touch, vias and contacts with their adjacent layers; poly never with
/// diffusion (that is a gate). Each list is in piece-id block order.
const std::vector<Layer>& connect_targets(Layer l) {
  static const std::vector<Layer> none;
  static const std::vector<Layer> table[] = {
      /*NDiff*/ {Layer::NDiff, Layer::Contact},
      /*PDiff*/ {Layer::PDiff, Layer::Contact},
      /*Poly*/ {Layer::Poly, Layer::Contact},
      /*Metal1*/ {Layer::Metal1, Layer::Contact, Layer::Via1},
      /*Metal2*/ {Layer::Metal2, Layer::Via1, Layer::Via2},
      /*Metal3*/ {Layer::Metal3, Layer::Via2},
      /*Contact*/ {Layer::NDiff, Layer::PDiff, Layer::Poly, Layer::Metal1},
      /*Via1*/ {Layer::Metal1, Layer::Metal2},
      /*Via2*/ {Layer::Metal2, Layer::Metal3},
  };
  switch (l) {
    case Layer::NDiff: return table[0];
    case Layer::PDiff: return table[1];
    case Layer::Poly: return table[2];
    case Layer::Metal1: return table[3];
    case Layer::Metal2: return table[4];
    case Layer::Metal3: return table[5];
    case Layer::Contact: return table[6];
    case Layer::Via1: return table[7];
    case Layer::Via2: return table[8];
    default: return none;
  }
}

constexpr std::uint32_t kNoPiece = 0xffffffffu;
/// An edge whose piece the edit invalidated, until the splice drops it.
constexpr std::uint64_t kDeadEdge = ~std::uint64_t{0};

// A label slot holds a piece id below kTag, or, in a component root's
// slot, a tag in bits 31-30:
//   net tag | id  the component's net. A numbering mints with one of two
//                 net tags, and the next update's numbering with the
//                 other, so while an update runs the roots still holding
//                 the last one are the components it left alone, with
//                 the net ids they had before the edit;
//   kAffected     during an update: a component that holds a new or a
//                 reset piece;
//   kLost         in the pre-edit labels: a component that lost a piece,
//                 whose reach the edit may have cut, or that a new piece
//                 touches.
// Every tag exceeds every piece id, and a member's slot holds its root,
// which is smaller than the member, so a piece's root is
// min(slot, piece).
constexpr std::uint32_t kTag = 0x40000000u;
constexpr std::uint32_t kIdMask = kTag - 1;
constexpr std::uint32_t kNetTags[2] = {0x80000000u, 0x40000000u};
constexpr std::uint32_t kAffected = 0xc0000000u;
constexpr std::uint32_t kLost = 0xffffffffu;

/// Work per pool chunk. Fixed, so the chunk layout depends on the
/// layout alone; a leaf cell, and the re-emission of most edits, fits in
/// one chunk and runs serially without touching the pool.
constexpr std::int64_t kSplitChunk = 1024;    // diffusion shapes to visit
constexpr std::int64_t kEdgeChunk = 8192;     // pieces whose edges to find
constexpr std::int64_t kLinearChunk = 16384;  // items of a linear pass
constexpr std::int64_t kListChunk = 1024;  // items an edit lists, to look up
/// Pieces whose capacitance is computed before the serial sum takes it.
constexpr std::uint32_t kCapWindow = 1u << 16;

/// fn(c, lo, hi) for every fixed-size chunk [lo, hi) of [0, n), chunk c,
/// on util/parallel.
template <typename Fn>
void for_chunks(std::int64_t n, std::int64_t chunk, Fn&& fn) {
  parallel_for((n + chunk - 1) / chunk, 1, [&](std::int64_t c) {
    fn(static_cast<std::size_t>(c), c * chunk, std::min(n, (c + 1) * chunk));
  });
}

/// out[i] = base + count(0) + ... + count(i - 1) for i in [0, n]:
/// per-chunk totals, a serial scan over them, then per-chunk fills.
/// Returns out[n].
template <typename Count>
std::uint32_t prefix_sums(std::size_t n, std::uint32_t base,
                          std::vector<std::uint32_t>& out, Count&& count) {
  out.resize(n + 1);
  const auto total = static_cast<std::int64_t>(n);
  std::vector<std::uint32_t> start(
      static_cast<std::size_t>((total + kLinearChunk - 1) / kLinearChunk));
  for_chunks(total, kLinearChunk, [&](std::size_t c, std::int64_t lo,
                                      std::int64_t hi) {
    std::uint32_t sum = 0;
    for (std::int64_t i = lo; i < hi; ++i) sum += count(i);
    start[c] = sum;
  });
  std::uint32_t acc = base;
  for (std::uint32_t& s : start) {
    const std::uint32_t sum = s;
    s = acc;
    acc += sum;
  }
  for_chunks(total, kLinearChunk, [&](std::size_t c, std::int64_t lo,
                                      std::int64_t hi) {
    std::uint32_t at = start[c];
    for (std::int64_t i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] = at;
      at += count(i);
    }
  });
  out[n] = acc;
  return acc;
}

/// The extraction pipeline over one LayoutDB. A one-shot extract() runs
/// it once; IncrementalExtract keeps it and feeds it edits.
struct Extractor {
  /// One device site of a diffusion shape's split, in local segment
  /// coordinates. gate_pid is the Poly *shape id* of the crossing gate
  /// (renumbered through poly splices); any shape of the gate's merged
  /// poly net would do, since only its component label feeds net_of.
  struct LocalSite {
    Rect gate_poly;
    Rect channel;
    std::uint32_t gate_pid;
    std::uint32_t left;  // local segment index
    std::uint32_t right;
  };
  /// The split of one diffusion shape.
  struct Entry {
    std::vector<Rect> segs;
    std::vector<LocalSite> sites;
  };
  /// Piece-id and device-record layout of one state (prefix sums).
  struct Blocks {
    std::array<std::vector<std::uint32_t>, 2> entry_start;  // per-shape, n+1
    std::array<std::vector<std::uint32_t>, 2> dev_start;    // per-shape, n+1
    std::array<std::uint32_t, kPlainCount> plain_start{};
    std::uint32_t total = 0;    // pieces
    std::uint32_t devices = 0;  // device records
  };
  /// An edit's renumbering of the piece ids, in id order: each cut
  /// replaces the old ids [old_lo, old_hi) by the new ids [new_lo,
  /// new_hi) (a splice of one layer's shapes, or a surviving diffusion
  /// shape split anew); every other piece survives, in order. So the
  /// survivors between two cuts all move by one offset, and a run lists
  /// the survivors [old_from, old_to) from a cut that changes the offset
  /// up to the next one, with their offset `delta` (modulo 2^32). An
  /// edit that keeps every count has cuts but no run.
  struct Cut {
    std::uint32_t old_lo, old_hi, new_lo, new_hi;
  };
  struct Run {
    std::uint32_t old_from, old_to, delta;
  };
  static constexpr unsigned kPageBits = 10;
  /// Marks a page a run starts in. No offset takes this value: every
  /// one lies within (-2^30, 2^30).
  static constexpr std::uint32_t kStraddle = 0x80000000u;
  /// A wired piece of an affected component and its capacitance.
  struct PieceCap {
    std::uint32_t piece;
    double cap;
  };

  /// Extracts `layout`; `keep_edges` keeps what update() splices.
  Extractor(const LayoutDB& layout, const tech::Tech& tech, bool keep_edges)
      : db(&layout), um_per_dbu(tech.lambda_um / 10.0), wire(tech.elec.wire) {
    for (std::size_t l = 0; l < geom::kLayerCount; ++l)
      wired[l] = wire[l].cap_area_f_um2 != 0.0 || wire[l].cap_fringe_f_um != 0.0;
    split_all();
    lay_out();
    reset_labels();
    discover_all(keep_edges);
    out.devices.resize(b.devices);
    const auto n0 = static_cast<std::int64_t>(entries[0].size());
    const auto n1 = static_cast<std::int64_t>(entries[1].size());
    parallel_for(n0 + n1, kSplitChunk, [&](std::int64_t i) {
      set_devices(i < n0 ? 0 : 1,
                  static_cast<std::size_t>(i < n0 ? i : i - n0));
    });
    // The incremental engine keeps each member's root in its slot.
    number_nets(/*propagate=*/!keep_edges);
  }

  const LayoutDB* db;
  double um_per_dbu;
  std::array<tech::WireParams, geom::kLayerCount> wire;
  /// Per layer: its pieces carry capacitance.
  std::array<bool, geom::kLayerCount> wired{};
  std::array<std::vector<Entry>, 2> entries;  // [0]=NDiff, [1]=PDiff
  Blocks b;                                   // the current layout
  std::vector<std::uint64_t> edges;           // packed (i<<32)|j, i<j
  Extracted out;
  /// Per piece: the UnionFind parent slot, then the component's root
  /// (its least piece id) in a member's slot and a tag in the root's.
  std::vector<std::uint32_t> label;
  /// The piece each port resolves to (its lowest piece on its layer).
  std::vector<std::uint32_t> port_piece;
  /// The least wired piece of each net minted after the ports, in net
  /// order.
  std::vector<std::uint32_t> loose;
  /// The tag the numbering mints nets with (one of kNetTags).
  std::uint32_t net_tag = kNetTags[0];

  // Working buffers, kept so an edit reuses them. The lists whose
  // size follows what an edit touches (a row move's run to hundreds of
  // thousands of pieces) are an update's locals instead, freed with it.
  Blocks old_b;  ///< the pre-edit layout during update()
  std::vector<Cut> cuts;  ///< the update's renumbering
  std::vector<Run> runs;
  /// Per page of 2^kPageBits pre-edit ids: the offset of the run that
  /// covers the whole page (0 before the first run), or kStraddle for a
  /// page where a run starts, which moved() looks up in `runs`.
  std::vector<std::uint32_t> page_delta;
  std::array<std::vector<char>, 2> fresh;    ///< per entry: recomputed
  std::array<std::vector<std::uint32_t>, 2> redo;  ///< the fresh entries
  std::vector<double> cap_window;    ///< capacitance of kCapWindow pieces
  std::vector<double> old_cap;       ///< the pre-edit net_cap_f
  /// net_of_root() lists each net it mints in `loose`.
  bool minting_loose = false;

  bool minted(std::uint32_t slot) const {
    return (slot & ~kIdMask) == net_tag;
  }
  bool carried(std::uint32_t slot) const {
    return (slot & ~kIdMask) == (net_tag ^ kNetTags[0] ^ kNetTags[1]);
  }

  static Layer diff_layer(int dl_i) {
    return dl_i == 0 ? Layer::NDiff : Layer::PDiff;
  }
  static std::uint64_t pack(std::uint32_t i, std::uint32_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }

  /// Splits one diffusion rect at the gates crossing it. The gates are
  /// put in poly-id order before split_diffusion sorts them (its sort is
  /// not stable), so segment boundaries and site order match the
  /// historical extractor.
  Entry compute_entry(const Rect& diff) const {
    Entry e;
    const auto& polys = db->rects(Layer::Poly);
    std::vector<std::uint32_t> pids;
    db->index(Layer::Poly).for_each_in(diff, [&](std::uint32_t pid) {
      if (crosses(polys[pid], diff)) pids.push_back(pid);
    });
    std::sort(pids.begin(), pids.end());
    std::vector<Rect> gates;
    gates.reserve(pids.size());
    for (const std::uint32_t pid : pids) gates.push_back(polys[pid]);
    e.segs = split_diffusion(diff, gates);
    for (std::uint32_t g = 0; g < gates.size(); ++g) {
      LocalSite s;
      s.gate_poly = gates[g];
      s.channel = gates[g].intersection(diff);
      s.gate_pid = kNoPiece;
      for (std::size_t k = 0; k < pids.size(); ++k)
        if (polys[pids[k]] == gates[g]) {
          s.gate_pid = pids[k];
          break;
        }
      s.left = g;
      s.right = g + 1;
      e.sites.push_back(s);
    }
    return e;
  }

  /// Writes the device records of diffusion entry (dl_i, k) into their
  /// slots of `out.devices`, nets and path unset (mint_reached assigns
  /// them).
  void set_devices(int dl_i, std::size_t k) {
    const Entry& e = entries[dl_i][k];
    Device* d = out.devices.data() + b.dev_start[dl_i][k];
    for (const LocalSite& site : e.sites) {
      d->type = dl_i == 1 ? spice::MosType::Pmos : spice::MosType::Nmos;
      const bool split_x = site.gate_poly.lo.y <= site.channel.lo.y;
      const geom::Coord w =
          split_x ? site.channel.height() : site.channel.width();
      const geom::Coord l =
          split_x ? site.channel.width() : site.channel.height();
      d->w_um = static_cast<double>(w) * um_per_dbu;
      d->l_um = static_cast<double>(l) * um_per_dbu;
      ++d;
    }
  }

  /// A wired piece's capacitance: area plus fringe.
  double piece_cap(Layer layer, const Rect& r) const {
    const auto& wp = wire[static_cast<std::size_t>(layer)];
    const double w = static_cast<double>(r.width()) * um_per_dbu;
    const double h = static_cast<double>(r.height()) * um_per_dbu;
    return w * h * wp.cap_area_f_um2 + 2.0 * (w + h) * wp.cap_fringe_f_um;
  }

  /// Phase 1: every diffusion shape's split, each in its own entry.
  void split_all() {
    entries[0].resize(db->rects(Layer::NDiff).size());
    entries[1].resize(db->rects(Layer::PDiff).size());
    const auto n0 = static_cast<std::int64_t>(entries[0].size());
    const auto n1 = static_cast<std::int64_t>(entries[1].size());
    parallel_for(n0 + n1, kSplitChunk, [&](std::int64_t i) {
      const int dl_i = i < n0 ? 0 : 1;
      const auto k = static_cast<std::size_t>(dl_i == 0 ? i : i - n0);
      entries[dl_i][k] = compute_entry(db->rects(diff_layer(dl_i))[k]);
    });
  }

  /// Lays out `b` from the entries and the plain layers' shape counts.
  void lay_out() {
    std::uint32_t pieces = 0, devices = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& es = entries[dl_i];
      pieces = prefix_sums(es.size(), pieces, b.entry_start[dl_i],
                           [&](std::int64_t s) {
                             return static_cast<std::uint32_t>(
                                 es[static_cast<std::size_t>(s)].segs.size());
                           });
      devices = prefix_sums(es.size(), devices, b.dev_start[dl_i],
                            [&](std::int64_t s) {
                              return static_cast<std::uint32_t>(
                                  es[static_cast<std::size_t>(s)].sites.size());
                            });
    }
    for (std::size_t t = 0; t < kPlainCount; ++t) {
      b.plain_start[t] = pieces;
      pieces += static_cast<std::uint32_t>(db->rects(kPlain[t]).size());
    }
    b.total = pieces;
    b.devices = devices;
    ensure(b.total < kTag, "extract: piece ids overflow the label tags");
  }

  /// The plain block holding piece `g` (g at or past the first one).
  static std::size_t plain_block(const Blocks& l, std::uint32_t g) {
    std::size_t t = kPlainCount - 1;
    while (g < l.plain_start[t]) --t;
    return t;
  }

  /// fn(id, layer, rect) for every piece with id in [lo, hi), in order.
  template <typename Fn>
  void for_each_piece(std::uint32_t lo, std::uint32_t hi, Fn&& fn) const {
    std::uint32_t g = lo;
    for (int dl_i = 0; dl_i < 2 && g < hi; ++dl_i) {
      const auto& start = b.entry_start[dl_i];
      if (g >= start.back()) continue;
      // Every entry has at least one segment, so starts strictly rise.
      auto s = static_cast<std::size_t>(
          std::upper_bound(start.begin(), start.end(), g) - start.begin() - 1);
      for (; g < hi && s + 1 < start.size(); ++s) {
        const auto& segs = entries[dl_i][s].segs;
        for (std::uint32_t t = g - start[s]; t < segs.size() && g < hi; ++t)
          fn(g++, diff_layer(dl_i), segs[t]);
      }
    }
    for (std::size_t t = 0; t < kPlainCount && g < hi; ++t) {
      const auto& rects = db->rects(kPlain[t]);
      for (std::uint32_t k = g - b.plain_start[t]; k < rects.size() && g < hi;
           ++k)
        fn(g++, kPlain[t], rects[k]);
    }
  }

  /// fn(id, layer, rect) for every piece of ids[lo, hi), an ascending
  /// list: a diffusion piece's entry is the last one's, the next one, or
  /// else looked up.
  template <typename Fn>
  void for_each_listed(const std::vector<std::uint32_t>& ids, std::size_t lo,
                       std::size_t hi, Fn&& fn) const {
    int dl_i = -1;
    std::size_t s = 0;  // the entry of the last diffusion piece
    for (std::size_t q = lo; q < hi; ++q) {
      const std::uint32_t g = ids[q];
      if (g >= b.plain_start[0]) {
        const std::size_t t = plain_block(b, g);
        fn(g, kPlain[t], db->rects(kPlain[t])[g - b.plain_start[t]]);
        continue;
      }
      const int dl = g < b.entry_start[0].back() ? 0 : 1;
      const auto& start = b.entry_start[dl];
      if (dl == dl_i && g >= start[s + 1] && g < start[s + 2]) {
        ++s;
      } else if (dl != dl_i || g >= start[s + 1]) {
        const auto from = start.begin() + (dl == dl_i ? s + 1 : 0);
        s = static_cast<std::size_t>(
            std::upper_bound(from, start.end(), g) - start.begin() - 1);
        dl_i = dl;
      }
      fn(g, diff_layer(dl), entries[dl][s].segs[g - start[s]]);
    }
  }

  /// fn(h) for every piece h that conducts to a piece on `from` covering
  /// `r` (r's own piece included), answered from the per-layer LayoutDB
  /// indexes and the splits. Diffusion segments lie inside their shape,
  /// so the shape index finds every segment that touches `r`. Each piece
  /// comes once, the targets in block order, each in the index's tile
  /// order. Target layers whose pieces all lie below `min_id` are not
  /// queried.
  template <typename Fn>
  void for_each_neighbor(Layer from, const Rect& r, std::uint32_t min_id,
                         Fn&& fn) const {
    for (Layer m : connect_targets(from)) {
      if (m == Layer::NDiff || m == Layer::PDiff) {
        const int mi = m == Layer::NDiff ? 0 : 1;
        if (b.entry_start[mi].back() <= min_id) continue;
        db->index(m).for_each_in(r, [&](std::uint32_t s) {
          const auto& segs = entries[mi][s].segs;
          const std::uint32_t base = b.entry_start[mi][s];
          for (std::uint32_t t = 0; t < segs.size(); ++t)
            if (segs[t].intersects(r)) fn(base + t);
        });
      } else {
        const std::uint32_t base = b.plain_start[plain_slot(m)];
        if (base + db->rects(m).size() <= min_id) continue;
        db->index(m).for_each_in(r, [&](std::uint32_t s) { fn(base + s); });
      }
    }
  }

  /// Phase 2: every adjacency edge (i, j), i < j, found from piece i
  /// and united as it is found. With `keep_edges` (the incremental
  /// engine, which splices them) chunks list their edges in piece order,
  /// joined in chunk order, so `edges` is the serial list at any thread
  /// count; a one-shot extraction keeps none.
  void discover_all(bool keep_edges) {
    const UnionFind uf(label);
    parallel_collect(
        b.total, kEdgeChunk, edges,
        [&](std::int64_t lo, std::int64_t hi, auto& list) {
          for_each_piece(static_cast<std::uint32_t>(lo),
                         static_cast<std::uint32_t>(hi),
                         [&](std::uint32_t g, Layer l, const Rect& r) {
                           for_each_neighbor(l, r, g + 1, [&](std::uint32_t h) {
                             if (h <= g) return;
                             if (keep_edges) list.push_back(pack(g, h));
                             uf.unite(g, h);
                           });
                         });
        },
        keep_edges ? 2 * kEdgeChunk : 0);
  }

  /// The lowest piece id on `layer` intersecting `window` (the piece a
  /// linear scan would find first), or kNoPiece.
  std::uint32_t first_piece(Layer layer, const Rect& window) const {
    std::uint32_t found_id = kNoPiece;
    if (layer == Layer::NDiff || layer == Layer::PDiff) {
      const int dl_i = layer == Layer::NDiff ? 0 : 1;
      db->index(layer).for_each_in(window, [&](std::uint32_t s) {
        const auto& segs = entries[dl_i][s].segs;
        for (std::uint32_t t = 0; t < segs.size(); ++t)
          if (segs[t].intersects(window)) {
            found_id = std::min(found_id, b.entry_start[dl_i][s] + t);
            return;
          }
      });
      return found_id;
    }
    const int slot = plain_slot(layer);
    if (slot < 0) return kNoPiece;  // no pieces live on this layer
    db->index(layer).for_each_in(window, [&](std::uint32_t s) {
      found_id = std::min(found_id, b.plain_start[slot] + s);
    });
    return found_id;
  }

  /// The piece each port resolves to in the current layout.
  std::vector<std::uint32_t> port_pieces() const {
    std::vector<std::uint32_t> at;
    for (const auto& port : db->ports()) {
      at.push_back(first_piece(port.layer, port.rect));
      require(at.back() != kNoPiece, "extract: port '" + port.name +
                                         "' touches no geometry on its layer");
    }
    return at;
  }

  // --- phase 3: component labels and net numbering -------------------------

  /// Starts a labelling: every piece its own component.
  void reset_labels() { UnionFind(label).reset(b.total); }

  /// The net id of the component rooted at `root` (labels flattened),
  /// minting the next id on the component's first visit, from `piece`.
  /// A minted net starts from the capacitance its component carried
  /// across the edit, else 0.
  int net_of_root(std::uint32_t root, std::uint32_t piece) {
    std::uint32_t& slot = label[root];
    if (!minted(slot)) {
      out.net_cap_f.push_back(carried(slot) ? old_cap[slot & kIdMask] : 0.0);
      if (minting_loose) loose.push_back(piece);
      slot = net_tag | static_cast<std::uint32_t>(out.net_count++);
    }
    return static_cast<int>(slot & kIdMask);
  }
  int net_of(std::uint32_t piece) {
    const std::uint32_t v = label[piece];
    if (minted(v)) return static_cast<int>(v & kIdMask);
    return net_of_root(std::min(v, piece), piece);
  }

  /// Mints the nets the devices reach (gate, source, drain, in record
  /// order) and then the ports, into the device records and port_net.
  /// A pool pass first writes each terminal's component root and the
  /// diffusion shape's path node into its record, so the serial mint
  /// reads the records in order. On its way it renumbers the gate ids
  /// the carried entries cached through an update's Poly splice `poly`
  /// (the fresh entries already hold post-edit ids); a splice that keeps
  /// the Poly count renumbers none, since a gate inside it dirties every
  /// diffusion it crosses.
  void mint_reached(const geom::ShapeSplice& poly = {}) {
    out.net_count = 0;
    out.net_cap_f.clear();
    loose.clear();
    const std::uint32_t poly_start = b.plain_start[0];
    const auto root = [&](std::uint32_t piece) {
      return static_cast<int>(std::min(label[piece], piece));
    };
    const auto n0 = static_cast<std::int64_t>(entries[0].size());
    const auto n1 = static_cast<std::int64_t>(entries[1].size());
    parallel_for(n0 + n1, kSplitChunk, [&](std::int64_t i) {
      const int dl_i = i < n0 ? 0 : 1;
      const auto k = static_cast<std::size_t>(dl_i == 0 ? i : i - n0);
      const std::uint32_t base = b.entry_start[dl_i][k];
      const std::uint32_t node = db->path_ids(diff_layer(dl_i))[k];
      Device* dev = out.devices.data() + b.dev_start[dl_i][k];
      const bool renumber_gates = poly.delta() != 0 && !fresh[dl_i][k];
      for (LocalSite& site : entries[dl_i][k].sites) {
        if (renumber_gates) {
          site.gate_pid = poly.remap(site.gate_pid);
          ensure(site.gate_pid != geom::ShapeSplice::kRemoved,
                 "IncrementalExtract: gate poly vanished without dirtying "
                 "its diffusion");
        }
        dev->path = node;
        dev->gate = root(poly_start + site.gate_pid);
        dev->source = root(base + site.left);
        dev->drain = root(base + site.right);
        ++dev;
      }
    });
    for (Device& dev : out.devices)
      for (int* net : {&dev.gate, &dev.source, &dev.drain})
        *net = net_of_root(static_cast<std::uint32_t>(*net), 0);
    out.port_net.clear();
    const auto& ports = db->ports();
    for (std::size_t k = 0; k < ports.size(); ++k)
      out.port_net[ports[k].name] = net_of(port_piece[k]);
  }

  /// Once every edge is united: labels each piece with its component's
  /// least piece id, then mints net ids in visit order — devices, then
  /// ports, then the rest by least wired piece — into the device records
  /// laid out in entry order, and sums each net's capacitance in piece
  /// order. The labels, the per-piece net lookup (with `propagate`) and
  /// the per-piece capacitance are pool passes; the mint and the sums
  /// are serial passes in visit and piece order.
  void number_nets(bool propagate) {
    UnionFind(label).flatten();
    std::uint32_t* const up = label.data();
    port_piece = port_pieces();
    mint_reached();

    // Every piece of a component with a net takes the net id, so the
    // serial pass below reads its nets in piece order. Only non-root
    // slots are written and only root slots are read across pieces.
    if (propagate)
      parallel_for(b.total, kLinearChunk, [&](std::int64_t i) {
        const std::uint32_t lab = up[i];
        if (minted(lab)) return;
        const std::uint32_t root = up[lab];
        if (minted(root)) up[i] = root;
      });

    // Capacitance: each piece's on the pool, a window of pieces at a
    // time, then each net's summed in piece order on this thread.
    // Contacts and vias, the last three blocks, carry none.
    struct Block {
      Layer layer;
      std::uint32_t lo, hi;
    };
    std::vector<Block> blocks = {
        {Layer::NDiff, 0, b.entry_start[0].back()},
        {Layer::PDiff, b.entry_start[0].back(), b.entry_start[1].back()}};
    for (std::size_t t = 0; kPlain[t] != Layer::Contact; ++t)
      blocks.push_back({kPlain[t], b.plain_start[t], b.plain_start[t + 1]});
    std::erase_if(blocks, [&](const Block& blk) {
      return !wired[static_cast<std::size_t>(blk.layer)];
    });
    const std::uint32_t end = b.plain_start[plain_slot(Layer::Contact)];
    cap_window.resize(std::min<std::size_t>(end, kCapWindow));
    minting_loose = true;
    for (std::uint32_t lo = 0; lo < end;) {
      const std::uint32_t hi = std::min<std::uint32_t>(end, lo + kCapWindow);
      for_chunks(hi - lo, kLinearChunk, [&](std::size_t, std::int64_t from,
                                             std::int64_t to) {
        for (const Block& blk : blocks) {
          const std::uint32_t first =
              std::max(lo + static_cast<std::uint32_t>(from), blk.lo);
          const std::uint32_t last =
              std::min(lo + static_cast<std::uint32_t>(to), blk.hi);
          if (first >= last) continue;
          if (blk.layer == Layer::NDiff || blk.layer == Layer::PDiff) {
            for_each_piece(first, last,
                           [&](std::uint32_t i, Layer l, const Rect& r) {
                             cap_window[i - lo] = piece_cap(l, r);
                           });
          } else {
            const auto& rects = db->rects(blk.layer);
            for (std::uint32_t i = first; i < last; ++i)
              cap_window[i - lo] = piece_cap(blk.layer, rects[i - blk.lo]);
          }
        }
      });
      Summer sum(out.net_cap_f);
      for (const Block& blk : blocks)
        for (std::uint32_t i = std::max(lo, blk.lo); i < std::min(hi, blk.hi);
             ++i)
          sum.add(static_cast<std::size_t>(net_of(i)), cap_window[i - lo]);
      lo = hi;
    }
    minting_loose = false;
  }

  /// Adds capacitances into the net table in the order given, keeping a
  /// run of adds to one net in a register: the adds, and their order,
  /// are those of adding into the table piece by piece.
  class Summer {
   public:
    explicit Summer(std::vector<double>& table) : table_(table) {}
    ~Summer() {
      if (net_ != kNoRun) table_[net_] = sum_;
    }
    Summer(const Summer&) = delete;
    Summer& operator=(const Summer&) = delete;

    void add(std::size_t net, double cap) {
      if (net != net_) {
        if (net_ != kNoRun) table_[net_] = sum_;
        net_ = net;
        sum_ = table_[net];
      }
      sum_ += cap;
    }

   private:
    static constexpr std::size_t kNoRun = ~std::size_t{0};
    std::vector<double>& table_;
    std::size_t net_ = kNoRun;
    double sum_ = 0.0;
  };

  // --- an update's renumbering ----------------------------------------------

  /// Lays out `cuts` and `runs` for `edit`: per diffusion layer its
  /// re-split survivors and its splice, in id order, then each plain
  /// layer's splice. Adjacent cuts merge, so no survivor run is empty
  /// but the one past the last cut.
  void renumber(const geom::EditResult& edit) {
    cuts.clear();
    const auto cut = [&](std::uint32_t old_lo, std::uint32_t old_hi,
                         std::uint32_t new_lo, std::uint32_t new_hi) {
      if (old_lo == old_hi && new_lo == new_hi) return;
      if (!cuts.empty() && cuts.back().old_hi == old_lo) {
        cuts.back().old_hi = old_hi;
        cuts.back().new_hi = new_hi;
      } else {
        cuts.push_back({old_lo, old_hi, new_lo, new_hi});
      }
    };
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& sp = edit.splice_of(diff_layer(dl_i));
      const auto& was = old_b.entry_start[dl_i];
      const auto& now = b.entry_start[dl_i];
      std::vector<std::uint32_t> resplit;  // survivors split anew
      for (const std::uint32_t k : redo[dl_i])
        if (k < sp.begin || k >= sp.new_end) resplit.push_back(k);
      std::sort(resplit.begin(), resplit.end());
      auto k = resplit.begin();
      for (; k != resplit.end() && *k < sp.begin; ++k)
        cut(was[*k], was[*k + 1], now[*k], now[*k + 1]);
      cut(was[sp.begin], was[sp.old_end], now[sp.begin], now[sp.new_end]);
      for (; k != resplit.end(); ++k) {
        const auto o = static_cast<std::uint32_t>(*k - sp.delta());
        cut(was[o], was[o + 1], now[*k], now[*k + 1]);
      }
    }
    for (std::size_t t = 0; t < kPlainCount; ++t) {
      const auto& sp = edit.splice_of(kPlain[t]);
      const std::uint32_t was = old_b.plain_start[t], now = b.plain_start[t];
      cut(was + sp.begin, was + sp.old_end, now + sp.begin, now + sp.new_end);
    }
    runs.clear();
    std::uint32_t delta = 0;
    for (const Cut& c : cuts) {
      const std::uint32_t d = c.new_hi - c.old_hi;
      if (d == delta) continue;
      if (!runs.empty()) runs.back().old_to = c.old_lo;
      runs.push_back({c.old_hi, old_b.total, d});
      delta = d;
    }
    page_delta.assign((old_b.total >> kPageBits) + 1, 0);
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const std::size_t lo = runs[k].old_from >> kPageBits;
      const std::size_t hi = k + 1 < runs.size()
                                 ? runs[k + 1].old_from >> kPageBits
                                 : page_delta.size();
      page_delta[lo] = kStraddle;
      for (std::size_t q = lo + 1; q < hi; ++q) page_delta[q] = runs[k].delta;
    }
  }

  /// The post-edit id of pre-edit piece o, which survives the edit.
  std::uint32_t moved(std::uint32_t o) const {
    const std::uint32_t d = page_delta[o >> kPageBits];
    if (d != kStraddle) return o + d;
    const auto at = std::upper_bound(
        runs.begin(), runs.end(), o,
        [](std::uint32_t x, const Run& r) { return x < r.old_from; });
    return at == runs.begin() ? o : o + std::prev(at)->delta;
  }
  /// The pre-edit id of post-edit piece n, which survived the edit.
  std::uint32_t unmoved(std::uint32_t n) const {
    const auto at = std::upper_bound(
        runs.begin(), runs.end(), n, [](std::uint32_t x, const Run& r) {
          return x < r.old_from + r.delta;
        });
    return at == runs.begin() ? n : n - std::prev(at)->delta;
  }
  /// True when the edit replaced pre-edit piece o.
  bool removed(std::uint32_t o) const {
    const auto at = std::upper_bound(
        cuts.begin(), cuts.end(), o,
        [](std::uint32_t x, const Cut& c) { return x < c.old_lo; });
    return at != cuts.begin() && o < std::prev(at)->old_hi;
  }
  /// True when post-edit piece n is new.
  bool is_new(std::uint32_t n) const {
    const auto at = std::upper_bound(
        cuts.begin(), cuts.end(), n,
        [](std::uint32_t x, const Cut& c) { return x < c.new_lo; });
    return at != cuts.begin() && n < std::prev(at)->new_hi;
  }

  /// In the pre-edit labels, with the kLost components marked: resets
  /// every member of those components to its own root, in place, and
  /// returns the survivors among their pieces (pre-edit ids, ascending).
  /// The scan makes one check per piece and only reads the roots' slots;
  /// the surviving lost roots become their own roots after it.
  std::vector<std::uint32_t> reset_lost() {
    std::uint32_t* const up = label.data();
    std::vector<std::uint32_t> reset;
    parallel_collect(
        old_b.total, kLinearChunk, reset,
        [&](std::int64_t lo, std::int64_t hi, auto& list) {
          for (auto o = static_cast<std::uint32_t>(lo); o < hi; ++o) {
            const std::uint32_t v = up[o];
            if (v < o ? up[v] != kLost : v != kLost) continue;
            if (v < o) up[o] = o;
            if (!removed(o)) list.push_back(o);
          }
        },
        1024);
    parallel_for(static_cast<std::int64_t>(reset.size()), kLinearChunk,
                 [&](std::int64_t i) {
                   const std::uint32_t o = reset[static_cast<std::size_t>(i)];
                   if (up[o] == kLost) up[o] = o;
                 });
    return reset;
  }

  /// Renumbers the stored edges in place and drops the dead ones. Both
  /// ends of an edge lie in one pre-edit component. Where reset_lost()
  /// reset it (the larger end is its own root), the edge is dead if the
  /// edit replaced an end, and is listed in `reunite` otherwise; every
  /// other edge moves with its runs, and one below the first run stays
  /// as it is. Then the live edges at or past the kept count fill the
  /// holes below it, gathered and scattered chunk by chunk in index
  /// order. Edge order is immaterial to the labels.
  void splice_edges(std::vector<std::uint64_t>& reunite) {
    const auto ne = static_cast<std::int64_t>(edges.size());
    const auto chunks =
        static_cast<std::size_t>((ne + kLinearChunk - 1) / kLinearChunk);
    std::vector<std::uint32_t> dead(chunks, 0), holes(chunks + 1, 0),
        movers(chunks + 1, 0);
    const std::uint32_t* const up = label.data();
    const std::uint32_t first = runs.empty() ? kNoPiece : runs[0].old_from;
    parallel_collect(ne, kLinearChunk, reunite, [&](std::int64_t lo,
                                                    std::int64_t hi,
                                                    auto& list) {
      std::uint32_t d = 0;
      for (auto i = static_cast<std::size_t>(lo);
           i < static_cast<std::size_t>(hi); ++i) {
        const auto x = static_cast<std::uint32_t>(edges[i] >> 32);
        const auto y = static_cast<std::uint32_t>(edges[i]);
        if (up[y] == y) {
          if (removed(x) || removed(y)) {
            edges[i] = kDeadEdge;
            ++d;
            continue;
          }
          edges[i] = pack(moved(x), moved(y));
          list.push_back(edges[i]);
        } else if (y >= first) {
          edges[i] = pack(moved(x), moved(y));
        }
      }
      dead[static_cast<std::size_t>(lo / kLinearChunk)] = d;
    });
    std::int64_t keep = ne;
    for (std::uint32_t d : dead) keep -= d;
    if (keep == ne) return;
    // Per chunk, its holes (dead edges below `keep`) and movers (live
    // edges at or past it); the chunk across `keep` is counted here.
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::int64_t lo = static_cast<std::int64_t>(c) * kLinearChunk;
      const std::int64_t hi = std::min(ne, lo + kLinearChunk);
      std::uint32_t h = 0, m = 0;
      if (hi <= keep) {
        h = dead[c];
      } else if (lo >= keep) {
        m = static_cast<std::uint32_t>(hi - lo) - dead[c];
      } else {
        for (std::int64_t i = lo; i < hi; ++i) {
          const bool is_dead = edges[static_cast<std::size_t>(i)] == kDeadEdge;
          h += i < keep && is_dead;
          m += i >= keep && !is_dead;
        }
      }
      holes[c + 1] = holes[c] + h;
      movers[c + 1] = movers[c] + m;
    }
    std::vector<std::uint64_t> moved_edges(movers[chunks]);
    for_chunks(ne, kLinearChunk, [&](std::size_t c, std::int64_t lo,
                                     std::int64_t hi) {
      std::uint32_t j = movers[c];
      for (std::int64_t i = std::max(lo, keep); i < hi; ++i)
        if (edges[static_cast<std::size_t>(i)] != kDeadEdge)
          moved_edges[j++] = edges[static_cast<std::size_t>(i)];
    });
    for_chunks(ne, kLinearChunk, [&](std::size_t c, std::int64_t lo,
                                     std::int64_t hi) {
      if (holes[c] == holes[c + 1]) return;
      std::uint32_t j = holes[c];
      for (std::int64_t i = lo; i < std::min(hi, keep); ++i)
        if (edges[static_cast<std::size_t>(i)] == kDeadEdge)
          edges[static_cast<std::size_t>(i)] = moved_edges[j++];
    });
    edges.resize(static_cast<std::size_t>(keep));
  }

  /// Re-lays the labels in the post-edit id layout, in place. Each run
  /// moves as one block: those moving down in id order first, then those
  /// moving up in reverse order, so no block lands on one still to move.
  /// Then every slot past the first run that holds a piece id takes its
  /// post-edit id. The new pieces' slots are left to the caller.
  void relay_labels() {
    if (runs.empty()) return;  // every survivor keeps its id
    if (b.total > old_b.total) label.resize(b.total);
    const auto at = [&](std::uint32_t id) {
      return label.begin() + static_cast<std::ptrdiff_t>(id);
    };
    for (const Run& r : runs)
      if (static_cast<std::int32_t>(r.delta) < 0)
        std::copy(at(r.old_from), at(r.old_to), at(r.old_from + r.delta));
    for (auto r = runs.rbegin(); r != runs.rend(); ++r)
      if (static_cast<std::int32_t>(r->delta) > 0)
        std::copy_backward(at(r->old_from), at(r->old_to),
                           at(r->old_to + r->delta));
    label.resize(b.total);
    const std::uint32_t from = runs[0].old_from + runs[0].delta;
    std::uint32_t* const up = label.data() + from;
    parallel_for(b.total - from, kLinearChunk, [&](std::int64_t i) {
      if (up[i] < kTag) up[i] = moved(up[i]);
    });
  }

  /// Re-lays the device records in entry order. Up to the first entry
  /// whose record count the edit changed, every record keeps its slot
  /// (a recomputed entry's records are rewritten there); past it the
  /// carried records move to their new slots through a spare buffer.
  /// Only the recomputed entries build records; mint_reached reassigns
  /// every net and path.
  void lay_out_devices(const geom::EditResult& edit) {
    std::uint32_t at = kNoPiece;  // the first entry whose count changed
    int dl_at = 0;
    for (; dl_at < 2 && at == kNoPiece; ++dl_at) {
      const auto& sp = edit.splice_of(diff_layer(dl_at));
      const auto& now = b.dev_start[dl_at];
      const auto& was = old_b.dev_start[dl_at];
      if (now[sp.new_end] - now[sp.begin] != was[sp.old_end] - was[sp.begin])
        at = sp.begin;
      for (const std::uint32_t k : redo[dl_at]) {
        if (k >= sp.begin && k < sp.new_end) continue;
        const auto o =
            k < sp.begin ? k : static_cast<std::uint32_t>(k - sp.delta());
        if (now[k + 1] - now[k] != was[o + 1] - was[o]) at = std::min(at, k);
      }
    }
    if (at != kNoPiece) {
      const std::uint32_t keep = b.dev_start[dl_at - 1][at];
      std::vector<Device> spare_devices(
          std::make_move_iterator(out.devices.begin() + keep),
          std::make_move_iterator(out.devices.end()));
      out.devices.resize(b.devices);
      const auto n0 = static_cast<std::int64_t>(entries[0].size());
      const auto n1 = static_cast<std::int64_t>(entries[1].size());
      parallel_for(n0 + n1, kLinearChunk, [&](std::int64_t i) {
        const int dl_i = i < n0 ? 0 : 1;
        const auto k = static_cast<std::uint32_t>(dl_i == 0 ? i : i - n0);
        const std::uint32_t to = b.dev_start[dl_i][k];
        const std::uint32_t sites = b.dev_start[dl_i][k + 1] - to;
        if (sites == 0 || to < keep || fresh[dl_i][k]) return;
        const auto& sp = edit.splice_of(diff_layer(dl_i));
        const std::uint32_t o =
            k < sp.begin ? k : static_cast<std::uint32_t>(k - sp.delta());
        const auto from =
            spare_devices.begin() + (old_b.dev_start[dl_i][o] - keep);
        std::move(from, from + sites, out.devices.begin() + to);
      });
    }
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (const std::uint32_t k : redo[dl_i]) set_devices(dl_i, k);
  }

  void update(const geom::EditResult& edit) {
    bool touched = false;
    for (Layer l : {Layer::NDiff, Layer::PDiff, Layer::Poly, Layer::Metal1,
                    Layer::Metal2, Layer::Metal3, Layer::Contact, Layer::Via1,
                    Layer::Via2})
      touched = touched || edit.touches(l);
    if (!touched) return;  // nothing electrical changed; result is current

    const auto& sp_poly = edit.splice_of(Layer::Poly);
    const auto poly_dirty = edit.dirty_rects(Layer::Poly);
    std::swap(old_b, b);  // keep the pre-edit layout; b is rebuilt below

    // Refresh the diffusion splits: inserted shapes get fresh entries;
    // surviving shapes whose rect intersects the dirty poly region are
    // recomputed (their gate set may have changed); everything else is
    // carried, and the mint renumbers their cached gate poly ids through
    // the poly splice. fresh[k] marks entries whose old pieces are
    // invalid.
    // gone_gates collects the old gate ids of the devices that go.
    std::vector<std::uint32_t> gone_gates, new_gates;
    const auto note_gates = [](const Entry& e, std::vector<std::uint32_t>& v) {
      for (const LocalSite& site : e.sites) v.push_back(site.gate_pid);
    };
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const Layer dl = diff_layer(dl_i);
      const auto& sp = edit.splice_of(dl);
      const auto& rects = db->rects(dl);
      auto& es = entries[dl_i];
      auto& fr = fresh[dl_i];
      auto& todo = redo[dl_i];
      for (std::uint32_t k = sp.begin; k < sp.old_end; ++k)
        note_gates(es[k], gone_gates);
      sp.resize_slots(es);
      fr.assign(es.size(), 0);
      todo.clear();
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k) {
        fr[k] = 1;
        todo.push_back(k);
      }
      for (const Rect& d : poly_dirty)
        db->index(dl).for_each_in(d, [&](std::uint32_t k) {
          if (fr[k]) return;
          fr[k] = 1;
          todo.push_back(k);
          note_gates(es[k], gone_gates);
        });
      parallel_for(static_cast<std::int64_t>(todo.size()), kSplitChunk,
                   [&](std::int64_t i) {
                     const std::uint32_t k = todo[static_cast<std::size_t>(i)];
                     es[k] = compute_entry(rects[k]);
                   });
      for (const std::uint32_t k : todo) note_gates(es[k], new_gates);
    }

    lay_out();
    lay_out_devices(edit);
    renumber(edit);

    // Mark kLost, in the pre-edit labels, the components that lost a
    // piece and those whose net the devices and ports might no longer
    // reach: the gate nets of the devices that go (unless a new device
    // keeps the gate) and the nets of ports that now resolve to another
    // piece. Discovery below adds those that a new piece touches. Every
    // other component keeps its pieces and its reach.
    std::uint32_t* const was = label.data();
    const auto lose = [was](std::uint32_t o) {
      constexpr auto relaxed = std::memory_order_relaxed;
      const std::uint32_t v = std::atomic_ref(was[o]).load(relaxed);
      const std::atomic_ref root(was[std::min(v, o)]);
      if (root.load(relaxed) != kLost) root.store(kLost, relaxed);
    };
    for (const Cut& c : cuts)
      for (std::uint32_t o = c.old_lo; o < c.old_hi; ++o) lose(o);
    std::sort(new_gates.begin(), new_gates.end());
    for (const std::uint32_t g : gone_gates)
      if (!std::binary_search(new_gates.begin(), new_gates.end(),
                              sp_poly.remap(g)))
        lose(old_b.plain_start[0] + g);
    std::vector<std::uint32_t> ports_now = port_pieces();
    for (std::size_t k = 0; k < ports_now.size(); ++k) {
      const std::uint32_t o = port_piece[k];
      if (removed(o) || moved(o) != ports_now[k]) lose(o);
    }
    port_piece.swap(ports_now);

    // Discover the new pieces' edges: the segments of the fresh entries,
    // then the inserted plain shapes. A pair of two new pieces is kept
    // from its lower member's visit only. A surviving piece a new one
    // touches loses its component, which is then re-united from its
    // stored edges with the new pieces: a stored edge costs one unite,
    // where walking the component through the index would cost a query
    // per piece.
    std::vector<std::uint64_t> found;
    const auto discover = [&](Layer from, const Rect& r, std::uint32_t g,
                              std::vector<std::uint64_t>& list) {
      for_each_neighbor(from, r, 0, [&](std::uint32_t h) {
        if (h == g) return;
        if (!is_new(h))
          lose(unmoved(h));
        else if (h < g)
          return;
        list.push_back(pack(std::min(g, h), std::max(g, h)));
      });
    };
    const auto r0 = static_cast<std::int64_t>(redo[0].size());
    const auto r1 = static_cast<std::int64_t>(redo[1].size());
    std::array<std::int64_t, kPlainCount + 1> plain_at;  // item offsets
    plain_at[0] = r0 + r1;
    for (std::size_t t = 0; t < kPlainCount; ++t) {
      const auto& sp = edit.splice_of(kPlain[t]);
      plain_at[t + 1] = plain_at[t] + (sp.new_end - sp.begin);
    }
    parallel_collect(
        plain_at[kPlainCount], kEdgeChunk, found,
        [&](std::int64_t lo, std::int64_t hi, auto& list) {
          for (std::int64_t i = lo; i < hi; ++i) {
            if (i < r0 + r1) {
              const int dl_i = i < r0 ? 0 : 1;
              const std::uint32_t k =
                  redo[dl_i][static_cast<std::size_t>(dl_i == 0 ? i : i - r0)];
              const auto& segs = entries[dl_i][k].segs;
              for (std::uint32_t t = 0; t < segs.size(); ++t)
                discover(diff_layer(dl_i), segs[t], b.entry_start[dl_i][k] + t,
                         list);
              continue;
            }
            std::size_t t = 0;
            while (i >= plain_at[t + 1]) ++t;
            const std::uint32_t s =
                edit.splice_of(kPlain[t]).begin +
                static_cast<std::uint32_t>(i - plain_at[t]);
            discover(kPlain[t], db->rects(kPlain[t])[s], b.plain_start[t] + s,
                     list);
          }
        },
        4 * kEdgeChunk);

    // Reset the lost components, splice the stored edges, then carry the
    // labels into the post-edit layout; the new pieces start as their
    // own roots.
    std::vector<std::uint32_t> reset = reset_lost();
    std::vector<std::uint64_t> reunite;
    splice_edges(reunite);
    parallel_for(static_cast<std::int64_t>(reset.size()), kListChunk,
                 [&](std::int64_t i) {
                   std::uint32_t& o = reset[static_cast<std::size_t>(i)];
                   o = moved(o);
                 });
    relay_labels();
    for (const Cut& c : cuts)
      for (std::uint32_t p = c.new_lo; p < c.new_hi; ++p) label[p] = p;

    // Unite the reset components' stored edges and the new ones. Every
    // end is a reset or a new piece, so no kept component is reached.
    const UnionFind uf(label);
    const auto nr = static_cast<std::int64_t>(reunite.size());
    parallel_for(nr + static_cast<std::int64_t>(found.size()), kListChunk,
                 [&](std::int64_t i) {
                   const std::uint64_t e =
                       i < nr ? reunite[static_cast<std::size_t>(i)]
                              : found[static_cast<std::size_t>(i - nr)];
                   uf.unite(static_cast<std::uint32_t>(e >> 32),
                            static_cast<std::uint32_t>(e));
                 });
    edges.insert(edges.end(), found.begin(), found.end());
    std::vector<std::uint64_t>().swap(found);
    std::vector<std::uint64_t>().swap(reunite);

    // The affected components are exactly those of the reset and the new
    // pieces, which together hold all their members: list them in piece
    // order, flatten them and tag their roots kAffected.
    std::vector<std::uint32_t> affected;
    {
      std::size_t n = reset.size();
      for (const Cut& c : cuts) n += c.new_hi - c.new_lo;
      affected.reserve(n);
      auto q = reset.begin();
      for (const Cut& c : cuts) {
        for (; q != reset.end() && *q < c.new_lo; ++q) affected.push_back(*q);
        for (std::uint32_t p = c.new_lo; p < c.new_hi; ++p)
          affected.push_back(p);
      }
      affected.insert(affected.end(), q, reset.end());
    }
    std::vector<std::uint32_t>().swap(reset);
    uf.flatten(affected);
    const auto na = static_cast<std::int64_t>(affected.size());
    parallel_for(na, kLinearChunk, [&](std::int64_t i) {
      constexpr auto relaxed = std::memory_order_relaxed;
      const std::uint32_t p = affected[static_cast<std::size_t>(i)];
      const std::atomic_ref root(
          label[std::min(std::atomic_ref(label[p]).load(relaxed), p)]);
      if (root.load(relaxed) != kAffected) root.store(kAffected, relaxed);
    });

    // The affected components' wired pieces and their capacitance, in
    // piece order (contacts and vias, the last three blocks, carry none).
    const std::size_t summed = static_cast<std::size_t>(
        std::lower_bound(affected.begin(), affected.end(),
                         b.plain_start[plain_slot(Layer::Contact)]) -
        affected.begin());
    std::vector<PieceCap> resum;
    parallel_collect(
        static_cast<std::int64_t>(summed), kListChunk, resum,
        [&](std::int64_t lo, std::int64_t hi, auto& list) {
          for_each_listed(affected, static_cast<std::size_t>(lo),
                          static_cast<std::size_t>(hi),
                          [&](std::uint32_t p, Layer l, const Rect& r) {
                            if (wired[static_cast<std::size_t>(l)])
                              list.push_back({p, piece_cap(l, r)});
                          });
        },
        1024);
    std::vector<std::uint32_t>().swap(affected);

    // Mint in extract()'s visit order, with the other net tag, so the
    // kept roots read as carried until minted. The components minted
    // after the ports are the kept ones among the pre-edit `loose` list
    // and the affected ones, taken by least wired piece; an affected net
    // sums its pieces in piece order, a kept one starts from its carried
    // sum.
    old_cap.swap(out.net_cap_f);
    std::vector<std::uint32_t> old_loose;
    old_loose.swap(loose);
    net_tag ^= kNetTags[0] ^ kNetTags[1];
    mint_reached(sp_poly);
    // The kept components among the pre-edit loose ones, renumbered
    // (which keeps their order).
    std::size_t kept = 0;
    for (const std::uint32_t lw : old_loose) {
      if (removed(lw)) continue;
      const std::uint32_t p = moved(lw);
      if (label[std::min(label[p], p)] != kAffected) old_loose[kept++] = p;
    }
    minting_loose = true;
    std::size_t next = 0;
    {
      Summer sum(out.net_cap_f);
      for (const PieceCap& pc : resum) {
        for (; next < kept && old_loose[next] < pc.piece; ++next)
          net_of(old_loose[next]);
        sum.add(static_cast<std::size_t>(net_of(pc.piece)), pc.cap);
      }
    }
    for (; next < kept; ++next) net_of(old_loose[next]);
    minting_loose = false;
  }
};

}  // namespace

Extracted extract(const geom::LayoutDB& db, const tech::Tech& tech) {
  return Extractor(db, tech, false).out;
}

Extracted extract(const geom::Cell& top, const tech::Tech& tech) {
  return extract(geom::LayoutDB(top), tech);
}

struct IncrementalExtract::Impl : Extractor {
  using Extractor::Extractor;
};

IncrementalExtract::IncrementalExtract(const geom::LayoutDB& db,
                                       const tech::Tech& tech)
    : impl_(std::make_unique<Impl>(db, tech, true)) {}

IncrementalExtract::~IncrementalExtract() = default;

void IncrementalExtract::update(const geom::EditResult& edit) {
  impl_->update(edit);
}

const Extracted& IncrementalExtract::result() const { return impl_->out; }

}  // namespace bisram::extract
