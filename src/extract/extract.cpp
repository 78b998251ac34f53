#include "extract/extract.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
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
// sequence, so after an edit the surviving pieces renumber by prefix
// arithmetic: per-shape segment lists for the diffusion blocks, the
// LayoutDB's own shape ids for the plain blocks.
//
// Three phases: split every diffusion shape (one entry per shape),
// discover the electrical adjacency edges (each chunk of pieces lists
// its own, concatenated in chunk order), then label the components and
// number the nets. Every pass over pieces, entries, edges or device
// records runs on util/parallel in fixed chunks with per-chunk outputs
// joined in chunk order. The labelling is a lock-free union-find that
// always links the larger root under the smaller, so a piece's label is
// its component's least piece id whatever the schedule. Net ids are
// then minted serially in the historical visit order (devices, ports,
// then capacitance in piece order), and each net's capacitance is
// summed in piece order, so the netlist is bit-identical at any thread
// count.

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
/// Tags a component root's label slot once its net id is minted.
constexpr std::uint32_t kMinted = 0x80000000u;

/// Work per pool chunk. Fixed, so the chunk layout depends on the
/// layout alone; a leaf cell, and the re-emission of most edits, fits in
/// one chunk and runs serially without touching the pool.
constexpr std::int64_t kSplitChunk = 1024;    // diffusion shapes to split
constexpr std::int64_t kEdgeChunk = 8192;     // pieces whose edges to find
constexpr std::int64_t kLinearChunk = 16384;  // items of a linear pass
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

  /// Extracts `layout`; `keep_edges` keeps what update() splices.
  Extractor(const LayoutDB& layout, const tech::Tech& tech, bool keep_edges)
      : db(&layout), um_per_dbu(tech.lambda_um / 10.0), wire(tech.elec.wire) {
    split_all();
    lay_out();
    reset_labels();
    discover_all(keep_edges);
    // Memoized provenance strings: devices repeat a small set of paths.
    std::vector<std::string> path_memo(db->path_count());
    std::vector<char> path_done(db->path_count(), 0);
    out.devices.resize(b.devices);
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& paths = db->path_ids(diff_layer(dl_i));
      for (std::size_t s = 0; s < entries[dl_i].size(); ++s) {
        if (entries[dl_i][s].sites.empty()) continue;
        const std::uint32_t node = paths[s];
        if (!path_done[node]) {
          path_memo[node] = db->path_name(node);
          path_done[node] = 1;
        }
        set_devices(dl_i, s, path_memo[node]);
      }
    }
    number_nets();
  }

  const LayoutDB* db;
  double um_per_dbu;
  std::array<tech::WireParams, geom::kLayerCount> wire;
  std::array<std::vector<Entry>, 2> entries;  // [0]=NDiff, [1]=PDiff
  Blocks b;                                   // the current layout
  std::vector<std::uint64_t> edges;           // packed (i<<32)|j, i<j
  Extracted out;

  // Working buffers of the net pass and the updates, kept so an edit
  // reuses them.
  /// Per piece: the union-find parent, then the component label (the
  /// least piece id), with kMinted marking a root whose slot holds its
  /// net id.
  std::vector<std::uint32_t> label;
  Blocks old_b;  ///< the pre-edit layout during update()
  /// The previous update's device records while they move into `out`;
  /// kept so the two buffers trade places instead of reallocating.
  std::vector<Device> spare_devices;
  std::vector<std::uint32_t> pmap;           ///< old -> new diffusion piece
  std::array<std::vector<char>, 2> fresh;    ///< per entry: recomputed
  std::array<std::vector<std::uint32_t>, 2> redo;  ///< the fresh entries
  std::vector<std::vector<std::uint64_t>> found;   ///< per-chunk new edges
  std::vector<std::uint64_t> moved;  ///< edges moving into splice holes
  std::vector<double> cap_window;    ///< capacitance of kCapWindow pieces

  static Layer diff_layer(int dl_i) {
    return dl_i == 0 ? Layer::NDiff : Layer::PDiff;
  }
  static std::uint64_t pack(std::uint32_t i, std::uint32_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | j;
  }

  /// Splits one diffusion rect at the gates crossing it. The gates are
  /// collected in poly-id order before split_diffusion sorts them, so
  /// segment boundaries and site order match the historical extractor.
  Entry compute_entry(const Rect& diff) const {
    Entry e;
    const auto& polys = db->rects(Layer::Poly);
    std::vector<std::uint32_t> pids;
    std::vector<Rect> gates;
    db->index(Layer::Poly).for_each_in(diff, [&](std::uint32_t pid) {
      if (crosses(polys[pid], diff)) {
        pids.push_back(pid);
        gates.push_back(polys[pid]);
      }
    });
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
  /// slots of `out.devices`, nets unset (number_nets assigns them).
  void set_devices(int dl_i, std::size_t k, const std::string& path) {
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
      d->path = path;
      ++d;
    }
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

  /// fn(h) for every piece h that conducts to a piece on `from` covering
  /// `r` (r's own piece included), answered from the per-layer LayoutDB
  /// indexes and the splits. Diffusion segments lie inside their shape,
  /// so the shape index finds every segment that touches `r`. Ids rise
  /// within each target layer, and the targets are in block order.
  /// Target layers whose pieces all lie below `min_id` are not queried.
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

  /// Concatenates found[0..chunks) onto `edges` in chunk order; with
  /// `release`, frees each list once copied.
  void append_found(std::size_t chunks, bool release) {
    std::size_t n = edges.size();
    for (std::size_t c = 0; c < chunks; ++c) n += found[c].size();
    // Exact for the first fill; geometric after, as appends would grow.
    if (n > edges.capacity()) edges.reserve(std::max(n, 2 * edges.capacity()));
    for (std::size_t c = 0; c < chunks; ++c) {
      edges.insert(edges.end(), found[c].begin(), found[c].end());
      if (release) std::vector<std::uint64_t>().swap(found[c]);
    }
  }

  /// Phase 2: every adjacency edge (i, j), i < j, found from piece i
  /// and united as it is found. With `keep_edges` (the incremental
  /// engine, which splices them) chunks list their edges in piece order,
  /// concatenated in chunk order, so `edges` is the serial list at any
  /// thread count; a one-shot extraction keeps none.
  void discover_all(bool keep_edges) {
    const auto total = static_cast<std::int64_t>(b.total);
    const auto chunks = static_cast<std::size_t>(
        keep_edges ? (total + kEdgeChunk - 1) / kEdgeChunk : 0);
    // Sized here, on this thread, so the workers leave its heap alone.
    found.resize(chunks);
    for (auto& list : found) list.reserve(2 * kEdgeChunk);
    for_chunks(total, kEdgeChunk, [&](std::size_t c, std::int64_t lo,
                                      std::int64_t hi) {
      for_each_piece(static_cast<std::uint32_t>(lo),
                     static_cast<std::uint32_t>(hi),
                     [&](std::uint32_t g, Layer l, const Rect& r) {
                       for_each_neighbor(l, r, g + 1, [&](std::uint32_t h) {
                         if (h <= g) return;
                         if (keep_edges) found[c].push_back(pack(g, h));
                         unite(g, h);
                       });
                     });
    });
    append_found(chunks, true);
    std::vector<std::vector<std::uint64_t>>().swap(found);
  }

  /// The lowest piece id on `layer` intersecting `window` (the piece a
  /// linear scan would find first), or kNoPiece.
  std::uint32_t first_piece(Layer layer, const Rect& window) const {
    std::uint32_t found_id = kNoPiece;
    if (layer == Layer::NDiff || layer == Layer::PDiff) {
      const int dl_i = layer == Layer::NDiff ? 0 : 1;
      db->index(layer).for_each_in(window, [&](std::uint32_t s) {
        if (found_id != kNoPiece) return;  // shape ids arrive ascending
        const auto& segs = entries[dl_i][s].segs;
        for (std::uint32_t t = 0; t < segs.size(); ++t)
          if (segs[t].intersects(window)) {
            found_id = b.entry_start[dl_i][s] + t;
            return;
          }
      });
      return found_id;
    }
    const int slot = plain_slot(layer);
    if (slot < 0) return kNoPiece;  // no pieces live on this layer
    db->index(layer).for_each_in(window, [&](std::uint32_t s) {
      if (found_id == kNoPiece) found_id = b.plain_start[slot] + s;
    });
    return found_id;
  }

  // --- phase 3: component labels and net numbering -------------------------

  std::atomic_ref<std::uint32_t> slot(std::uint32_t x) {
    return std::atomic_ref<std::uint32_t>(label[x]);
  }

  /// Starts a labelling: every piece its own component.
  void reset_labels() {
    ensure(b.total < kMinted, "extract: piece ids overflow the label tags");
    label.resize(b.total);
    std::uint32_t* const up = label.data();
    parallel_for(b.total, kLinearChunk, [up](std::int64_t i) {
      up[i] = static_cast<std::uint32_t>(i);
    });
  }

  /// The root of x's tree, halving the path on the way. Lock-free: a slot
  /// only ever moves to an ancestor.
  std::uint32_t find(std::uint32_t x) {
    constexpr auto relaxed = std::memory_order_relaxed;
    for (;;) {
      const std::uint32_t px = slot(x).load(relaxed);
      if (px == x) return x;
      const std::uint32_t gx = slot(px).load(relaxed);
      if (gx != px) slot(x).store(gx, relaxed);
      x = gx;
    }
  }

  /// Joins the components of pieces x and y, from any thread. A root is
  /// linked (by CAS, so only while it still is a root) under the smaller
  /// root, so every tree's root is its least member whatever the
  /// schedule.
  void unite(std::uint32_t x, std::uint32_t y) {
    for (;;) {
      x = find(x);
      y = find(y);
      if (x == y) return;
      if (x < y) std::swap(x, y);
      std::uint32_t root = x;
      if (slot(x).compare_exchange_weak(root, y, std::memory_order_relaxed))
        return;
    }
  }

  /// Once every edge is united: labels each piece with its component's
  /// least piece id, then mints net ids in visit order — devices, then
  /// ports, then capacitance in piece order — into the device records
  /// laid out in entry order. The labels, the per-piece net lookup and
  /// the per-piece capacitance are pool passes; the mint and each net's
  /// capacitance sum are serial passes in visit and piece order. A
  /// linear re-pass after every edit, because an edit shifts net ids
  /// globally.
  void number_nets() {
    const std::uint32_t n = b.total;
    std::uint32_t* const up = label.data();
    // Each piece stores its root. The walk writes nothing but its own
    // slot, so a slot once set to its root stays there.
    parallel_for(n, kLinearChunk, [&](std::int64_t i) {
      auto x = static_cast<std::uint32_t>(i);
      for (std::uint32_t px; (px = slot(x).load(std::memory_order_relaxed)) != x;)
        x = px;
      slot(static_cast<std::uint32_t>(i)).store(x, std::memory_order_relaxed);
    });

    out.net_count = 0;
    out.port_net.clear();
    const auto net_of = [&](std::uint32_t piece) {
      const std::uint32_t lab = up[piece];
      if (lab & kMinted) return static_cast<int>(lab & ~kMinted);
      std::uint32_t& root = up[lab];
      if (!(root & kMinted))
        root = kMinted | static_cast<std::uint32_t>(out.net_count++);
      return static_cast<int>(root & ~kMinted);
    };

    const std::uint32_t poly_start = b.plain_start[0];
    auto dev = out.devices.begin();
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      for (std::size_t s = 0; s < entries[dl_i].size(); ++s) {
        const std::uint32_t base = b.entry_start[dl_i][s];
        for (const LocalSite& site : entries[dl_i][s].sites) {
          dev->gate = net_of(poly_start + site.gate_pid);
          dev->source = net_of(base + site.left);
          dev->drain = net_of(base + site.right);
          ++dev;
        }
      }
    }

    for (const auto& port : db->ports()) {
      const std::uint32_t i = first_piece(port.layer, port.rect);
      require(i != kNoPiece, "extract: port '" + port.name +
                                 "' touches no geometry on its layer");
      out.port_net[port.name] = net_of(i);
    }

    // Every piece of a component with a net takes the net id, so the
    // serial pass below reads its nets in piece order. Only non-root
    // slots are written and only root slots are read across pieces.
    parallel_for(n, kLinearChunk, [&](std::int64_t i) {
      const std::uint32_t lab = up[i];
      if (lab & kMinted) return;
      const std::uint32_t root = up[lab];
      if (root & kMinted) up[i] = root;
    });

    // Capacitance: each piece's on the pool, a window of pieces at a
    // time, then each net's summed in piece order on this thread.
    // Contacts and vias, the last three blocks, carry none.
    struct Block {
      Layer layer;
      std::uint32_t lo, hi;
    };
    std::vector<Block> wired = {
        {Layer::NDiff, 0, b.entry_start[0].back()},
        {Layer::PDiff, b.entry_start[0].back(), b.entry_start[1].back()}};
    for (std::size_t t = 0; kPlain[t] != Layer::Contact; ++t)
      wired.push_back({kPlain[t], b.plain_start[t], b.plain_start[t + 1]});
    std::erase_if(wired, [&](const Block& blk) {
      const auto& wp = wire[static_cast<std::size_t>(blk.layer)];
      return wp.cap_area_f_um2 == 0.0 && wp.cap_fringe_f_um == 0.0;
    });
    const std::uint32_t end = b.plain_start[plain_slot(Layer::Contact)];
    cap_window.resize(std::min<std::size_t>(end, kCapWindow));
    out.net_cap_f.assign(static_cast<std::size_t>(out.net_count), 0.0);
    for (std::uint32_t lo = 0; lo < end;) {
      const std::uint32_t hi = std::min<std::uint32_t>(end, lo + kCapWindow);
      for_chunks(hi - lo, kLinearChunk, [&](std::size_t, std::int64_t from,
                                             std::int64_t to) {
        for (const Block& blk : wired) {
          const std::uint32_t first =
              std::max(lo + static_cast<std::uint32_t>(from), blk.lo);
          const std::uint32_t last =
              std::min(lo + static_cast<std::uint32_t>(to), blk.hi);
          if (first >= last) continue;
          const auto& wp = wire[static_cast<std::size_t>(blk.layer)];
          const double area = wp.cap_area_f_um2, fringe = wp.cap_fringe_f_um;
          const double scale = um_per_dbu;
          const auto put = [&](std::uint32_t i, const Rect& r) {
            const double w = static_cast<double>(r.width()) * scale;
            const double h = static_cast<double>(r.height()) * scale;
            cap_window[i - lo] = w * h * area + 2.0 * (w + h) * fringe;
          };
          if (blk.layer == Layer::NDiff || blk.layer == Layer::PDiff) {
            for_each_piece(first, last,
                           [&](std::uint32_t i, Layer, const Rect& r) {
                             put(i, r);
                           });
          } else {
            const auto& rects = db->rects(blk.layer);
            for (std::uint32_t i = first; i < last; ++i)
              put(i, rects[i - blk.lo]);
          }
        }
      });
      // A run of pieces on one net adds into a register; the adds, and
      // their order, are those of adding into the table piece by piece.
      constexpr std::size_t kNoRun = ~std::size_t{0};
      std::size_t net = kNoRun;
      double sum = 0.0;
      for (const Block& blk : wired)
        for (std::uint32_t i = std::max(lo, blk.lo); i < std::min(hi, blk.hi);
             ++i) {
          const auto at = static_cast<std::size_t>(net_of(i));
          if (at != net) {
            if (net != kNoRun) out.net_cap_f[net] = sum;
            // net_of may mint a net here for a component no device or
            // port reached (isolated fill); grow the table rather than
            // write past it.
            if (at >= out.net_cap_f.size())
              out.net_cap_f.resize(at + 1, 0.0);
            net = at;
            sum = out.net_cap_f[net];
          }
          sum += cap_window[i - lo];
        }
      if (net != kNoRun) out.net_cap_f[net] = sum;
      lo = hi;
    }
  }

  /// Drops the edges whose pieces the edit invalidated, renumbers the
  /// rest through `remap` and unites them, in place: chunks remap their
  /// edges and count the dead ones; then the live edges at or past the
  /// kept count fill the holes below it, gathered and scattered chunk by
  /// chunk in index order. Edge order is immaterial to the labels.
  template <typename Remap>
  void splice_edges(Remap&& remap) {
    const auto ne = static_cast<std::int64_t>(edges.size());
    const auto chunks =
        static_cast<std::size_t>((ne + kLinearChunk - 1) / kLinearChunk);
    std::vector<std::uint32_t> dead(chunks, 0), holes(chunks + 1, 0),
        movers(chunks + 1, 0);
    for_chunks(ne, kLinearChunk, [&](std::size_t c, std::int64_t lo,
                                     std::int64_t hi) {
      std::uint32_t d = 0;
      for (auto i = static_cast<std::size_t>(lo);
           i < static_cast<std::size_t>(hi); ++i) {
        const std::uint32_t x = remap(static_cast<std::uint32_t>(edges[i] >> 32));
        const std::uint32_t y = remap(static_cast<std::uint32_t>(edges[i]));
        if (x == kNoPiece || y == kNoPiece) {
          edges[i] = kDeadEdge;
          ++d;
          continue;
        }
        // Most edits leave most ids in place; skip the store then.
        if (const std::uint64_t e = pack(x, y); e != edges[i]) edges[i] = e;
        unite(x, y);
      }
      dead[c] = d;
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
    moved.resize(movers[chunks]);
    for_chunks(ne, kLinearChunk, [&](std::size_t c, std::int64_t lo,
                                     std::int64_t hi) {
      std::uint32_t j = movers[c];
      for (std::int64_t i = std::max(lo, keep); i < hi; ++i)
        if (edges[static_cast<std::size_t>(i)] != kDeadEdge)
          moved[j++] = edges[static_cast<std::size_t>(i)];
    });
    for_chunks(ne, kLinearChunk, [&](std::size_t c, std::int64_t lo,
                                     std::int64_t hi) {
      if (holes[c] == holes[c + 1]) return;
      std::uint32_t j = holes[c];
      for (std::int64_t i = lo; i < std::min(hi, keep); ++i)
        if (edges[static_cast<std::size_t>(i)] == kDeadEdge)
          edges[static_cast<std::size_t>(i)] = moved[j++];
    });
    edges.resize(static_cast<std::size_t>(keep));
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
    // carried, with cached gate poly ids renumbered through the poly
    // splice. fresh[k] marks entries whose old pieces are invalid.
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const Layer dl = diff_layer(dl_i);
      const auto& sp = edit.splice_of(dl);
      const auto& rects = db->rects(dl);
      auto& es = entries[dl_i];
      auto& fr = fresh[dl_i];
      auto& todo = redo[dl_i];
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
        });
      parallel_for(static_cast<std::int64_t>(todo.size()), kSplitChunk,
                   [&](std::int64_t i) {
                     const std::uint32_t k = todo[static_cast<std::size_t>(i)];
                     es[k] = compute_entry(rects[k]);
                   });
      // A splice that keeps the poly count renumbers no carried gate: a
      // gate inside the splice dirties every diffusion it crosses.
      if (sp_poly.delta() == 0) continue;
      parallel_for(static_cast<std::int64_t>(es.size()), kLinearChunk,
                   [&](std::int64_t k) {
                     if (fr[static_cast<std::size_t>(k)]) return;
                     for (LocalSite& site :
                          es[static_cast<std::size_t>(k)].sites) {
                       site.gate_pid = sp_poly.remap(site.gate_pid);
                       ensure(site.gate_pid != geom::ShapeSplice::kRemoved,
                              "IncrementalExtract: gate poly vanished "
                              "without dirtying its diffusion");
                     }
                   });
    }

    lay_out();
    reset_labels();

    // Lay out the device records in entry order: a carried entry's
    // records move over from their old slots, paths included (its
    // channels and provenance are unchanged; number_nets reassigns
    // its nets); only fresh entries build records, on this thread so
    // their path strings stay in its heap.
    spare_devices.swap(out.devices);
    // Grow geometrically, as the appends that once built it did: an edit
    // that adds a device must not reallocate both buffers every time.
    if (b.devices > out.devices.capacity())
      out.devices.reserve(std::max<std::size_t>(b.devices,
                                                2 * out.devices.capacity()));
    out.devices.resize(b.devices);
    const auto n0 = static_cast<std::int64_t>(entries[0].size());
    const auto n1 = static_cast<std::int64_t>(entries[1].size());
    parallel_for(n0 + n1, kLinearChunk, [&](std::int64_t i) {
      const int dl_i = i < n0 ? 0 : 1;
      const auto k = static_cast<std::uint32_t>(dl_i == 0 ? i : i - n0);
      const Layer dl = diff_layer(dl_i);
      const std::size_t sites = entries[dl_i][k].sites.size();
      if (sites == 0 || fresh[dl_i][k]) return;
      const auto& sp = edit.splice_of(dl);
      const std::uint32_t o =
          k < sp.begin ? k : static_cast<std::uint32_t>(k - sp.delta());
      const auto from = spare_devices.begin() + old_b.dev_start[dl_i][o];
      std::move(from, from + static_cast<std::ptrdiff_t>(sites),
                out.devices.begin() + b.dev_start[dl_i][k]);
    });
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& paths = db->path_ids(diff_layer(dl_i));
      std::uint32_t node = kNoPiece;
      std::string path;
      for (const std::uint32_t k : redo[dl_i]) {
        if (entries[dl_i][k].sites.empty()) continue;
        if (paths[k] != node) path = db->path_name(node = paths[k]);
        set_devices(dl_i, k, path);
      }
    }
    spare_devices.clear();

    // Old-to-new piece ids: a table for the diffusion pieces (kNoPiece
    // where the piece no longer exists), splice arithmetic for the rest.
    const std::uint32_t old_diff = old_b.entry_start[1].back();
    pmap.resize(old_diff);
    const auto o0 = static_cast<std::int64_t>(old_b.entry_start[0].size() - 1);
    const auto o1 = static_cast<std::int64_t>(old_b.entry_start[1].size() - 1);
    parallel_for(o0 + o1, kLinearChunk, [&](std::int64_t i) {
      const int dl_i = i < o0 ? 0 : 1;
      const auto s = static_cast<std::uint32_t>(dl_i == 0 ? i : i - o0);
      const std::uint32_t k = edit.splice_of(diff_layer(dl_i)).remap(s);
      const bool kept = k != geom::ShapeSplice::kRemoved && !fresh[dl_i][k];
      const std::uint32_t from = old_b.entry_start[dl_i][s];
      const std::uint32_t len = old_b.entry_start[dl_i][s + 1] - from;
      for (std::uint32_t t = 0; t < len; ++t)
        pmap[from + t] = kept ? b.entry_start[dl_i][k] + t : kNoPiece;
    });
    splice_edges([&](std::uint32_t x) {
      if (x < old_diff) return pmap[x];
      const std::size_t t = plain_block(old_b, x);
      const std::uint32_t r =
          edit.splice_of(kPlain[t]).remap(x - old_b.plain_start[t]);
      return r == geom::ShapeSplice::kRemoved ? kNoPiece
                                              : b.plain_start[t] + r;
    });

    // Discover the new pieces' edges: the segments of the fresh entries,
    // then the inserted plain shapes. A pair of two new pieces is kept
    // from its lower member's visit only.
    const auto is_new = [&](std::uint32_t h) {
      if (h >= b.plain_start[0]) {
        const std::size_t t = plain_block(b, h);
        const auto& sp = edit.splice_of(kPlain[t]);
        const std::uint32_t s = h - b.plain_start[t];
        return s >= sp.begin && s < sp.new_end;
      }
      const int dl_i = h < b.entry_start[0].back() ? 0 : 1;
      const auto& start = b.entry_start[dl_i];
      const auto k = static_cast<std::size_t>(
          std::upper_bound(start.begin(), start.end(), h) - start.begin() - 1);
      return fresh[dl_i][k] != 0;
    };
    const auto discover = [&](Layer from, const Rect& r, std::uint32_t g,
                              std::vector<std::uint64_t>& list) {
      for_each_neighbor(from, r, 0, [&](std::uint32_t h) {
        if (h == g || (h < g && is_new(h))) return;
        list.push_back(pack(std::min(g, h), std::max(g, h)));
        unite(g, h);
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
    const std::int64_t items = plain_at[kPlainCount];
    const auto chunks =
        static_cast<std::size_t>((items + kEdgeChunk - 1) / kEdgeChunk);
    if (found.size() < chunks) found.resize(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      found[c].clear();
      found[c].reserve(4 * kEdgeChunk);
    }
    for_chunks(items, kEdgeChunk, [&](std::size_t c, std::int64_t lo,
                                      std::int64_t hi) {
      auto& list = found[c];
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
    });
    append_found(chunks, false);
    found.resize(std::min<std::size_t>(found.size(), 1));

    number_nets();
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
