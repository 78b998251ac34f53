#include "extract/extract.hpp"

#include <algorithm>
#include <array>
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
// Three phases: split every diffusion shape (parallel, one entry per
// shape), discover the electrical adjacency edges (parallel over
// fixed-size piece-id chunks, concatenated in chunk order), then union
// the edges and mint net ids in visit order (serial). Union-find
// components do not depend on the order of the unions, and each chunk
// lists its edges in piece order, so the netlist is bit-identical at any
// thread count and the historical numbering is kept.

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

/// Work per pool chunk of the two parallel phases. Fixed, so the chunk
/// layout depends on the layout alone; a leaf cell fits in one chunk
/// and runs serially without touching the pool.
constexpr std::int64_t kSplitChunk = 1024;  // diffusion shapes
constexpr std::int64_t kEdgeChunk = 8192;   // pieces

/// The extraction pipeline over one LayoutDB. A one-shot extract() runs
/// it once; IncrementalExtract keeps it and feeds it edits.
struct Extractor {
  /// One device site of a diffusion shape's split, in local segment
  /// coordinates. gate_pid is the Poly *shape id* of the crossing gate
  /// (renumbered through poly splices); any shape of the gate's merged
  /// poly net would do, since only its component root feeds net_of.
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
  /// Piece-id layout of the current state (prefix sums).
  struct Blocks {
    std::array<std::vector<std::uint32_t>, 2> entry_start;  // per-shape, n+1
    std::array<std::uint32_t, kPlainCount> plain_start;
    std::uint32_t total = 0;
  };

  Extractor(const LayoutDB& layout, const tech::Tech& tech)
      : db(&layout), um_per_dbu(tech.lambda_um / 10.0), wire(tech.elec.wire) {
    split_all();
    const Blocks b = blocks();
    discover_all(b);
    // Memoized provenance strings: devices repeat a small set of paths.
    std::vector<std::string> path_memo(db->path_count());
    std::vector<char> path_done(db->path_count(), 0);
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& paths = db->path_ids(diff_layer(dl_i));
      for (std::size_t s = 0; s < entries[dl_i].size(); ++s) {
        if (entries[dl_i][s].sites.empty()) continue;
        const std::uint32_t node = paths[s];
        if (!path_done[node]) {
          path_memo[node] = db->path_name(node);
          path_done[node] = 1;
        }
        add_devices(dl_i, entries[dl_i][s], path_memo[node]);
      }
    }
    rebuild_result(b);
  }

  const LayoutDB* db;
  double um_per_dbu;
  std::array<tech::WireParams, geom::kLayerCount> wire;
  std::array<std::vector<Entry>, 2> entries;  // [0]=NDiff, [1]=PDiff
  std::vector<std::uint64_t> edges;           // packed (i<<32)|j, i<j
  Extracted out;
  /// The previous update's device records while they move into `out`;
  /// kept so the two buffers trade places instead of reallocating.
  std::vector<Device> spare_devices;

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

  /// Appends the device records of one diffusion entry, nets unset
  /// (rebuild_result assigns them).
  void add_devices(int dl_i, const Entry& e, const std::string& path) {
    for (const LocalSite& site : e.sites) {
      Device d;
      d.type = dl_i == 1 ? spice::MosType::Pmos : spice::MosType::Nmos;
      const bool split_x = site.gate_poly.lo.y <= site.channel.lo.y;
      const geom::Coord w =
          split_x ? site.channel.height() : site.channel.width();
      const geom::Coord l =
          split_x ? site.channel.width() : site.channel.height();
      d.w_um = static_cast<double>(w) * um_per_dbu;
      d.l_um = static_cast<double>(l) * um_per_dbu;
      d.path = path;
      out.devices.push_back(std::move(d));
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

  Blocks blocks() const {
    Blocks b;
    std::uint32_t acc = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const auto& es = entries[dl_i];
      b.entry_start[dl_i].resize(es.size() + 1);
      for (std::size_t s = 0; s < es.size(); ++s) {
        b.entry_start[dl_i][s] = acc;
        acc += static_cast<std::uint32_t>(es[s].segs.size());
      }
      b.entry_start[dl_i][es.size()] = acc;
    }
    for (std::size_t t = 0; t < kPlainCount; ++t) {
      b.plain_start[t] = acc;
      acc += static_cast<std::uint32_t>(db->rects(kPlain[t]).size());
    }
    b.total = acc;
    return b;
  }

  /// fn(id, layer, rect) for every piece with id in [lo, hi), in order.
  template <typename Fn>
  void for_each_piece(const Blocks& b, std::uint32_t lo, std::uint32_t hi,
                      Fn&& fn) const {
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
  void for_each_neighbor(Layer from, const Rect& r, const Blocks& b,
                         std::uint32_t min_id, Fn&& fn) const {
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

  /// Phase 2: every adjacency edge (i, j), i < j, found from piece i.
  /// Chunks list their edges in piece order and are concatenated in
  /// chunk order, so `edges` is the serial list at any thread count.
  void discover_all(const Blocks& b) {
    const std::int64_t chunks = (b.total + kEdgeChunk - 1) / kEdgeChunk;
    std::vector<std::vector<std::uint64_t>> found(
        static_cast<std::size_t>(chunks));
    parallel_for(chunks, 1, [&](std::int64_t c) {
      auto& list = found[static_cast<std::size_t>(c)];
      const auto lo = static_cast<std::uint32_t>(c * kEdgeChunk);
      const auto hi = static_cast<std::uint32_t>(
          std::min<std::int64_t>(b.total, (c + 1) * kEdgeChunk));
      for_each_piece(b, lo, hi, [&](std::uint32_t g, Layer l, const Rect& r) {
        for_each_neighbor(l, r, b, g + 1, [&](std::uint32_t h) {
          if (h > g) list.push_back(pack(g, h));
        });
      });
    });
    std::size_t n = 0;
    for (const auto& list : found) n += list.size();
    edges.reserve(n);
    for (auto& list : found) {
      edges.insert(edges.end(), list.begin(), list.end());
      std::vector<std::uint64_t>().swap(list);
    }
  }

  /// The lowest piece id on `layer` intersecting `window` (the piece a
  /// linear scan would find first), or kNoPiece.
  std::uint32_t first_piece(Layer layer, const Rect& window,
                            const Blocks& b) const {
    std::uint32_t found = kNoPiece;
    if (layer == Layer::NDiff || layer == Layer::PDiff) {
      const int dl_i = layer == Layer::NDiff ? 0 : 1;
      db->index(layer).for_each_in(window, [&](std::uint32_t s) {
        if (found != kNoPiece) return;  // shape ids arrive ascending
        const auto& segs = entries[dl_i][s].segs;
        for (std::uint32_t t = 0; t < segs.size(); ++t)
          if (segs[t].intersects(window)) {
            found = b.entry_start[dl_i][s] + t;
            return;
          }
      });
      return found;
    }
    const int slot = plain_slot(layer);
    if (slot < 0) return kNoPiece;  // no pieces live on this layer
    db->index(layer).for_each_in(window, [&](std::uint32_t s) {
      if (found == kNoPiece) found = b.plain_start[slot] + s;
    });
    return found;
  }

  /// Phase 3: union the edges, then mint net ids in visit order —
  /// devices, then ports, then capacitance in piece order — into the
  /// device records laid out in entry order. Serial, and a linear
  /// re-pass after every edit, because an edit shifts net ids globally.
  void rebuild_result(const Blocks& b) {
    std::vector<std::uint32_t> parent(b.total);
    for (std::uint32_t i = 0; i < b.total; ++i) parent[i] = i;
    auto find = [&](std::uint32_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (std::uint64_t e : edges) {
      const auto a = find(static_cast<std::uint32_t>(e >> 32));
      const auto bb = find(static_cast<std::uint32_t>(e));
      if (a != bb) parent[a] = bb;
    }

    out.net_count = 0;
    out.port_net.clear();
    std::vector<int> root_net(b.total, -1);
    auto net_of = [&](std::uint32_t piece) {
      const std::uint32_t root = find(piece);
      if (root_net[root] < 0) root_net[root] = out.net_count++;
      return root_net[root];
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
      const std::uint32_t i = first_piece(port.layer, port.rect, b);
      require(i != kNoPiece, "extract: port '" + port.name +
                                 "' touches no geometry on its layer");
      out.port_net[port.name] = net_of(i);
    }

    out.net_cap_f.assign(static_cast<std::size_t>(out.net_count), 0.0);
    for_each_piece(b, 0, b.total,
                   [&](std::uint32_t i, Layer layer, const Rect& r) {
      if (geom::is_via(layer)) return;
      const auto& wp = wire[static_cast<std::size_t>(layer)];
      if (wp.cap_area_f_um2 == 0.0 && wp.cap_fringe_f_um == 0.0) return;
      const double w = static_cast<double>(r.width()) * um_per_dbu;
      const double h = static_cast<double>(r.height()) * um_per_dbu;
      const int net = net_of(i);
      // net_of may mint a net here for a component no device or port
      // reached (isolated fill); grow the table rather than write past it.
      if (static_cast<std::size_t>(net) >= out.net_cap_f.size())
        out.net_cap_f.resize(static_cast<std::size_t>(net) + 1, 0.0);
      out.net_cap_f[static_cast<std::size_t>(net)] +=
          w * h * wp.cap_area_f_um2 + 2.0 * (w + h) * wp.cap_fringe_f_um;
    });
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

    // Capture the pre-edit piece and device layout before touching the
    // caches: each entry's segment count and first device record.
    std::array<std::vector<std::uint32_t>, 2> old_lens, old_dev;
    std::uint32_t dev_acc = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      old_lens[dl_i].reserve(entries[dl_i].size());
      old_dev[dl_i].reserve(entries[dl_i].size());
      for (const Entry& e : entries[dl_i]) {
        old_lens[dl_i].push_back(static_cast<std::uint32_t>(e.segs.size()));
        old_dev[dl_i].push_back(dev_acc);
        dev_acc += static_cast<std::uint32_t>(e.sites.size());
      }
    }
    std::array<std::uint32_t, kPlainCount> old_plain_count;
    for (std::size_t t = 0; t < kPlainCount; ++t)
      old_plain_count[t] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(db->rects(kPlain[t]).size()) -
          edit.splice_of(kPlain[t]).delta());

    // Refresh the diffusion splits: inserted shapes get fresh entries;
    // surviving shapes whose rect intersects the dirty poly region are
    // recomputed (their gate set may have changed); everything else is
    // carried, with cached gate poly ids renumbered through the poly
    // splice. fresh[k] marks entries whose old pieces are invalid.
    std::array<std::vector<char>, 2> fresh;
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const Layer dl = diff_layer(dl_i);
      const auto& sp = edit.splice_of(dl);
      const auto& rects = db->rects(dl);
      auto& es = entries[dl_i];
      sp.resize_slots(es);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
        es[k] = compute_entry(rects[k]);

      fresh[dl_i].assign(es.size(), 0);
      for (std::uint32_t k = sp.begin; k < sp.new_end; ++k)
        fresh[dl_i][k] = 1;
      for (const Rect& d : poly_dirty)
        for (std::uint32_t k : db->index(dl).ids_in(d))
          if (!fresh[dl_i][k]) {
            es[k] = compute_entry(rects[k]);
            fresh[dl_i][k] = 1;
          }
      if (!sp_poly.empty()) {
        for (std::size_t k = 0; k < es.size(); ++k) {
          if (fresh[dl_i][k]) continue;
          for (LocalSite& site : es[k].sites) {
            site.gate_pid = sp_poly.remap(site.gate_pid);
            ensure(site.gate_pid != geom::ShapeSplice::kRemoved,
                   "IncrementalExtract: gate poly vanished without "
                   "dirtying its diffusion");
          }
        }
      }
    }

    const Blocks nb = blocks();

    // Lay out the device records in entry order: a carried entry's
    // records move over from their old slots, paths included (its
    // channels and provenance are unchanged; rebuild_result reassigns
    // its nets); only fresh entries build records.
    spare_devices.swap(out.devices);
    out.devices.clear();
    for (int dl_i = 0; dl_i < 2; ++dl_i) {
      const Layer dl = diff_layer(dl_i);
      const auto& sp = edit.splice_of(dl);
      for (std::uint32_t k = 0; k < entries[dl_i].size(); ++k) {
        const Entry& e = entries[dl_i][k];
        if (e.sites.empty()) continue;
        if (fresh[dl_i][k]) {
          add_devices(dl_i, e, db->shape_path(dl, k));
          continue;
        }
        const std::uint32_t o =
            k < sp.begin ? k
                         : static_cast<std::uint32_t>(k - sp.delta());
        const auto from = spare_devices.begin() + old_dev[dl_i][o];
        out.devices.insert(
            out.devices.end(), std::make_move_iterator(from),
            std::make_move_iterator(
                from + static_cast<std::ptrdiff_t>(e.sites.size())));
      }
    }
    spare_devices.clear();

    // Old-to-new piece id map (kNoPiece = the piece no longer exists).
    std::uint32_t old_total = 0;
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (std::uint32_t len : old_lens[dl_i]) old_total += len;
    // Old plain blocks start after all old diffusion pieces.
    std::array<std::uint32_t, kPlainCount> old_plain_start;
    {
      std::uint32_t acc = old_total;
      for (std::size_t t = 0; t < kPlainCount; ++t) {
        old_plain_start[t] = acc;
        acc += old_plain_count[t];
      }
      old_total = acc;
    }
    std::vector<std::uint32_t> pmap(old_total, kNoPiece);
    {
      std::uint32_t o = 0;
      for (int dl_i = 0; dl_i < 2; ++dl_i) {
        const auto& sp = edit.splice_of(diff_layer(dl_i));
        for (std::uint32_t s = 0; s < old_lens[dl_i].size(); ++s) {
          const std::uint32_t len = old_lens[dl_i][s];
          const std::uint32_t k = sp.remap(s);
          if (k != geom::ShapeSplice::kRemoved && !fresh[dl_i][k])
            for (std::uint32_t t = 0; t < len; ++t)
              pmap[o + t] = nb.entry_start[dl_i][k] + t;
          o += len;
        }
      }
      for (std::size_t t = 0; t < kPlainCount; ++t) {
        const auto& sp = edit.splice_of(kPlain[t]);
        for (std::uint32_t s = 0; s < old_plain_count[t]; ++s) {
          const std::uint32_t r = sp.remap(s);
          if (r != geom::ShapeSplice::kRemoved)
            pmap[old_plain_start[t] + s] = nb.plain_start[t] + r;
        }
      }
    }

    // New pieces, for edge discovery and its both-new dedup.
    std::vector<char> is_new(nb.total, 0);
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (std::size_t k = 0; k < entries[dl_i].size(); ++k)
        if (fresh[dl_i][k])
          for (std::uint32_t t = 0; t < entries[dl_i][k].segs.size(); ++t)
            is_new[nb.entry_start[dl_i][k] + t] = 1;
    for (std::size_t t = 0; t < kPlainCount; ++t) {
      const auto& sp = edit.splice_of(kPlain[t]);
      for (std::uint32_t s = sp.begin; s < sp.new_end; ++s)
        is_new[nb.plain_start[t] + s] = 1;
    }

    // Splice the surviving edges in place, then discover the new pieces'
    // edges. A pair of two new pieces is kept from its lower member's
    // visit only.
    std::size_t kept = 0;
    for (const std::uint64_t e : edges) {
      const std::uint32_t a = pmap[static_cast<std::uint32_t>(e >> 32)];
      const std::uint32_t b2 = pmap[static_cast<std::uint32_t>(e)];
      if (a != kNoPiece && b2 != kNoPiece) edges[kept++] = pack(a, b2);
    }
    edges.resize(kept);
    auto discover = [&](Layer from, const Rect& r, std::uint32_t g) {
      for_each_neighbor(from, r, nb, 0, [&](std::uint32_t h) {
        if (h == g || (is_new[h] && h < g)) return;
        edges.push_back(pack(std::min(g, h), std::max(g, h)));
      });
    };
    for (int dl_i = 0; dl_i < 2; ++dl_i)
      for (std::size_t k = 0; k < entries[dl_i].size(); ++k) {
        if (!fresh[dl_i][k]) continue;
        const auto& segs = entries[dl_i][k].segs;
        for (std::uint32_t t = 0; t < segs.size(); ++t)
          discover(diff_layer(dl_i), segs[t], nb.entry_start[dl_i][k] + t);
      }
    for (std::size_t t = 0; t < kPlainCount; ++t) {
      const auto& sp = edit.splice_of(kPlain[t]);
      const auto& rects = db->rects(kPlain[t]);
      for (std::uint32_t s = sp.begin; s < sp.new_end; ++s)
        discover(kPlain[t], rects[s], nb.plain_start[t] + s);
    }

    rebuild_result(nb);
  }
};

}  // namespace

Extracted extract(const geom::LayoutDB& db, const tech::Tech& tech) {
  return Extractor(db, tech).out;
}

Extracted extract(const geom::Cell& top, const tech::Tech& tech) {
  return extract(geom::LayoutDB(top), tech);
}

struct IncrementalExtract::Impl : Extractor {
  using Extractor::Extractor;
};

IncrementalExtract::IncrementalExtract(const geom::LayoutDB& db,
                                       const tech::Tech& tech)
    : impl_(std::make_unique<Impl>(db, tech)) {}

IncrementalExtract::~IncrementalExtract() = default;

void IncrementalExtract::update(const geom::EditResult& edit) {
  impl_->update(edit);
}

const Extracted& IncrementalExtract::result() const { return impl_->out; }

}  // namespace bisram::extract
