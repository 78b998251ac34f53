#include "geom/layout_snapshot.hpp"

#include <cstring>
#include <fstream>
#include <iterator>
#include <unordered_map>

#include "util/checkpoint.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bisram::geom {

namespace {

constexpr char kMagic[8] = {'B', 'S', 'R', 'L', 'Y', 'D', 'B', '\0'};
constexpr std::size_t kHeaderBytes = 32;
/// Largest coordinate or offset magnitude a snapshot holds (DBU), the
/// CIF reader's bound: composed through kMaxFlattenDepth levels, every
/// absolute coordinate stays far inside int64.
constexpr std::int64_t kCoordLimit = 2'000'000'000;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const std::string& in, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::string& in, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

// LEB128 varint; signed values zigzag-coded so small negatives stay small.
void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_zigzag(std::string& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

void put_str(std::string& out, const std::string& s) {
  put_varint(out, s.size());
  out += s;
}

void put_rect(std::string& out, const Rect& r) {
  put_zigzag(out, r.lo.x);
  put_zigzag(out, r.lo.y);
  put_zigzag(out, r.hi.x);
  put_zigzag(out, r.hi.y);
}

/// Bounds-checked payload reader. Every accessor reports at most one
/// diagnostic (the first failure) and turns all later reads into no-ops,
/// so the decode loop below can stay linear and still never touch a byte
/// past the end — the property the snap_* fuzz corpus hammers on.
class Decoder {
 public:
  Decoder(const std::string& buf, std::size_t begin, std::size_t end,
          DiagEngine& diag)
      : buf_(buf), pos_(begin), end_(end), diag_(diag) {}

  std::size_t remaining() const { return end_ - pos_; }

  bool fail(const char* code, std::string message) {
    if (!failed_) diag_.error(code, std::move(message));
    failed_ = true;
    return false;
  }

  bool u(std::uint64_t* v) {
    if (failed_) return false;
    std::uint64_t out = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      if (pos_ >= end_)
        return fail("snapshot-truncated", "varint runs past the payload end");
      const auto byte = static_cast<unsigned char>(buf_[pos_++]);
      if (shift == 63 && (byte & 0xfe))
        return fail("snapshot-bad-value", "varint wider than 64 bits");
      out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) {
        *v = out;
        return true;
      }
    }
    return fail("snapshot-bad-value", "varint wider than 64 bits");
  }

  bool z(std::int64_t* v) {
    std::uint64_t raw = 0;
    if (!u(&raw)) return false;
    *v = unzigzag(raw);
    return true;
  }

  /// A count that must be followed by at least one byte per item.
  bool count(std::uint64_t* v, const char* what) {
    if (!u(v)) return false;
    if (*v > remaining())
      return fail("snapshot-bad-count",
                  strfmt("%s count %llu exceeds the %zu remaining payload "
                         "bytes",
                         what, static_cast<unsigned long long>(*v),
                         remaining()));
    return true;
  }

  bool str(std::string* s, const char* what) {
    std::uint64_t len = 0;
    if (!count(&len, what)) return false;
    s->assign(buf_, pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  /// A coordinate or offset within ±kCoordLimit.
  bool coord(std::int64_t* v) {
    if (!z(v)) return false;
    if (*v < -kCoordLimit || *v > kCoordLimit)
      return fail("snapshot-bad-value",
                  strfmt("coordinate %lld lies beyond %lld DBU",
                         static_cast<long long>(*v),
                         static_cast<long long>(kCoordLimit)));
    return true;
  }

  bool layer(Layer* l) {
    std::uint64_t v = 0;
    if (!u(&v)) return false;
    if (v >= static_cast<std::uint64_t>(kLayerCount))
      return fail("snapshot-bad-value",
                  strfmt("layer %llu out of range",
                         static_cast<unsigned long long>(v)));
    *l = static_cast<Layer>(v);
    return true;
  }

  /// A rect of positive width and height, as cells hold.
  bool rect(Rect* r) {
    std::int64_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
    if (!coord(&x0) || !coord(&y0) || !coord(&x1) || !coord(&y1))
      return false;
    if (x0 >= x1 || y0 >= y1)
      return fail("snapshot-bad-value",
                  strfmt("empty rect (%lld, %lld)-(%lld, %lld)",
                         static_cast<long long>(x0), static_cast<long long>(y0),
                         static_cast<long long>(x1),
                         static_cast<long long>(y1)));
    *r = Rect{{x0, y0}, {x1, y1}};
    return true;
  }

 private:
  const std::string& buf_;
  std::size_t pos_;
  std::size_t end_;
  DiagEngine& diag_;
  bool failed_ = false;
};

/// Writes the hierarchy a database describes as the payload's cell list,
/// children first, so the top comes last and each instance names an
/// earlier cell. A node whose children are still its master's instances
/// (same names, placements and masters, none of them rewritten) is its
/// master, written once for all such nodes; any other node, the ones
/// whose children an edit changed and their ancestors, gets a fresh cell:
/// its master's shapes and ports, and its children as they are now.
class HierarchyWriter {
 public:
  HierarchyWriter(const LayoutDB& db, std::string& out)
      : db_(db), out_(out), rewritten_(db.path_count(), 0) {
    // A child's id exceeds its parent's: one pass from the last node
    // settles every node after its children.
    for (std::size_t n = rewritten_.size(); n-- > 0;)
      rewritten_[n] = !as_master(static_cast<std::uint32_t>(n));
  }

  /// Appends the top's cell and every cell below it; returns the count.
  std::uint64_t write() {
    node(0);
    return cells_;
  }

 private:
  const Cell& master(std::uint32_t n) const {
    return *db_.masters()[db_.path_masters()[n]];
  }

  bool as_master(std::uint32_t n) const {
    const auto& ends = db_.path_sub_ends();
    const auto& insts = master(n).instances();
    std::size_t j = 0;
    for (std::uint32_t c = n + 1; c < ends[n]; c = ends[c], ++j)
      if (j == insts.size() || rewritten_[c] ||
          db_.path_names()[c] != insts[j].name ||
          !(db_.path_locals()[c] == insts[j].transform) ||
          &master(c) != insts[j].cell.get())
        return false;
    return j == insts.size();
  }

  /// Writes node `n`'s cell unless its master is written already;
  /// returns the cell's index.
  std::uint64_t node(std::uint32_t n) {
    const Cell& m = master(n);
    if (!rewritten_[n])
      if (const auto it = index_.find(&m); it != index_.end())
        return it->second;
    std::vector<std::uint64_t> kids;
    const auto& ends = db_.path_sub_ends();
    for (std::uint32_t c = n + 1; c < ends[n]; c = ends[c])
      kids.push_back(node(c));
    std::string& p = out_;
    put_str(p, m.name());
    put_varint(p, m.shapes().size());
    for (const Shape& s : m.shapes()) {
      put_varint(p, static_cast<std::uint64_t>(s.layer));
      put_rect(p, s.rect);
    }
    put_varint(p, m.ports().size());
    for (const Port& pt : m.ports()) {
      put_str(p, pt.name);
      put_varint(p, static_cast<std::uint64_t>(pt.layer));
      put_rect(p, pt.rect);
    }
    put_varint(p, kids.size());
    std::size_t k = 0;
    for (std::uint32_t c = n + 1; c < ends[n]; c = ends[c]) {
      const Transform& t = db_.path_locals()[c];
      put_varint(p, kids[k++]);
      put_str(p, db_.path_names()[c]);
      put_varint(p, static_cast<std::uint64_t>(t.orient()));
      put_zigzag(p, t.offset().x);
      put_zigzag(p, t.offset().y);
    }
    if (!rewritten_[n]) index_.emplace(&m, cells_);
    return cells_++;
  }

  const LayoutDB& db_;
  std::string& out_;
  std::vector<char> rewritten_;  // per node: written as a fresh cell
  std::unordered_map<const Cell*, std::uint64_t> index_;  // masters written
  std::uint64_t cells_ = 0;
};

std::string encode(const LayoutDB& db) {
  std::string cells;
  const std::uint64_t count = HierarchyWriter(db, cells).write();
  std::string p;
  put_zigzag(p, db.tile_size());
  put_varint(p, db.shape_count());
  put_varint(p, db.path_count());
  put_varint(p, count);
  return p + cells;
}

/// Decoded cells, released last first: each names only earlier ones, so
/// a cell is freed while the list still holds its children and no
/// release recurses, however long a chain a refused file describes.
struct CellList {
  std::vector<CellPtr> cells;
  ~CellList() {
    while (!cells.empty()) cells.pop_back();
  }
};

/// Decodes the cell list and flattens its last cell, once the declared
/// counts match the flattener's census.
std::unique_ptr<LayoutDB> decode(const std::string& doc, std::size_t begin,
                                 std::size_t end, DiagEngine& diag) {
  Decoder d(doc, begin, end, diag);
  std::int64_t tile = 0;
  std::uint64_t shapes = 0, nodes = 0, ncells = 0;
  if (!d.z(&tile) || !d.u(&shapes) || !d.u(&nodes) ||
      !d.count(&ncells, "cell"))
    return nullptr;
  if (tile < 1) {
    d.fail("snapshot-bad-value", strfmt("tile size %lld is not positive",
                                        static_cast<long long>(tile)));
    return nullptr;
  }
  if (ncells == 0) {
    d.fail("snapshot-bad-count", "the payload holds no cell");
    return nullptr;
  }

  CellList list;
  std::vector<CellPtr>& cells = list.cells;
  for (std::uint64_t k = 0; k < ncells; ++k) {
    std::string name;
    std::uint64_t n = 0;
    if (!d.str(&name, "cell-name") || !d.count(&n, "shape")) return nullptr;
    auto cell = std::make_shared<Cell>(std::move(name));
    for (std::uint64_t i = 0; i < n; ++i) {
      Layer layer{};
      Rect r;
      if (!d.layer(&layer) || !d.rect(&r)) return nullptr;
      cell->add_shape(layer, r);
    }
    if (!d.count(&n, "port")) return nullptr;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::string port;
      Layer layer{};
      Rect r;
      if (!d.str(&port, "port-name") || !d.layer(&layer) || !d.rect(&r))
        return nullptr;
      cell->add_port(std::move(port), layer, r);
    }
    if (!d.count(&n, "instance")) return nullptr;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t of = 0, orient = 0;
      std::string inst;
      std::int64_t dx = 0, dy = 0;
      if (!d.u(&of) || !d.str(&inst, "instance-name") || !d.u(&orient) ||
          !d.coord(&dx) || !d.coord(&dy))
        return nullptr;
      // Naming only earlier cells keeps the hierarchy acyclic.
      if (of >= k) {
        d.fail("snapshot-bad-value",
               strfmt("instance '%s' of cell %llu names cell %llu, not an "
                      "earlier one",
                      inst.c_str(), static_cast<unsigned long long>(k),
                      static_cast<unsigned long long>(of)));
        return nullptr;
      }
      if (orient >= 8) {
        d.fail("snapshot-bad-value",
               strfmt("instance '%s' has orientation %llu out of range",
                      inst.c_str(), static_cast<unsigned long long>(orient)));
        return nullptr;
      }
      cell->add_instance(std::move(inst), cells[static_cast<std::size_t>(of)],
                         Transform(static_cast<Orient>(orient), {dx, dy}));
    }
    cells.push_back(std::move(cell));
  }
  if (d.remaining() != 0) {
    d.fail("snapshot-bad-length",
           strfmt("%zu trailing payload bytes after the last cell",
                  d.remaining()));
    return nullptr;
  }

  // The flat counts are not bounded by the payload's size (a hierarchy
  // is a compressed description), so they are checked against the
  // census, whose guards also refuse a hierarchy too deep or too large
  // to flatten, before any column is allocated.
  const Cell& top = *cells.back();
  FlattenCount census;
  try {
    census = LayoutDB::census(top);
  } catch (const DiagError& e) {
    const bool deep = e.diagnostics()[0].code == "layout-flatten-too-deep";
    d.fail(deep ? "snapshot-too-deep" : "snapshot-too-many-instances",
           e.diagnostics()[0].message);
    return nullptr;
  }
  if (census.total != shapes || census.nodes + 1 != nodes) {
    d.fail("snapshot-count-mismatch",
           strfmt("the payload declares %llu shapes and %llu path nodes; "
                  "its hierarchy flattens to %llu and %llu",
                  static_cast<unsigned long long>(shapes),
                  static_cast<unsigned long long>(nodes),
                  static_cast<unsigned long long>(census.total),
                  static_cast<unsigned long long>(census.nodes + 1)));
    return nullptr;
  }
  return std::make_unique<LayoutDB>(top, tile);
}

}  // namespace

void LayoutDB::save_snapshot(const std::string& path) const {
  require(!path.empty(), "layout snapshot: empty path");
  const std::string payload = encode(*this);
  std::string doc;
  doc.reserve(kHeaderBytes + payload.size() + 4);
  doc.append(kMagic, sizeof kMagic);
  put_u32(doc, kSnapshotVersion);
  put_u32(doc, 0);  // reserved
  put_u64(doc, content_hash());
  put_u64(doc, payload.size());
  doc += payload;
  put_u32(doc, crc32(doc.data(), doc.size()));

  // A crash at any instant leaves the previous snapshot or the new one,
  // never a torn file.
  publish_atomic(path, doc, "layout snapshot");
}

namespace {

std::unique_ptr<LayoutDB> load_snapshot_impl(const std::string& path,
                                             DiagEngine& diag) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    diag.error("snapshot-open-failed",
               strfmt("cannot open '%s'", path.c_str()));
    return nullptr;
  }
  std::string doc((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  if (doc.size() < kHeaderBytes + 4) {
    diag.error("snapshot-truncated",
               strfmt("'%s' is %zu bytes; a valid snapshot has at least %zu",
                      path.c_str(), doc.size(), kHeaderBytes + 4));
    return nullptr;
  }
  if (std::memcmp(doc.data(), kMagic, sizeof kMagic) != 0) {
    diag.error("snapshot-bad-magic",
               strfmt("'%s' is not a LayoutDB snapshot", path.c_str()));
    return nullptr;
  }
  const std::uint32_t version = get_u32(doc, 8);
  if (version != kSnapshotVersion) {
    diag.error("snapshot-version-skew",
               strfmt("'%s' has format version %u; this build reads version "
                      "%u",
                      path.c_str(), version, kSnapshotVersion));
    return nullptr;
  }
  const std::uint64_t payload_bytes = get_u64(doc, 24);
  if (payload_bytes != doc.size() - kHeaderBytes - 4) {
    diag.error("snapshot-bad-length",
               strfmt("'%s' payload length %llu does not match the file size "
                      "(truncated or padded file)",
                      path.c_str(),
                      static_cast<unsigned long long>(payload_bytes)));
    return nullptr;
  }
  const std::uint32_t stored_crc = get_u32(doc, doc.size() - 4);
  const std::uint32_t actual_crc = crc32(doc.data(), doc.size() - 4);
  if (stored_crc != actual_crc) {
    diag.error("snapshot-crc-mismatch",
               strfmt("'%s' failed its CRC32 check (stored %08x, computed "
                      "%08x) — the file is corrupted",
                      path.c_str(), stored_crc, actual_crc));
    return nullptr;
  }
  auto db = decode(doc, kHeaderBytes, doc.size() - 4, diag);
  if (!db) return nullptr;
  const std::uint64_t stored_hash = get_u64(doc, 16);
  const std::uint64_t actual_hash = db->content_hash();
  if (stored_hash != actual_hash) {
    diag.error("snapshot-content-hash-mismatch",
               strfmt("'%s' decodes to content hash %016llx but claims "
                      "%016llx",
                      path.c_str(),
                      static_cast<unsigned long long>(actual_hash),
                      static_cast<unsigned long long>(stored_hash)));
    return nullptr;
  }
  return db;
}

}  // namespace

std::unique_ptr<LayoutDB> LayoutDB::load_snapshot(const std::string& path,
                                                  DiagEngine* diag) {
  if (diag) return load_snapshot_impl(path, *diag);
  DiagEngine local(path);
  auto db = load_snapshot_impl(path, local);
  if (!db) local.throw_if_errors();
  return db;
}

}  // namespace bisram::geom
