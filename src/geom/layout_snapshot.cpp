#include "geom/layout_snapshot.hpp"

#include <cstring>
#include <fstream>
#include <iterator>

#include "util/checkpoint.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bisram::geom {

namespace {

constexpr char kMagic[8] = {'B', 'S', 'R', 'L', 'Y', 'D', 'B', '\0'};
constexpr std::size_t kHeaderBytes = 32;

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

/// Bounds-checked payload reader. Every accessor reports at most one
/// diagnostic (the first failure) and turns all later reads into no-ops,
/// so the decode loop below can stay linear and still never touch a byte
/// past the end — the property the snap_* fuzz corpus hammers on.
class Decoder {
 public:
  Decoder(const std::string& buf, std::size_t begin, std::size_t end,
          DiagEngine& diag)
      : buf_(buf), pos_(begin), end_(end), diag_(diag) {}

  bool failed() const { return failed_; }
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

 private:
  const std::string& buf_;
  std::size_t pos_;
  std::size_t end_;
  DiagEngine& diag_;
  bool failed_ = false;
};

}  // namespace

/// Private-member access for the snapshot layer (friend of LayoutDB).
class SnapshotCodec {
 public:
  static std::string encode(const LayoutDB& db) {
    std::string p;
    put_str(p, db.top_name_);
    put_zigzag(p, db.tile_);
    put_varint(p, db.ports_.size());
    for (const Port& pt : db.ports_) {
      put_str(p, pt.name);
      put_varint(p, static_cast<std::uint64_t>(pt.layer));
      put_zigzag(p, pt.rect.lo.x);
      put_zigzag(p, pt.rect.lo.y);
      put_zigzag(p, pt.rect.hi.x);
      put_zigzag(p, pt.rect.hi.y);
    }
    put_varint(p, db.path_parent_.size());
    for (std::size_t i = 0; i < db.path_parent_.size(); ++i) {
      put_varint(p, db.path_parent_[i]);
      put_str(p, db.path_name_[i]);
      put_varint(p, static_cast<std::uint64_t>(db.path_local_[i].orient()));
      put_zigzag(p, db.path_local_[i].offset().x);
      put_zigzag(p, db.path_local_[i].offset().y);
    }
    for (std::size_t l = 0; l < db.rects_.size(); ++l) {
      const auto& rv = db.rects_[l];
      const auto& pv = db.path_ids_[l];
      put_varint(p, rv.size());
      Point prev{};
      std::uint32_t prev_path = 0;
      for (std::size_t i = 0; i < rv.size(); ++i) {
        put_zigzag(p, rv[i].lo.x - prev.x);
        put_zigzag(p, rv[i].lo.y - prev.y);
        put_zigzag(p, rv[i].width());
        put_zigzag(p, rv[i].height());
        put_varint(p, pv[i] - prev_path);  // non-decreasing in flatten order
        prev = rv[i].lo;
        prev_path = pv[i];
      }
    }
    return p;
  }

  static std::unique_ptr<LayoutDB> decode(const std::string& doc,
                                          std::size_t begin, std::size_t end,
                                          DiagEngine& diag) {
    Decoder d(doc, begin, end, diag);
    std::unique_ptr<LayoutDB> db(new LayoutDB());

    if (!d.str(&db->top_name_, "top-name")) return nullptr;
    std::int64_t tile = 0;
    if (!d.z(&tile)) return nullptr;
    if (tile < 1) {
      d.fail("snapshot-bad-value",
             strfmt("tile size %lld is not positive",
                    static_cast<long long>(tile)));
      return nullptr;
    }
    db->tile_ = tile;

    std::uint64_t nports = 0;
    if (!d.count(&nports, "port")) return nullptr;
    db->ports_.resize(static_cast<std::size_t>(nports));
    for (auto& pt : db->ports_) {
      std::uint64_t layer = 0;
      std::int64_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
      if (!d.str(&pt.name, "port-name") || !d.u(&layer) || !d.z(&x0) ||
          !d.z(&y0) || !d.z(&x1) || !d.z(&y1))
        return nullptr;
      if (layer >= static_cast<std::uint64_t>(kLayerCount)) {
        d.fail("snapshot-bad-value",
               strfmt("port layer %llu out of range",
                      static_cast<unsigned long long>(layer)));
        return nullptr;
      }
      pt.layer = static_cast<Layer>(layer);
      pt.rect = Rect{{x0, y0}, {x1, y1}};
    }

    std::uint64_t nnodes = 0;
    if (!d.count(&nnodes, "path-node")) return nullptr;
    if (nnodes == 0 || nnodes > kMaxFlattenInstances) {
      d.fail("snapshot-bad-count",
             strfmt("path-node count %llu out of range",
                    static_cast<unsigned long long>(nnodes)));
      return nullptr;
    }
    const auto n = static_cast<std::size_t>(nnodes);
    db->path_parent_.resize(n);
    db->path_name_.resize(n);
    db->path_local_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t parent = 0, orient = 0;
      std::int64_t dx = 0, dy = 0;
      if (!d.u(&parent) || !d.str(&db->path_name_[i], "path-node-name") ||
          !d.u(&orient) || !d.z(&dx) || !d.z(&dy))
        return nullptr;
      // Preorder invariant: a node's parent precedes it (node 0 is its
      // own parent). Everything downstream — path materialization,
      // subtree intervals, apply()'s splices — relies on this.
      if ((i == 0 && parent != 0) || (i > 0 && parent >= i)) {
        d.fail("snapshot-bad-value",
               strfmt("path node %zu has non-preorder parent %llu", i,
                      static_cast<unsigned long long>(parent)));
        return nullptr;
      }
      if (orient >= 8) {
        d.fail("snapshot-bad-value",
               strfmt("path node %zu has orientation %llu out of range", i,
                      static_cast<unsigned long long>(orient)));
        return nullptr;
      }
      db->path_parent_[i] = static_cast<std::uint32_t>(parent);
      db->path_local_[i] =
          Transform(static_cast<Orient>(orient), Point{dx, dy});
    }

    for (int l = 0; l < kLayerCount; ++l) {
      std::uint64_t nshapes = 0;
      if (!d.count(&nshapes, "shape")) return nullptr;
      auto& rv = db->rects_[static_cast<std::size_t>(l)];
      auto& pv = db->path_ids_[static_cast<std::size_t>(l)];
      rv.resize(static_cast<std::size_t>(nshapes));
      pv.resize(static_cast<std::size_t>(nshapes));
      Point prev{};
      std::uint64_t prev_path = 0;
      for (std::size_t i = 0; i < rv.size(); ++i) {
        std::int64_t dx = 0, dy = 0, w = 0, h = 0;
        std::uint64_t dpath = 0;
        if (!d.z(&dx) || !d.z(&dy) || !d.z(&w) || !d.z(&h) || !d.u(&dpath))
          return nullptr;
        if (w < 0 || h < 0) {
          d.fail("snapshot-bad-value",
                 strfmt("%s shape has negative size %lld x %lld",
                        std::string(layer_name(static_cast<Layer>(l))).c_str(),
                        static_cast<long long>(w),
                        static_cast<long long>(h)));
          return nullptr;
        }
        prev = Point{prev.x + dx, prev.y + dy};
        prev_path += dpath;
        if (prev_path >= nnodes) {
          d.fail("snapshot-bad-value",
                 strfmt("%s shape path id %llu out of range",
                        std::string(layer_name(static_cast<Layer>(l))).c_str(),
                        static_cast<unsigned long long>(prev_path)));
          return nullptr;
        }
        rv[i] = Rect{prev, {prev.x + w, prev.y + h}};
        pv[i] = static_cast<std::uint32_t>(prev_path);
      }
    }

    if (d.remaining() != 0) {
      d.fail("snapshot-bad-length",
             strfmt("%zu trailing payload bytes after the last layer",
                    d.remaining()));
      return nullptr;
    }

    // Derived state: indexes and subtree intervals are pure functions of
    // the serialized fields and are rebuilt, not stored.
    db->rebuild_sub_ends();
    db->build_indexes();
    return db;
  }
};

void LayoutDB::save_snapshot(const std::string& path) const {
  require(!path.empty(), "layout snapshot: empty path");
  const std::string payload = SnapshotCodec::encode(*this);
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
  auto db = SnapshotCodec::decode(doc, kHeaderBytes, doc.size() - 4, diag);
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
