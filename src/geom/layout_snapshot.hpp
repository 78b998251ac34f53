#pragma once
// LayoutDB binary snapshots: the persistence layer behind
// LayoutDB::save_snapshot / load_snapshot. The edit -> re-signoff flow
// reopens a flattened macro from one of these files instead of
// rebuilding the hierarchy.
//
// File format (all integers little-endian; framing follows
// util/checkpoint.hpp):
//
//   offset  size  field
//   0       8     magic "BSRLYDB\0"
//   8       4     format version (u32, currently 1)
//   12      4     reserved (0)
//   16      8     content hash (u64) — LayoutDB::content_hash() of the
//                 serialized database
//   24      8     payload byte count (u64)
//   32      n     payload (below)
//   32+n    4     CRC32 (polynomial 0xEDB88320) over bytes [0, 32+n)
//
// The payload is a varint stream (LEB128; signed values zigzag-coded):
//
//   top cell name           len + bytes
//   tile size               zigzag
//   port count              varint
//     per port              name (len + bytes), layer, rect (4 zigzag)
//   path-node count         varint   (node 0 = the top cell)
//     per node              parent (varint), name (len + bytes),
//                           local orient (varint), local dx, dy (zigzag)
//   per layer (all kLayerCount, in enum order):
//     shape count           varint
//     per shape             lo delta-coded against the previous shape's
//                           lo (zigzag dx, dy), size as hi-lo (zigzag,
//                           must be >= 0), path id delta-coded against
//                           the previous shape's path (varint — per
//                           layer path ids are non-decreasing in
//                           flatten order)
//
// Delta-coding exploits flatten locality (adjacent shapes of a layer
// come from the same or neighboring instances), shrinking the Fig. 6
// macro snapshot to a few bytes per rectangle. The per-layer TileIndex
// is NOT stored: it is a pure function of (rects, tile size) and is
// rebuilt deterministically on load, which keeps the file small and
// makes "round-trip is byte-exact" trivially checkable (save → load →
// save produces identical bytes).
//
// Loading never re-flattens a hierarchy and follows the repo's parser
// convention (util/diag.hpp): with a DiagEngine the loader NEVER throws
// on a bad file — it records one of the stable codes below and returns
// null; without one it throws DiagError. Codes:
//
//   snapshot-open-failed            file missing or unreadable
//   snapshot-truncated              shorter than header+CRC, or the
//                                   varint stream ends mid-value
//   snapshot-bad-magic              not a LayoutDB snapshot
//   snapshot-version-skew           written by a different format version
//   snapshot-bad-length             header payload length != file size
//   snapshot-crc-mismatch           checksum failure (torn write, bit rot)
//   snapshot-bad-count              a count field exceeds the bytes that
//                                   could possibly encode that many items
//   snapshot-bad-value              structurally invalid data (negative
//                                   size, out-of-range layer/orient,
//                                   non-preorder parent, bad path id)
//   snapshot-content-hash-mismatch  decoded database hashes differently
//                                   than the header claims
//
// tests/fuzz_inputs/snap_* replays a corpus of exactly these corruptions
// through the fuzz harness; the loader must reject every one without
// crashing (ASan-clean).

#include <cstdint>

#include "geom/layout_db.hpp"

namespace bisram::geom {

/// Current snapshot format version (header field at offset 8).
/// tests/test_layout_snapshot.cpp pins the bytes and content hash of a
/// real layout, so a change to the encoding or to content_hash() must
/// bump this and those values together.
inline constexpr std::uint32_t kSnapshotVersion = 1;

}  // namespace bisram::geom
