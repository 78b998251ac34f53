#pragma once
// LayoutDB binary snapshots: the persistence layer behind
// LayoutDB::save_snapshot / load_snapshot. A snapshot holds the
// hierarchy a database describes, edits included, each master once; a
// reopen decodes it and flattens it with the one flattener
// (LayoutDB(const Cell&, Coord)), which reproduces the saved database.
// The layer uses only LayoutDB's public API.
//
// File format (all integers little-endian; framing follows
// util/checkpoint.hpp):
//
//   offset  size  field
//   0       8     magic "BSRLYDB\0"
//   8       4     format version (u32, currently 2)
//   12      4     reserved (0)
//   16      8     content hash (u64) — LayoutDB::content_hash() of the
//                 saved database
//   24      8     payload byte count (u64)
//   32      n     payload (below)
//   32+n    4     CRC32 (polynomial 0xEDB88320) over bytes [0, 32+n)
//
// The payload is a varint stream (LEB128; signed values zigzag-coded):
//
//   tile size               zigzag
//   shape count             varint   (flat, over every layer)
//   path-node count         varint   (flat, the top's node included)
//   cell count              varint   (>= 1; the last cell is the top)
//   per cell, children first:
//     name                  len + bytes
//     shape count           varint
//       per shape           layer (varint), rect lo x, lo y, hi x, hi y
//                           (zigzag; lo < hi)
//     port count            varint
//       per port            name (len + bytes), layer, rect (as a shape's)
//     instance count        varint
//       per instance        cell index (varint, below this cell's own),
//                           name (len + bytes), orient (varint), dx, dy
//                           (zigzag)
//
// The cells are the database's masters, each written once, plus a fresh
// cell for every path node whose children an edit changed (a Move,
// Replace, Add or Remove below it) and for each of that node's
// ancestors: its master's shapes and ports with its children as they
// are now. Coordinates and offsets lie within ±2·10^9 DBU, the CIF
// reader's bound. The flat store, the path-node tree, the edit history
// and the tile index are NOT stored: apply() equals a fresh flatten of
// the edited hierarchy, so flattening the stored one rebuilds them all,
// and save → load → save produces identical bytes (cells are written in
// a depth-first order of the hierarchy, never of the master table).
//
// Loading follows the repo's parser convention (util/diag.hpp): with a
// DiagEngine the loader NEVER throws on a bad file — it records one of
// the stable codes below and returns null; without one it throws
// DiagError. Codes:
//
//   snapshot-open-failed            file missing or unreadable
//   snapshot-truncated              shorter than header+CRC, or the
//                                   varint stream ends mid-value
//   snapshot-bad-magic              not a LayoutDB snapshot
//   snapshot-version-skew           written by a different format version
//   snapshot-bad-length             header payload length != file size,
//                                   or bytes after the last cell
//   snapshot-crc-mismatch           checksum failure (torn write, bit rot)
//   snapshot-bad-count              a list count exceeds the bytes that
//                                   could possibly encode that many items,
//                                   or the payload holds no cell
//   snapshot-bad-value              structurally invalid data (empty rect,
//                                   coordinate out of bounds, out-of-range
//                                   layer/orient, an instance naming its
//                                   own or a later cell)
//   snapshot-too-deep               the hierarchy nests deeper than
//                                   kMaxFlattenDepth
//   snapshot-too-many-instances     its flatten exceeds kMaxFlattenInstances
//   snapshot-count-mismatch         the declared flat counts differ from
//                                   the flattener's census of the hierarchy
//   snapshot-content-hash-mismatch  decoded database hashes differently
//                                   than the header claims
//
// The last three are checked with LayoutDB::census() before any column
// is allocated: a hierarchy is a compressed description, so the payload's
// size bounds only its lists, not the flat counts. tests/fuzz_inputs/
// snap_* replays a corpus of these corruptions through the fuzz harness;
// the loader must reject every one without crashing (ASan-clean).

#include <cstdint>

#include "geom/layout_db.hpp"

namespace bisram::geom {

/// Current snapshot format version (header field at offset 8).
/// tests/test_layout_snapshot.cpp pins the bytes and content hash of a
/// real layout, so a change to the encoding or to content_hash() must
/// bump this and those values together.
inline constexpr std::uint32_t kSnapshotVersion = 2;

}  // namespace bisram::geom
