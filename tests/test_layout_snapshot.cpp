// LayoutDB snapshot persistence: byte-exact round-trips, stable
// rejection codes for every corruption class (the same classes the
// committed tests/fuzz_inputs/snap_* corpus replays) and the no-engine
// throwing convention.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/bisramgen.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "geom/layout_db.hpp"
#include "geom/layout_snapshot.hpp"
#include "util/checkpoint.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "temp_dir.hpp"

namespace bisram {
namespace {

TempDir temp_dir() {
  char tmpl[] = "/tmp/bisram_snap_test.XXXXXX";
  const char* d = mkdtemp(tmpl);
  EXPECT_NE(d, nullptr);
  return TempDir(d);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

core::RamSpec small_spec() {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 8;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.strap_interval = 16;
  return spec;
}

// One flattened small macro, shared by every test in this suite.
const geom::LayoutDB& small_db() {
  static const geom::LayoutDB* db = [] {
    const core::RamSpec spec = small_spec();
    const core::Generated g = core::generate(spec);
    return new geom::LayoutDB(*g.top,
                              drc::tile_size_for(spec.resolved_technology()));
  }();
  return *db;
}

TEST(LayoutSnapshot, RoundTripIsExactAndByteStable) {
  const geom::LayoutDB& db = small_db();
  const TempDir dir = temp_dir();
  const std::string a = dir.path() + "/a.snap";
  db.save_snapshot(a);

  const auto loaded = geom::LayoutDB::load_snapshot(a);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->content_hash(), db.content_hash());
  EXPECT_EQ(loaded->shape_count(), db.shape_count());
  EXPECT_EQ(loaded->path_count(), db.path_count());
  EXPECT_EQ(loaded->top_name(), db.top_name());
  EXPECT_EQ(loaded->tile_size(), db.tile_size());
  EXPECT_EQ(loaded->ports().size(), db.ports().size());
  for (geom::Layer l : geom::all_layers()) {
    const auto& want = db.rects(l);
    const auto& got = loaded->rects(l);
    ASSERT_EQ(want.size(), got.size()) << "layer " << static_cast<int>(l);
    ASSERT_EQ(db.path_ids(l).size(), want.size());
    ASSERT_EQ(loaded->path_ids(l).size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(want[i] == got[i]);
      ASSERT_EQ(db.path_ids(l)[i], loaded->path_ids(l)[i]);
    }
  }
  for (std::uint32_t n = 0; n < db.path_count(); ++n)
    ASSERT_EQ(loaded->path_name(n), db.path_name(n));

  // save -> load -> save produces identical bytes (acceptance bullet).
  const std::string b = dir.path() + "/b.snap";
  loaded->save_snapshot(b);
  EXPECT_EQ(slurp(a), slurp(b));
}

// The format and the content hash of a real layout, pinned: the 64-word
// Fig. 6 slice (bpw 128, bpc 8, 4 spare rows, straps every 32 cells) that
// bisbench's edit_resignoff workload reopens. The round-trip tests
// compare a save with its own load, so they cannot see a change that
// moves the encoder, the decoder and the hash together — which would
// leave every snapshot on disk unreadable. Such a change must bump
// kSnapshotVersion and these values on purpose. The tile edge is part
// of the hash and the header, so the pins use the literal 720 DBU they
// were taken at; the last check pins the hash at the signoff tile.
TEST(LayoutSnapshot, FormatAndHashArePinned) {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 128;
  spec.bpc = 8;
  spec.spare_rows = 4;
  spec.strap_interval = 32;
  spec.gate_size = 2.0;
  core::Compiler session;
  const tech::Tech& t = session.resolve_tech(spec);
  const core::Assembled a = session.assemble(spec, t);
  const geom::LayoutDB db(*a.top, 720);
  EXPECT_EQ(db.shape_count(), 789174u);
  EXPECT_EQ(db.path_count(), 18145u);
  EXPECT_EQ(db.content_hash(), 0x93e05ec04e2b64bbull);

  const TempDir dir = temp_dir();
  const std::string path = dir.path() + "/pinned.snap";
  db.save_snapshot(path);
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 5496582u);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0x2144df1cu);

  EXPECT_EQ(geom::LayoutDB(*a.top, drc::tile_size_for(t)).content_hash(),
            0xc5d56eece5a8622dull);
}

TEST(LayoutSnapshot, LoadedDatabaseAnswersQueriesLikeTheOriginal) {
  const geom::LayoutDB& db = small_db();
  const TempDir dir = temp_dir();
  const std::string path = dir.path() + "/q.snap";
  db.save_snapshot(path);
  const auto loaded = geom::LayoutDB::load_snapshot(path);
  ASSERT_NE(loaded, nullptr);

  // The TileIndex is rebuilt on load, not stored: indexed queries must
  // agree anyway.
  EXPECT_TRUE(loaded->bbox() == db.bbox());
  EXPECT_EQ(loaded->transistor_census(), db.transistor_census());
  const geom::Rect win{db.bbox().lo,
                       {db.bbox().lo.x + db.bbox().width() / 3,
                        db.bbox().lo.y + db.bbox().height() / 3}};
  for (geom::Layer l : geom::all_layers())
    EXPECT_EQ(loaded->index(l).ids_in(win), db.index(l).ids_in(win))
        << "layer " << static_cast<int>(l);
}

/// Writes `bytes` to a temp file and expects the loader to reject it
/// with exactly `code` (diag mode: null result, no throw).
void expect_rejected(const std::string& bytes, const std::string& code) {
  const TempDir dir = temp_dir();
  const std::string path = dir.path() + "/corrupt.snap";
  spit(path, bytes);
  DiagEngine diag;
  const auto r = geom::LayoutDB::load_snapshot(path, &diag);
  EXPECT_EQ(r, nullptr) << code;
  ASSERT_FALSE(diag.diagnostics().empty()) << code;
  EXPECT_EQ(diag.diagnostics()[0].code, code);
}

TEST(LayoutSnapshot, CorruptFilesAreRejectedWithStableCodes) {
  const TempDir dir = temp_dir();
  const std::string path = dir.path() + "/good.snap";
  small_db().save_snapshot(path);
  const std::string good = slurp(path);
  ASSERT_GT(good.size(), 64u);

  expect_rejected(good.substr(0, 16), "snapshot-truncated");
  // Cut mid-payload the header's length field now exceeds the file.
  expect_rejected(good.substr(0, good.size() / 2), "snapshot-bad-length");
  {
    std::string b = good;
    b[0] ^= '\xff';  // magic
    expect_rejected(b, "snapshot-bad-magic");
  }
  {
    std::string b = good;
    b[8] = 9;  // version field
    expect_rejected(b, "snapshot-version-skew");
  }
  {
    std::string b = good;
    b[24] ^= 0x01;  // payload length field
    expect_rejected(b, "snapshot-bad-length");
  }
  {
    std::string b = good;
    b[good.size() - 2] ^= 0x40;  // trailing CRC
    expect_rejected(b, "snapshot-crc-mismatch");
  }
}

TEST(LayoutSnapshot, MissingFileIsOpenFailed) {
  DiagEngine diag;
  const TempDir dir = temp_dir();
  EXPECT_EQ(geom::LayoutDB::load_snapshot(dir.path() + "/nope.snap", &diag),
            nullptr);
  ASSERT_FALSE(diag.diagnostics().empty());
  EXPECT_EQ(diag.diagnostics()[0].code, "snapshot-open-failed");
}

TEST(LayoutSnapshot, WithoutEngineLoaderThrowsDiagError) {
  const TempDir dir = temp_dir();
  const std::string path = dir.path() + "/bad.snap";
  spit(path, "definitely not a snapshot");
  try {
    geom::LayoutDB::load_snapshot(path);
    FAIL() << "expected DiagError";
  } catch (const DiagError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, "snapshot-truncated");
  }
}

}  // namespace
}  // namespace bisram
