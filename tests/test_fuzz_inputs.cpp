// Corpus-driven fuzz harness for the four user-facing front-ends (CIF
// reader, PLA plane reader, tech deck, LayoutDB snapshot loader). Two
// layers:
//
//   1. The committed garbage corpus in tests/fuzz_inputs/ — regression
//     inputs that once crashed, hung or leaked earlier readers (stoi
//     throws, int64 coordinate overflow, self-instancing shared_ptr
//     cycles, unbounded comment nesting). Replayed verbatim; the
//     asan-ubsan and fuzz-smoke CI legs run this suite sanitized.
//   2. A deterministic mutation fuzzer: valid inputs are mangled by a
//      fixed-seed Rng (byte flips, truncations, splices, insertions)
//      for a few hundred rounds per front-end; snapshot payloads are
//      also mangled behind a re-sealed CRC, so the decoder sees them.
//
// The contract under test: with a DiagEngine attached a parser NEVER
// throws — any garbage in, structured diagnostics out, bounded by the
// error cap; without one it throws SpecError (DiagError) and nothing
// else. Crashes and hangs fail the test by failing the process; leaks
// are caught by the ASan leg.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "geom/cif_reader.hpp"
#include "geom/layout_db.hpp"
#include "microcode/pla.hpp"
#include "tech/tech_file.hpp"
#include "util/checkpoint.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#ifndef BISRAM_TEST_DIR
#error "tests/CMakeLists.txt must define BISRAM_TEST_DIR"
#endif

namespace bisram {
namespace {

namespace fs = std::filesystem;

fs::path corpus_dir() { return fs::path(BISRAM_TEST_DIR) / "fuzz_inputs"; }

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.good()) << p;
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

std::vector<fs::path> corpus_files(const std::string& prefix,
                                   const std::string& skip = "") {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(corpus_dir())) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    if (!skip.empty() && name.find(skip) != std::string::npos) continue;
    out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  EXPECT_FALSE(out.empty()) << "no corpus files with prefix " << prefix;
  return out;
}

/// Drives one input through a front-end in both engine modes and
/// enforces the no-crash/no-foreign-exception contract.
template <typename ParseWithDiag, typename ParseLegacy>
void drive(const std::string& label, ParseWithDiag&& with_diag,
           ParseLegacy&& legacy) {
  DiagEngine eng(label);
  try {
    with_diag(eng);
  } catch (const std::exception& e) {
    FAIL() << label << ": diag-mode parse threw " << e.what();
  }
  EXPECT_LE(eng.diagnostics().size(), 64u) << label;
  try {
    legacy();
  } catch (const SpecError&) {
    // the legacy contract: SpecError (DiagError) and nothing else
  } catch (const std::exception& e) {
    FAIL() << label << ": legacy parse threw non-SpecError " << e.what();
  }
}

void drive_cif(const std::string& text, const std::string& label) {
  drive(
      label, [&](DiagEngine& eng) { geom::read_cif_string(text, &eng); },
      [&] { geom::read_cif_string(text); });
}

void drive_pla(const std::string& and_text, const std::string& or_text,
               const std::string& label) {
  drive(
      label,
      [&](DiagEngine& eng) {
        std::istringstream a(and_text), o(or_text);
        microcode::PlaPersonality::read_planes(a, o, &eng);
      },
      [&] {
        std::istringstream a(and_text), o(or_text);
        microcode::PlaPersonality::read_planes(a, o);
      });
}

void drive_tech(const std::string& text, const std::string& label) {
  drive(
      label, [&](DiagEngine& eng) { tech::read_tech_string(text, &eng); },
      [&] { tech::read_tech_string(text); });
}

// The snapshot loader reads files, not strings: stage the bytes in a
// per-process scratch file and drive that path through both modes.
void drive_snapshot_bytes(const std::string& bytes, const std::string& label) {
  const std::string path = ::testing::TempDir() + "bisram_fuzz_snap.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << path;
  }
  drive(
      label,
      [&](DiagEngine& eng) { geom::LayoutDB::load_snapshot(path, &eng); },
      [&] { geom::LayoutDB::load_snapshot(path); });
}

TEST(FuzzCorpus, CifFilesNeverCrash) {
  for (const fs::path& p : corpus_files("cif_"))
    drive_cif(slurp(p), p.filename().string());
}

TEST(FuzzCorpus, PlaFilePairsNeverCrash) {
  for (const fs::path& p : corpus_files("pla_", "_or")) {
    std::string or_name = p.string();
    const auto pos = or_name.rfind("_and");
    ASSERT_NE(pos, std::string::npos) << p;
    or_name.replace(pos, 4, "_or");
    drive_pla(slurp(p), slurp(or_name), p.filename().string());
    // Also cross the planes: OR rows in the AND slot and vice versa.
    drive_pla(slurp(or_name), slurp(p), p.filename().string() + " crossed");
  }
}

TEST(FuzzCorpus, TechFilesNeverCrash) {
  for (const fs::path& p : corpus_files("tech_"))
    drive_tech(slurp(p), p.filename().string());
}

TEST(FuzzCorpus, SnapshotFilesNeverCrash) {
  // snap_valid.bin is the corpus seed (it must load); every other
  // snap_* member is a framing/CRC/count/hash corruption the loader
  // must reject with one stable "snapshot-*" code, never a crash.
  for (const fs::path& p : corpus_files("snap_")) {
    const std::string name = p.filename().string();
    drive_snapshot_bytes(slurp(p), name);
    if (name == "snap_valid.bin") {
      EXPECT_NE(geom::LayoutDB::load_snapshot(p.string()), nullptr) << name;
    } else {
      DiagEngine eng(name);
      EXPECT_EQ(geom::LayoutDB::load_snapshot(p.string(), &eng), nullptr)
          << name;
      ASSERT_FALSE(eng.diagnostics().empty()) << name;
      EXPECT_EQ(eng.diagnostics()[0].code.rfind("snapshot-", 0), 0u) << name;
    }
  }
}

/// The first diagnostic code of loading `path` with a DiagEngine; ""
/// when it loads.
std::string snapshot_code(const std::string& path) {
  DiagEngine eng(path);
  if (geom::LayoutDB::load_snapshot(path, &eng) != nullptr) return "";
  return eng.diagnostics().empty() ? "<none>" : eng.diagnostics()[0].code;
}

TEST(FuzzCorpus, SnapshotExemplarsKeepTheirClass) {
  // One exemplar per rejection class; the ones past the CRC reach the
  // decoder or the census.
  const std::map<std::string, std::string> want = {
      {"snap_valid.bin", ""},
      {"snap_trunc_header.bin", "snapshot-truncated"},
      {"snap_bad_magic.bin", "snapshot-bad-magic"},
      {"snap_version_skew.bin", "snapshot-version-skew"},  // a v1 file
      {"snap_bad_length.bin", "snapshot-bad-length"},
      {"snap_flip_crc.bin", "snapshot-crc-mismatch"},
      {"snap_trunc_payload.bin", "snapshot-truncated"},
      {"snap_oversized_count.bin", "snapshot-bad-count"},
      {"snap_empty_rect.bin", "snapshot-bad-value"},
      {"snap_later_cell.bin", "snapshot-bad-value"},
      {"snap_own_cell.bin", "snapshot-bad-value"},
      {"snap_count_mismatch.bin", "snapshot-count-mismatch"},
      {"snap_too_deep.bin", "snapshot-too-deep"},
      {"snap_too_many_instances.bin", "snapshot-too-many-instances"},
      {"snap_hash_mismatch.bin", "snapshot-content-hash-mismatch"},
  };
  std::map<std::string, std::string> got;
  for (const fs::path& p : corpus_files("snap_"))
    got[p.filename().string()] = snapshot_code(p.string());
  EXPECT_EQ(got, want);
}

// --- deterministic mutation fuzzing ----------------------------------

/// Applies one seeded mutation: byte flip, truncation, slice
/// duplication, or random-byte insertion.
std::string mutate(std::string s, Rng& rng) {
  if (s.empty()) return std::string(1, static_cast<char>(rng.below(256)));
  const auto at = [&] { return static_cast<std::size_t>(rng.below(s.size())); };
  switch (rng.below(4)) {
    case 0:  // flip a byte
      s[at()] ^= static_cast<char>(1 + rng.below(255));
      return s;
    case 1:  // truncate
      return s.substr(0, at());
    case 2: {  // duplicate a slice somewhere else
      const std::size_t a = at();
      const std::size_t len =
          static_cast<std::size_t>(rng.below(s.size() - a)) + 1;
      s.insert(at(), s.substr(a, len));
      return s;
    }
    default:  // insert a random byte
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(at()),
               static_cast<char>(rng.below(256)));
      return s;
  }
}

constexpr int kRounds = 400;

TEST(FuzzMutation, CifReaderSurvivesSeededMangling) {
  const std::string seed_input =
      "DS 1 35 100;\n9 cell;\nL CMF;\nB 10 4 5 2;\nB 4 4 (c) -3 7;\nDF;\n"
      "DS 2 35 100;\n9 top;\nC 1 R 0 1 T 20 0;\nC 1 M X T 0 40;\nDF;\n"
      "C 2;\nE\n";
  Rng rng(0xC1F);
  std::string input = seed_input;
  for (int i = 0; i < kRounds; ++i) {
    input = mutate(input, rng);
    drive_cif(input, "cif mutation round " + std::to_string(i));
    if (input.size() > (std::size_t{1} << 16) || rng.chance(0.1)) input = seed_input;
  }
}

TEST(FuzzMutation, PlaReaderSurvivesSeededMangling) {
  const std::string seed_and = "# AND\n10-1\n-01-\n11--\n";
  const std::string seed_or = "# OR\n101\n010\n110\n";
  Rng rng(0x97A);
  std::string a = seed_and, o = seed_or;
  for (int i = 0; i < kRounds; ++i) {
    if (rng.chance(0.5))
      a = mutate(a, rng);
    else
      o = mutate(o, rng);
    drive_pla(a, o, "pla mutation round " + std::to_string(i));
    if (a.size() + o.size() > (std::size_t{1} << 16) || rng.chance(0.1)) {
      a = seed_and;
      o = seed_or;
    }
  }
}

TEST(FuzzMutation, SnapshotLoaderSurvivesSeededMangling) {
  const std::string seed_input =
      slurp(corpus_dir() / "snap_valid.bin");
  ASSERT_FALSE(seed_input.empty());
  Rng rng(0x5A9);
  std::string input = seed_input;
  for (int i = 0; i < kRounds; ++i) {
    input = mutate(input, rng);
    drive_snapshot_bytes(input, "snapshot mutation round " + std::to_string(i));
    if (input.size() > (std::size_t{1} << 16) || rng.chance(0.1))
      input = seed_input;
  }
}

TEST(FuzzMutation, SnapshotDecoderSurvivesPayloadMangling) {
  // Mangles only the payload, then re-seals the length field and the
  // CRC, so every round passes the framing and reaches the decoder; the
  // stored content hash stays as written.
  const std::string seed = slurp(corpus_dir() / "snap_valid.bin");
  constexpr std::size_t kHeader = 32;
  ASSERT_GT(seed.size(), kHeader + 4);
  const std::string seed_payload =
      seed.substr(kHeader, seed.size() - kHeader - 4);
  const auto seal = [&](const std::string& payload) {
    std::string doc = seed.substr(0, 24);
    for (int i = 0; i < 8; ++i)
      doc.push_back(static_cast<char>(
          (static_cast<std::uint64_t>(payload.size()) >> (8 * i)) & 0xff));
    doc += payload;
    const std::uint32_t crc = crc32(doc.data(), doc.size());
    for (int i = 0; i < 4; ++i)
      doc.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
    return doc;
  };
  const std::string path = ::testing::TempDir() + "bisram_fuzz_payload.bin";
  Rng rng(0xDEC);
  std::string payload = seed_payload;
  std::map<std::string, int> codes;
  for (int i = 0; i < kRounds; ++i) {
    payload = mutate(payload, rng);
    const std::string doc = seal(payload);
    drive_snapshot_bytes(doc, "payload mutation round " + std::to_string(i));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << doc;
    const std::string code = snapshot_code(path);
    ++codes[code.empty() ? "loaded" : code];
    if (payload.size() > (std::size_t{1} << 16) || rng.chance(0.1))
      payload = seed_payload;
  }
  fs::remove(path);
  std::cout << "payload mangling, " << kRounds << " rounds:";
  for (const auto& [code, n] : codes) std::cout << " " << code << " " << n;
  std::cout << "\n";
  EXPECT_EQ(codes.count("snapshot-crc-mismatch"), 0u);
  EXPECT_GT(codes.size(), 3u);  // the decoder's classes, not one gate
}

TEST(FuzzMutation, TechParserSurvivesSeededMangling) {
  const std::string seed_input =
      "# deck\nname fuzz.tech\nfeature_um 0.6\nmetals 3\n"
      "layer metal1 width 3 space 3\nrule contact_size 2\nvdd 5.0\n"
      "nmos vt0 0.7 kp 8e-5 lambda 0.05\nwire metal1 sheet 0.07 area "
      "3e-17 fringe 2e-17\n";
  Rng rng(0x7EC);
  std::string input = seed_input;
  for (int i = 0; i < kRounds; ++i) {
    input = mutate(input, rng);
    drive_tech(input, "tech mutation round " + std::to_string(i));
    if (input.size() > (std::size_t{1} << 16) || rng.chance(0.1)) input = seed_input;
  }
}

}  // namespace
}  // namespace bisram
