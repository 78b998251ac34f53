// LayoutDB persistence + incremental signoff benchmark on the Fig. 6
// macro (4096 words x 128 bpw, 8 bits/column, 4 spare rows — the 64 KB
// configuration the paper reports). Three measured phases:
//
//   cold        generate the hierarchy, flatten it into a LayoutDB at
//               the signoff tile size, then run the full DRC scan
//               and the full extraction. The acceptance denominator is
//               flatten + DRC + extract ("cold full flatten+scan");
//               generation is reported separately.
//   snapshot    write the database's hierarchy with
//               LayoutDB::save_snapshot and time LayoutDB::load_snapshot
//               reading it back, which flattens it again. This is the
//               reopen step of an edit session (bisbench's
//               edit_resignoff); the loaded database must hash
//               identically to the original.
//
// One run of a cold stage moves by up to 25% from process to process,
// more than most changes under test, so flatten, DRC, extraction and the
// snapshot load each run kRuns times in the process (each database
// freed before the next flatten or load). Each stage publishes its
// median under its key and every run beside it ("drc_s" and
// "drc_s_runs"); the process's peak resident set (VmHWM) at exit is
// published as peak_rss_mb.
//   incremental single-cell CellEdits applied through LayoutDB::apply
//               and re-signed-off through drc::IncrementalDrc /
//               extract::IncrementalExtract: a bit cell deep inside the
//               array is moved, moved back and moved again, and the
//               median of the three is published beside every run (the
//               first edit after the engines are built also pays the
//               allocator's deferred free-list work). One whole array
//               row is then moved as an edit of its own. Every
//               incremental result is verified against full
//               drc::check / extract::extract scans of the edited
//               database, outside the timing, before any number is
//               published.
//
// The default --json artifact is committed as BENCH_layoutdb.json and
// regenerated by the CI bench-smoke leg. The process exits nonzero if
// the loaded snapshot does not hash identically or an incremental result
// differs from its full scan, so a wrong answer can never silently
// refresh the committed artifact. Both speedups are published but not
// gated: they are ratios against the cold scan, which shrinks whenever
// DRC or extraction gets faster.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/bisramgen.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The Fig. 6 64 KB macro; --words/--bpw can shrink it for local smoke
/// runs, but the committed artifact always uses the defaults.
core::RamSpec fig6_spec(std::uint32_t words, int bpw) {
  core::RamSpec spec;
  spec.words = words;
  spec.bpw = bpw;
  spec.bpc = 8;
  spec.spare_rows = 4;
  spec.strap_interval = 32;
  spec.gate_size = 2.0;
  return spec;
}

std::string fresh_temp_dir() {
  char tmpl[] = "/tmp/bisram_layoutdb_bench.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) throw Error("bench_layoutdb: mkdtemp failed");
  return std::string(dir);
}

bool same_violations(const std::vector<drc::Violation>& a,
                     const std::vector<drc::Violation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const drc::Violation& x = a[i];
    const drc::Violation& y = b[i];
    if (!(x.kind == y.kind && x.layer == y.layer && x.a == y.a && x.b == y.b &&
          x.note == y.note && x.path_a == y.path_a && x.path_b == y.path_b))
      return false;
  }
  return true;
}

bool same_extraction(const extract::Extracted& a, const extract::Extracted& b) {
  if (a.net_count != b.net_count || !(a.port_net == b.port_net) ||
      !(a.net_cap_f == b.net_cap_f) || a.devices.size() != b.devices.size())
    return false;
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    const extract::Device& x = a.devices[i];
    const extract::Device& y = b.devices[i];
    if (!(x.type == y.type && x.gate == y.gate && x.source == y.source &&
          x.drain == y.drain && x.w_um == y.w_um && x.l_um == y.l_um &&
          x.path == y.path))
      return false;
  }
  return true;
}

std::size_t file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<std::size_t>(f.tellg()) : 0;
}

/// The process's peak resident set so far (VmHWM), in MB of 2^20 bytes.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// Runs of each cold stage and of the snapshot load per process.
constexpr int kRuns = 3;

/// One stage's wall times, one per run.
struct Runs {
  std::vector<double> s;

  double median() const {
    std::vector<double> v = s;
    std::sort(v.begin(), v.end());
    return v.empty() ? 0 : v[v.size() / 2];
  }
};

/// The wall times of one edit's re-signoff and whether it matches the
/// full scans.
struct EditTimes {
  double apply_s = 0, drc_s = 0, extract_s = 0;
  bool drc_identical = false, extract_identical = false;

  double signoff_s() const { return apply_s + drc_s + extract_s; }
};

struct Numbers {
  // cold pipeline
  double generate_s = 0;
  Runs flatten, drc, extract;
  double flatten_scan_s = 0;  // the acceptance denominator
  std::size_t shapes = 0, path_nodes = 0, violations = 0, devices = 0;
  int nets = 0;
  // snapshot round trip
  std::size_t snapshot_bytes = 0;
  double save_s = 0, load_speedup = 0;
  Runs load;
  bool hash_identical = false;
  // one-edit incremental signoff: the bit-cell edits, then the row move
  std::string edit;
  std::vector<std::string> edits;
  Runs apply, inc_drc, inc_extract, signoff;
  double signoff_speedup = 0;
  bool drc_identical = true, extract_identical = true;
  std::string row_edit;
  EditTimes row;
  double peak_rss_mb = 0;

  bool pass() const {
    return hash_identical && drc_identical && extract_identical &&
           row.drc_identical && row.extract_identical;
  }
};

const geom::Instance& child(const geom::Cell& c, const std::string& name) {
  for (const geom::Instance& i : c.instances())
    if (i.name == name) return i;
  throw Error("bench_layoutdb: no instance " + name + " in " + c.name());
}

/// Applies `e` and re-signs it off through both engines, timing each
/// step; then compares the engines with full scans (untimed).
EditTimes timed_edit(geom::LayoutDB& db, drc::IncrementalDrc& inc_drc,
                     extract::IncrementalExtract& inc_ext,
                     const geom::CellEdit& e, const tech::Tech& t) {
  EditTimes n;
  auto t0 = std::chrono::steady_clock::now();
  const geom::EditResult res = db.apply(e);
  n.apply_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  inc_drc.update(res);
  const std::vector<drc::Violation>& viol = inc_drc.report();
  n.drc_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  inc_ext.update(res);
  const extract::Extracted& ext = inc_ext.result();
  n.extract_s = seconds_since(t0);

  n.drc_identical = same_violations(viol, drc::check(db, t));
  n.extract_identical = same_extraction(ext, extract::extract(db, t));
  return n;
}

Numbers measure(std::uint32_t words, int bpw) {
  Numbers n;
  const core::RamSpec spec = fig6_spec(words, bpw);
  const tech::Tech& t = spec.resolved_technology();
  const geom::Coord tile = drc::tile_size_for(t);

  // --- cold: generate + flatten + full DRC + full extraction ---------
  auto t0 = std::chrono::steady_clock::now();
  const core::Generated gen = core::generate(spec);
  n.generate_s = seconds_since(t0);

  // Each run flattens a database of its own; the last one is kept for
  // the snapshot and the edit.
  std::unique_ptr<geom::LayoutDB> kept;
  for (int run = 0; run < kRuns; ++run) {
    kept.reset();
    t0 = std::chrono::steady_clock::now();
    auto db = std::make_unique<geom::LayoutDB>(*gen.top, tile);
    n.flatten.s.push_back(seconds_since(t0));
    n.shapes = db->shape_count();
    n.path_nodes = db->path_count();

    t0 = std::chrono::steady_clock::now();
    n.violations = drc::check(*db, t).size();
    n.drc.s.push_back(seconds_since(t0));

    t0 = std::chrono::steady_clock::now();
    const extract::Extracted cold_ext = extract::extract(*db, t);
    n.extract.s.push_back(seconds_since(t0));
    n.nets = cold_ext.net_count;
    n.devices = cold_ext.devices.size();
    kept = std::move(db);
  }
  geom::LayoutDB& db = *kept;
  n.flatten_scan_s = n.flatten.median() + n.drc.median() + n.extract.median();

  // --- snapshot: save the hierarchy, time the load back --------------
  const std::string dir = fresh_temp_dir();
  const std::string snap = dir + "/fig6.snap";
  t0 = std::chrono::steady_clock::now();
  db.save_snapshot(snap);
  n.save_s = seconds_since(t0);
  n.snapshot_bytes = file_bytes(snap);

  n.hash_identical = true;
  for (int run = 0; run < kRuns; ++run) {
    t0 = std::chrono::steady_clock::now();
    const std::unique_ptr<geom::LayoutDB> loaded =
        geom::LayoutDB::load_snapshot(snap);
    n.load.s.push_back(seconds_since(t0));
    n.hash_identical = n.hash_identical && loaded &&
                       loaded->content_hash() == db.content_hash();
  }
  std::filesystem::remove_all(dir);
  n.load_speedup =
      n.load.median() > 0 ? n.flatten_scan_s / n.load.median() : 0;

  // --- incremental: one bit cell deep in the array moves -------------
  // Engine construction is the session's initial full scan and is not
  // part of the per-edit cost being measured.
  drc::IncrementalDrc inc_drc(db, t);
  extract::IncrementalExtract inc_ext(db, t);

  const geom::Instance& array = child(*gen.top, "RAMARRAY");
  const geom::Instance& row7 = child(*array.cell, "row7");
  geom::CellEdit e;
  e.kind = geom::CellEdit::Kind::Move;
  e.path = "RAMARRAY/row7/b17";
  const geom::Transform moved = geom::Transform::translate(8, 4);
  const geom::Transform home = child(*row7.cell, "b17").transform;
  n.edit = "move " + e.path;
  const geom::Transform steps[] = {moved, home, moved};
  for (const geom::Transform& to : steps) {
    e.transform = to;
    const EditTimes r = timed_edit(db, inc_drc, inc_ext, e, t);
    n.edits.push_back(n.edit + (&to == &steps[1] ? " back" : ""));
    n.apply.s.push_back(r.apply_s);
    n.inc_drc.s.push_back(r.drc_s);
    n.inc_extract.s.push_back(r.extract_s);
    n.signoff.s.push_back(r.signoff_s());
    n.drc_identical = n.drc_identical && r.drc_identical;
    n.extract_identical = n.extract_identical && r.extract_identical;
  }
  n.signoff_speedup = n.signoff.median() > 0
                          ? n.flatten_scan_s / n.signoff.median()
                          : 0;

  // --- incremental: a whole array row moves --------------------------
  geom::CellEdit row;
  row.kind = geom::CellEdit::Kind::Move;
  row.path = "RAMARRAY/row7";
  row.transform = geom::Transform::translate(0, 8).compose(row7.transform);
  n.row_edit = "move " + row.path;
  n.row = timed_edit(db, inc_drc, inc_ext, row, t);
  n.peak_rss_mb = peak_rss_mb();
  return n;
}

/// `name` with the stage's median, and `name`_runs with every run.
void put_runs(JsonWriter& j, const std::string& name, const Runs& r) {
  j.key(name).value(r.median());
  j.key(name + "_runs").begin_array();
  for (double s : r.s) j.value(s);
  j.end_array();
}

int report(bool json, const std::string& json_path, std::uint32_t words,
           int bpw) {
  const Numbers n = measure(words, bpw);

  if (json) {
    JsonWriter j;
    j.begin_object();
    j.key("bench").value("layoutdb");
    j.key("macro").begin_object();
    j.key("words").value(static_cast<std::uint64_t>(words));
    j.key("bpw").value(bpw);
    j.key("bpc").value(8);
    j.key("spare_rows").value(4);
    j.key("strap_interval").value(32);
    j.key("gate_size").value(2.0);
    j.end_object();
    j.key("shapes").value(static_cast<std::uint64_t>(n.shapes));
    j.key("path_nodes").value(static_cast<std::uint64_t>(n.path_nodes));
    j.key("runs").value(kRuns);
    j.key("peak_rss_mb").value(n.peak_rss_mb);
    j.key("cold").begin_object();
    j.key("generate_s").value(n.generate_s);
    put_runs(j, "flatten_s", n.flatten);
    put_runs(j, "drc_s", n.drc);
    put_runs(j, "extract_s", n.extract);
    j.key("flatten_scan_s").value(n.flatten_scan_s);
    j.key("violations").value(static_cast<std::uint64_t>(n.violations));
    j.key("nets").value(n.nets);
    j.key("devices").value(static_cast<std::uint64_t>(n.devices));
    j.end_object();
    j.key("snapshot").begin_object();
    j.key("bytes").value(static_cast<std::uint64_t>(n.snapshot_bytes));
    j.key("bytes_per_shape")
        .value(n.shapes ? static_cast<double>(n.snapshot_bytes) /
                              static_cast<double>(n.shapes)
                        : 0.0);
    j.key("save_s").value(n.save_s);
    put_runs(j, "load_s", n.load);
    j.key("load_speedup_over_flatten_scan").value(n.load_speedup);
    j.key("hash_identical").value(n.hash_identical);
    j.end_object();
    j.key("incremental").begin_object();
    j.key("edit").value(n.edit);
    j.key("edits").begin_array();
    for (const std::string& name : n.edits) j.value(name);
    j.end_array();
    put_runs(j, "apply_s", n.apply);
    put_runs(j, "drc_s", n.inc_drc);
    put_runs(j, "extract_s", n.inc_extract);
    put_runs(j, "signoff_s", n.signoff);
    j.key("signoff_speedup_over_flatten_scan").value(n.signoff_speedup);
    j.key("drc_identical").value(n.drc_identical);
    j.key("extract_identical").value(n.extract_identical);
    j.end_object();
    j.key("row_move").begin_object();
    j.key("edit").value(n.row_edit);
    j.key("apply_s").value(n.row.apply_s);
    j.key("drc_s").value(n.row.drc_s);
    j.key("extract_s").value(n.row.extract_s);
    j.key("signoff_s").value(n.row.signoff_s());
    j.key("drc_identical").value(n.row.drc_identical);
    j.key("extract_identical").value(n.row.extract_identical);
    j.end_object();
    j.key("pass").value(n.pass());
    j.end_object();
    if (json_path.empty()) {
      std::printf("%s\n", j.str().c_str());
    } else {
      std::ofstream f(json_path);
      if (!f) {
        std::fprintf(stderr, "bench_layoutdb: cannot write %s\n",
                     json_path.c_str());
        return 2;
      }
      f << j.str() << '\n';
      std::printf("wrote %s\n", json_path.c_str());
    }
  } else {
    TextTable tab;
    tab.header({"phase", "seconds", "vs cold flatten+scan"});
    tab.row({"cold generate", strfmt("%.2f", n.generate_s), "-"});
    tab.row({"cold flatten", strfmt("%.2f", n.flatten.median()), "-"});
    tab.row({"cold DRC", strfmt("%.2f", n.drc.median()), "-"});
    tab.row({"cold extract", strfmt("%.2f", n.extract.median()), "-"});
    tab.row({"cold flatten+scan", strfmt("%.2f", n.flatten_scan_s), "1.0x"});
    tab.row({"snapshot load", strfmt("%.2f", n.load.median()),
             strfmt("%.1fx", n.load_speedup)});
    tab.row({"incremental signoff", strfmt("%.3f", n.signoff.median()),
             strfmt("%.1fx", n.signoff_speedup)});
    tab.row({"row move signoff", strfmt("%.3f", n.row.signoff_s()), "-"});
    std::fputs(tab.render().c_str(), stdout);
    std::printf("\n%zu shapes, %zu path nodes, %zu violation(s), %d nets, "
                "%zu devices; snapshot %.1f MB (%.2f B/shape)\n",
                n.shapes, n.path_nodes, n.violations, n.nets, n.devices,
                static_cast<double>(n.snapshot_bytes) / 1e6,
                n.shapes ? static_cast<double>(n.snapshot_bytes) /
                               static_cast<double>(n.shapes)
                         : 0.0);
    std::printf("stage times are medians of %d runs; peak RSS %.0f MB\n",
                kRuns, n.peak_rss_mb);
    std::printf("edits: %s (median of %zu); hash %s, DRC %s, extraction "
                "%s\n",
                n.edit.c_str(), n.edits.size(),
                n.hash_identical ? "identical" : "DIFFERS",
                n.drc_identical ? "identical" : "DIFFERS",
                n.extract_identical ? "identical" : "DIFFERS");
    std::printf("row edit: %s; DRC %s, extraction %s\n", n.row_edit.c_str(),
                n.row.drc_identical ? "identical" : "DIFFERS",
                n.row.extract_identical ? "identical" : "DIFFERS");
  }
  if (!n.pass()) {
    std::fprintf(stderr,
                 "bench_layoutdb: acceptance failed (hash=%d drc=%d "
                 "extract=%d row drc=%d row extract=%d)\n",
                 n.hash_identical ? 1 : 0, n.drc_identical ? 1 : 0,
                 n.extract_identical ? 1 : 0, n.row.drc_identical ? 1 : 0,
                 n.row.extract_identical ? 1 : 0);
    return 1;
  }
  return 0;
}

// --- micro-benchmarks on a small macro (skipped under --json) ---------

core::RamSpec small_spec() {
  core::RamSpec spec;
  spec.words = 64;
  spec.bpw = 8;
  spec.bpc = 4;
  spec.spare_rows = 4;
  spec.strap_interval = 16;
  return spec;
}

void BM_SnapshotRoundTrip(benchmark::State& state) {
  const core::RamSpec spec = small_spec();
  const core::Generated gen = core::generate(spec);
  const geom::LayoutDB db(*gen.top,
                          drc::tile_size_for(spec.resolved_technology()));
  const std::string dir = fresh_temp_dir();
  const std::string path = dir + "/bm.snap";
  for (auto _ : state) {
    db.save_snapshot(path);
    benchmark::DoNotOptimize(geom::LayoutDB::load_snapshot(path));
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SnapshotRoundTrip)->Unit(benchmark::kMillisecond);

void BM_ApplySingleMove(benchmark::State& state) {
  const core::RamSpec spec = small_spec();
  const core::Generated gen = core::generate(spec);
  geom::LayoutDB db(*gen.top,
                    drc::tile_size_for(spec.resolved_technology()));
  geom::CellEdit e;
  e.kind = geom::CellEdit::Kind::Move;
  e.path = "RAMARRAY/row3/b2";
  bool forward = true;
  for (auto _ : state) {
    // Alternate the translation so the database never drifts.
    e.transform = geom::Transform::translate(forward ? 8 : -8, 0);
    forward = !forward;
    benchmark::DoNotOptimize(db.apply(e));
  }
}
BENCHMARK(BM_ApplySingleMove)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  int words = 4096;
  int bpw = 128;
  Cli cli("bench_layoutdb",
          "Cold flatten+scan vs snapshot load vs incremental signoff on "
          "the Fig. 6 macro.");
  cli.value("--words", &words, "macro words (default: the Fig. 6 4096)")
      .value("--bpw", &bpw, "bits per word (default: the Fig. 6 128)")
      .optional_value("--json", &json, &json_path,
                      "emit the report as JSON (to FILE or stdout) and "
                      "skip the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  try {
    const int rc =
        report(json, json_path, static_cast<std::uint32_t>(words), bpw);
    if (rc != 0 || json) return rc;
  } catch (const bisram::Error& e) {
    std::fprintf(stderr, "bench_layoutdb: %s\n", e.what());
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
